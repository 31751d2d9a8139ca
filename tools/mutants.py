"""A standing mutant check of the dimension search, the structure layer, the
exact skips in the oracle and the good-configuration checker, the delta
packer, the isolating-subtype and q-type searches, the cover kernel, the
suites, the generators and the command line.

Each mutant is one textual edit of a subject module: a prune made unsound,
a comparison moved by one, a sign swapped, a check dropped.  The script
applies each to a fresh temporary copy of `src/` and `tests/`, runs that
mutant's fast test subset there, and counts the mutant killed when the
subset fails.  Each subset is first run on an unmutated copy, and must
pass there.  It prints one line per mutant, the survivors and the kill
rate, and exits 1 when a mutant survives or no longer applies (its text is
gone from the module, or is there more than once), and 2 when a subset
fails unmutated or a mutant name is unknown.

    python tools/mutants.py            # every mutant
    python tools/mutants.py node-le    # the named mutants only

It is not part of the test suite: each mutant costs a pytest run.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

VC = "src/philab/vc.py"
STRUCTURE = "src/philab/structure.py"
ORACLE = "src/philab/oracle.py"
GOODCONFIG = "src/philab/goodconfig.py"
DELTA = "src/philab/delta.py"
ISOLATION = "src/philab/isolation.py"
COVER = "src/philab/cover.py"
SUITES = "src/philab/suites.py"
GENERATORS = "src/philab/generators.py"
CLI = "src/philab/cli.py"
PROPERTIES = "tests/test_properties.py::test_"
VC_TESTS = ("tests/test_vc.py",
            PROPERTIES + "dimension_matches_sign_pattern_search",
            PROPERTIES + "dimension_on_wide_structures_matches_sign_pattern_search",
            PROPERTIES + "independence_matches_sign_patterns")
ORACLE_TESTS = ("tests/test_oracle.py",
                PROPERTIES + "oracle_vc_matches_the_unpruned_loop",
                PROPERTIES + "oracle_good_configs_match_row_scans")
GOODCONFIG_TESTS = ("tests/test_goodconfig.py",
                    PROPERTIES + "clause_iii_entry_matches_the_checker")
DELTA_TESTS = ("tests/test_delta.py",
               PROPERTIES + "pack_literals_matches_the_string_packer",
               PROPERTIES + "pack_literals_edges")
STRUCTURE_TESTS = ("tests/test_structure.py",
                   PROPERTIES + "matrix_check_matches_the_row_loop",
                   PROPERTIES + "truth_holds_tuples_of_0_1_ints",
                   PROPERTIES + "serialize_round_trips_every_accepted_matrix",
                   PROPERTIES + "type_space_and_trace_match_the_public_constructor",
                   PROPERTIES + "unsorted_lists_over_wide_structures_match_the_public_constructor",
                   PROPERTIES + "literal_pairs_match_checked_literal_masks",
                   PROPERTIES + "distinct_rows_and_type_spaces_match_row_scans",
                   PROPERTIES + "defining_and_psi_match_references_over_distinct_rows")
ISOLATION_TESTS = ("tests/test_isolation.py",)
Q_TESTS = ("tests/test_isolation.py",
           PROPERTIES + "q_realizer_checks_the_base_type_once",
           PROPERTIES + "q_harness_matches_the_product_loop")
COVER_TESTS = ("tests/test_cover.py",)
SUITES_TESTS = ("tests/test_suites.py",
                PROPERTIES + "defining_and_psi_match_references_over_distinct_rows")
GENERATORS_TESTS = ("tests/test_generators.py",)
CLI_FUZZ = "tests/test_cli_fuzz.py::test_"
CLI_TESTS = ("tests/test_cli.py",
             CLI_FUZZ + "shared_parser_answers_like_a_fresh_one",
             CLI_FUZZ + "a_known_command_is_read_by_its_parser_alone",
             CLI_FUZZ + "unrecognized_arguments_are_reported_by_the_top_level_parser")

#: (name, module, text, replacement, test arguments)
MUTANTS = [
    ("node-le", VC,
     "top[more] < 1 << (size + more)", "top[more] <= 1 << (size + more)", VC_TESTS),
    ("node-seen-not-ored", VC,
     "viable[i + 1:], seen | changes[j])", "viable[i + 1:], seen)", VC_TESTS),
    ("node-top-one-short", VC,
     "top[more] < 1 << (size + more)", "top[more - 1] < 1 << (size + more)", VC_TESTS),
    ("stop-at-bound-minus-one", VC,
     "stop = min(bound, cap + 1)", "stop = min(bound - 1, cap + 1)", VC_TESTS),
    ("change-bound-one-more-row", VC,
     "inner = (1 << (struct.m - 1)) - 1", "inner = (1 << struct.m) - 1", VC_TESTS),
    ("capped-at-cap", VC,
     "and bound > cap", "and bound >= cap", VC_TESTS),
    ("viable-le-need", VC,
     "if len(viable) < need:", "if len(viable) <= need:", VC_TESTS),
    ("sibling-break-le", VC,
     "if size + len(viable) - i < len(firsts):", "if size + len(viable) - i <= len(firsts):",
     VC_TESTS),
    ("split-keeps-full-part", VC,
     "if not pos or pos == cell:", "if not pos:", VC_TESTS),
    ("pigeonhole-off-by-one", VC,
     "if 1 << len(params) > struct.m:", "if 1 << len(params) >= struct.m:", VC_TESTS),
    ("row-length-check-skipped", STRUCTURE,
     "if len(row) != width:", "if False:", STRUCTURE_TESTS),
    ("truth-read-by-equality", STRUCTURE,
     "bytes(map(bool, column))", "bytes([v == 1 for v in column])", STRUCTURE_TESTS),
    ("truth-not-stored", STRUCTURE,
     'object.__setattr__(self, "truth", tuple(zip(*columns)) if columns else ((),) * m)',
     "pass", STRUCTURE_TESTS),
    ("masks-read-top-down", STRUCTURE,
     "int(c[::-1].translate(_BITS_TO_TEXT), 2)", "int(c.translate(_BITS_TO_TEXT), 2)",
     STRUCTURE_TESTS),
    ("literal-pairs-swapped", STRUCTURE,
     "(masks[b] ^ full, masks[b])", "(masks[b], masks[b] ^ full)",
     ("tests/test_goodconfig.py", "tests/test_isolation.py", "tests/test_delta.py")),
    ("sorted-params-allow-repeats", STRUCTURE,
     "type(b) is int and prev < b < n", "type(b) is int and prev <= b < n", STRUCTURE_TESTS),
    ("check-parameter-past-end", STRUCTURE,
     "0 <= b < self.n)", "0 <= b <= self.n)", STRUCTURE_TESTS),
    ("literals-mask-sign-swapped", STRUCTURE,
     "mask &= masks[b] if sign else masks[b] ^ full",
     "mask &= masks[b] ^ full if sign else masks[b]", STRUCTURE_TESTS),
    ("domain-left-unsorted", STRUCTURE,
     "tuple(sorted(set(map(index, self._checked_params(params)))))",
     "tuple(set(map(index, self._checked_params(params))))", STRUCTURE_TESTS),
    ("parameter-sets-kept-as-passed", STRUCTURE,
     "object.__setattr__(self, name, frozenset(map(index, params)))", "pass",
     STRUCTURE_TESTS),
    ("parameter-set-check-skipped", STRUCTURE,
     'raise ValueError(f"{name} contains unknown parameters")', "pass", STRUCTURE_TESTS),
    ("phitype-keeps-raw-parameter", STRUCTURE,
     "param, sign = index(param), index(sign)", "sign = index(sign)", STRUCTURE_TESTS),
    ("phitype-truncates-sign", STRUCTURE,
     "index(sign)", "int(sign)", STRUCTURE_TESTS),
    ("distinct-rows-keep-last", STRUCTURE,
     "firsts.setdefault(flat[i::m], i)", "firsts[flat[i::m]] = i", STRUCTURE_TESTS),
    ("distinct-rows-read-across", STRUCTURE,
     "flat[i::m]", "flat[i:i + m]", STRUCTURE_TESTS),
    ("from-columns-skips-bit-check", STRUCTURE,
     ' or flat.translate(None, b"\\x00\\x01"):', ":", STRUCTURE_TESTS),
    ("from-columns-skips-length-check", STRUCTURE,
     "not {m}.issuperset(map(len, columns)) or ", "", STRUCTURE_TESTS),
    ("theta-range-check-skipped", STRUCTURE,
     'raise ValueError("theta_set contains unknown parameters")', "pass", STRUCTURE_TESTS),
    ("parse-skips-character-check", STRUCTURE,
     'if row.strip("01"):', "if False:", STRUCTURE_TESTS),
    ("parse-reads-columns-across", STRUCTURE,
     "[bits[b::n] for b in range(n)]", "[bits[b * m:(b + 1) * m] for b in range(n)]",
     STRUCTURE_TESTS),
    ("vc-pigeonhole-ge", ORACLE,
     "1 << size > len(rows)", "1 << size >= len(rows)", ORACLE_TESTS),
    ("vc-skip-best-plus-one", ORACLE,
     "if size <= best or", "if size <= best + 1 or", ORACLE_TESTS),
    ("verdict-key-drops-selection", ORACLE,
     "key = (unordered, frozenset(selection))", "key = (unordered,)", ORACLE_TESTS),
    ("configs-filter-keeps-every-list", ORACLE,
     "if realized(pairs)]", "if True]", ORACLE_TESTS),
    ("configs-filter-drops-type-literals", ORACLE,
     "(*p.items, *literals)", "literals", ORACLE_TESTS),
    ("clause-iii-skips-last-pair", GOODCONFIG,
     "for j in range(k):", "for j in range(k - 1):", GOODCONFIG_TESTS),
    ("extension-scan-ignores-theta", GOODCONFIG,
     "return None  # (i)", "pass  # (i)", GOODCONFIG_TESTS),
    ("pack-bits-reversed", DELTA,
     "bytes(map(bool, masks))", "bytes(map(bool, masks[::-1]))", DELTA_TESTS),
    ("signature-memo-ignores-closed", DELTA,
     'key = ("signature", family.arity, c, cols, closed)',
     'key = ("signature", family.arity, c, cols)', DELTA_TESTS),
    ("closed-packs-from-length-2", DELTA,
     "lengths = range(1, r + 1) if closed and r else (r,)",
     "lengths = range(2, r + 1) if closed and r else (r,)", DELTA_TESTS),
    ("excluded-by-own-sign", ISOLATION,
     "pair[1 - sign]", "pair[sign]", ISOLATION_TESTS),
    ("holds-reads-positive-literal", ISOLATION,
     "literal_mask(b, 0) == 0", "literal_mask(b, 1) == 0", ISOLATION_TESTS),
    ("q-node-reads-generating-z", ISOLATION,
     "tuple([params[z] for z in zs])", "tuple([(*base, *q.generating)[z] for z in zs])",
     Q_TESTS),
    ("q-node-reads-generating-subject", ISOLATION,
     "_signature(struct, q.family, params[subject],",
     "_signature(struct, q.family, (*base, *q.generating)[subject],", Q_TESTS),
    # the last depth's blocks wrap round to depth 0, which no node reads
    ("q-block-filed-one-depth-late", ISOLATION,
     "blocks[depth].append(", "blocks[(depth + 1) % len(blocks)].append(", Q_TESTS),
    ("q-harness-reference-from-first-passing", ISOLATION,
     "dict(passing).get(q.generating)", "dict(passing).get(passing[0][0])", Q_TESTS),
    ("cover-keeps-last-index", COVER,
     "least.setdefault(mask & need, i)", "least[mask & need] = i", COVER_TESTS),
    ("cover-limit-ge", COVER,
     "tried > DEFAULT_COVER_LIMIT", "tried >= DEFAULT_COVER_LIMIT", COVER_TESTS),
    ("defining-reads-last-realizer", SUITES,
     "(mask & -mask).bit_length() - 1", "mask.bit_length() - 1", SUITES_TESTS),
    ("remark-reads-last-row", SUITES,
     "struct.trace(0, struct.base_members())", "struct.trace(struct.m - 1, struct.base_members())",
     SUITES_TESTS),
    ("remark-reports-keyed-by-pairs", SUITES,
     "key = (pairs, p)", "key = pairs", SUITES_TESTS),
    ("linear-order-not-strict", GENERATORS,
     'b"\\x01" * b + bytes(points - b)', 'b"\\x01" * (b + 1) + bytes(points - b - 1)',
     GENERATORS_TESTS),
    ("eqrel-picks-one-more", GENERATORS,
     "x - class_of.index(ci) < spec.b_picks[ci]", "x - class_of.index(ci) <= spec.b_picks[ci]",
     GENERATORS_TESTS),
    ("random-marks-keep-hi-below-lo", GENERATORS,
     "lo, hi = hi, lo", "pass", GENERATORS_TESTS),
    ("shattered-bits-reversed", GENERATORS,
     "r >> (k - 1 - j) & 1", "r >> j & 1", GENERATORS_TESTS),
    ("eqrel-codes-swapped", GENERATORS,
     "codes[y][z != w]", "codes[y][z == w]", GENERATORS_TESTS),
    ("eqrel-picks-read-as-passed", GENERATORS,
     "tuple(map(index, b_picks))", "tuple(b_picks)", GENERATORS_TESTS),
    ("delta-table-writable", DELTA,
     "MappingProxyType(table)", "table", DELTA_TESTS),
    ("seeds-guard-ge", CLI,
     "if count > SEEDS_LIMIT:", "if count >= SEEDS_LIMIT:", CLI_TESTS),
    ("dispatch-ignores-unrecognized", CLI,
     "if extras:", "if False:", CLI_TESTS),
    ("dispatch-reports-with-command-parser", CLI,
     "_parser.error(f\"unrecognized", "command.error(f\"unrecognized", CLI_TESTS),
]


def run_tests(tests: tuple[str, ...], edit: tuple[str, str, str] | None = None) -> str:
    """'passed' or 'failed': the tests run on a fresh copy of the tree with
    `edit`, a (module, text, replacement), applied; 'stale' when the text is
    not in the module exactly once."""
    with tempfile.TemporaryDirectory(prefix="philab-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        if edit is not None:
            module, text, replacement = edit
            path = copy / module
            source = path.read_text()
            if source.count(text) != 1:
                return "stale"
            path.write_text(source.replace(text, replacement))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=copy, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    return "passed" if result.returncode == 0 else "failed"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    # a subset that fails on the unmutated tree would kill every mutant
    for tests in dict.fromkeys(m[4] for m in chosen):
        if run_tests(tests) != "passed":
            print(f"fails unmutated: {' '.join(tests)}", file=sys.stderr)
            return 2
    outcomes = {}
    for name, module, text, replacement, tests in chosen:
        outcome = run_tests(tests, (module, text, replacement))
        outcomes[name] = {"failed": "killed", "passed": "survived"}.get(outcome, outcome)
        print(f"{outcomes[name]:8}  {name}  ({module})", flush=True)
    survivors = [name for name, outcome in outcomes.items() if outcome != "killed"]
    killed = len(outcomes) - len(survivors)
    print(f"killed {killed} of {len(outcomes)}"
          + (f"; not killed: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
