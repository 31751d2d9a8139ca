"""Command-line interface.

Commands: id, types, isolate, config, define, embed, gen, verify.  JSON is
the machine format (`--format json`, keys sorted, byte-identical for
identical inputs and flags); text renders the same data, never more.

Exit codes: 0 success, 1 invariant violation (a failed verify suite or
certificate check), 2 structure parse error, 3 resource guard, 4 bad command
spec (a usage error, malformed literals, numbers, generator spec or suite
name, an empty seed list, or an unwritable output path).

`main` builds the argparse tree on its first call in a process and reuses it
for every later call there, dispatching through `COMMANDS` by command name;
a fresh `philab` process still builds it once.  When the first argument names
a command, that command's own parser reads the rest alone, so the top-level
parser does not scan every token first; it still reports unrecognized
arguments, and every other command line (none, `-h`, an unknown command) goes
through the whole tree.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .delta import ALL
from .errors import (
    InvariantError,
    LiteralClashError,
    PhilabError,
    ResourceLimitError,
    StructureParseError,
)
from .generators import (
    INTERVALS,
    UNIONS,
    EqRelSpec,
    gen_eqrel,
    gen_linear_order,
    gen_random_bounded,
    gen_shattered,
)
from .goodconfig import build_maximal, config_certificate
from .isolation import (
    embed_trace,
    find_isolating_subtype,
    isolated_extension,
    phi_defining_formula,
)
from .structure import BipartiteStructure, PhiType, parse_structure, serialize_structure
from .suites import SUITES
from .vc import independence_dimension

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_BAD_SPEC = 4

DEFAULT_ID_CAP = 6

#: Most seeds one `verify --seeds` run accepts; the default corpus uses 100.
SEEDS_LIMIT = 1000


class CliSpecError(PhilabError):
    """Malformed command arguments (exit 4)."""


# -- input sources -----------------------------------------------------------


def parse_generator_spec(spec: str) -> BipartiteStructure:
    """Inline generator grammar:

      shattered:K
      linear:POINTS[:b=I,J,...][:fill|:nofill]
      eqrel:P1,P2,...          (picks per class; class sizes are picks+1)
      random:FAMILY:SEED:X:Y   (FAMILY in {intervals, unions2})
    """
    head, _, rest = spec.partition(":")
    try:
        if head == "shattered":
            return gen_shattered(int(rest))
        if head == "linear":
            parts = rest.split(":") if rest else []
            if not parts or not parts[0]:
                raise CliSpecError("linear needs a point count")
            points = int(parts[0])
            b_indices: Optional[list[int]] = None
            fill = True
            for part in parts[1:]:
                if part.startswith("b="):
                    body = part[2:]
                    b_indices = [int(t) for t in body.split(",")] if body else []
                elif part == "fill":
                    fill = True
                elif part == "nofill":
                    fill = False
                else:
                    raise CliSpecError(f"unknown linear option {part!r}")
            # a range, so the generator's size guard runs before any list
            base = range(points) if b_indices is None else b_indices
            return gen_linear_order(points, base, fill)
        if head == "eqrel":
            picks = [int(t) for t in rest.split(",") if t]
            if not picks:
                raise CliSpecError("eqrel needs at least one pick count")
            return gen_eqrel(EqRelSpec([p + 1 for p in picks], picks))
        if head == "random":
            fields = rest.split(":")
            if len(fields) != 4:
                raise CliSpecError("random takes the form random:FAMILY:SEED:X:Y")
            family, seed, x_size, y_size = fields
            family = {"intervals": INTERVALS, "unions2": UNIONS}.get(family)
            if family is None:
                raise CliSpecError("random family must be intervals or unions2")
            return gen_random_bounded(int(seed), int(x_size), int(y_size), family)
    except (ValueError, CliSpecError) as exc:
        raise CliSpecError(f"bad generator spec {spec!r}: {exc}") from None
    raise CliSpecError(f"unknown generator family {head!r}")


def load_structure(args) -> BipartiteStructure:
    if args.input and args.gen:
        raise CliSpecError("give exactly one of -i/--input and --gen")
    if args.input:
        try:
            text = Path(args.input).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise StructureParseError(str(exc), 0) from None
        return parse_structure(text)
    if args.gen:
        return parse_generator_spec(args.gen)
    raise CliSpecError("an input source is required (-i or --gen)")


def parse_over(struct: BipartiteStructure, over: str) -> tuple[int, ...]:
    if over == "B":
        return struct.base_members()
    if over == "ALL":
        return tuple(range(struct.n))
    try:
        domain = tuple(int(t) for t in over.split(",") if t)
    except ValueError:
        raise CliSpecError(f"bad --over spec {over!r}") from None
    if len(set(domain)) != len(domain):
        raise CliSpecError(f"--over {over!r} repeats an index")
    return tuple(sorted(domain))


def parse_lits(spec: str) -> PhiType:
    pairs = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, sign = token.partition("=")
        if sign not in ("0", "1"):
            raise CliSpecError(f"bad literal {token!r}, expected <param>=0|1")
        if name[:1] in ("b", "y"):
            name = name[1:]
        try:
            pairs.append((int(name), int(sign)))
        except ValueError:
            raise CliSpecError(f"bad literal parameter {token!r}") from None
    try:
        return PhiType(pairs)
    except LiteralClashError as exc:
        raise CliSpecError(str(exc)) from None


def resolve_type(struct: BipartiteStructure, args) -> PhiType:
    if args.lits and args.of is not None:
        raise CliSpecError("give exactly one of --of and --lits")
    if args.lits:
        return parse_lits(args.lits)
    if args.of is not None:
        return struct.trace(args.of, parse_over(struct, args.over))
    raise CliSpecError("a type spec is required (--of or --lits)")


def parse_k_sat(value: str):
    if value == "all":
        return ALL
    try:
        k = int(value)
    except ValueError:
        raise CliSpecError("--k-sat must be `all` or a positive integer") from None
    if k < 1:
        raise CliSpecError("--k-sat must be >= 1")
    return k


# -- rendering ---------------------------------------------------------------


def emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def literals_json(p: PhiType) -> list[list[int]]:
    return [list(item) for item in p.items]


def on_base_json(struct: BipartiteStructure, formula) -> list[list[int]]:
    return [[b, int(formula.holds(b))] for b in struct.base_members()]


# -- commands ----------------------------------------------------------------


def cmd_id(args) -> int:
    struct = load_structure(args)
    if args.cap != "full" and not args.cap.isdecimal():
        raise CliSpecError(f"--cap must be `full` or an integer >= 0, not {args.cap!r}")
    cap = struct.n if args.cap == "full" else int(args.cap)
    report = independence_dimension(struct, cap)
    payload = {
        "id": report.id_value,
        "witness": list(report.witness),
        "capped": report.capped,
    }
    text = f"ID = {report.id_value}, witness = {list(report.witness)}"
    if report.capped:
        text += " (capped)"
    emit(args, payload, text)
    return EXIT_OK


def cmd_types(args) -> int:
    struct = load_structure(args)
    domain = parse_over(struct, args.over)
    space = struct.type_space(domain)
    full = len(space) == 2 ** len(domain)
    payload = {
        "domain": list(domain),
        "count": len(space),
        "independent": full,
        "types": [literals_json(t) for t in space],
    }
    lines = [f"{len(space)} types over {list(domain)}"
             f" ({'independent' if full else 'not independent'})"]
    for t in space:
        lines.append("  " + "".join(str(s) for _, s in t.items))
    emit(args, payload, "\n".join(lines))
    return EXIT_OK


def isolation_payload(struct, result) -> dict:
    formula = phi_defining_formula(struct, result.certificate)
    return {
        "type": literals_json(result.extension),
        "subtype": literals_json(result.certificate.subtype),
        "minimal": result.certificate.minimal,
        "config_pairs": [list(pair) for pair in result.configuration.pairs],
        "budget": {
            "2K": result.two_k,
            "2ID": result.two_id,
            "added": result.added_params,
            "ok": result.budget_ok,
        },
        "defining_formula": {
            "gamma": literals_json(formula.gamma),
            "on_base": on_base_json(struct, formula),
        },
        "diagnostic": result.diagnostic,
    }


def cmd_isolate(args) -> int:
    struct = load_structure(args)
    p = resolve_type(struct, args)
    result = isolated_extension(struct, p, parse_k_sat(args.k_sat))
    payload = isolation_payload(struct, result)
    text = (
        f"extension over {len(result.extension)} literals; "
        f"subtype size {result.certificate.size} "
        f"({'minimal' if result.certificate.minimal else 'greedy'}); "
        f"budget 2K={result.two_k} <= 2ID={result.two_id}; "
        f"diagnostic: {result.diagnostic or 'none'}"
    )
    emit(args, payload, text)
    return EXIT_OK


def cmd_config(args) -> int:
    struct = load_structure(args)
    p = resolve_type(struct, args)
    config = build_maximal(struct, p, args.strategy, parse_k_sat(args.k_sat))
    payload = config_certificate(struct, config)
    ok = payload["checker"]["ok"]
    text = (
        f"size {payload['size']} configuration, pairs {payload['pairs']}, "
        f"ID = {payload['id']}, bound {'ok' if payload['bound_ok'] else 'VIOLATED'}"
        + ("" if ok else ", certificate check FAILED")
    )
    emit(args, payload, text)
    return EXIT_OK if payload["bound_ok"] and ok else EXIT_VIOLATION


def cmd_define(args) -> int:
    struct = load_structure(args)
    p = resolve_type(struct, args)
    cert = find_isolating_subtype(struct, p)
    values = on_base_json(struct, phi_defining_formula(struct, cert))
    payload = {
        "type": literals_json(p),
        "gamma": literals_json(cert.subtype),
        "minimal": cert.minimal,
        "on_base": values,
    }
    text = (
        f"gamma = {payload['gamma']} (size {cert.size}); "
        f"psi on base = {values}"
    )
    emit(args, payload, text)
    return EXIT_OK


def cmd_embed(args) -> int:
    struct = load_structure(args)
    formula, result = embed_trace(struct, args.element, parse_k_sat(args.k_sat))
    # embed_trace raises InvariantError (exit 1) unless the formula matches
    # the element's row on every base parameter
    payload = {
        "element": args.element,
        "gamma": literals_json(formula.gamma),
        "on_base": on_base_json(struct, formula),
        "agrees": True,
        "diagnostic": result.diagnostic,
    }
    emit(args, payload, f"element {args.element}: psi matches its row on B: True")
    return EXIT_OK


def cmd_gen(args) -> int:
    struct = parse_generator_spec(args.gen)
    text = serialize_structure(struct)
    if args.out:
        meta = dict(struct.meta or {})
        sidecar = {
            "family": meta.pop("family", None),
            "x": struct.m,
            "y": struct.n,
            "detail": meta,
        }
        try:
            Path(args.out).write_text(text)
            Path(args.out).with_suffix(".meta.json").write_text(
                json.dumps(sidecar, sort_keys=True) + "\n"
            )
        except OSError as exc:
            raise CliSpecError(f"cannot write {args.out!r}: {exc}") from None
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _expand_seeds(spec: str) -> list[int]:
    try:
        if ".." in spec:
            lo, hi = map(int, spec.split(".."))
            seeds = range(lo, hi + 1)
            count = max(hi - lo + 1, 0)  # counted before it is listed
        else:
            seeds = [int(s) for s in spec.split(",") if s]
            count = len(seeds)
    except ValueError:
        raise CliSpecError(f"bad --seeds spec {spec!r}, expected LO..HI or A,B") from None
    if not count:
        raise CliSpecError(f"--seeds {spec!r} names no seed")
    if count > SEEDS_LIMIT:
        raise ResourceLimitError(f"--seeds guard: {count} seeds > {SEEDS_LIMIT}")
    return list(seeds)


def verify_structures(args) -> list[tuple[str, BipartiteStructure]]:
    if args.input:
        if args.seeds:
            raise CliSpecError("--seeds only applies to random generators")
        return [(args.input, load_structure(args))]
    if not args.gen:
        raise CliSpecError("verify needs -i or --gen")
    if args.seeds:
        seeds = _expand_seeds(args.seeds)
        if args.gen == "random":
            specs = [
                f"random:{fam}:{seed}:20:6"
                for fam in ("intervals", "unions2")
                for seed in seeds
            ]
        elif args.gen.startswith("random:"):
            # a malformed spec fails in parse_generator_spec with exit 4
            parts = args.gen.split(":")
            specs = [":".join(parts[:2] + [str(seed)] + parts[3:]) for seed in seeds]
        else:
            raise CliSpecError("--seeds only applies to random generators")
        return [(spec, parse_generator_spec(spec)) for spec in specs]
    return [(args.gen, parse_generator_spec(args.gen))]


def cmd_verify(args) -> int:
    suite = SUITES.get(args.suite)
    if suite is None:
        raise CliSpecError(
            f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}"
        )
    report = suite(verify_structures(args))
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        status = "pass" if report["ok"] else "FAIL"
        print(f"suite {report['suite']}: {status}")
        shown = report["counterexamples"][:3]
        for ce in shown:
            print(json.dumps(ce, sort_keys=True))
        rest = len(report["counterexamples"]) - len(shown)
        if rest:
            print(f"... and {rest} more (use --format json for all)")
    return EXIT_OK if report["ok"] else EXIT_VIOLATION


# -- wiring ------------------------------------------------------------------

#: Command name -> handler, looked up when `main` runs, so a rebinding of an
#: entry (a test's monkeypatch, the benchmark tracer) takes effect even after
#: the shared parser exists; the parser itself holds no handler.
COMMANDS = {
    "id": cmd_id,
    "types": cmd_types,
    "isolate": cmd_isolate,
    "config": cmd_config,
    "define": cmd_define,
    "embed": cmd_embed,
    "gen": cmd_gen,
    "verify": cmd_verify,
}


def _add_source_args(sub) -> None:
    sub.add_argument("-i", "--input", help="structure file path")
    sub.add_argument("--gen", help="inline generator spec")
    sub.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _add_type_args(sub) -> None:
    sub.add_argument("--of", type=int, help="element whose trace is the type")
    sub.add_argument(
        "--over", default="B", help="trace domain: B, ALL, or comma indices"
    )
    sub.add_argument("--lits", help="explicit literals, e.g. 3=1,7=0")


def _add_k_sat_arg(sub) -> None:
    sub.add_argument("--k-sat", default="all", help="`all` or a positive integer")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Usage errors exit 4: argparse's 2 is the parse error code here."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_SPEC, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser for the `philab` command line; `main` keeps one."""
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and its map of command name -> that command's
    parser, the `choices` of its subparsers action."""
    parser = _Parser(
        prog="philab",
        description="finite laboratory for partitioned-formula types",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("id", help="independence dimension")
    _add_source_args(sub)
    sub.add_argument("--cap", default=str(DEFAULT_ID_CAP), help="search cap or `full`")

    sub = subs.add_parser("types", help="type space over a domain")
    _add_source_args(sub)
    sub.add_argument("--over", default="ALL", help="domain: B, ALL, or comma indices")

    sub = subs.add_parser("isolate", help="isolated extension certificate")
    _add_source_args(sub)
    _add_type_args(sub)
    _add_k_sat_arg(sub)

    sub = subs.add_parser("config", help="maximal good configuration")
    _add_source_args(sub)
    _add_type_args(sub)
    _add_k_sat_arg(sub)
    sub.add_argument("--strategy", choices=("greedy", "exhaustive"), default="greedy")

    sub = subs.add_parser("define", help="defining formula of a type")
    _add_source_args(sub)
    _add_type_args(sub)

    sub = subs.add_parser("embed", help="defining formula for an element's trace")
    _add_source_args(sub)
    sub.add_argument("--element", type=int, required=True)
    _add_k_sat_arg(sub)

    sub = subs.add_parser("gen", help="emit a generated structure file")
    sub.add_argument("--gen", required=True, help="inline generator spec")
    sub.add_argument("-o", "--out", help="output path (sidecar written next to it)")

    sub = subs.add_parser("verify", help="run an invariant suite")
    _add_source_args(sub)
    sub.add_argument("--suite", required=True, help="|".join(sorted(SUITES)))
    sub.add_argument("--seeds", help="seed range for random generators, e.g. 0..99")

    return parser, subs.choices


_parser: Optional[argparse.ArgumentParser] = None
_commands: dict = {}  # command name -> its parser in _parser's tree


def main(argv: Optional[list[str]] = None) -> int:
    global _parser, _commands
    if _parser is None:
        # built on the first call, not at import; later calls in the same
        # process reuse it (parsing leaves no state on a parser)
        _parser, _commands = _build_parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = _commands.get(argv[0]) if argv else None
    if command is None:
        args = _parser.parse_args(argv)
    else:
        # what the tree does for a known command, minus its scan of the
        # whole argv: the command's parser reads the rest, and the top-level
        # parser reports what that parser did not recognize
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            _parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return COMMANDS[args.command](args)
    except StructureParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except PhilabError as exc:
        # bad literals, unknown elements/parameters, violated preconditions
        print(f"bad spec: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC


if __name__ == "__main__":
    sys.exit(main())
