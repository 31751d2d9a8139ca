import random
from itertools import combinations, product

import pytest

import philab as pl
from philab.cover import least_cover
from philab.delta import ALL, DeltaFamily, _signature
from philab import goodconfig
from philab.goodconfig import GoodConfiguration, extend_type
from philab.isolation import QHarnessReport
from philab.vc import cached_dimension

S1_TEXT = """# phi-structure v1
X 4
Y 2
B 0 1
THETA ALL
MATRIX
00
01
10
11
"""


@pytest.fixture
def s1():
    """Fully shattered 4x2 structure: rows 00, 01, 10, 11."""
    return pl.parse_structure(S1_TEXT)


@pytest.fixture
def s2():
    """Chain: X = {0..4}, columns y1..y4 with truth[i][j] = (i < j+1)."""
    rows = tuple(tuple(1 if i < j else 0 for j in range(1, 5)) for i in range(5))
    return pl.BipartiteStructure(rows, frozenset(range(4)), frozenset(range(4)))


@pytest.fixture
def gap_chain():
    """Order on 0..11 with sparse base {0, 4, 8} and theta covering the gaps."""
    return pl.gen_linear_order(12, [0, 4, 8], fill_gaps=True)


def build_corpus():
    """The regression corpus: both random families over seeds 0..99, small
    shattered/linear/eqrel instances.  Criteria filter it by |Y| as stated."""
    out = []
    for fam in (pl.generators.INTERVALS, pl.generators.UNIONS):
        for seed in range(100):
            out.append((f"{fam}:{seed}", pl.gen_random_bounded(seed, 20, 6, fam)))
    for k in range(1, 5):
        out.append((f"shattered:{k}", pl.gen_shattered(k)))
    out.append(("linear:5", pl.gen_linear_order(5, [1, 2, 3, 4])))
    out.append(("linear:6:b=1,3", pl.gen_linear_order(6, [1, 3])))
    out.append(("linear:6:b=2,4:nofill", pl.gen_linear_order(6, [2, 4], False)))
    out.append(("linear:12:b=0,4,8", pl.gen_linear_order(12, [0, 4, 8])))
    out.append(("eqrel:1", pl.gen_eqrel(pl.EqRelSpec([2], [1]))))
    out.append(("eqrel:2", pl.gen_eqrel(pl.EqRelSpec([3], [2]))))
    out.append(("eqrel:1,1", pl.gen_eqrel(pl.EqRelSpec([2, 1], [1, 1]))))
    return out


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


# -- entries the matrix check accepts that are not the ints 0 and 1 ---------


class EqualsZero:
    """Unhashable, equal to 0 and truthy: accepted, and sets its bit."""

    __hash__ = None

    def __eq__(self, other):
        return other == 0


class TruthyZero:
    """Hashable, equal to 0 and truthy: accepted, and sets its bit, but a
    row holding it equals, as a tuple, the row with 0 in its place."""

    def __eq__(self, other):
        return other == 0

    def __hash__(self):
        return hash(0)


def row_bits(row):
    """A matrix row as the 0/1 ints the structure reads it as."""
    return tuple(1 if v else 0 for v in row)


def reference_finitely_satisfiable(s, family, c, domain, base, k=ALL):
    """Finite satisfiability on full dict tables: one disagreement set per
    table entry, and k holds iff no cover of the base by at most k of them
    exists; k = ALL, or k >= |base|, asks for a base table equal to c's."""
    dom = sorted(set(domain))
    base = sorted(set(base))
    if not base:
        return False
    table = pl.delta_type(s, family, c, dom).table
    others = [pl.delta_type(s, family, b, dom).table for b in base]
    if k is ALL or k >= len(base):
        return table in others
    disagree = [sum(1 << j for j, other in enumerate(others) if other[entry] != value)
                for entry, value in table.items()]
    return least_cover(disagree, (1 << len(base)) - 1, min(k, len(disagree))) is None


# -- the dimension search that tests every candidate column on all cells at
# once and never stops before its last node, kept as a reference for the
# cell-by-cell filter and the change bound ---------------------------------


def reference_independence_dimension(s, cap=None):
    """(report, tried): independence_dimension's answer from a column-major
    search with no change bound and no node guard, and the count of
    one-column extensions it tried, which the guard is checked against."""
    cap = s.n if cap is None else cap
    cols = [s.literal_mask(b, 1) for b in range(s.n)]
    firsts = [()]
    tried = 0

    def split(cells, col):
        out = []
        for cell in cells:
            pos = cell & col
            if not pos or pos == cell:
                return None
            out += (pos, cell ^ pos)
        return out

    def grow(c, cells, later):
        nonlocal tried
        tried += len(later)
        viable = []
        for j in later:
            if split(cells, cols[j]) is not None:
                if len(c) == cap:
                    return True
                viable.append(j)
        for i, j in enumerate(viable):
            if len(c) + len(viable) - i < len(firsts):
                break
            child = c + (j,)
            if len(child) == len(firsts):
                firsts.append(child)
            if grow(child, split(cells, cols[j]), viable[i + 1:]):
                return True
        return False

    capped = grow((), [(1 << s.m) - 1], range(s.n))
    return pl.IndependenceReport(len(firsts) - 1, firsts[-1], capped), tried


# -- the row-by-row matrix check with masks summed bit by bit, kept as a
# reference for the constructor's check and its derived columns -------------


def reference_matrix_columns(truth):
    """(columns, masks) as BipartiteStructure builds them after checking
    the matrix one row at a time; raises what that check raises."""
    if not truth:
        raise ValueError("X must be nonempty")
    width = len(truth[0])
    for i, row in enumerate(truth):
        if len(row) != width:
            raise ValueError(f"row {i} has length {len(row)}, expected {width}")
        try:
            boolean = frozenset((0, 1)).issuperset(row)
        except TypeError:
            boolean = False
        if not (boolean or all(v in (0, 1) for v in row)):
            raise ValueError(f"row {i} contains non-boolean entries")
    columns = tuple(bytes([1 if v else 0 for v in column]) for column in zip(*truth))
    masks = tuple(sum(1 << i for i, v in enumerate(column) if v) for column in columns)
    return columns, masks


# -- the row-scan oracle core, kept as a reference for the oracle's row sets,
# projection counting and realized-pattern sets ---------------------------


def reference_rows_satisfying(s, literals):
    literals = list(literals)
    rows = set()
    for a in range(s.m):
        if all(s.truth[a][b] == sign for b, sign in literals):
            rows.add(a)
    return rows


def reference_oracle_vc(s):
    """Every subset of Y against every sign pattern, one row scan each."""
    best = 0
    for size in range(s.n + 1):
        for subset in combinations(range(s.n), size):
            shattered = True
            for signs in product((0, 1), repeat=size):
                if not reference_rows_satisfying(s, zip(subset, signs)):
                    shattered = False
                    break
            if shattered:
                best = max(best, size)
    return best


def reference_oracle_vc_unpruned(s):
    """The bitmask loop over every nonempty subset of Y, with no subset
    skipped: the oracle's dimension before it skipped subsets that cannot
    raise the answer."""
    rows = {sum(1 << b for b, value in enumerate(row) if value)
            for row in dict.fromkeys(s.truth)}
    best = 0
    for subset in range(1, 1 << s.n):
        size = subset.bit_count()
        if len({row & subset for row in rows}) == 1 << size:
            best = max(best, size)
    return best


def reference_pack_literals(lits, c, ztuples):
    """The delta packer before it built its bits in one bytes pass: each
    entry becomes a "0" or "1" string, subject sign by subject sign, and the
    joined string is read in base 2."""
    bits = []
    for zs in ztuples:
        for level in lits[c]:
            level = [level]
            for z in zs:
                level = [mask & lit for mask in level for lit in lits[z]]
            bits.extend("1" if mask else "0" for mask in level)
    return int("".join(bits) or "0", 2)


def reference_oracle_min_isolating(s, p):
    target = reference_rows_satisfying(s, p.items)
    for size in range(len(p.domain) + 1):
        for subset in combinations(p.items, size):
            if reference_rows_satisfying(s, subset) == target:
                return size
    raise AssertionError("p itself always has its own realizer set")


def reference_delta_holds(s, c, zs, t, signs, memo):
    # one existential scan per (c, zs, t, signs)
    key = (c, zs, t, signs)
    hit = memo.get(key)
    if hit is None:
        hit = False
        for a in range(s.m):
            if s.truth[a][c] != t:
                continue
            if all(s.truth[a][z] == sign for z, sign in zip(zs, signs)):
                hit = True
                break
        memo[key] = hit
    return hit


def reference_oracle_finitely_satisfiable(s, table, base, k):
    entries = list(table.items())
    base = sorted(set(base))
    if not base:
        return False
    memo = {}
    for chunk in combinations(entries, min(k, len(entries))):
        if not any(
            all(reference_delta_holds(s, b, zs, t, signs, memo) == value
                for (zs, t, signs), value in chunk)
            for b in base
        ):
            return False
    return True


def reference_same_delta_type(s, arity, c0, c1, domain, memo):
    for zs in product(domain, repeat=arity):
        for t in (0, 1):
            for signs in product((0, 1), repeat=arity):
                if reference_delta_holds(s, c0, zs, t, signs, memo) != reference_delta_holds(
                    s, c1, zs, t, signs, memo
                ):
                    return False
    return True


def reference_clauses_hold(s, pairs, p, arity, memo):
    k = len(pairs)
    for c0, c1 in pairs:
        if c0 not in s.theta_set or c1 not in s.theta_set:
            return False
    literals = list(p.items)
    for c0, c1 in pairs:
        literals.append((c0, 0))
        literals.append((c1, 1))
    signs_seen = {}
    for b, sign in literals:
        if signs_seen.setdefault(b, sign) != sign:
            return False
    if not reference_rows_satisfying(s, signs_seen.items()):
        return False
    base = tuple(sorted(s.base_set))
    for signs in product((0, 1), repeat=k):
        for j in range(k):
            domain = tuple(
                sorted(set(base) | {pairs[i][signs[i]] for i in range(k) if i != j})
            )
            if not reference_same_delta_type(s, arity, pairs[j][0], pairs[j][1], domain, memo):
                return False
    return True


def reference_oracle_all_good_configs(s, p, max_k, arity):
    """The prefix-pruned enumeration in lexicographic order, on row scans."""
    theta = tuple(sorted(s.theta_set))
    all_pairs = [(c0, c1) for c0 in theta for c1 in theta]
    memo = {}
    found = []

    def descend(prefix):
        if reference_clauses_hold(s, prefix, p, arity, memo):
            found.append(prefix)
            if len(prefix) < max_k:
                for pair in all_pairs:
                    descend(prefix + (pair,))

    descend(())
    return found


def reference_oracle_all_good_configs_naive(s, p, max_k):
    """Generate-and-test over all pair lists of length <= max_k on row scans,
    no pruning, sorted; for tiny instances only (|theta| <= 4, max_k <= 2)."""
    theta = tuple(sorted(s.theta_set))
    assert len(theta) <= 4 and max_k <= 2, "naive enumeration is for tiny instances"
    for b in p.domain:
        s.check_parameter(b)
    arity = reference_oracle_vc(s)
    all_pairs = [(c0, c1) for c0 in theta for c1 in theta]
    memo = {}
    return sorted(
        prefix
        for k in range(max_k + 1)
        for prefix in product(all_pairs, repeat=k)
        if reference_clauses_hold(s, prefix, p, arity, memo)
    )


# -- the q-type's product loop, kept as a reference for its pruned search ---


def reference_component_literals(candidate):
    """Component order (c_{0,0}, c_{0,1}, c_{1,0}, ...): sign = index parity."""
    return tuple((c, j % 2) for j, c in enumerate(candidate))


def reference_check_q_realizer(s, q, candidate):
    """check_q_realizer with q'' read as every sub-conjunction of the base
    type, each checked on its own with the candidate's signed literals, and
    q''' as the candidate's whole signatures against the generating tuple's,
    each over the base members followed by its own tuple."""
    if any(c not in s.theta_set for c in candidate):
        return False
    literals = reference_component_literals(candidate)
    for size in range(len(q.base_type) + 1):
        for conj in combinations(q.base_type.items, size):
            try:
                combined = pl.PhiType(conj).union(pl.PhiType(literals))
            except pl.LiteralClashError:
                return False
            if not s.is_consistent(combined):
                return False
    def signatures(tup):
        params = (*s.base_members(), *tup)
        return tuple(_signature(s, q.family, c, params) for c in tup)

    return signatures(candidate) == signatures(q.generating)


def reference_q_harness(s, config):
    """q_harness as every theta tuple in product order, each decided by
    reference_check_q_realizer."""
    p = config.base_type
    q = pl.q_type(s, config)
    reference = pl.find_isolating_subtype(s, extend_type(p, config)).size
    passing = []
    checked = 0
    for candidate in product(s.theta_members(), repeat=q.component_count):
        checked += 1
        if reference_check_q_realizer(s, q, candidate):
            literals = reference_component_literals(candidate)
            p_cand = p.union(pl.PhiType(literals))
            passing.append((candidate, pl.find_isolating_subtype(s, p_cand).size))
    return QHarnessReport(reference, checked, tuple(passing))


# -- the remark suite with one enumeration per type, kept as a reference
# for the suite that filters the empty type's enumeration ----------------


def reference_remark_suite(structures):
    """remark_suite running the oracle's enumeration for each type and one
    harness per configuration and type, reports reused nowhere."""
    failures = []
    harness_runs = 0
    skipped = 0
    for name, struct in structures:
        try:
            arity = pl.oracle_vc(struct)
        except pl.ResourceLimitError:
            skipped += 2
            continue
        for p in (pl.PhiType(), struct.trace(0, struct.base_members())):
            try:
                configs = pl.oracle_all_good_configs(struct, p, min(2, arity + 1), arity)
            except pl.ResourceLimitError:
                skipped += 1
                continue
            max_size = max(len(c) for c in configs)
            maximal = [c for c in configs if len(c) == max_size]
            for pairs in maximal[:2]:
                try:
                    report = pl.q_harness(struct, GoodConfiguration(pairs, p))
                except pl.ResourceLimitError:
                    skipped += 1
                    continue
                harness_runs += 1
                if not report.ok:
                    bad = [
                        {"tuple": list(c), "size": size}
                        for c, size in report.passing
                        if size > report.reference_size
                    ]
                    detail = {
                        "pairs": [list(x) for x in pairs],
                        "reference_size": report.reference_size,
                        "offenders": bad,
                    }
                    structure = pl.serialize_structure(struct)
                    failures.append({"instance": name, "structure": structure, **detail})
    return {"suite": "remark", "harness_runs": harness_runs, "skipped_by_guard": skipped,
            "ok": not failures, "counterexamples": failures}


# -- the exhaustive configuration search over every permutation, kept as a
# reference for the search over strictly increasing lists ---------------


def reference_build_maximal_exhaustive(s, p, k_sat=ALL):
    """build_maximal(s, p, "exhaustive", k_sat) entering every good pair list
    in preorder, each node trying all |theta| * (|theta| - 1) pairs."""
    if not s.is_consistent(p):
        raise pl.PreconditionError("base type must be consistent")
    if not set(p.domain) <= s.base_set:
        raise pl.PreconditionError("base type domain must lie inside base_set")
    family = DeltaFamily(cached_dimension(s))
    if k_sat is not ALL:
        raise pl.PreconditionError("exhaustive search takes k_sat=ALL only")
    theta = s.theta_members()
    limit = goodconfig.DEFAULT_EXHAUSTIVE_THETA_LIMIT
    if len(theta) > limit:
        raise pl.ResourceLimitError(
            f"exhaustive search over |theta| = {len(theta)} exceeds {limit}"
        )
    all_pairs = [(d0, d1) for d0 in theta for d1 in theta if d0 != d1]
    best = GoodConfiguration((), p)

    def descend(config):
        nonlocal best
        for pair in all_pairs:
            cand = config.extended(pair)
            if pl.is_good_configuration(s, cand, family=family):
                if cand.size > best.size:
                    best = cand
                descend(cand)

    if not pl.is_good_configuration(s, best, family=family):
        raise pl.PreconditionError("empty configuration fails the checker")
    descend(best)
    return best


# -- the set-based random generator, kept as a reference for the
# column-first one --------------------------------------------------------


def reference_gen_random_bounded(seed, x_size, y_size, family=pl.generators.INTERVALS):
    """gen_random_bounded with each column a set of points and each row read
    off the sets, one membership test per entry."""

    if family not in (pl.generators.INTERVALS, pl.generators.UNIONS):
        raise ValueError(f"unknown family {family!r}")
    rng = random.Random(f"{family}:{seed}:{x_size}:{y_size}")

    def interval_mask():
        lo, hi = sorted((rng.randrange(x_size), rng.randrange(x_size)))
        return set(range(lo, hi + 1))

    columns = []
    for _ in range(y_size):
        points = interval_mask()
        if family == pl.generators.UNIONS:
            points |= interval_mask()
        columns.append(points)
    rows = tuple(
        tuple(1 if x in columns[b] else 0 for b in range(y_size))
        for x in range(x_size)
    )
    base = frozenset(b for b in range(y_size) if rng.random() < 0.5)
    meta = {"family": family, "seed": seed}
    return pl.BipartiteStructure(rows, base, frozenset(range(y_size)), meta)


# -- the row-route linear generator and parser, kept as references for the
# ones that hand byte columns to BipartiteStructure.from_columns ----------


def reference_gen_linear_order(points, b_indices=(), fill_gaps=True):
    """gen_linear_order building its rows one entry at a time."""
    base = frozenset(b_indices)
    theta = frozenset(range(points)) if fill_gaps else base
    rows = tuple(tuple(1 if a < b else 0 for b in range(points)) for a in range(points))
    meta = {"family": "linear_order", "points": points, "fill_gaps": fill_gaps}
    return pl.BipartiteStructure(rows, base, theta, meta)


def reference_gen_shattered(k):
    """gen_shattered building row r as r's k binary digits, high bit first."""
    rows = tuple(tuple(r >> (k - 1 - j) & 1 for j in range(k)) for r in range(2**k))
    everything = frozenset(range(k))
    return pl.BipartiteStructure(rows, everything, everything, {"family": "shattered", "k": k})


def reference_gen_eqrel(spec):
    """gen_eqrel building its rows one entry at a time: column (y, z, w)
    holds x == y when z == w, and x ~ y otherwise; meta is the generator's."""
    s = pl.gen_eqrel(spec)
    total, class_of = s.meta["model_size"], s.meta["class_of"]
    rows = tuple(
        tuple(int(x == y if z == w else class_of[x] == class_of[y])
              for y, z, w in product(range(total), repeat=3))
        for x in range(total))
    return pl.BipartiteStructure(rows, s.base_set, s.theta_set, s.meta)


def reference_parse_structure(text):
    """parse_structure reading the matrix one character at a time."""
    lines = text.splitlines()

    def get(i):
        if i >= len(lines):
            raise pl.StructureParseError("unexpected end of file", i + 1)
        return lines[i].rstrip()

    if get(0) != pl.structure.FILE_HEADER:
        raise pl.StructureParseError(f"expected header {pl.structure.FILE_HEADER!r}", 1)

    def parse_count(i, tag, minimum):
        parts = get(i).split()
        if len(parts) != 2 or parts[0] != tag:
            raise pl.StructureParseError(f"expected `{tag} <count>`", i + 1)
        try:
            value = int(parts[1])
        except ValueError:
            raise pl.StructureParseError(f"bad {tag} count {parts[1]!r}", i + 1) from None
        if value < minimum:
            raise pl.StructureParseError(f"{tag} count must be >= {minimum}", i + 1)
        return value

    m = parse_count(1, "X", 1)
    n = parse_count(2, "Y", 0)
    b_line = get(3)
    if b_line != "B" and not b_line.startswith("B "):
        raise pl.StructureParseError("expected `B <indices>`", 4)
    base = pl.structure._parse_indices(b_line[1:], n, 4, "B")
    t_line = get(4)
    if t_line != "THETA" and not t_line.startswith("THETA "):
        raise pl.StructureParseError("expected `THETA ALL` or `THETA <indices>`", 5)
    t_body = t_line[len("THETA"):].strip()
    if t_body == "ALL":
        theta = frozenset(range(n))
    else:
        theta = pl.structure._parse_indices(t_body, n, 5, "THETA")
    if not base <= theta:
        raise pl.StructureParseError("B is not contained in THETA", 5)
    if get(5) != "MATRIX":
        raise pl.StructureParseError("expected `MATRIX`", 6)
    rows = []
    for i in range(m):
        lineno = 7 + i
        row = get(6 + i)
        if len(row) != n:
            raise pl.StructureParseError(
                f"matrix row has length {len(row)}, expected {n}", lineno
            )
        for ch in row:
            if ch not in "01":
                raise pl.StructureParseError(f"invalid matrix character {ch!r}", lineno)
        rows.append(tuple(int(ch) for ch in row))
    for extra in range(6 + m, len(lines)):
        if lines[extra].strip():
            raise pl.StructureParseError("unexpected content after matrix", extra + 1)
    return pl.BipartiteStructure(tuple(rows), base, theta)


def same_structure(s, ref):
    """s equals ref, and so do the columns, masks, n and meta it derived."""
    return (s == ref and s.meta == ref.meta and s.n == ref.n
            and s._columns == ref._columns and s._column_masks == ref._column_masks
            and s._full_mask == ref._full_mask
            and [type(v) for row in s.truth for v in row] == [int] * (s.m * s.n))
