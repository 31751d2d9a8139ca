"""Independent brute-force reference implementations.

Everything here re-derives its answers straight from the definitions by
exhaustive enumeration over the truth matrix (never the structure's columns
or masks), deliberately sharing no code with the subject modules.  Each
question reads the matrix once per public call, and builds nothing it keeps
on the structure: realizer sets are intersections of per-column row sets
(not bitmasks), built for the columns the call reads; a subset is
independent when the distinct rows, read as bitmasks over Y, project onto
it in 2^size distinct sign patterns (not cell splitting); and a delta
question about (c, zs) is one set of the (t, s) patterns the rows realize
(not the delta module's tables or signatures), read by zipping the columns
of the distinct rows, transposed once per public call.  A repeated row adds
no pattern, so reading distinct rows only changes no answer.  Guards are
hard errors, never silent truncation, and an unknown parameter is an error,
never a negative index.  These back every derived expected value and the
differential acceptance suite.

The good-configuration enumeration skips only lists that cannot pass: every
sub-list of a good configuration, in any order, is good (each clause only
weakens on fewer pairs; `oracle_all_good_configs` gives the proof), so a
list is extended only by pairs that extended its parent list.  Only clause
(ii) mentions the type, so a type's good lists are the empty type's good
lists that it realizes together with their literals:
`oracle_configs_realized` filters the empty type's enumeration down to a
type's, with the proof in its docstring.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Optional

from .errors import ResourceLimitError, UnknownParameterError
from .structure import BipartiteStructure, PhiType

VC_Y_LIMIT = 10
MIN_ISOLATING_DOM_LIMIT = 14
GOODCONFIG_THETA_LIMIT = 10
GOODCONFIG_MAX_K_LIMIT = 3
FINSAT_ENTRY_LIMIT = 12
FINSAT_K_LIMIT = 4

#: turns a row's bytes 0 and 1 into the text "0" and "1"
_BITS_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")


def _check_parameters(struct: BipartiteStructure, params) -> None:
    for b in params:
        if not (isinstance(b, int) and 0 <= b < struct.n):
            raise UnknownParameterError(f"unknown parameter {b!r}")


def _row_sets(struct: BipartiteStructure, params) -> dict[int, tuple[frozenset, frozenset]]:
    """rows[b][sign]: the rows whose column b has that sign, for each b in
    params (checked parameters)."""
    every = frozenset(range(struct.m))
    out = {}
    for b in params:
        ones = frozenset(a for a, row in enumerate(struct.truth) if row[b])
        out[b] = (every - ones, ones)
    return out


def _distinct_rows(struct: BipartiteStructure) -> list[bytes]:
    """The matrix's distinct rows as bytes of 0s and 1s, in first-seen
    order; a repeated row realizes no new pattern."""
    return list(dict.fromkeys(map(bytes, struct.truth)))


def _distinct_columns(struct: BipartiteStructure) -> tuple:
    """columns[b]: column b of the matrix's distinct rows."""
    return tuple(zip(*_distinct_rows(struct)))


def _rows_satisfying(struct: BipartiteStructure, rows, literals) -> frozenset:
    """The rows meeting every literal; every row when there is none."""
    sets = [rows[b][sign] for b, sign in literals]
    if not sets:
        return frozenset(range(struct.m))
    return sets[0].intersection(*sets[1:])


def oracle_vc(struct: BipartiteStructure) -> int:
    """Maximum size of an independent parameter set, by checking the
    nonempty subsets of Y: a subset is independent when the rows show all
    2^size sign patterns on it.  Subsets and the distinct rows are bitmasks
    over Y (bit b is column b), so a row's pattern on a subset is
    row & subset.  Two kinds of subset are skipped unchecked, since neither
    can raise the answer: those no larger than the best found so far, and
    those whose 2^size patterns outnumber the distinct rows (pigeonhole).
    The empty set is independent because X is nonempty."""
    n = struct.n
    if n > VC_Y_LIMIT:
        raise ResourceLimitError(f"oracle_vc guard: |Y| = {n} > {VC_Y_LIMIT}")
    # a row read from its last column back is its mask's binary numeral
    rows = {int(b"0" + row[::-1].translate(_BITS_TO_TEXT), 2)
            for row in _distinct_rows(struct)}
    best = 0
    for subset in range(1, 1 << n):
        size = subset.bit_count()
        if size <= best or 1 << size > len(rows):
            continue
        if len({row & subset for row in rows}) == 1 << size:
            best = size
    return best


def oracle_min_isolating(struct: BipartiteStructure, p: PhiType) -> int:
    """Minimum size of a subtype whose realizer set already equals p's,
    by checking every subset of p's literals."""
    dom = p.domain
    if len(dom) > MIN_ISOLATING_DOM_LIMIT:
        raise ResourceLimitError(
            f"oracle_min_isolating guard: |dom| = {len(dom)} > {MIN_ISOLATING_DOM_LIMIT}"
        )
    _check_parameters(struct, dom)
    rows = _row_sets(struct, dom)
    target = _rows_satisfying(struct, rows, p.items)
    for size in range(len(dom) + 1):
        for subset in combinations(p.items, size):
            if _rows_satisfying(struct, rows, subset) == target:
                return size
    raise AssertionError("p itself always has its own realizer set")


def _realized(columns: tuple, c: int, zs: tuple[int, ...], memo: dict) -> frozenset:
    """Every (t, s) for which some row has sign t at c and signs s at zs:
    the delta entries (zs, t, s) that hold of c, read by zipping the raw
    columns (columns[b] is column b of the truth matrix)."""
    key = (c, zs)
    hit = memo.get(key)
    if hit is None:
        if zs:
            patterns = zip(columns[c], zip(*[columns[z] for z in zs]))
        else:  # zip() of no columns is empty, not one () per row
            patterns = ((t, ()) for t in columns[c])
        hit = memo[key] = frozenset(patterns)
    return hit


def oracle_finitely_satisfiable(
    struct: BipartiteStructure,
    table: dict,
    base,
    k: int,
) -> bool:
    """Finite-k satisfiability of a delta table, keyed (zs, t, s) -> bool,
    in the base parameters: every min(k, |table|)-entry chunk of the table
    is matched by some base parameter on that chunk.  Enumerates every
    chunk; an empty base matches nothing."""
    entries = list(table.items())
    if len(entries) > FINSAT_ENTRY_LIMIT or k > FINSAT_K_LIMIT:
        raise ResourceLimitError(
            f"oracle_finitely_satisfiable guard: {len(entries)} entries, k = {k}"
        )
    if k < 1:
        raise ValueError("k must be >= 1")
    base = sorted(set(base))
    _check_parameters(struct, base)
    _check_parameters(struct, [z for (zs, _, _), _ in entries for z in zs])
    if not base:
        return False
    columns = _distinct_columns(struct)
    memo: dict = {}
    for chunk in combinations(entries, min(k, len(entries))):
        if not any(
            all(((t, s) in _realized(columns, b, zs, memo)) == value
                for (zs, t, s), value in chunk)
            for b in base
        ):
            return False
    return True


def _same_delta_type(
    columns: tuple,
    arity: int,
    c0: int,
    c1: int,
    domain: tuple[int, ...],
    memo: dict,
) -> bool:
    return all(
        _realized(columns, c0, zs, memo) == _realized(columns, c1, zs, memo)
        for zs in product(domain, repeat=arity)
    )


def oracle_all_good_configs(
    struct: BipartiteStructure,
    p: PhiType,
    max_k: int,
    arity: Optional[int] = None,
) -> list[tuple[tuple[int, int], ...]]:
    """Every pair list of length <= max_k passing the three clauses, in
    lexicographic order: (i) each pair lies in theta; (ii) p plus the
    literals c_j^0 -> 0, c_j^1 -> 1 has a realizer; (iii) for each j and
    each selection s of the other pairs' members, c_j^0 and c_j^1 realize
    the same (t, s) patterns on every arity-tuple over B + {c_i^{s_i} : i != j},
    where arity defaults to oracle_vc(struct).

    Every sub-list of a good list, in any order, is good: it draws from the
    same theta, its fewer literals keep every realizer of the full list,
    and each of its clause-(iii) domains is contained in a domain of the
    full list (extend the selection by any member of each dropped pair),
    where equality on every tuple over the larger domain gives it on every
    tuple over the smaller.  So the search extends a good list L only by a
    pair q for which the list L[:-1] + (q,), a sub-list of L + (q,), passed
    one level up; at the first level that means the pairs that pass alone.
    Children are visited in theta-pair order, so the output is the
    lexicographic order of checking every list; the row-scan and naive
    generate-and-test references in the tests cross-check this.  Each list
    carries its realizer set down, and each equality of an unordered pair
    over a domain is decided once per call: c0 and c1 realize the same
    patterns exactly when c1 and c0 do.
    """
    theta = tuple(sorted(struct.theta_set))
    if len(theta) > GOODCONFIG_THETA_LIMIT:
        raise ResourceLimitError(
            f"oracle_all_good_configs guard: |theta| = {len(theta)} > {GOODCONFIG_THETA_LIMIT}"
        )
    if max_k > GOODCONFIG_MAX_K_LIMIT:
        raise ResourceLimitError(
            f"oracle_all_good_configs guard: max_k = {max_k} > {GOODCONFIG_MAX_K_LIMIT}"
        )
    _check_parameters(struct, p.domain)
    if arity is None:
        arity = oracle_vc(struct)
    rows = _row_sets(struct, set(theta).union(p.domain))
    realizers = _rows_satisfying(struct, rows, p.items)
    if not realizers:
        return []
    found: list[tuple[tuple[int, int], ...]] = [()]
    columns = _distinct_columns(struct)
    memo: dict = {}
    # (unordered pair, selected members) -> clause-(iii) verdict over B +
    # those members, which is symmetric in the pair; a diagonal pair never
    # reaches it, so at most C(|theta|, 2) * (1 + |theta| + C(|theta|, 2))
    # entries
    equal: dict = {}

    def clause_iii(pairs: tuple[tuple[int, int], ...]) -> bool:
        for j, pair in enumerate(pairs):
            unordered = pair if pair[0] < pair[1] else pair[::-1]
            for selection in product(*pairs[:j], *pairs[j + 1:]):
                key = (unordered, frozenset(selection))
                verdict = equal.get(key)
                if verdict is None:
                    domain = tuple(sorted(struct.base_set.union(selection)))
                    verdict = equal[key] = _same_delta_type(
                        columns, arity, *pair, domain, memo
                    )
                if not verdict:
                    return False
        return True

    def descend(
        prefix: tuple[tuple[int, int], ...],
        realizers: frozenset,
        candidates: list[tuple[int, int]],
    ) -> None:
        # candidates: the pairs that extended prefix's parent list; a sign
        # clash, within a pair or with an earlier literal, leaves no realizer
        passing = []
        for pair in candidates:
            below = realizers & rows[pair[0]][0] & rows[pair[1]][1]
            if below and clause_iii(prefix + (pair,)):
                passing.append((pair, below))
        extending = [pair for pair, _ in passing]
        for pair, below in passing:
            found.append(prefix + (pair,))
            if len(prefix) + 1 < max_k:
                descend(prefix + (pair,), below, extending)

    if max_k > 0:
        descend((), realizers, [(c0, c1) for c0 in theta for c1 in theta])
    return found


def oracle_configs_realized(
    struct: BipartiteStructure,
    p: PhiType,
    configs: list[tuple[tuple[int, int], ...]],
) -> list[tuple[tuple[int, int], ...]]:
    """The pair lists of configs, in their given order, for which p plus
    the literals c_j^0 -> 0, c_j^1 -> 1 has a realizer: clause (ii) of
    oracle_all_good_configs for p.

    On configs = oracle_all_good_configs(struct, PhiType(), max_k, arity)
    this is oracle_all_good_configs(struct, p, max_k, arity), list for list
    and in the same lexicographic order.  Clauses (i) and (iii) do not
    mention the type.  Clause (ii) for p implies clause (ii) for the empty
    type, since a realizer of p plus the literals realizes the literals.  So
    a list good for p is good for the empty type, and the empty type's
    enumeration, complete up to max_k, holds it; a list in that enumeration
    is good for p exactly when it passes clause (ii) for p.  Filtering keeps
    the order, and the two enumerations list their lists in one order.
    """
    _check_parameters(struct, p.domain)
    params = {c for pairs in configs for pair in pairs for c in pair}
    _check_parameters(struct, params)
    rows = _row_sets(struct, params.union(p.domain))

    def realized(pairs: tuple[tuple[int, int], ...]) -> bool:
        literals = [(c, sign) for pair in pairs for c, sign in zip(pair, (0, 1))]
        return bool(_rows_satisfying(struct, rows, (*p.items, *literals)))

    return [pairs for pairs in configs if realized(pairs)]
