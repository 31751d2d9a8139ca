"""Independent brute-force reference implementations.

Everything here re-derives its answers straight from the definitions by
exhaustive enumeration over the truth matrix (never the structure's masks
or memo), deliberately sharing no code with the subject modules.  Each
public call reads truth once, as its distinct rows, and builds nothing it
keeps on the structure: realizer sets are intersections of per-column sets
of distinct-row positions (not bitmasks), built for the columns the call
reads; a subset is independent when the distinct rows, read as bitmasks
over Y, project onto it in 2^size distinct sign patterns (not cell
splitting); and a delta question about (c, zs) is one set of the (t, s)
patterns the rows realize (not the delta module's tables or signatures),
read by zipping the columns of the distinct rows.  A repeated row meets
exactly the literals its first occurrence meets and adds no pattern, so
every equality and emptiness test, and so every answer, is the same as
over all rows.  Guards are hard errors, never silent truncation, and an
unknown parameter is an error, never a negative index.  These back every
derived expected value and the differential acceptance suite.

The good-configuration enumeration skips only lists that cannot pass: every
sub-list of a good configuration, in any order, is good (each clause only
weakens on fewer pairs; `oracle_all_good_configs` gives the proof), so a
list is extended only by pairs that extended its parent list, and only by
pairs whose two-pair list with the list's last pair passes clause (iii).
Clause (iii) compares columns by class: for each selection of pair
members, theta is partitioned once per call by the patterns its columns
realize over B plus the selection, and two columns pass exactly when they
share a class.  The enumeration lists the empty type's good lists only; a
type's lists come only from filtering those with `oracle_configs_realized`,
whose docstring proves the filter exact.
"""

from __future__ import annotations

from itertools import combinations, compress, product
from operator import itemgetter

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


def _distinct_rows(struct: BipartiteStructure) -> list[bytes]:
    """The matrix's distinct rows as bytes of 0s and 1s, in first-seen
    order: the one read of struct.truth in each public call."""
    return list(dict.fromkeys(map(bytes, struct.truth)))


def _row_sets(rows: list[bytes], params) -> tuple[frozenset, dict]:
    """(every, sets): every is the set of positions in rows, the distinct
    rows, and sets[b][sign] the positions whose entry b has that sign, for
    each b in params (checked parameters); an entry is the int 0 or 1, so
    its truth is its sign."""
    every = frozenset(range(len(rows)))
    sets = {}
    for b in params:
        ones = frozenset(compress(range(len(rows)), map(itemgetter(b), rows)))
        sets[b] = (every - ones, ones)
    return every, sets


def _rows_satisfying(every: frozenset, sets: dict, literals) -> frozenset:
    """The positions in every meeting every literal; all of them when there
    is none."""
    return every.intersection(*[sets[b][sign] for b, sign in literals])


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
    every, sets = _row_sets(_distinct_rows(struct), dom)
    target = _rows_satisfying(every, sets, p.items)
    for size in range(len(dom) + 1):
        for subset in combinations(p.items, size):
            if _rows_satisfying(every, sets, subset) == target:
                return size
    raise AssertionError("p itself always has its own realizer set")


def _realized(columns: tuple, c: int, zs: tuple[int, ...], memo: dict) -> frozenset:
    """Every (t, s) for which some row has sign t at c and signs s at zs:
    the delta entries (zs, t, s) that hold of c, read by zipping the raw
    columns (columns[b] is column b of the distinct rows)."""
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
    columns = tuple(zip(*_distinct_rows(struct)))
    memo: dict = {}
    for chunk in combinations(entries, min(k, len(entries))):
        if not any(
            all(((t, s) in _realized(columns, b, zs, memo)) == value
                for (zs, t, s), value in chunk)
            for b in base
        ):
            return False
    return True


def _classes(
    columns: tuple,
    arity: int,
    theta: tuple[int, ...],
    domain: tuple[int, ...],
    memo: dict,
) -> dict[int, int]:
    """labels[c] for each c in theta: c0 and c1 share a label exactly when
    they realize the same (t, s) patterns on every arity-tuple over domain.
    Theta is refined by each column's pattern set, tuple by tuple in
    product order, and refining stops once every class is a singleton."""
    settled: list = []  # classes of one column, which no tuple splits
    pending = [theta]
    for zs in product(domain, repeat=arity):
        if not pending:
            break
        parts: dict = {}
        for i, cls in enumerate(pending):
            for c in cls:
                parts.setdefault((i, _realized(columns, c, zs, memo)), []).append(c)
        pending = []
        for part in parts.values():
            (pending if len(part) > 1 else settled).append(part)
    return {c: label for label, cls in enumerate(settled + pending) for c in cls}


def _clause_iii(pairs: tuple[tuple[int, int], ...], classes) -> bool:
    """Clause (iii) of a pair list: for each j and each selection of the
    other pairs' members, c_j^0 and c_j^1 share a class of
    classes(frozenset(selection)), the labels over B + those members."""
    for j, (c0, c1) in enumerate(pairs):
        for selection in product(*pairs[:j], *pairs[j + 1:]):
            labels = classes(frozenset(selection))
            if labels[c0] != labels[c1]:
                return False
    return True


def oracle_all_good_configs(
    struct: BipartiteStructure,
    max_k: int,
    arity: int,
) -> list[tuple[tuple[int, int], ...]]:
    """Every pair list of length <= max_k good for the empty type, in
    lexicographic order: (i) each pair lies in theta; (ii) the literals
    c_j^0 -> 0, c_j^1 -> 1 have a realizer; (iii) for each j and each
    selection s of the other pairs' members, c_j^0 and c_j^1 realize the
    same (t, s) patterns on every arity-tuple over B + {c_i^{s_i} : i != j},
    at the given arity (the suites pass oracle_vc's dimension).  A type's
    lists are these filtered by oracle_configs_realized.

    Every sub-list of a good list, in any order, is good: it draws from the
    same theta, its fewer literals keep every realizer of the full list,
    and each of its clause-(iii) domains is contained in a domain of the
    full list (extend the selection by any member of each dropped pair),
    where equality on every tuple over the larger domain gives it on every
    tuple over the smaller.  So the search extends a good list L only by a
    pair q for which the list L[:-1] + (q,), a sub-list of L + (q,), passed
    one level up; at the first level that means the pairs that pass alone.
    The two-pair list (last, q), last the final pair of a nonempty L, is a
    sub-list of L + (q,) too, so a q for which it fails is dropped before
    the whole list is checked: last's members must share a class over
    B + {q0} and over B + {q1}, and q's over B + {last0} and B + {last1}.
    Children are visited in theta-pair order, so the output is the
    lexicographic order of checking every list; the row-scan and naive
    generate-and-test references in the tests cross-check this.  Each list
    carries its realizer set, of distinct-row positions, down from every
    distinct row; the row sets and the pattern columns both come from one
    read of the distinct rows.  Clause (iii) reads one partition of theta
    per selection of members, built once per call when first read: c0 and
    c1 pass over B + the selection exactly when they share a class.
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
    rows = _distinct_rows(struct)
    every, sets = _row_sets(rows, theta)
    found: list[tuple[tuple[int, int], ...]] = [()]
    columns = tuple(zip(*rows))
    memo: dict = {}
    # selected members -> class labels over B + those members
    partitions: dict = {}

    def classes(selection: frozenset) -> dict[int, int]:
        labels = partitions.get(selection)
        if labels is None:
            domain = tuple(sorted(struct.base_set.union(selection)))
            labels = partitions[selection] = _classes(columns, arity, theta, domain, memo)
        return labels

    def agree(pair: tuple[int, int], member: int) -> bool:
        labels = classes(frozenset((member,)))
        return labels[pair[0]] == labels[pair[1]]

    def descend(
        prefix: tuple[tuple[int, int], ...],
        realizers: frozenset,
        candidates: list[tuple[int, int]],
    ) -> None:
        # candidates: the pairs that extended prefix's parent list; a sign
        # clash, within a pair or with an earlier literal, leaves no realizer
        last = prefix[-1] if prefix else None
        passing = []
        for pair in candidates:
            below = realizers & sets[pair[0]][0] & sets[pair[1]][1]
            if not below:
                continue
            if last and not (agree(last, pair[0]) and agree(last, pair[1])
                             and agree(pair, last[0]) and agree(pair, last[1])):
                continue
            if _clause_iii(prefix + (pair,), classes):
                passing.append((pair, below))
        extending = [pair for pair, _ in passing]
        for pair, below in passing:
            found.append(prefix + (pair,))
            if len(prefix) + 1 < max_k:
                descend(prefix + (pair,), below, extending)

    if max_k > 0:
        descend((), every, [(c0, c1) for c0 in theta for c1 in theta])
    return found


def oracle_configs_realized(
    struct: BipartiteStructure,
    p: PhiType,
    configs: list[tuple[tuple[int, int], ...]],
) -> list[tuple[tuple[int, int], ...]]:
    """The pair lists of configs, in their given order, for which p plus
    the literals c_j^0 -> 0, c_j^1 -> 1 has a realizer: clause (ii) for p.

    On configs = oracle_all_good_configs(struct, max_k, arity) this is
    every list of length <= max_k good for p at that arity, in
    lexicographic order.  Clauses (i) and (iii) do not mention the type.
    Clause (ii) for p implies clause (ii) for the empty type, since a
    realizer of p plus the literals realizes the literals.  So a list good
    for p is good for the empty type, and the empty type's enumeration,
    complete up to max_k, holds it; a list in that enumeration is good for
    p exactly when it passes clause (ii) for p.  Filtering keeps the order.
    """
    _check_parameters(struct, p.domain)
    params = {c for pairs in configs for pair in pairs for c in pair}
    _check_parameters(struct, params)
    every, sets = _row_sets(_distinct_rows(struct), params.union(p.domain))

    def realized(pairs: tuple[tuple[int, int], ...]) -> bool:
        literals = [(c, sign) for pair in pairs for c, sign in zip(pair, (0, 1))]
        return bool(_rows_satisfying(every, sets, (*p.items, *literals)))

    return [pairs for pairs in configs if realized(pairs)]
