"""Shattering and independence dimension.

A parameter set C is independent when every sign pattern over C is realized
by some element; the independence dimension is the largest size of such a
set.  Both are decided by splitting realizer cells: the cells of C are the
row bitmasks realizing its 2^|C| sign patterns, one more column splits each
cell into its positive and negative part, and C is independent iff no cell
is empty, which needs at least 2^|C| rows.  The dimension search is exact
and depth-first: supersets of a dependent set are never independent, so
only an independent set's cells are split, and only by the later columns
that split every cell of its parent.  It filters that column list one cell
at a time and leaves a set as soon as too few columns remain to beat the
best size found.  It keeps the current path's cells and each path set's
list of such columns.  It also stops once it has found a set as large as
the change bound: k columns whose values change t_1..t_k times between
neighbouring rows cut the rows into at most 1 + sum t_i runs, so they
realize at most that many patterns, and an independent k-set needs
2^k <= 1 + the sum of the k largest change counts.  The same count prunes
every node: a set whose columns change between `seen` pairs of
neighbouring rows, plus r more columns, cuts the rows into at most
1 + seen + (the sum of the r largest change counts) runs, so the search
leaves a set once that falls short of 2^(its size + r) for the r columns
it needs to beat the best size found.  A finite structure always has a
finite dimension; the `capped` flag records that the search was cut off
below |Y| and some larger independent set exists.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate

from .errors import ResourceLimitError
from .structure import BipartiteStructure

DIMENSION_NODE_LIMIT = 1 << 23


@dataclass(frozen=True)
class IndependenceReport:
    id_value: int
    witness: tuple[int, ...]
    capped: bool


def _split(cells: list[int], col: int) -> list[int] | None:
    """Every cell's positive and negative part under one more column, or
    None at the first empty part."""
    out = []
    for cell in cells:
        pos = cell & col
        if not pos or pos == cell:
            return None
        out += (pos, cell ^ pos)
    return out


def is_phi_independent(struct: BipartiteStructure, params) -> bool:
    """True iff every sign pattern over the given parameters is consistent,
    equivalently iff the type space over them has full size 2^|C|.  Every
    parameter is checked first, so an unknown one raises whatever the data."""
    params = struct._checked_params(params)
    # 2^|C| patterns need as many distinct realizers; a repeated parameter
    # makes C dependent anyway, so counting it twice changes no answer
    if 1 << len(params) > struct.m:
        return False
    masks = struct._column_masks
    cells = [struct._full_mask]
    for b in params:
        cells = _split(cells, masks[b])
        if cells is None:
            return False
    return True


def _too_few_runs(seen: int, top: list[int], size: int, more: int) -> bool:
    """True when `size` columns whose change masks OR to `seen`, plus any
    `more` columns, cannot be independent: they cut the rows into at most
    1 + |seen| + top[more] runs, and so realize at most that many of the
    2^(size + more) sign patterns."""
    return 1 + seen.bit_count() + top[more] < 1 << (size + more)


def _change_counts(struct: BipartiteStructure) -> tuple[list[int], list[int], int]:
    """(changes, top, U).  Bit i of a column's change mask is set when rows
    i and i + 1 differ in it, read off its mask shifted by one row; top[r]
    is the sum of the r largest change counts, for r = 0..|Y|; U is the
    change bound, the largest k with 2^k <= 1 + top[k]: no independent set
    is larger."""
    inner = (1 << (struct.m - 1)) - 1
    changes = [(mask ^ (mask >> 1)) & inner for mask in struct._column_masks]
    top = list(accumulate(sorted(map(int.bit_count, changes), reverse=True), initial=0))
    # each count taken is at most the mean of those before it, so once 2^k
    # exceeds the run count it stays ahead and the first k that fails ends it
    bound = 0
    while bound < len(changes) and not _too_few_runs(0, top, 0, bound + 1):
        bound += 1
    return changes, top, bound


def independence_dimension(
    struct: BipartiteStructure, cap: int | None = None
) -> IndependenceReport:
    """Largest independent parameter set of size <= cap (default |Y|).

    The witness is the lexicographically least maximizer: preorder reaches
    sets of each size in lexicographic order, and the first one reached is
    kept.  `capped` is true iff some (cap+1)-set is still independent, i.e.
    the reported value is only a lower bound on the true dimension.  Raises
    ValueError unless cap is an int >= 0, and ResourceLimitError past
    DIMENSION_NODE_LIMIT one-column extensions tried.
    """
    n = struct.n
    if cap is None:
        cap = n
    try:
        cap = operator.index(cap)
    except TypeError:
        raise ValueError(f"cap must be an int, got {cap!r}") from None
    if cap < 0:
        raise ValueError("cap must be >= 0")

    cols = struct._column_masks
    changes, top, bound = _change_counts(struct)
    # no set beyond the bound is independent, so once one of its size is
    # found no larger one can be; at cap + 1 the search stops anyway
    stop = min(bound, cap + 1)
    firsts = [()]  # the first independent set reached at each size
    tried = 0

    def grow(c, cells, later, seen):
        """True as soon as an independent extension of c exceeds cap, or a
        set of size `stop` is found.  `later` holds the columns after c's
        last that split every cell of c's parent: a column leaving some cell
        unsplit leaves every part of that cell unsplit, so no other column
        can extend c.  `seen` is the OR of c's change masks."""
        nonlocal tried
        if len(firsts) > stop:
            return True
        tried += len(later)
        if tried > DIMENSION_NODE_LIMIT:
            raise ResourceLimitError(
                f"dimension search past {DIMENSION_NODE_LIMIT} extensions")
        size = len(c)
        # a child needs this many viable columns to beat the best size; no
        # superset of that size is independent when its columns' changes
        # leave too few runs, nor any larger one: 2^(size + r) doubles with
        # each column and top[r] grows by at most top[1] <= top[need].  Here
        # need <= stop <= U <= |Y|, so top[need] exists
        need = len(firsts) - size
        if _too_few_runs(seen, top, size, need):
            return False
        viable = later
        for cell in cells:
            viable = [j for j in viable if 0 != cell & cols[j] != cell]
            if len(viable) < need:
                return False
        if size == cap:
            return True
        for i, j in enumerate(viable):
            # c plus every viable column from j on is the largest set this
            # branch can reach; stop once it cannot beat the best size
            if size + len(viable) - i < len(firsts):
                break
            child = c + (j,)
            if len(child) == len(firsts):
                firsts.append(child)
            # split again rather than keep every viable column's cells
            # while its earlier siblings' subtrees run
            if grow(child, _split(cells, cols[j]), viable[i + 1:], seen | changes[j]):
                return True
        return False

    # a stop below cap + 1 proves that no (cap+1)-set is independent
    capped = grow((), [struct._full_mask], range(n), 0) and bound > cap
    return IndependenceReport(len(firsts) - 1, firsts[-1], capped)


def cached_dimension(struct: BipartiteStructure) -> int:
    """Uncapped dimension, memoized per structure."""
    if "independence_dimension" not in struct._memo:
        struct._memo["independence_dimension"] = independence_dimension(struct).id_value
    return struct._memo["independence_dimension"]
