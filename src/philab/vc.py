"""Shattering and independence dimension.

A parameter set C is independent when every sign pattern over C is realized
by some element; the independence dimension is the largest size of such a
set.  Both are decided by splitting realizer cells: the cells of C are the
row bitmasks realizing its 2^|C| sign patterns, one more column splits each
cell into its positive and negative part, and C is independent iff no cell
is empty.  The dimension search is exact and depth-first: supersets of a
dependent set are never independent, so only an independent set's cells are
split by each later column, and only the current path's cells are kept.  A
finite structure always has a finite dimension; the `capped` flag records
that the search was cut off below |Y| and some larger independent set exists.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    equivalently iff the type space over them has full size 2^|C|."""
    cols = struct.column_masks(params)
    cells = [(1 << struct.m) - 1]
    for col in cols:
        cells = _split(cells, col)
        if cells is None:
            return False
    return True


def independence_dimension(
    struct: BipartiteStructure, cap: int | None = None
) -> IndependenceReport:
    """Largest independent parameter set of size <= cap (default |Y|).

    The witness is the lexicographically least maximizer: preorder reaches
    sets of each size in lexicographic order, and the first one reached is
    kept.  `capped` is true iff some (cap+1)-set is still independent, i.e.
    the reported value is only a lower bound on the true dimension.  Raises
    ResourceLimitError past DIMENSION_NODE_LIMIT one-column extensions.
    """
    n = struct.n
    if cap is None:
        cap = n
    if cap < 0:
        raise ValueError("cap must be >= 0")

    cols = struct.column_masks(range(n))
    firsts = [()]  # the first independent set reached at each size
    tried = 0

    def grow(c, cells):
        """True as soon as an independent extension of c exceeds cap."""
        nonlocal tried
        start = c[-1] + 1 if c else 0
        tried += n - start
        if tried > DIMENSION_NODE_LIMIT:
            raise ResourceLimitError(
                f"dimension search past {DIMENSION_NODE_LIMIT} extensions")
        for j in range(start, n):
            split = _split(cells, cols[j])
            if split is not None:
                if len(c) == cap:
                    return True
                if len(c) + 1 == len(firsts):
                    firsts.append(c + (j,))
                if grow(c + (j,), split):
                    return True
        return False

    capped = grow((), [(1 << struct.m) - 1])
    return IndependenceReport(len(firsts) - 1, firsts[-1], capped)


def cached_dimension(struct: BipartiteStructure) -> int:
    """Uncapped dimension, memoized per structure."""
    if "independence_dimension" not in struct._memo:
        struct._memo["independence_dimension"] = independence_dimension(struct).id_value
    return struct._memo["independence_dimension"]
