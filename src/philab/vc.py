"""Shattering and independence dimension.

A parameter set C is independent when every sign pattern over C is realized
by some element; the independence dimension is the largest size of such a
set.  Both are decided by splitting realizer cells: the cells of C are the
row bitmasks realizing its 2^|C| sign patterns, one more column splits each
cell into its positive and negative part, and C is independent iff no cell
is empty.  The dimension search is exact and layered: supersets of a
dependent set are never independent, so each layer splits the cells of the
previous layer's survivors by one more column.  A finite structure always
has a finite dimension; the `capped` flag records that the search was cut
off below |Y| and some larger independent set exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .structure import BipartiteStructure


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
    cols = [struct.column_mask(b) for b in params]
    cells = [(1 << struct.m) - 1]
    for col in cols:
        cells = _split(cells, col)
        if cells is None:
            return False
    return True


def _extensions(layer, cols):
    """The independent one-column extensions of each (set, cells) survivor,
    in lexicographic order."""
    for c, cells in layer:
        for j in range(c[-1] + 1 if c else 0, len(cols)):
            split = _split(cells, cols[j])
            if split is not None:
                yield c + (j,), split


def independence_dimension(
    struct: BipartiteStructure, cap: int | None = None
) -> IndependenceReport:
    """Largest independent parameter set of size <= cap (default |Y|).

    The witness is the lexicographically least maximizer; `capped` is true
    iff some (cap+1)-set is still independent, i.e. the reported value is
    only a lower bound on the true dimension.
    """
    n = struct.n
    if cap is None:
        cap = n
    if cap < 0:
        raise ValueError("cap must be >= 0")

    cols = [struct.column_mask(b) for b in range(n)]
    layer = [((), [(1 << struct.m) - 1])]
    size = 0
    while size < cap:
        nxt = list(_extensions(layer, cols))
        if not nxt:
            return IndependenceReport(size, layer[0][0], False)
        layer = nxt
        size += 1
    # cap reached: capped iff the cap layer still has an extension
    capped = next(_extensions(layer, cols), None) is not None
    return IndependenceReport(size, layer[0][0], capped)


def cached_dimension(struct: BipartiteStructure) -> int:
    """Uncapped dimension, memoized per structure."""
    if "independence_dimension" not in struct._memo:
        struct._memo["independence_dimension"] = independence_dimension(struct).id_value
    return struct._memo["independence_dimension"]
