"""Shattering and independence dimension.

A parameter set C is independent when every sign pattern over C is realized
by some element; the independence dimension is the largest size of such a
set.  The search is exact layered subset search: supersets of a dependent
set are never independent, so each layer only extends the previous layer's
survivors.  A finite structure always has a finite dimension; the `capped`
flag records that the search was cut off below |Y| and some larger
independent set exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .structure import BipartiteStructure


@dataclass(frozen=True)
class IndependenceReport:
    id_value: int
    witness: tuple[int, ...]
    capped: bool


def is_phi_independent(struct: BipartiteStructure, params) -> bool:
    """True iff every sign pattern over the given parameters is consistent,
    equivalently iff the type space over them has full size 2^|C|."""
    cols = []
    for b in params:
        struct.check_parameter(b)
        cols.append(struct.column_mask(b))
    full = struct._full_mask
    for signs in product((1, 0), repeat=len(cols)):
        mask = full
        for col, s in zip(cols, signs):
            mask &= col if s else col ^ full
            if not mask:
                break
        if not mask:
            return False
    return True


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

    layer: list[tuple[int, ...]] = [()]
    best: tuple[int, ...] = ()
    size = 0
    while size < cap:
        nxt = []
        for c in layer:
            start = c[-1] + 1 if c else 0
            for j in range(start, n):
                cand = c + (j,)
                if is_phi_independent(struct, cand):
                    nxt.append(cand)
        if not nxt:
            return IndependenceReport(size, best, False)
        layer = nxt
        size += 1
        best = layer[0]
    # cap reached: capped iff some extension of a survivor is independent
    capped = False
    if cap < n:
        for c in layer:
            start = c[-1] + 1 if c else 0
            if any(
                is_phi_independent(struct, c + (j,)) for j in range(start, n)
            ):
                capped = True
                break
    return IndependenceReport(size, best, capped)


def cached_dimension(struct: BipartiteStructure) -> int:
    """Uncapped dimension, memoized per structure."""
    if "independence_dimension" not in struct._memo:
        struct._memo["independence_dimension"] = independence_dimension(struct).id_value
    return struct._memo["independence_dimension"]
