"""The minimum-cover kernel behind every smallest-subset search.

A family is a list of int bitmasks; a cover of `need` is an index set whose
masks' union contains every bit of `need`.  Isolating subtypes, witness
conjunctions, covering disjunctions and finite-k satisfiability all ask
which fewest masks cover a target.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import or_
from typing import Optional, Sequence

from .errors import ResourceLimitError

DEFAULT_COVER_LIMIT = 1 << 16


def least_cover(
    masks: Sequence[int],
    need: int,
    max_size: int,
) -> Optional[tuple[int, ...]]:
    """Smallest index set covering `need`, lexicographically least among
    those of equal size; None when no cover has at most `max_size` members.

    Candidates are tried by increasing size, in lexicographic order within a
    size.  Masks that agree on `need` collapse to their least index, and
    masks missing `need` entirely are dropped: a minimum cover never holds
    two interchangeable members, and swapping one for a lesser index keeps
    it a cover, so neither step changes the answer.  Raises
    ResourceLimitError on trying candidate DEFAULT_COVER_LIMIT + 1.
    """
    if need == 0:
        return ()
    least: dict[int, int] = {}
    for i, mask in enumerate(masks):
        if mask & need:
            least.setdefault(mask & need, i)
    if reduce(or_, least, 0) != need:
        return None
    family = [(i, mask) for mask, i in least.items()]  # in index order
    tried = 0
    for size in range(1, min(max_size, len(family)) + 1):
        for combo in combinations(family, size):
            tried += 1
            if tried > DEFAULT_COVER_LIMIT:
                raise ResourceLimitError(
                    f"cover search tried {DEFAULT_COVER_LIMIT} candidate sets"
                )
            if reduce(or_, (mask for _, mask in combo)) == need:
                return tuple(i for i, _ in combo)
    return None


def greedy_cover(masks: Sequence[int], need: int) -> Optional[tuple[int, ...]]:
    """Inclusion-minimal cover: starting from every index, drop each index in
    turn while the rest still cover `need`.  None when even the whole family
    misses part of `need`."""
    if reduce(or_, masks, 0) & need != need:
        return None
    kept = list(range(len(masks)))
    for i in range(len(masks)):
        trial = [j for j in kept if j != i]
        if reduce(or_, (masks[j] for j in trial), 0) & need == need:
            kept = trial
    return tuple(kept)


def least_or_greedy_cover(
    masks: Sequence[int], need: int
) -> tuple[Optional[tuple[int, ...]], bool]:
    """`least_cover`'s answer flagged minimal (True); past DEFAULT_COVER_LIMIT
    candidates, `greedy_cover`'s answer flagged False."""
    try:
        chosen = least_cover(masks, need, len(masks))
    except ResourceLimitError:
        chosen = None
    return (chosen, True) if chosen is not None else (greedy_cover(masks, need), False)
