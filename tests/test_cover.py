"""The minimum-cover kernel against a brute force over small families."""

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from philab import cover
from philab.cover import greedy_cover, least_cover, least_or_greedy_cover
from philab.errors import ResourceLimitError

BITS = 6

families = st.lists(st.integers(0, (1 << BITS) - 1), max_size=10)
needs = st.integers(0, (1 << BITS) - 1)


def union(masks, indices):
    out = 0
    for i in indices:
        out |= masks[i]
    return out


def brute_least(masks, need, max_size):
    for size in range(max_size + 1):
        for combo in combinations(range(len(masks)), size):
            if union(masks, combo) & need == need:
                return combo
    return None


@given(families, needs, st.integers(0, 10))
def test_least_cover_is_the_least_minimum_cover(masks, need, max_size):
    assert least_cover(masks, need, max_size) == brute_least(masks, need, max_size)


@given(families, needs)
def test_greedy_cover_is_inclusion_minimal(masks, need):
    kept = greedy_cover(masks, need)
    if union(masks, range(len(masks))) & need != need:
        assert kept is None
        return
    assert union(masks, kept) & need == need
    for i in kept:
        assert union(masks, [j for j in kept if j != i]) & need != need
    assert len(kept) >= len(brute_least(masks, need, len(masks)))


def test_limit_counts_candidate_sets(monkeypatch):
    # four disjoint singletons: the only cover is all four, found at candidate
    # 4 + 6 + 4 + 1 = 15 after every smaller subset failed
    masks = [1, 2, 4, 8]
    monkeypatch.setattr(cover, "DEFAULT_COVER_LIMIT", 15)
    assert least_cover(masks, 15, 4) == (0, 1, 2, 3)
    monkeypatch.setattr(cover, "DEFAULT_COVER_LIMIT", 14)
    with pytest.raises(ResourceLimitError):
        least_cover(masks, 15, 4)


def test_equal_masks_collapse_to_least_index():
    assert least_cover([0, 3, 3, 1], 3, 2) == (1,)
    assert least_cover([2, 1, 2, 1], 3, 2) == (0, 1)


def test_fallback_past_the_candidate_limit(monkeypatch):
    # greedy drops the covering index 0 first and keeps the four singletons
    masks = [15, 1, 2, 4, 8]
    assert least_or_greedy_cover(masks, 15) == ((0,), True)
    monkeypatch.setattr(cover, "DEFAULT_COVER_LIMIT", 0)
    assert least_or_greedy_cover(masks, 15) == ((1, 2, 3, 4), False)
    assert least_or_greedy_cover([1], 3) == (None, False)
