"""Metamorphic relations: the answers do not depend on the order of the rows,
nor on repeated rows, and complementing columns only flips signs.

Each instance gets two seeded copies: one with its rows permuted, and one
with a quarter of its rows repeated and the whole shuffled.  Each copy must
have the same independence-dimension report as the original and, for every
base type at each strength k, the same pipeline answer.  `type_space` lists
types by first realizer, so the copies' base types are matched by value.

A third seeded copy complements a third of the columns.  Its answers are
the original's with each type's signs on those columns flipped, at k = ALL
only: at a finite k a pair's literals have fixed signs, so a flipped column
can legitimately change which extension steps exist.

These relations need no oracle, so they also reach structures past the
oracle's guards.
"""

import random

import pytest

import philab as pl
from philab.cli import parse_generator_spec
from philab.delta import ALL

CORPUS = [f"random:{family}:{seed}:20:6"
          for family in ("intervals", "unions2") for seed in range(25)]
STEP_CORPUS = ["random:intervals:4:60:16", "linear:40:b=0,5,10,15,20,25,30,35"]


def permuted(struct, rng):
    rows = list(struct.truth)
    rng.shuffle(rows)
    return pl.BipartiteStructure(tuple(rows), struct.base_set, struct.theta_set)


def with_repeats(struct, rng):
    rows = list(struct.truth)
    rows += rng.sample(rows, len(rows) // 4)
    rng.shuffle(rows)
    return pl.BipartiteStructure(tuple(rows), struct.base_set, struct.theta_set)


def complemented(struct, rng):
    """A copy with a seeded third of the columns complemented, and the map
    from a type of the original to its image in the copy."""
    flipped = frozenset(rng.sample(range(struct.n), struct.n // 3))
    rows = [tuple(v ^ (b in flipped) for b, v in enumerate(row)) for row in struct.truth]
    copy = pl.BipartiteStructure(tuple(rows), struct.base_set, struct.theta_set)
    return copy, lambda p: pl.PhiType([(b, s ^ (b in flipped)) for b, s in p.items])


def copies(spec):
    struct = parse_generator_spec(spec)
    rng = random.Random(spec)
    return struct, [permuted(struct, rng), with_repeats(struct, rng)]


def answer(result):
    """Every field of a pipeline run that does not name a row."""
    cert = result.certificate
    return (result.configuration.pairs, cert.subtype, cert.minimal,
            result.diagnostic, result.added_params, result.two_id)


def check_relations(spec, strengths):
    """Check every relation on the spec's copies; the number of runs on the
    original that took an extension step."""
    struct, transformed = copies(spec)
    report = pl.independence_dimension(struct)
    base_types = struct.type_space(struct.base_members())
    steps = 0
    for copy in transformed:
        assert pl.independence_dimension(copy) == report, spec
        assert set(copy.type_space(copy.base_members())) == set(base_types), spec
    for p in base_types:
        for k in strengths:
            result = pl.isolated_extension(struct, p, k)
            steps += result.configuration.size > 0
            for copy in transformed:
                assert answer(pl.isolated_extension(copy, p, k)) == answer(result), (spec, p, k)
    return steps


def test_row_order_and_repeats_change_no_answer():
    steps = sum(check_relations(spec, (ALL, 1, 2)) for spec in CORPUS + STEP_CORPUS)
    # the relations reach the step branch, not only the k = ALL no-step path
    assert steps == 11


def test_complemented_columns_flip_only_the_signs():
    flips = 0
    for spec in CORPUS + STEP_CORPUS:
        struct = parse_generator_spec(spec)
        copy, image = complemented(struct, random.Random(spec))
        assert pl.independence_dimension(copy) == pl.independence_dimension(struct), spec
        base_types = struct.type_space(struct.base_members())
        assert set(copy.type_space(copy.base_members())) == set(map(image, base_types)), spec
        for p in base_types:
            flips += image(p) != p
            pairs, subtype, *rest = answer(pl.isolated_extension(struct, p, ALL))
            expected = (pairs, image(subtype), *rest)
            assert answer(pl.isolated_extension(copy, image(p), ALL)) == expected, (spec, p)
    # 235 of the 274 base types have a literal on a complemented column
    assert flips == 235


@pytest.mark.parametrize("spec, types", [("random:unions2:1:800:48", 66)])
def test_wide_rung_at_strength_1(spec, types):
    struct = parse_generator_spec(spec)
    assert len(struct.type_space(struct.base_members())) == types
    assert check_relations(spec, (1,)) == 0
