"""Curated structure families.

Each generator compiles a concrete model into a bipartite structure, is a
deterministic function of its arguments, and attaches provenance metadata
mapping compiled parameters back to model-level objects (the CLI writes this
as a JSON sidecar next to emitted structure files).

The equivalence-relation family encodes the two conditions "x equals y" and
"x is equivalent to y" into one parameter triple (y, z, w): when z == w the
column is the equality indicator of y, otherwise the equivalence indicator.
Parameter tuples are flattened to opaque column indices so the core stays
single-column.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import index
from typing import Iterable

from .errors import ResourceLimitError
from .structure import BipartiteStructure, PhiType

EQREL_MODEL_CUBED_LIMIT = 1000
SHATTERED_K_LIMIT = 5
LINEAR_POINTS_LIMIT = 1024
RANDOM_X_LIMIT = 4096
RANDOM_Y_LIMIT = 512

INTERVALS = "intervals"
UNIONS = "unions_of_2_intervals"


@dataclass(frozen=True)
class EqRelSpec:
    """Class sizes of the model and, per class, how many members go into the
    base picks.  At least one class must keep a member out of the picks so a
    target element exists."""

    class_sizes: tuple[int, ...]
    b_picks: tuple[int, ...]

    def __init__(self, class_sizes: Iterable[int], b_picks: Iterable[int]):
        try:  # each read as an index, so True is 1 and 1.5 is refused
            object.__setattr__(self, "class_sizes", tuple(map(index, class_sizes)))
            object.__setattr__(self, "b_picks", tuple(map(index, b_picks)))
        except TypeError:
            raise ValueError("class sizes and picks must be ints") from None
        if len(self.class_sizes) != len(self.b_picks):
            raise ValueError("class_sizes and b_picks must have equal length")
        if not self.class_sizes:
            raise ValueError("at least one class is required")
        for size, picks in zip(self.class_sizes, self.b_picks):
            if size < 1:
                raise ValueError("class sizes must be >= 1")
            if not 0 <= picks <= size:
                raise ValueError("picks must satisfy 0 <= picks <= class size")
        if all(p == s for p, s in zip(self.b_picks, self.class_sizes)):
            raise ValueError("some class must keep a non-picked member")


def gen_eqrel(spec: EqRelSpec) -> BipartiteStructure:
    """Compile the equivalence-relation model.

    Rows are model elements grouped by class.  Columns are all triples
    (y, z, w) over the model, index (y*M + z)*M + w.  Each class's picked
    elements are its first b_picks members.  The base set holds, for every
    picked element b, the equality-coding triple (b, 0, 0) and the
    equivalence-coding triple (b, 0, 1); theta holds the same two triples
    for every element, so the non-picked ones add the stand-ins for an
    extension's fresh parameters.
    """
    sizes = spec.class_sizes
    total = sum(sizes)
    if total**3 > EQREL_MODEL_CUBED_LIMIT:
        raise ResourceLimitError(
            f"model of size {total} yields {total ** 3} triples,"
            f" over the limit {EQREL_MODEL_CUBED_LIMIT}"
        )
    class_of = [ci for ci, size in enumerate(sizes) for _ in range(size)]
    # x - class_of.index(ci) is x's position within its class
    picked = [x for x, ci in enumerate(class_of)
              if x - class_of.index(ci) < spec.b_picks[ci]]

    def tindex(y: int, z: int, w: int) -> int:
        return (y * total + z) * total + w

    # column (y, z, w) is y's equality column when z == w, else y's class column
    codes = [(bytes([x == y for x in range(total)]),
              bytes([class_of[x] == class_of[y] for x in range(total)])) for y in range(total)]
    columns = [codes[y][z != w] for y in range(total) for z in range(total) for w in range(total)]

    def coding_params(element: int) -> list[int]:
        return [tindex(element, 0, w) for w in range(min(2, total))]

    base = frozenset(p for b in picked for p in coding_params(b))
    theta = frozenset(p for x in range(total) for p in coding_params(x))

    meta = {
        "family": "eqrel",
        "class_sizes": sizes,
        "b_picks": spec.b_picks,
        "model_size": total,
        "class_of": tuple(class_of),
        "picked": tuple(picked),
        "eq_param": {e: tindex(e, 0, 0) for e in range(total)},
        "e_param": {e: tindex(e, 0, 1) for e in range(total) if total >= 2},
    }
    return BipartiteStructure.from_columns(total, columns, base, theta, meta)


def eqrel_triple_of(struct: BipartiteStructure, param: int) -> tuple[int, int, int]:
    """Model triple (y, z, w) a compiled eqrel parameter came from."""
    meta = struct.meta
    if not meta or meta.get("family") != "eqrel":
        raise ValueError("not an eqrel structure")
    total = meta["model_size"]
    return (param // (total * total), param // total % total, param % total)


def eqrel_target_element(struct: BipartiteStructure, class_index: int) -> int:
    """First non-picked member of the class; the element whose base-set trace
    carries one positive equivalence literal per same-class pick."""
    meta = struct.meta
    if not meta or meta.get("family") != "eqrel":
        raise ValueError("not an eqrel structure")
    for x, ci in enumerate(meta["class_of"]):
        if ci == class_index and x not in meta["picked"]:
            return x
    raise ValueError(f"class {class_index} has no non-picked member")


def eqrel_target_type(struct: BipartiteStructure, class_index: int) -> PhiType:
    a = eqrel_target_element(struct, class_index)
    return struct.trace(a, struct.base_members())


def gen_linear_order(
    points: int, b_indices: Iterable[int] = (), fill_gaps: bool = True
) -> BipartiteStructure:
    """Strict order matrix: truth[a][b] = (a < b) over 0..points-1, with the
    given base columns; theta covers everything when fill_gaps is set, else
    just the base."""
    if points < 1:
        raise ValueError("points must be >= 1")
    if points > LINEAR_POINTS_LIMIT:
        raise ResourceLimitError(
            f"linear order of {points} points over the limit {LINEAR_POINTS_LIMIT}"
        )
    base = frozenset(b_indices)
    for b in base:
        if not 0 <= b < points:
            raise ValueError(f"base index {b} out of range")
    theta = frozenset(range(points)) if fill_gaps else base
    # column b holds a < b: b ones, then zeros
    columns = [b"\x01" * b + bytes(points - b) for b in range(points)]
    meta = {"family": "linear_order", "points": points, "fill_gaps": fill_gaps}
    return BipartiteStructure.from_columns(points, columns, base, theta, meta)


def gen_shattered(k: int) -> BipartiteStructure:
    """All 2^k sign patterns over k columns; the explicit negative control
    where no type over Y has a proper isolating subtype."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > SHATTERED_K_LIMIT:
        raise ResourceLimitError(f"shattered k = {k} over the limit {SHATTERED_K_LIMIT}")
    # column j holds bit k - 1 - j of each row index: row r reads r in binary
    columns = [bytes([r >> (k - 1 - j) & 1 for r in range(2**k)]) for j in range(k)]
    everything = frozenset(range(k))
    meta = {"family": "shattered", "k": k}
    return BipartiteStructure.from_columns(2**k, columns, everything, everything, meta)


def gen_random_bounded(
    seed: int,
    x_size: int,
    y_size: int,
    family: str = INTERVALS,
) -> BipartiteStructure:
    """Seeded geometric instance: columns are intervals (dimension <= 2) or
    unions of two intervals (dimension <= 4) over a point line, so every
    instance has a certifiably small dimension.  Base parameters are a
    seeded coin-flip subset of Y; theta is all of Y."""
    if family not in (INTERVALS, UNIONS):
        raise ValueError(f"unknown family {family!r}")
    if not 1 <= x_size <= RANDOM_X_LIMIT:
        raise ValueError(f"x_size must be in 1..{RANDOM_X_LIMIT}")
    if not 0 <= y_size <= RANDOM_Y_LIMIT:
        raise ValueError(f"y_size must be in 0..{RANDOM_Y_LIMIT}")
    rng = random.Random(f"{family}:{seed}:{x_size}:{y_size}")
    draws = range(2 if family == UNIONS else 1)
    columns = []
    for _ in range(y_size):
        column = bytearray(x_size)
        for _ in draws:  # mark the points lo..hi, drawn lo first
            lo, hi = rng.randrange(x_size), rng.randrange(x_size)
            if hi < lo:
                lo, hi = hi, lo
            column[lo:hi + 1] = b"\x01" * (hi + 1 - lo)
        columns.append(column)
    base = frozenset(b for b in range(y_size) if rng.random() < 0.5)
    meta = {"family": family, "seed": seed}
    return BipartiteStructure.from_columns(x_size, columns, base, frozenset(range(y_size)), meta)
