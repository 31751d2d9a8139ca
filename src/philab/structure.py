"""Finite bipartite interpretations of a partitioned formula.

A structure is a total boolean matrix over rows (elements, the x-sort) and
columns (parameters, the y-sort), together with a designated base parameter
set B and a superset theta of parameters eligible for extensions.  All
higher modules (vc, delta, goodconfig, isolation) are pure functions over
these immutable structures, so everything here may be shared freely across
threads.

Entailment between types is realizer containment inside the fixed finite
structure, which stands in for a monster model; entailment over all models
of a theory is not computable at this scale and is out of scope.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .errors import (
    LiteralClashError,
    StructureParseError,
    UnknownElementError,
    UnknownParameterError,
)

FILE_HEADER = "# phi-structure v1"


@dataclass(frozen=True)
class PhiType:
    """A partial sign assignment to parameters: ``{b: sign}`` encodes the
    literal phi(x; b)^sign for each b in the domain.

    Immutable and hashable; the literal list is kept sorted by parameter so
    equal assignments compare and hash equal.
    """

    items: tuple[tuple[int, int], ...]

    def __init__(self, literals: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        pairs = literals.items() if isinstance(literals, Mapping) else literals
        seen: dict[int, int] = {}
        for param, sign in pairs:
            sign = int(sign)
            if sign not in (0, 1):
                raise ValueError(f"sign must be 0 or 1, got {sign!r}")
            if param in seen and seen[param] != sign:
                raise LiteralClashError(
                    f"parameter {param} assigned both signs"
                )
            seen[param] = sign
        object.__setattr__(self, "items", tuple(sorted(seen.items())))

    @property
    def literals(self) -> dict[int, int]:
        return dict(self.items)

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(param for param, _ in self.items)

    def union(self, other: "PhiType") -> "PhiType":
        """Combine literal sets; raises LiteralClashError on a sign conflict."""
        return PhiType(self.items + other.items)

    def is_subtype_of(self, other: "PhiType") -> bool:
        return set(self.items) <= set(other.items)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, param: int) -> bool:
        return any(p == param for p, _ in self.items)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.items)

    def __repr__(self) -> str:
        body = ", ".join(f"{p}↦{s}" for p, s in self.items)
        return f"PhiType({{{body}}})"


EMPTY_TYPE = PhiType()


_BOOLEANS = frozenset((0, 1))


def _is_boolean_row(row) -> bool:
    """Every entry equals 0 or 1, so True, False, 0.0 and 1.0 pass too."""
    try:
        if _BOOLEANS.issuperset(row):
            return True
    except TypeError:  # an unhashable entry: equality alone decides
        pass
    return all(v in (0, 1) for v in row)


@dataclass(frozen=True)
class BipartiteStructure:
    """Total truth matrix of phi(x; y) with designated B and theta sets.

    Invariants enforced at construction: the matrix is total, X is nonempty
    (so the empty type is consistent), and base_set <= theta_set <= Y.
    Rows and columns are identified by 0-based indices; results with set
    semantics are returned in declared index order for reproducibility.
    """

    truth: tuple[tuple[int, ...], ...]
    base_set: frozenset[int]
    theta_set: frozenset[int]
    meta: Optional[Mapping] = field(default=None, compare=False, repr=False, hash=False)
    #: per-structure memo of derived values (dimension, delta signatures,
    #: closed packs); sound because the structure is immutable
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.truth:
            raise ValueError("X must be nonempty")
        width = len(self.truth[0])
        for i, row in enumerate(self.truth):
            if len(row) != width:
                raise ValueError(f"row {i} has length {len(row)}, expected {width}")
            if not _is_boolean_row(row):
                raise ValueError(f"row {i} contains non-boolean entries")
        if not self.base_set <= self.theta_set:
            raise ValueError("base_set must be contained in theta_set")
        if self.theta_set and not self.theta_set <= set(range(width)):
            raise ValueError("theta_set contains unknown parameters")
        # Column bitmasks over rows; bit i of column_masks[b] = truth[i][b].
        # A column read from its last row up is the mask's binary numeral;
        # every row has `width` entries by now, so zip truncates nothing.
        masks = tuple(
            int("".join(["1" if v else "0" for v in reversed(column)]), 2)
            for column in zip(*self.truth)
        )
        object.__setattr__(self, "_column_masks", masks)
        object.__setattr__(self, "_full_mask", (1 << len(self.truth)) - 1)
        object.__setattr__(self, "n", width)  # |Y|, read by every parameter check

    @property
    def m(self) -> int:
        return len(self.truth)

    def check_element(self, a: int) -> None:
        if not (isinstance(a, int) and 0 <= a < self.m):
            raise UnknownElementError(f"unknown element {a!r}")

    def check_parameter(self, b: int) -> None:
        if not (isinstance(b, int) and 0 <= b < self.n):
            raise UnknownParameterError(f"unknown parameter {b!r}")

    # -- masks ------------------------------------------------------------

    def column_mask(self, b: int) -> int:
        self.check_parameter(b)
        return self._column_masks[b]

    def literal_mask(self, b: int, sign: int) -> int:
        """Bitmask of elements satisfying phi(x; b)^sign."""
        mask = self.column_mask(b)
        return mask if sign else mask ^ self._full_mask

    def type_mask(self, p: PhiType) -> int:
        return self.literals_mask(p.items)

    def literals_mask(self, items: Iterable[tuple[int, int]]) -> int:
        """Realizer bitmask of a bare literal list (no PhiType required)."""
        mask = self._full_mask
        for b, sign in items:
            mask &= self.literal_mask(b, sign)
            if not mask:
                return 0
        return mask

    # -- core operations ---------------------------------------------------

    def trace(self, a: int, params: Iterable[int]) -> PhiType:
        """The type of element a over the given parameters, read off the
        matrix.  trace(a, D) is always consistent: a realizes it."""
        self.check_element(a)
        pairs = []
        for b in params:
            self.check_parameter(b)
            pairs.append((b, self.truth[a][b]))
        return PhiType(pairs)

    def full_trace(self, a: int) -> PhiType:
        return self.trace(a, range(self.n))

    def realizers(self, p: PhiType) -> tuple[int, ...]:
        """Elements realizing every literal of p, in declared order.  The
        empty type is realized by all of X."""
        mask = self.type_mask(p)
        return tuple(i for i in range(self.m) if mask >> i & 1)

    def is_consistent(self, p: PhiType) -> bool:
        return self.type_mask(p) != 0

    def type_space(self, params: Iterable[int]) -> tuple[PhiType, ...]:
        """All realized types over the given parameters: the distinct traces
        of elements, ordered by first realizing element."""
        params = tuple(params)
        for b in params:
            self.check_parameter(b)
        # rows keyed by their values on params; dicts keep first-seen order
        classes = dict.fromkeys(tuple(row[b] for b in params) for row in self.truth)
        return tuple(PhiType(zip(params, values)) for values in classes)

    def entails(self, p0: PhiType, p: PhiType) -> bool:
        """Structure-relative entailment: every realizer of p0 realizes p."""
        return self.type_mask(p0) & ~self.type_mask(p) == 0

    def theta_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.theta_set))

    def base_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.base_set))


# -- file format -----------------------------------------------------------
#
#   line 1: `# phi-structure v1`
#   line 2: `X <m>`        line 3: `Y <n>`
#   line 4: `B <0-based Y indices>` (possibly none)
#   line 5: `THETA ALL` or `THETA <indices>`
#   line 6: `MATRIX`, followed by m rows of n characters from {0,1}
#
# serialize_structure emits the canonical form (sorted indices, `THETA ALL`
# whenever theta covers Y), so parse/serialize round-trips byte-identically
# on canonical files and is idempotent on all files.


def _parse_indices(body: str, n: int, lineno: int, label: str) -> frozenset[int]:
    indices = set()
    for tok in body.split():
        try:
            idx = int(tok)
        except ValueError:
            raise StructureParseError(f"bad {label} index {tok!r}", lineno) from None
        if not 0 <= idx < n:
            raise StructureParseError(
                f"{label} index {idx} out of range for Y of size {n}", lineno
            )
        indices.add(idx)
    return frozenset(indices)


def parse_structure(text: str) -> BipartiteStructure:
    """Parse the line-oriented structure format; every error names its line."""
    lines = text.splitlines()

    def get(i: int) -> str:
        if i >= len(lines):
            raise StructureParseError("unexpected end of file", i + 1)
        return lines[i].rstrip()

    if get(0) != FILE_HEADER:
        raise StructureParseError(f"expected header {FILE_HEADER!r}", 1)

    def parse_count(i: int, tag: str, minimum: int) -> int:
        parts = get(i).split()
        if len(parts) != 2 or parts[0] != tag:
            raise StructureParseError(f"expected `{tag} <count>`", i + 1)
        try:
            value = int(parts[1])
        except ValueError:
            raise StructureParseError(f"bad {tag} count {parts[1]!r}", i + 1) from None
        if value < minimum:
            raise StructureParseError(f"{tag} count must be >= {minimum}", i + 1)
        return value

    m = parse_count(1, "X", 1)
    n = parse_count(2, "Y", 0)

    b_line = get(3)
    if b_line != "B" and not b_line.startswith("B "):
        raise StructureParseError("expected `B <indices>`", 4)
    base = _parse_indices(b_line[1:], n, 4, "B")

    t_line = get(4)
    if t_line != "THETA" and not t_line.startswith("THETA "):
        raise StructureParseError("expected `THETA ALL` or `THETA <indices>`", 5)
    t_body = t_line[len("THETA"):].strip()
    if t_body == "ALL":
        theta = frozenset(range(n))
    else:
        theta = _parse_indices(t_body, n, 5, "THETA")
    if not base <= theta:
        raise StructureParseError("B is not contained in THETA", 5)

    if get(5) != "MATRIX":
        raise StructureParseError("expected `MATRIX`", 6)

    rows = []
    for i in range(m):
        lineno = 7 + i
        row = get(6 + i)
        if len(row) != n:
            raise StructureParseError(
                f"matrix row has length {len(row)}, expected {n}", lineno
            )
        for ch in row:
            if ch not in "01":
                raise StructureParseError(
                    f"invalid matrix character {ch!r}", lineno
                )
        rows.append(tuple(int(ch) for ch in row))
    for extra in range(6 + m, len(lines)):
        if lines[extra].strip():
            raise StructureParseError("unexpected content after matrix", extra + 1)

    return BipartiteStructure(tuple(rows), base, theta)


def serialize_structure(struct: BipartiteStructure) -> str:
    lines = [FILE_HEADER, f"X {struct.m}", f"Y {struct.n}"]
    b = " ".join(str(i) for i in struct.base_members())
    lines.append(f"B {b}".rstrip())
    if struct.theta_set == set(range(struct.n)):
        lines.append("THETA ALL")
    else:
        t = " ".join(str(i) for i in struct.theta_members())
        lines.append(f"THETA {t}".rstrip())
    lines.append("MATRIX")
    for row in struct.truth:
        lines.append("".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
