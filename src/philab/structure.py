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
from operator import index, itemgetter
from typing import Iterable, Optional, Sequence

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

    Immutable and hashable; literals are (plain int, 0 or 1) pairs sorted by
    parameter, so equal assignments compare and hash equal.  The one field
    lives in a slot, so a type carries no instance dict.  The slot is declared
    here, not by ``slots=True``, which would rebuild the class and leave its
    frozen __setattr__ raising TypeError for unknown names.
    """

    __slots__ = ("items",)
    items: tuple[tuple[int, int], ...]

    def __init__(self, literals: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        pairs = literals.items() if isinstance(literals, Mapping) else literals
        seen: dict[int, int] = {}
        for param, sign in pairs:
            param, sign = index(param), index(sign)
            if sign not in (0, 1):
                raise ValueError(f"sign must be 0 or 1, got {sign!r}")
            if param in seen and seen[param] != sign:
                raise LiteralClashError(
                    f"parameter {param} assigned both signs"
                )
            seen[param] = sign
        object.__setattr__(self, "items", tuple(sorted(seen.items())))

    @classmethod
    def _checked(cls, items: tuple[tuple[int, int], ...]) -> "PhiType":
        """The type holding `items` as they are, with no check.  Private:
        callers pass a tuple of plain int parameters, strictly increasing,
        with signs the ints 0 or 1, which is what the constructor would
        have made of it.  The slot's own setter skips the frozen
        __setattr__ and the constructor's sort and checks."""
        self = object.__new__(cls)
        _set_items(self, items)
        return self

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: the frozen
        # __setattr__ refuses the slot state they would otherwise set
        return PhiType, (self.items,)

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

    def __repr__(self) -> str:
        body = ", ".join(f"{p}↦{s}" for p, s in self.items)
        return f"PhiType({{{body}}})"


_set_items = PhiType.items.__set__
EMPTY_TYPE = PhiType()


_BOOLEANS = frozenset((0, 1))
#: turns the bytes 0 and 1 into the text "0" and "1"
_BITS_TO_TEXT = bytes.maketrans(b"\x00\x01", b"01")
_TEXT_TO_BITS = bytes.maketrans(b"01", b"\x00\x01")


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

    Built from rows by the constructor, or from 0/1 byte columns by
    from_columns; both end in one finishing step.  Invariants enforced at
    construction: the matrix is total, X is nonempty (so the empty type is
    consistent), and base_set <= theta_set <= Y.
    After construction truth is a tuple of n-tuples of the ints 0 and 1 (a
    bool entry is stored as its int), and base_set and theta_set are
    frozensets of plain ints, so equal structures give equal answers.
    Rows and columns are identified by 0-based indices; results with set
    semantics are returned in declared index order for reproducibility.
    """

    truth: tuple[tuple[int, ...], ...]
    base_set: frozenset[int]
    theta_set: frozenset[int]
    meta: Optional[Mapping] = field(default=None, compare=False, repr=False, hash=False)
    #: per-structure memo of derived values (dimension, delta signatures,
    #: closed packs, literal columns, distinct rows); sound because the
    #: structure is immutable
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        truth = self.truth
        if not truth:
            raise ValueError("X must be nonempty")
        width = len(truth[0])
        # This and from_columns are the two readers of raw entries; this
        # loop names the first bad row.  Each entry of a matrix that passes
        # it is read by its truth value into a 0/1 byte column.
        for i, row in enumerate(truth):
            if len(row) != width:
                raise ValueError(f"row {i} has length {len(row)}, expected {width}")
            if not _is_boolean_row(row):
                raise ValueError(f"row {i} contains non-boolean entries")
        self._finish(len(truth), tuple([bytes(map(bool, column)) for column in zip(*truth)]))

    @classmethod
    def from_columns(cls, m: int, columns: Iterable, base_set: Iterable[int],
                     theta_set: Iterable[int], meta: Optional[Mapping] = None,
                     ) -> "BipartiteStructure":
        """The structure over m elements whose column b is columns[b]: a
        bytes-like object of m bytes, each 0 or 1, with truth[i][b] =
        columns[b][i].  It reads whole columns where the constructor reads
        rows, derives truth and the masks from its own bytes of each column,
        so a later edit of a caller's bytearray changes nothing, and ends in
        the constructor's own checks of B and theta and its derivations."""
        if not isinstance(m, int):
            raise ValueError(f"m must be an int, got {m!r}")
        if m < 1:
            raise ValueError("X must be nonempty")
        try:  # join takes any buffer, and no int, str or list of ints
            columns = tuple(columns)
            flat = b"".join(columns)
        except TypeError:
            raise ValueError("columns must be bytes-like objects") from None
        columns = tuple(map(bytes, columns))
        if not {m}.issuperset(map(len, columns)) or flat.translate(None, b"\x00\x01"):
            for b, column in enumerate(columns):  # names the first bad column
                if len(column) != m:
                    raise ValueError(f"column {b} has length {len(column)}, expected {m}")
                if column.translate(None, b"\x00\x01"):
                    raise ValueError(f"column {b} contains non-boolean entries")
        self = object.__new__(cls)
        for name, value in (("base_set", base_set), ("theta_set", theta_set),
                            ("meta", meta), ("_memo", {})):
            object.__setattr__(self, name, value)
        self._finish(m, columns)
        return self

    def _finish(self, m: int, columns: tuple[bytes, ...]) -> None:
        """The step both constructors end in, given the m-byte checked 0/1
        columns: B and theta are checked and frozen, and the matrix's two
        kept forms, the rows of truth and _column_masks, are derived here
        alone, with the full mask and n.  Bit i of _column_masks[b] is
        truth[i][b], so a column read from its last row up is the mask's
        numeral; the byte columns themselves are not kept."""
        for name in ("theta_set", "base_set"):  # the one reader of raw members of B and theta
            params = getattr(self, name)
            if not (type(params) is frozenset and {int}.issuperset(map(type, params))):
                try:
                    params = tuple(params)  # an iterator is read once
                except TypeError:
                    raise ValueError(f"{name} is not an iterable of parameters") from None
                if not all(isinstance(b, int) for b in params):
                    raise ValueError(f"{name} contains unknown parameters")
                # each member passed the test check_parameter makes
                object.__setattr__(self, name, frozenset(map(index, params)))
        # both are frozen now, so B is compared with theta as a set
        if not self.base_set <= self.theta_set:
            raise ValueError("base_set must be contained in theta_set")
        if not self.theta_set <= frozenset(range(len(columns))):
            raise ValueError("theta_set contains unknown parameters")
        # a bytes column yields its entries as the ints 0 and 1; with no
        # columns, zip would give no rows at all, not m empty ones
        object.__setattr__(self, "truth", tuple(zip(*columns)) if columns else ((),) * m)
        object.__setattr__(
            self, "_column_masks",
            tuple([int(c[::-1].translate(_BITS_TO_TEXT), 2) for c in columns]),
        )
        object.__setattr__(self, "_full_mask", (1 << m) - 1)
        object.__setattr__(self, "n", len(columns))  # |Y|, read by every parameter check

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

    def _checked_params(self, params: Iterable[int]) -> tuple[int, ...]:
        """params as a tuple, each checked once as check_parameter does.  The
        loop repeats check_parameter's test inline: a call per parameter
        costs more than the rest of a small type space.  The differential
        property test holds the two to the same errors."""
        params = tuple(params)
        n = self.n
        for b in params:
            if not (isinstance(b, int) and 0 <= b < n):
                raise UnknownParameterError(f"unknown parameter {b!r}")
        return params

    def _sorted_params(self, params: Iterable[int]) -> tuple[int, ...]:
        """The canonical domain of params: checked plain ints, strictly
        increasing.  With _checked_params and _literal_pairs it is the one
        owner of parameter checks, canonical domains and literal-mask pairs;
        no other subject module checks or sorts a caller's list.  A list
        already canonical is used as given; any other is checked by
        _checked_params, which raises, and read as a sorted set of plain
        ints (True is 1): a row has one value per column, so no trace, type
        space or delta table changes."""
        params = tuple(params)
        prev, n = -1, self.n
        for b in params:
            if not (type(b) is int and prev < b < n):
                return tuple(sorted(set(map(index, self._checked_params(params)))))
            prev = b
        return params

    def _literal_pairs(self, params: Iterable[int]) -> list[tuple[int, int]]:
        """The (sign 0, sign 1) literal masks of each of params, in order;
        every parameter is checked before any mask is read."""
        masks, full = self._column_masks, self._full_mask
        return [(masks[b] ^ full, masks[b]) for b in self._checked_params(params)]

    def literal_mask(self, b: int, sign: int) -> int:
        """Bitmask of elements satisfying phi(x; b)^sign."""
        self.check_parameter(b)
        mask = self._column_masks[b]
        return mask if sign else mask ^ self._full_mask

    def type_mask(self, p: PhiType) -> int:
        return self.literals_mask(p.items)

    def literals_mask(self, items: Iterable[tuple[int, int]]) -> int:
        """Realizer bitmask of a bare literal list (no PhiType required).
        Every parameter is checked, with no early exit on a zero mask, so an
        unknown one raises whatever the data.  The check repeats
        _checked_params' inline test in the same loop: a batch check first
        costs more than the whole mask of a short type."""
        masks, full, n = self._column_masks, self._full_mask, self.n
        mask = full
        for b, sign in items:
            if not (isinstance(b, int) and 0 <= b < n):
                raise UnknownParameterError(f"unknown parameter {b!r}")
            mask &= masks[b] if sign else masks[b] ^ full
        return mask

    # -- core operations ---------------------------------------------------

    def trace(self, a: int, params: Iterable[int]) -> PhiType:
        """The type of element a over the given parameters, read off the
        matrix.  trace(a, D) is always consistent: a realizes it."""
        self.check_element(a)
        params = self._sorted_params(params)
        row = self.truth[a]
        return PhiType._checked(tuple([(b, row[b]) for b in params]))

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
        params = self._sorted_params(params)
        if not params:
            return (EMPTY_TYPE,)  # X is nonempty
        # distinct rows keyed by their literals on params, which are each
        # type's items as they stand; dicts keep first-seen order
        items = dict.fromkeys(zip(*self._literal_columns(params)))
        # each type built as PhiType._checked builds it, inline: a call per
        # type costs more than building its items
        new, out = object.__new__, []
        for literals in items:
            t = new(PhiType)
            _set_items(t, literals)
            out.append(t)
        return tuple(out)

    def _literal_columns(self, params: Sequence[int]) -> list[tuple[tuple[int, int], ...]]:
        """The columns params (checked plain ints) as tuples of literals
        (b, sign), one per distinct row, each memoized the first time a type
        space reads it: its entries are references to two shared pairs, and
        no other column is built.  Grouping these rows gives the type space
        in first-realizer order, since the first row with a given projection
        is the first occurrence of its whole row."""
        table = self._memo.get("literal_columns")
        if table is None:
            table = self._memo["literal_columns"] = [None] * self.n
        out, rows = [], None
        for b in params:
            column = table[b]
            if column is None:
                if rows is None:  # the distinct rows, read for the first column built
                    rows = list(map(self.truth.__getitem__, self._distinct_rows()))
                column = table[b] = tuple(
                    map(((b, 0), (b, 1)).__getitem__, map(itemgetter(b), rows)))
            out.append(column)
        return out

    def _distinct_rows(self) -> tuple[int, ...]:
        """The first index of each distinct row, in increasing order,
        memoized; rows are keyed on the tuple rows of truth."""
        rows = self._memo.get("distinct_rows")
        if rows is None:
            firsts: dict[tuple[int, ...], int] = {}
            for i, row in enumerate(self.truth):
                firsts.setdefault(row, i)
            rows = self._memo["distinct_rows"] = tuple(firsts.values())
        return rows

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
        if row.strip("01"):  # some character is not 0 or 1: name the first
            bad = next(ch for ch in row if ch not in "01")
            raise StructureParseError(f"invalid matrix character {bad!r}", lineno)
        rows.append(row)
    for extra in range(6 + m, len(lines)):
        if lines[extra].strip():
            raise StructureParseError("unexpected content after matrix", extra + 1)

    # row i is bits[i * n:(i + 1) * n], so column b is every n-th byte from b
    bits = "".join(rows).encode().translate(_TEXT_TO_BITS)
    return BipartiteStructure.from_columns(m, [bits[b::n] for b in range(n)], base, theta)


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
    # every entry is the int 0 or 1, so bytes() reads it
    lines.extend(bytes(row).translate(_BITS_TO_TEXT).decode() for row in struct.truth)
    return "\n".join(lines) + "\n"
