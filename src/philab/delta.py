"""The two-level existential family and its types.

For a fixed arity n, the family consists of the conditions

    exists x ( phi(x; y)^t  and  phi(x; z_0)^{s(0)} ... phi(x; z_{n-1})^{s(n-1)} )

for t < 2 and s a sign vector of length n.  The type of a parameter c over a
domain D is the full truth table of these conditions with the z-slots
ranging over D^n (tuples with repetition).  Arity defaults to the
structure's independence dimension in all higher-level uses but may be
overridden to study over- or under-sized families.

The finite-satisfiability surrogate: in the idealized infinite setting the
condition lives on infinite types; here the whole table is a finite object,
so k=ALL (one base parameter realizing the entire table) is the faithful
finite reading, and finite k (every k-entry sub-table matched by some base
parameter, possibly a different one each time) is exposed as an
experimentation knob.  Finite k is decided as a minimum cover (see
finitely_satisfiable_in), never by enumerating k-entry sub-tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Optional

from .cover import least_cover
from .errors import ArityMismatchError, ResourceLimitError
from .structure import BipartiteStructure

DEFAULT_TABLE_LIMIT = 1 << 20


class _AllSentinel:
    """Singleton marker for `k = ALL` in finite-satisfiability checks."""

    def __repr__(self) -> str:
        return "ALL"


ALL = _AllSentinel()

#: table key: (z-tuple, subject sign t, sign vector s)
Entry = tuple[tuple[int, ...], int, tuple[int, ...]]


@dataclass(frozen=True)
class DeltaFamily:
    arity: int

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be >= 0")


@dataclass
class DeltaType:
    """Truth table of the family for one subject parameter over a domain."""

    subject: int
    domain: tuple[int, ...]
    arity: int
    table: dict[Entry, bool] = field(repr=False)

    def __len__(self) -> int:
        return len(self.table)

    def same_table(self, other: "DeltaType") -> bool:
        return (
            self.domain == other.domain
            and self.arity == other.arity
            and self.table == other.table
        )


def delta_eval(
    struct: BipartiteStructure,
    family: DeltaFamily,
    c: int,
    zs: tuple[int, ...],
    t: int,
    s: tuple[int, ...],
) -> bool:
    """One condition: some element has sign t at c and sign s(i) at each z_i."""
    if len(zs) != family.arity or len(s) != family.arity:
        raise ArityMismatchError(
            f"expected {family.arity} z-slots, got {len(zs)} and {len(s)} signs"
        )
    mask = struct.literal_mask(c, t)
    for z, sign in zip(zs, s):
        if not mask:
            break
        mask &= struct.literal_mask(z, sign)
    return mask != 0


def _entries(domain: tuple[int, ...], arity: int) -> Iterable[Entry]:
    # canonical fill order: z-tuples, then t, then s
    for zs in product(domain, repeat=arity):
        for t in (0, 1):
            for s in product((0, 1), repeat=arity):
                yield zs, t, s


def _guard_table(domain: tuple[int, ...], arity: int, limit: int) -> None:
    size = len(domain) ** arity * 2 ** (arity + 1)
    if size > limit:
        raise ResourceLimitError(
            f"delta table would have {size} entries, over the limit {limit}"
        )


def delta_type(
    struct: BipartiteStructure,
    family: DeltaFamily,
    c: int,
    domain: Iterable[int],
    limit: int = DEFAULT_TABLE_LIMIT,
) -> DeltaType:
    """Full table of the subject c over the domain (sorted canonically)."""
    struct.check_parameter(c)
    dom = tuple(sorted(set(domain)))
    for b in dom:
        struct.check_parameter(b)
    _guard_table(dom, family.arity, limit)
    table = {
        entry: delta_eval(struct, family, c, *entry)
        for entry in _entries(dom, family.arity)
    }
    return DeltaType(c, dom, family.arity, table)


@dataclass(frozen=True)
class DeltaComparison:
    """Result of comparing two subjects' tables over one domain; truthy iff
    equal, else `witness` is the first disagreeing entry in canonical order."""

    equal: bool
    witness: Optional[Entry] = None

    def __bool__(self) -> bool:
        return self.equal


def delta_equal(
    struct: BipartiteStructure,
    family: DeltaFamily,
    c0: int,
    c1: int,
    domain: Iterable[int],
    limit: int = DEFAULT_TABLE_LIMIT,
) -> DeltaComparison:
    """Table equality of two subjects, short-circuiting on the first
    disagreement rather than materializing both tables."""
    struct.check_parameter(c0)
    struct.check_parameter(c1)
    dom = tuple(sorted(set(domain)))
    for b in dom:
        struct.check_parameter(b)
    _guard_table(dom, family.arity, limit)
    for entry in _entries(dom, family.arity):
        if delta_eval(struct, family, c0, *entry) != delta_eval(
            struct, family, c1, *entry
        ):
            return DeltaComparison(False, entry)
    return DeltaComparison(True)


def cached_delta_type(
    struct: BipartiteStructure,
    family: DeltaFamily,
    c: int,
    domain: Iterable[int],
    limit: int = DEFAULT_TABLE_LIMIT,
) -> DeltaType:
    """delta_type with a per-structure memo; structures are immutable so a
    table never goes stale.  Worst case under races is a recompute."""
    dom = tuple(sorted(set(domain)))
    cache = getattr(struct, "_delta_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(struct, "_delta_cache", cache)
    key = (family.arity, c, dom)
    hit = cache.get(key)
    if hit is None:
        hit = delta_type(struct, family, c, dom, limit)
        cache[key] = hit
    return hit


def finitely_satisfiable_in(
    struct: BipartiteStructure,
    dt: DeltaType,
    base: Iterable[int],
    k: int | _AllSentinel = ALL,
    limit: int = DEFAULT_TABLE_LIMIT,
) -> bool:
    """Whether dt is matched inside the base parameter set.

    k=ALL: some base parameter's whole table equals dt's.  Finite k: every
    k-entry subset of dt's table (equivalently every smaller one) is matched
    by some base parameter on those entries.  An empty base set satisfies
    nothing: there is no witness parameter.

    Finite k is a minimum-cover question.  Give each entry the set of base
    parameters whose table disagrees with dt there; an entry subset is
    unmatched iff those sets cover the whole base.  So k holds iff no cover
    has at most min(k, |table|) entries.  One disagreeing entry per base
    parameter already covers, so for k >= |base| the answer is the ALL
    answer.  The cover search raises ResourceLimitError past its default
    candidate limit.
    """
    family = DeltaFamily(dt.arity)
    base = tuple(sorted(set(base)))
    for b in base:
        struct.check_parameter(b)
    if not base:
        return False
    if not isinstance(k, _AllSentinel) and k < 1:
        raise ValueError("k must be >= 1 or ALL")
    if isinstance(k, _AllSentinel) or k >= len(base):
        return any(
            cached_delta_type(struct, family, b, dt.domain, limit).same_table(dt)
            for b in base
        )
    tables = [cached_delta_type(struct, family, b, dt.domain, limit) for b in base]
    disagree = [
        sum(1 << j for j, other in enumerate(tables) if other.table[entry] != value)
        for entry, value in dt.table.items()
    ]
    size = min(k, len(disagree))
    return least_cover(disagree, (1 << len(base)) - 1, size) is None
