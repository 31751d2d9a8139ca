"""The two-level existential family and its types.

For a fixed arity n, the family consists of the conditions

    exists x ( phi(x; y)^t  and  phi(x; z_0)^{s(0)} ... phi(x; z_{n-1})^{s(n-1)} )

for t < 2 and s a sign vector of length n.  The type of a parameter c over a
domain D is the full truth table of these conditions with the z-slots
ranging over D^n (tuples with repetition).  Arity defaults to the
structure's independence dimension in all higher-level uses but may be
overridden to study over- or under-sized families.

Finite satisfiability in the base B: in the paper each formula of a type
has its own witness in B, and finite k reads that at strength k (every
k-entry sub-table matched by some base parameter, possibly a different one
each time).  ALL is +inf, a k past every base size; any k >= |B| asks one
base parameter to match the whole table, which at arity >= 1 admits no
extension step (see find_extension_pair).

Tables are compared by signature.  Entry (zs, t, s) is true iff some row
with sign t at c has trace s on zs, so the table over D and the projections
of those rows onto the r-subsets of D, r = min(arity, |D|), determine each
other.  The signature, the table on strictly increasing r-tuples, has
C(|D|, r) * 2^(r+1) entries, and two tables are equal iff their signatures
are, except over D empty at arity >= 1: all tables are empty there, so the
signature is the constant 0.

The argument holds just as well for D read as a tuple of positions, repeats
kept, and _signature reads every parameter tuple so, a sorted domain being
one such tuple.  The q-type compares candidate tuples this way, one
signature per component over the base parameters followed by the
components, each read as blocks: the signature over the parameters at one
r-tuple of positions.  Finite satisfiability reads closed packs, the table
on strictly increasing z-tuples of every length 1..r (0 at arity 0):
full-table entries with contradictory repeated z's are false for every
parameter, and every other entry repeats a closed one.  _signature is the
one builder of signatures, blocks and closed packs; its private routine
_pack_literals expands each z-tuple from the subject's literal pair into
realizer masks and reads them as binary digits in one bytes pass, so only
this module knows the packed layout.  Every build raises ResourceLimitError
past DEFAULT_TABLE_LIMIT entries, read at each build.  delta_eval is the
one-entry reference, and delta_type reads each entry of a full table
through it, so the full table shares no packing code with the signatures it
is checked against.  Signatures, blocks, packs and cached_delta_type tables
are memoized per structure; a memo hit builds nothing, so no guard sees it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain, combinations, product
from math import comb, inf
from types import MappingProxyType
from typing import Iterable, Mapping

from .cover import least_cover
from .errors import ArityMismatchError, ResourceLimitError
from .structure import _BITS_TO_TEXT, BipartiteStructure

DEFAULT_TABLE_LIMIT = 1 << 20


#: the strength k past every base size: one base parameter must match the
#: whole table
ALL = inf

#: table key: (z-tuple, subject sign t, sign vector s)
Entry = tuple[tuple[int, ...], int, tuple[int, ...]]


@dataclass(frozen=True)
class DeltaFamily:
    arity: int

    def __post_init__(self):
        try:
            arity = operator.index(self.arity)
        except TypeError:
            arity = -1
        if arity < 0:
            raise ValueError("arity must be an int >= 0")
        object.__setattr__(self, "arity", arity)


@dataclass(frozen=True)
class DeltaType:
    """Truth table of the family for one subject parameter over a domain.
    Frozen, with a read-only table, so a memoized one cannot be changed
    through the value handed out."""

    subject: int
    domain: tuple[int, ...]
    arity: int
    table: Mapping[Entry, bool] = field(repr=False)


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


def _check_table_size(entries: int) -> None:
    """The table guard, read when a table of `entries` entries is built."""
    if entries > DEFAULT_TABLE_LIMIT:
        raise ResourceLimitError(
            f"delta table would have {entries} entries,"
            f" over the limit {DEFAULT_TABLE_LIMIT}"
        )


def _pack_literals(lits, c, ztuples: Iterable[tuple]) -> int:
    """c's table over the z-tuples, packed as an int in canonical order
    (z-tuples as given, then t, then s; first entry in the highest bit),
    with lits[key] the (sign 0, sign 1) literal masks of the parameter that
    c and each z-tuple entry name.  Each z-tuple expands c's literal pair
    into its 2^(len(zs)+1) realizer masks, t first; the masks become digits
    in one bytes pass."""
    subject = lits[c]
    masks = []
    for zs in ztuples:
        level = subject
        for z in zs:
            level = [mask & lit for mask in level for lit in lits[z]]
        masks.extend(level)
    return int(bytes(map(bool, masks)).translate(_BITS_TO_TEXT) or b"0", 2)


def delta_type(
    struct: BipartiteStructure,
    family: DeltaFamily,
    c: int,
    domain: Iterable[int],
) -> DeltaType:
    """Full table of the subject c over the domain (sorted canonically),
    keyed in canonical order: z-tuples, then t, then s; each entry is read
    through delta_eval."""
    struct.check_parameter(c)
    dom = struct._sorted_params(domain)
    n = family.arity
    _check_table_size(len(dom) ** n * 2 ** (n + 1))
    table = {(zs, t, s): delta_eval(struct, family, c, zs, t, s)
             for zs in product(dom, repeat=n)
             for t in (0, 1) for s in product((0, 1), repeat=n)}
    return DeltaType(c, dom, n, MappingProxyType(table))


def _signature(struct: BipartiteStructure, family: DeltaFamily, c: int,
               cols: tuple[int, ...], closed: bool = False) -> int:
    """c's signature (closed: its closed pack) over a tuple of checked
    parameters read position by position, repeats kept, memoized per
    structure; a sorted domain is one such tuple."""
    key = ("signature", family.arity, c, cols, closed)
    hit = struct._memo.get(key)
    if hit is None:
        r = min(family.arity, len(cols))
        lengths = range(1, r + 1) if closed and r else (r,)
        if family.arity and not cols:
            lengths = ()  # every table over no parameter is empty
        _check_table_size(sum(comb(len(cols), i) * 2 ** (i + 1) for i in lengths))
        lits = dict(zip((c, *cols), struct._literal_pairs((c, *cols))))
        ztuples = chain.from_iterable(combinations(cols, i) for i in lengths)
        hit = struct._memo[key] = _pack_literals(lits, c, ztuples)
    return hit


def delta_equal(
    struct: BipartiteStructure,
    family: DeltaFamily,
    c0: int,
    c1: int,
    domain: Iterable[int],
) -> bool:
    """Table equality of two subjects over the domain, decided on their
    signatures."""
    struct.check_parameter(c0)
    struct.check_parameter(c1)
    dom = struct._sorted_params(domain)
    return _signature(struct, family, c0, dom) == _signature(struct, family, c1, dom)


def cached_delta_type(
    struct: BipartiteStructure,
    family: DeltaFamily,
    c: int,
    domain: Iterable[int],
) -> DeltaType:
    """delta_type with a per-structure memo, for external callers; structures
    are immutable so a table never goes stale.  Races at worst recompute."""
    struct.check_parameter(c)
    dom = struct._sorted_params(domain)
    key = ("delta_type", family.arity, c, dom)
    hit = struct._memo.get(key)
    if hit is None:
        hit = struct._memo[key] = delta_type(struct, family, c, dom)
    return hit


def _check_k(k: float) -> None:
    """ValueError unless k is ALL or an int >= 1, read as an index (so 1.5
    is refused, like a dimension cap)."""
    try:
        ok = k == ALL or operator.index(k) >= 1
    except TypeError:
        ok = False
    if not ok:
        raise ValueError("k must be >= 1 or ALL")


def finitely_satisfiable_in(
    struct: BipartiteStructure,
    family: DeltaFamily,
    c: int,
    domain: Iterable[int],
    base: Iterable[int],
    k: float = ALL,
) -> bool:
    """Whether c's table over the domain is matched inside the base set.

    Every k-entry subset of c's table (equivalently every smaller one) is
    matched by some base parameter on those entries; k=ALL is +inf, every
    subset, so some base parameter's whole table equals c's.  An empty base
    set satisfies nothing: there is no witness parameter.  k is checked
    before anything else: ValueError unless it is ALL or an int >= 1.

    It is decided on memoized closed packs.  XOR c's pack with each base
    parameter's: a zero means a whole table matches, which settles every k.
    Otherwise give each entry the set of base parameters that disagree with
    c there; an entry subset is unmatched iff its sets cover the whole base,
    so k holds iff no cover has at most k entries.  One disagreeing entry
    per base parameter covers, so at every k >= |base|, ALL among them, only
    a whole-table match satisfies.  A set contained in another never helps a
    cover and is dropped first.  Past DEFAULT_TABLE_LIMIT entries in one
    pack, or DEFAULT_COVER_LIMIT cover candidates, it raises
    ResourceLimitError.
    """
    _check_k(k)
    struct.check_parameter(c)
    dom = struct._sorted_params(domain)
    base = struct._sorted_params(base)
    if not base:
        return False
    pack = _signature(struct, family, c, dom, closed=True)
    diffs = [pack ^ _signature(struct, family, b, dom, closed=True) for b in base]
    if 0 in diffs or k >= len(base):
        return 0 in diffs
    # one mask per entry column, bit j set when base[j] disagrees there
    rows = [format(diff, f"0{max(diffs).bit_length()}b") for diff in reversed(diffs)]
    masks: list[int] = []
    for mask in sorted({int("".join(col), 2) for col in zip(*rows)}, reverse=True,
                       key=lambda m: (m.bit_count(), m)):
        if all(mask & ~kept for kept in masks):
            masks.append(mask)
    return least_cover(masks, (1 << len(base)) - 1, k) is None
