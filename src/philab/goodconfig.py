"""Good configurations: bounded pair families extending a type.

A good configuration of a type p is an ordered list of parameter pairs
(c_{i,0}, c_{i,1}), all drawn from theta, such that

  (i)   every component lies in theta;
  (ii)  p plus the literals phi(x; c_{j,t})^t for all j, t is consistent;
  (iii) for every sign selection s over the pairs and every index j, the two
        components of pair j have equal delta-types over
        base_set + {c_{i,s(i)} : i != j}.

Sizes of good configurations are bounded by the independence dimension when
the family arity equals that dimension.

Every sub-list of a good configuration, in any order, is good: clauses
(i) and (ii) hold of fewer pairs, the checker reads each clause as a set of
conditions that no reordering changes, and every clause-(iii) domain of a
sub-list lies inside one of the full list (extend the selection by a member
of each dropped pair), where delta-equality over the larger domain gives it
over the smaller.  Prefix closure makes greedy one-pair-at-a-time
construction sound, and closure under sorting lets the exhaustive search
enter increasing lists only.

Both searches filter their candidates on clauses (i) and (ii) before they
check one, so they enter the checker through a private entry that starts at
clause (iii), under the same DEFAULT_CHECK_LIMIT guard;
is_good_configuration checks all three clauses and ends in that entry.  The
exhaustive search also drops, unchecked, each extension whose last two
pairs fail clause (iii), since they form a sub-list of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional

from .delta import ALL, DeltaFamily, _check_k, _signature, finitely_satisfiable_in
from .errors import LiteralClashError, PreconditionError, ResourceLimitError
from .structure import BipartiteStructure, PhiType
from .vc import cached_dimension

DEFAULT_CHECK_LIMIT = 4096
DEFAULT_EXHAUSTIVE_THETA_LIMIT = 12

Pair = tuple[int, int]


@dataclass(frozen=True)
class GoodConfiguration:
    """An ordered pair list together with the type it extends."""

    pairs: tuple[Pair, ...]
    base_type: PhiType

    @property
    def size(self) -> int:
        return len(self.pairs)

    @property
    def components(self) -> tuple[int, ...]:
        return tuple(c for pair in self.pairs for c in pair)

    def extended(self, pair: Pair) -> "GoodConfiguration":
        return GoodConfiguration(self.pairs + (pair,), self.base_type)


@dataclass(frozen=True)
class ConfigCheck:
    """Checker verdict; `clause` in {"i", "ii", "iii"} and a witness locate
    the first violation in canonical scan order, and no clause means the
    candidate passed."""

    clause: Optional[str] = None
    witness: Optional[tuple] = None

    @property
    def ok(self) -> bool:
        return self.clause is None

    def __bool__(self) -> bool:
        return self.ok


def extend_type(p: PhiType, config: GoodConfiguration | Iterable[Pair]) -> PhiType:
    """p plus the signed pair literals: c_{j,0} gets sign 0, c_{j,1} sign 1.
    Raises LiteralClashError when any parameter is forced to both signs."""
    pairs = config.pairs if isinstance(config, GoodConfiguration) else tuple(config)
    literals = list(p.items)
    for c0, c1 in pairs:
        literals.append((c0, 0))
        literals.append((c1, 1))
    return PhiType(literals)


def is_good_configuration(
    struct: BipartiteStructure,
    candidate: GoodConfiguration,
    family: Optional[DeltaFamily] = None,
) -> ConfigCheck:
    """Check the three clauses against the candidate's own base type; on
    failure report the first violated one.

    Clause (iii) is scanned over all sign selections s and pair indices j,
    in product order.  The domain of (s, j) ignores s[j], and s with
    s[j] = 0 comes before s with s[j] = 1, so only the first is compared:
    half of the 2^k * k combinations, with the same verdict and the same
    first failure.  The delta signatures compared are memoized per
    structure.  Past DEFAULT_CHECK_LIMIT combinations it raises
    ResourceLimitError before checking anything.
    """
    pairs = candidate.pairs
    if family is None:
        family = DeltaFamily(cached_dimension(struct))
    _check_comparisons(len(pairs))

    for j, pair in enumerate(pairs):
        for t in (0, 1):
            if pair[t] not in struct.theta_set:
                return ConfigCheck("i", (j, t))

    # (ii) on one realizer mask: a sign clash, inside a pair or with the
    # base type, leaves it empty
    mask = struct.type_mask(candidate.base_type)
    for c0, c1 in pairs:
        mask &= struct.literal_mask(c0, 0) & struct.literal_mask(c1, 1)
    if not mask:
        return ConfigCheck("ii")
    return _check_clause_iii(struct, family, pairs)


def _check_comparisons(k: int) -> None:
    """The checker guard, read before a list of k pairs is checked."""
    comparisons = 2**k * max(k, 1)
    if comparisons > DEFAULT_CHECK_LIMIT:
        raise ResourceLimitError(
            f"clause (iii) needs {comparisons} comparisons,"
            f" over the limit {DEFAULT_CHECK_LIMIT}"
        )


def _check_clause_iii(
    struct: BipartiteStructure,
    family: DeltaFamily,
    pairs: tuple[Pair, ...],
) -> ConfigCheck:
    """is_good_configuration from clause (iii) on, for a pair list whose
    caller has proved clauses (i) and (ii): the same guard, the same scan
    and the same verdict."""
    k = len(pairs)
    _check_comparisons(k)
    base = struct.base_set
    for s in product((0, 1), repeat=k):
        for j in range(k):
            if s[j]:
                continue  # the same domain as s with s[j] = 0, checked before
            domain = tuple(
                sorted(base | {pairs[i][s[i]] for i in range(k) if i != j})
            )
            if not delta_equal_over(struct, family, *pairs[j], domain):
                return ConfigCheck("iii", (j, s))
    return ConfigCheck()


def delta_equal_over(
    struct: BipartiteStructure,
    family: DeltaFamily,
    c0: int,
    c1: int,
    domain: tuple[int, ...],
) -> bool:
    """delta_equal without input checks, for a sorted domain of known
    parameters: compares the memoized signatures."""
    return _signature(struct, family, c0, domain) == _signature(struct, family, c1, domain)


def find_extension_pair(
    struct: BipartiteStructure,
    config: GoodConfiguration,
    k_sat: float = ALL,
    family: Optional[DeltaFamily] = None,
) -> Optional[Pair]:
    """Least pair (d0, d1) from theta^2, scanned lexicographically, with

      (i)   d0, d1 in theta;
      (ii)  the extended type plus {d0 -> 0, d1 -> 1} consistent;
      (iii) d0 and d1 delta-equal over base_set + current components;
      (iv)  d0's delta-type over that domain finitely satisfiable in
            base_set at strength k_sat.

    A diagonal pair (d, d) fails (ii) in the scan: d's sign-0 and sign-1
    literal masks are disjoint.  Nothing qualifies when
    the base is empty, or at arity >= 1 when k_sat is at least |base|, ALL
    included (proof below), and nothing is scanned.  Elsewhere the
    conditions need not transfer the clauses, so each hit is re-verified
    before it is returned, from clause (iii) on: the scan has proved (i) for
    the new pair and (ii) for the extended list.  A configuration with a
    component outside theta fails (i) with every pair, so nothing is
    scanned for it either.  k_sat is checked first: ValueError unless it is
    ALL or an int >= 1.
    """
    _check_k(k_sat)
    if family is None:
        family = DeltaFamily(cached_dimension(struct))
    p = config.base_type
    try:
        p_c = extend_type(p, config.pairs)
    except LiteralClashError as exc:
        raise PreconditionError("configuration clashes with its type") from exc
    base = struct.base_set
    # (iv) at k >= |base| asks d0's table to equal some b's.  Entries
    # ((b,..,b), 1, (0,..)) and ((b,..,b), 0, (1,..)) are false in b's own table,
    # so then d0 = b as columns; (iii) forces d1 = d0, which breaks (ii).
    if not base or family.arity and k_sat >= len(base):
        return None
    theta = struct.theta_members()
    domain = tuple(sorted(base | set(config.components)))
    p_c_mask = struct.type_mask(p_c)
    if not struct.theta_set.issuperset(config.components):
        return None  # (i)
    lits = struct._literal_pairs(theta)
    for d0, (neg0, _) in zip(theta, lits):
        mask0 = p_c_mask & neg0
        if not mask0:
            continue
        for d1, (_, pos1) in zip(theta, lits):
            if not mask0 & pos1:
                continue  # (ii)
            if not delta_equal_over(struct, family, d0, d1, domain):
                continue  # (iii)
            if not finitely_satisfiable_in(struct, family, d0, domain, base, k_sat):
                break  # (iv) depends on d0 only
            if _check_clause_iii(struct, family, config.pairs + ((d0, d1),)):
                return (d0, d1)
    return None


def build_maximal(
    struct: BipartiteStructure,
    p: PhiType,
    strategy: str = "greedy",
    k_sat: float = ALL,
) -> GoodConfiguration:
    """A good configuration of p admitting no extension pair.

    greedy (the default) repeats find_extension_pair until exhaustion,
    mirroring the one-pair-at-a-time extension argument.  exhaustive returns
    the maximum-size configuration, lexicographically least among ties; the
    oracle suite checks it against oracle_all_good_configs.  It raises
    ResourceLimitError when |theta| exceeds DEFAULT_EXHAUSTIVE_THETA_LIMIT,
    and takes no extension steps, so it accepts k_sat=ALL only.  k_sat is
    checked first, for both strategies: ValueError unless it is ALL or an
    int >= 1; exhaustive then refuses a valid finite k with
    PreconditionError.

    The exhaustive search enters strictly increasing pair lists only, in
    lexicographic preorder, and keeps the first list of each new size.
    That loses nothing:
      - sorting a maximum good list keeps it good (every sub-list in any
        order is good) and never makes it lexicographically larger, so the
        lexicographically least maximum list is sorted;
      - no good list repeats a pair, so a sorted one is strictly increasing.
        At arity >= 1, clause (iii) for one copy sees the other copy's d0 in
        its domain, and a column delta-equal to d0 over a domain holding d0
        equals d0, which (ii) forbids.  At arity 0 the dimension is 0, so
        every column is constant, and (ii) and (iii) exclude each other: no
        pair is good at all;
      - by sub-list closure, a pair q can extend a list L only if it
        extended L's parent, so each node checks only the later pairs that
        passed at its parent, and passes its own passing pairs after q on to
        the child L + (q,);
      - for the same reason q extends a nonempty L only if the two-pair list
        (last, q), last the final pair of L, passes clause (iii): last's
        members are delta-equal over base_set + {q0} and over
        base_set + {q1}, and q's over base_set + {last0} and
        base_set + {last1}.  Each of these verdicts is decided once per
        (pair, member) per call, when first read.
    Each list carries its realizer mask down, and a candidate whose clause
    (ii) mask, that mask AND its pair's literal masks, is empty is dropped
    unchecked; so is every diagonal pair, and every candidate that fails
    the two-pair screen.  Every other candidate is built from theta, so it
    has passed (i) and (ii) and is checked from clause (iii) on.
    is_good_configuration accepts every nonempty list returned, and the
    empty list needs no check: p is consistent, and clauses (i) and (iii)
    ask nothing of no pairs.
    At arity >= 1 the pairs of a good list hold distinct parameters from
    theta, so its size stays at most |theta| / 2 <= 6 and
    DEFAULT_CHECK_LIMIT, first passed at size 9, is never reached.
    """
    _check_k(k_sat)
    if not struct.is_consistent(p):
        raise PreconditionError("base type must be consistent")
    if not set(p.domain) <= struct.base_set:
        raise PreconditionError("base type domain must lie inside base_set")
    family = DeltaFamily(cached_dimension(struct))

    if strategy == "greedy":
        config = GoodConfiguration((), p)
        while True:
            pair = find_extension_pair(struct, config, k_sat, family)
            if pair is None:
                return config
            config = config.extended(pair)
    if strategy != "exhaustive":
        raise ValueError(f"unknown strategy {strategy!r}")
    if k_sat != ALL:
        raise PreconditionError("exhaustive search takes k_sat=ALL only")

    theta = struct.theta_members()
    if len(theta) > DEFAULT_EXHAUSTIVE_THETA_LIMIT:
        raise ResourceLimitError(
            f"exhaustive search over |theta| = {len(theta)}"
            f" exceeds {DEFAULT_EXHAUSTIVE_THETA_LIMIT}"
        )
    best = GoodConfiguration((), p)
    lits = dict(zip(theta, struct._literal_pairs(theta)))
    # each pair with its clause-(ii) mask: the elements giving d0 sign 0
    # and d1 sign 1, empty for a diagonal pair
    all_pairs = [
        ((d0, d1), lits[d0][0] & lits[d1][1])
        for d0 in theta
        for d1 in theta
    ]

    base = struct.base_set
    agreed: dict = {}  # (pair, member) -> delta-equal over base + {member}

    def agree(pair: Pair, member: int) -> bool:
        key = (pair, member)
        verdict = agreed.get(key)
        if verdict is None:
            domain = tuple(sorted(base | {member}))
            verdict = agreed[key] = delta_equal_over(struct, family, *pair, domain)
        return verdict

    def descend(config: GoodConfiguration, mask: int, candidates: list) -> None:
        # mask: config's realizer mask; candidates: the pairs after config's
        # last one that extended its parent, each with its (ii) mask
        nonlocal best
        last = config.pairs[-1] if config.pairs else None
        later = []
        for pair, pair_mask in candidates:
            below = mask & pair_mask
            if not below:
                continue
            if last and not (agree(last, pair[0]) and agree(last, pair[1])
                             and agree(pair, last[0]) and agree(pair, last[1])):
                continue
            if _check_clause_iii(struct, family, config.pairs + (pair,)):
                later.append((pair, pair_mask, below))
        for i, (pair, _, below) in enumerate(later):
            cand = config.extended(pair)
            if cand.size > best.size:
                best = cand
            descend(cand, below, [(q, q_mask) for q, q_mask, _ in later[i + 1:]])

    descend(best, struct.type_mask(p), all_pairs)
    return best


def config_certificate(
    struct: BipartiteStructure,
    config: GoodConfiguration,
) -> dict:
    """JSON-ready certificate: pairs, size, dimension, bound check, and the
    checker's verdict per clause, None for the unchecked ones after a failure."""
    check = is_good_configuration(struct, config)
    failed = ("i", "ii", "iii", None).index(check.clause)
    dimension = cached_dimension(struct)
    return {
        "pairs": [list(pair) for pair in config.pairs],
        "size": config.size,
        "id": dimension,
        "bound_ok": config.size <= dimension,
        "checker": {
            "ok": check.ok,
            "clauses": dict(zip(("i", "ii", "iii"), (True,) * failed + (False, None, None))),
            "witness": check.witness,
        },
    }
