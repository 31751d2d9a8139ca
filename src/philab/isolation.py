"""Isolating subtypes, defining formulas, and the extension pipeline.

The central objects:

* an isolation certificate: a smallest subtype of a type whose realizer set
  already equals the whole type's, found by an ascending exhaustive search
  (or a greedy elimination pass past the cover limit);

* a defining formula: for a literal conjunction gamma, the parameter
  predicate "every realizer of gamma satisfies phi(.; b)", which agrees with
  the target type's signs on the target's whole domain whenever gamma
  isolates the target;

* the extension pipeline: build a maximal good configuration of p, extend p
  by the configuration literals, and certify the extension, reporting the
  2K <= 2*dimension budget.  When the finite structure lacks the witnesses
  an idealized saturated extension would provide, the resulting certificate
  is no smaller than isolating p over the base set alone; that outcome is a
  first-class saturation-deficit diagnostic, not a failure.

Complete types over the base-and-configuration parameters are represented
by full traces over all of Y: the structure interprets a single formula, so
the trace algebra is the whole definable closure available here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Optional

from .cover import least_or_greedy_cover
from .delta import ALL, DeltaFamily, _check_table_size, _signature
from .errors import (
    ArityMismatchError,
    InvariantError,
    PreconditionError,
    ResourceLimitError,
)
from .goodconfig import GoodConfiguration, build_maximal, extend_type
from .structure import BipartiteStructure, PhiType
from .vc import cached_dimension

SATURATION_DEFICIT = "saturation-deficit"
Q_PAIR_LIMIT = 2
Q_THETA_LIMIT = 12


@dataclass(frozen=True)
class IsolationCertificate:
    """A subtype entailing its target.  `minimal` means no strictly smaller
    subtype entails; it holds exactly when the ascending search completed
    (method "exhaustive") rather than falling back to greedy elimination."""

    target: PhiType
    subtype: PhiType
    minimal: bool

    @property
    def method(self) -> str:
        return "exhaustive" if self.minimal else "greedy"

    @property
    def size(self) -> int:
        return len(self.subtype)


def find_isolating_subtype(struct: BipartiteStructure, p: PhiType) -> IsolationCertificate:
    """Minimum-cardinality subtype of p with the same realizer set.

    Searches subsets of p's literals by increasing size (lexicographic
    within a size, so ties resolve to the least literal tuple); past
    DEFAULT_COVER_LIMIT candidate subsets, a greedy elimination pass over
    the full literal list yields an inclusion-minimal but possibly
    non-minimum certificate.  A consistent p always isolates itself, so this
    never fails.
    """
    if not (mask := struct.type_mask(p)):
        raise PreconditionError("type must be consistent")
    # a subset keeps p's realizer set iff its literals jointly exclude every
    # non-realizer of p: literal i covers the non-realizers violating it,
    # which inside `need` are the rows with the other sign in its column
    need = struct._full_mask ^ mask
    lits = struct._literal_pairs(p.domain)
    excluded = [pair[1 - sign] for pair, (_, sign) in zip(lits, p.items)]
    chosen, minimal = least_or_greedy_cover(excluded, need)
    return IsolationCertificate(p, _pick(p, chosen), minimal)


def _pick(p: PhiType, indices: tuple[int, ...]) -> PhiType:
    """The subtype made of p's literals at the given positions, which the
    cover searches return in increasing order: a subsequence of p's sorted
    literals is itself sorted."""
    items = p.items
    return PhiType._checked(tuple([items[i] for i in indices]))


@dataclass(frozen=True)
class DefiningFormula:
    """The parameter predicate induced by a literal conjunction gamma:
    holds(b) iff every realizer of gamma satisfies phi(.; b).  gamma's
    realizer mask is computed on the first call and kept; it is no field,
    so equality and hash still read struct and gamma alone."""

    struct: BipartiteStructure
    gamma: PhiType

    @cached_property
    def _gamma_mask(self) -> int:
        return self.struct.type_mask(self.gamma)

    def holds(self, b: int) -> bool:
        return self._gamma_mask & self.struct.literal_mask(b, 0) == 0


def phi_defining_formula(
    struct: BipartiteStructure, cert: IsolationCertificate
) -> DefiningFormula:
    """Defining formula from a certificate, with gamma the certified subtype.

    For a valid certificate the predicate provably matches the target's
    signs across the target's domain (the subtype and target share one
    nonempty realizer set), and that agreement is re-checked here.
    """
    if not cert.subtype.is_subtype_of(cert.target):
        raise PreconditionError("certificate subtype is not contained in its target")
    if not struct.entails(cert.subtype, cert.target):
        raise PreconditionError("certificate subtype does not entail its target")
    formula = DefiningFormula(struct, cert.subtype)
    for b, sign in cert.target.items:
        if formula.holds(b) != bool(sign):
            raise InvariantError("defining formula disagrees on domain")
    return formula


@dataclass(frozen=True)
class IsolatedExtensionResult:
    """Pipeline output: the configuration, the certificates of the extension
    and of p over the base set alone, and the budget report; the extension
    and the optional saturation-deficit diagnostic derive from them."""

    configuration: GoodConfiguration
    certificate: IsolationCertificate
    base_certificate: IsolationCertificate
    added_params: int
    two_id: int

    @property
    def extension(self) -> PhiType:
        return self.certificate.target

    @property
    def diagnostic(self) -> Optional[str]:
        deficit = self.certificate.size >= self.base_certificate.size
        return SATURATION_DEFICIT if deficit else None

    @property
    def two_k(self) -> int:
        return 2 * self.configuration.size

    @property
    def budget_ok(self) -> bool:
        return self.added_params <= self.two_id and self.two_k <= self.two_id


def isolated_extension(
    struct: BipartiteStructure,
    p: PhiType,
    k_sat: float = ALL,
) -> IsolatedExtensionResult:
    """Extend p by a maximal good configuration and certify the result.

    The number of parameters added beyond the base set is at most twice the
    configuration size, itself at most twice the independence dimension;
    both are reported.  The diagnostic fires when the extension certificate
    is not strictly smaller than the certificate of p over the base set
    alone, naming the gap between this finite structure and the idealized
    saturated extension the guarantee presumes.  build_maximal runs first
    and raises PreconditionError unless p is consistent with its domain
    inside base_set.  An empty configuration extends p to p itself, so the
    base certificate is reused as the extension's rather than searched for
    twice; that is every run at k = ALL with arity >= 1, where no step can
    exist.  After a step, InvariantError is raised unless the extension's
    certificate targets p plus the configuration literals.
    """
    config = build_maximal(struct, p, "greedy", k_sat)
    base_cert = find_isolating_subtype(struct, p)
    if config.pairs:
        extension = extend_type(p, config)
        cert = find_isolating_subtype(struct, extension)
        if cert.target != extension:
            raise InvariantError("extension certificate targets a type other than p"
                                 " plus its configuration")
    else:
        extension, cert = p, base_cert
    return IsolatedExtensionResult(
        configuration=config,
        certificate=cert,
        base_certificate=base_cert,
        added_params=len(set(extension.domain) - struct.base_set),
        two_id=2 * cached_dimension(struct),
    )


# -- witness formulas from non-satisfiability --------------------------------


def gamma_certificate(
    struct: BipartiteStructure,
    a: int,
    config: GoodConfiguration,
) -> PhiType:
    """Literal conjunction from a realizer's full trace entailing the
    configuration's extended type.

    Treating the full trace of `a` as its complete type, search for a
    smallest set of trace literals such that no base parameter satisfies
    every induced existential condition (lexicographically least among
    minimum ones; an inclusion-minimal set past DEFAULT_COVER_LIMIT
    candidates); those literals plus the configuration literals form gamma,
    and entailment of the extended type is checked on every return.  Such a
    set always exists: the trace holds each base parameter b's own literal,
    whose sign clashes with one of b's two signs, so that literal alone
    eliminates b.
    """
    p_c = extend_type(config.base_type, config)
    struct.check_element(a)
    if struct.type_mask(p_c) >> a & 1 == 0:
        raise PreconditionError(f"element {a} does not realize the extended type")
    trace = struct.full_trace(a)
    base = struct.base_members()
    base_masks = struct._literal_pairs(base)

    # literal (c, sign) of the trace covers bit j when for some t no element
    # has sign t at base[j] and sign `sign` at c
    eliminates = []
    for c, sign in trace.items:
        lit = struct.literal_mask(c, sign)
        eliminates.append(sum(1 << j for j, (neg, pos) in enumerate(base_masks)
                              if neg & lit == 0 or pos & lit == 0))
    need = (1 << len(base)) - 1
    chosen, _ = least_or_greedy_cover(eliminates, need)
    gamma = _pick(trace, chosen).union(extend_type(PhiType(), config))
    if not struct.entails(gamma, p_c):
        raise InvariantError("gamma fails to entail the extended type")
    return gamma


def psi_disjunction(
    struct: BipartiteStructure,
    config: GoodConfiguration,
) -> tuple[PhiType, ...]:
    """Literal conjunctions, one per trace class of the realizers of the
    configuration's extended type, whose realizer sets jointly cover exactly
    those realizers; a minimal subfamily is extracted by direct cover search
    (smallest, then lexicographically least by class index; an
    inclusion-minimal subfamily past DEFAULT_COVER_LIMIT candidates)."""
    p_c = extend_type(config.base_type, config)
    target_mask = struct.type_mask(p_c)
    if not target_mask:
        raise PreconditionError("extended type must be consistent")
    # the first realizer of each full-trace class: realizing p_c depends on
    # the row alone, so these are the first occurrences of the realizers' rows
    reps = [a for a in struct._distinct_rows() if target_mask >> a & 1]
    gammas = [gamma_certificate(struct, a, config) for a in reps]
    masks = [struct.type_mask(g) for g in gammas]
    if any(mask & ~target_mask for mask in masks):
        raise InvariantError("gamma realizers leak outside the type")
    chosen, _ = least_or_greedy_cover(masks, target_mask)
    return tuple(gammas[i] for i in chosen)


def embed_trace(
    struct: BipartiteStructure,
    a: int,
    k_sat: float = ALL,
) -> tuple[DefiningFormula, IsolatedExtensionResult]:
    """Defining formula for an element's base-set trace via the extension
    pipeline.  The formula provably reproduces the element's truth row on
    the base set; the agreement is checked on every run.  The pipeline
    result rides along so callers see any saturation-deficit diagnostic."""
    p = struct.trace(a, struct.base_members())
    result = isolated_extension(struct, p, k_sat)
    formula = phi_defining_formula(struct, result.certificate)
    for b in struct.base_members():
        if formula.holds(b) != struct.truth[a][b]:
            raise InvariantError("defining formula disagrees with the row on the base set")
    return formula, result


# -- the parameter-tuple type behind a configuration -------------------------

@dataclass(frozen=True)
class QType:
    """What a parameter tuple must satisfy to stand in for a configuration.

    q_prime: every component lies in theta.  q_double_prime: every finite
    sub-conjunction of base_type is jointly realizable with the candidate's
    signed component literals.  base_type is finite, so it is one of those
    sub-conjunctions, and each has at least its realizers: the part is one
    consistency check of base_type plus the literals, and has no field.
    q_triple_prime: one delta signature per component, over the positional
    tuple of the base parameters followed by all the components (components
    are re-substitutable positions, so the signature constrains the
    candidate's mutual relations, not just its relations to the base); a
    candidate's signatures over its own tuple must match the generating
    tuple's.  The generating tuple itself satisfies all three parts by
    construction, which is checked when the type is built.

    Candidates are decided by one depth-first search over the components
    (_q_realizers), which prunes on q_double_prime's realizer mask and on
    the third part read as blocks, one per component and z-position tuple,
    built from the generating tuple (not read from q_triple_prime) through
    delta's memoized signatures.
    """

    family: DeltaFamily
    generating: tuple[int, ...]
    base_type: PhiType
    q_triple_prime: tuple[int, ...]

    @property
    def component_count(self) -> int:
        return len(self.generating)


def q_type(
    struct: BipartiteStructure,
    config: GoodConfiguration,
    family: Optional[DeltaFamily] = None,
) -> QType:
    """Materialize the three-part description of a maximal configuration's
    tuple, over the configuration's base type.  Maximality of `config` is
    the caller's obligation (it is what makes realizers of q useful);
    goodness is implicit in the checked self-realization."""
    if family is None:
        family = DeltaFamily(cached_dimension(struct))
    components = config.components
    params = (*struct.base_members(), *components)
    q = QType(
        family=family,
        generating=components,
        base_type=config.base_type,
        q_triple_prime=tuple(_signature(struct, family, c, params) for c in components),
    )
    if not check_q_realizer(struct, q, components):
        raise InvariantError("generating tuple fails its own type")
    return q


def _q_realizers(
    struct: BipartiteStructure, q: QType, choices: tuple[tuple[int, ...], ...]
) -> list[tuple[int, ...]]:
    """The tuples realizing q's second and third parts whose component i is
    drawn from choices[i], in product order.

    Components are placed one at a time, with the realizer mask of the base
    type and the literals placed so far: a zero mask (which includes every
    sign clash) prunes the subtree.  The third part is read as blocks, one
    per component j and tuple zs of r positions among the base members and
    the components: j's signature over the parameters at zs.  The
    generating tuple's blocks are read over the base members followed by
    the generating tuple; a block is compared as soon as component j and
    every component zs reads are placed, and a mismatch prunes the subtree.
    A leaf has had every block compared, so it has the generating tuple's
    signatures."""
    base = struct.base_members()
    generating = (*base, *q.generating)
    r = min(q.family.arity, len(generating))
    ztuples = tuple(combinations(range(len(generating)), r))
    if q.component_count:
        # the entries of one component's signature, all its blocks together
        _check_table_size(len(ztuples) * 2 ** (r + 1))
    # ready[d]: (subject position, z positions, generating block) of each
    # block that reads nothing past the first d components
    ready: list[list] = [[] for _ in range(q.component_count + 1)]
    for j in range(q.component_count):
        subject = len(base) + j
        for zs in ztuples:
            depth = max([j, *(z - len(base) for z in zs)]) + 1
            block = _signature(struct, q.family, generating[subject],
                               tuple([generating[z] for z in zs]))
            ready[depth].append((subject, zs, block))
    used = tuple(set(chain.from_iterable(choices)))
    lits = dict(zip(used, struct._literal_pairs(used)))
    # the base members, then the components placed so far
    params = list(base)
    found: list[tuple[int, ...]] = []

    def place(mask: int) -> None:
        d = len(params) - len(base)
        if d == len(choices):
            found.append(tuple(params[len(base):]))
            return
        for c in choices[d]:
            narrowed = mask & lits[c][d % 2]
            if not narrowed:
                continue
            params.append(c)
            if all(_signature(struct, q.family, params[subject],
                              tuple([params[z] for z in zs])) == block
                   for subject, zs, block in ready[d + 1]):
                place(narrowed)
            params.pop()

    mask = struct.type_mask(q.base_type)
    if mask:
        place(mask)
    return found


def check_q_realizer(
    struct: BipartiteStructure, q: QType, candidate: tuple[int, ...]
) -> bool:
    """Decide candidate |= q.  The arity first, then every component is a
    known parameter, and then every one lies in theta; the rest is q's
    search with each position held to the candidate's component."""
    if len(candidate) != q.component_count:
        raise ArityMismatchError(
            f"expected {q.component_count} components, got {len(candidate)}"
        )
    if not struct.theta_set.issuperset(struct._checked_params(candidate)):
        return False
    return bool(_q_realizers(struct, q, tuple((c,) for c in candidate)))


@dataclass(frozen=True)
class QHarnessReport:
    """Per-tuple certificate sizes for realizers of q; a realizer's extended
    type is consistent by q_double_prime, so every size is defined."""

    reference_size: int
    candidates_checked: int
    passing: tuple[tuple[tuple[int, ...], int], ...]

    @property
    def ok(self) -> bool:
        return all(size <= self.reference_size for _, size in self.passing)


def q_harness(struct: BipartiteStructure, config: GoodConfiguration) -> QHarnessReport:
    """Find every theta tuple realizing q and certify each passing tuple's
    type at most as hard to isolate as the generating one (certificate size
    <=).  The tuples come from q's depth-first search with theta at every
    position, which prunes a prefix as soon as it fails q, so
    candidates_checked, |theta|^(2K), counts the tuples it decides rather
    than visits.  Guarded to small configurations and theta sets."""
    if config.size > Q_PAIR_LIMIT:
        raise ResourceLimitError(
            f"harness guard: {config.size} pairs > {Q_PAIR_LIMIT}"
        )
    theta = struct.theta_members()
    if len(theta) > Q_THETA_LIMIT:
        raise ResourceLimitError(
            f"harness guard: |theta| = {len(theta)} > {Q_THETA_LIMIT}"
        )
    q = q_type(struct, config)
    p = config.base_type
    reference = find_isolating_subtype(struct, extend_type(p, config)).size
    passing = []
    for candidate in _q_realizers(struct, q, (theta,) * q.component_count):
        p_cand = extend_type(p, zip(candidate[::2], candidate[1::2]))
        passing.append((candidate, find_isolating_subtype(struct, p_cand).size))
    checked = len(theta) ** q.component_count
    return QHarnessReport(reference, checked, tuple(passing))
