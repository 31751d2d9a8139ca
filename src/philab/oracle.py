"""Independent brute-force reference implementations.

Everything here re-derives its answers straight from the definitions by
exhaustive enumeration over the raw truth matrix, deliberately sharing no
code with the subject modules (row sets instead of bitmasks, inline
existential scans instead of the delta module).  Guards are hard errors,
never silent truncation.  These back every derived expected value and the
differential acceptance suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

from .errors import ResourceLimitError
from .structure import BipartiteStructure, PhiType

VC_Y_LIMIT = 10
MIN_ISOLATING_DOM_LIMIT = 14
GOODCONFIG_THETA_LIMIT = 10
GOODCONFIG_MAX_K_LIMIT = 3
FINSAT_ENTRY_LIMIT = 12
FINSAT_K_LIMIT = 4


@dataclass(frozen=True)
class OracleReport:
    """One differential comparison, serializable as a JSON log line."""

    operation: str
    instance: str
    oracle_value: object
    subject_value: object

    @property
    def agree(self) -> bool:
        return self.oracle_value == self.subject_value

    def json_line(self) -> str:
        return json.dumps(
            {
                "operation": self.operation,
                "instance": self.instance,
                "oracle": self.oracle_value,
                "subject": self.subject_value,
                "agree": self.agree,
            },
            sort_keys=True,
        )


def _rows_satisfying(struct: BipartiteStructure, literals) -> set[int]:
    literals = list(literals)
    rows = set()
    for a in range(struct.m):
        if all(struct.truth[a][b] == sign for b, sign in literals):
            rows.add(a)
    return rows


def oracle_vc(struct: BipartiteStructure) -> int:
    """Maximum size of an independent parameter set, by checking every
    subset of Y against every sign pattern with no pruning."""
    n = struct.n
    if n > VC_Y_LIMIT:
        raise ResourceLimitError(f"oracle_vc guard: |Y| = {n} > {VC_Y_LIMIT}")
    best = 0
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            shattered = True
            for signs in product((0, 1), repeat=size):
                if not _rows_satisfying(struct, zip(subset, signs)):
                    shattered = False
                    break
            if shattered:
                best = max(best, size)
    return best


def oracle_min_isolating(struct: BipartiteStructure, p: PhiType) -> int:
    """Minimum size of a subtype whose realizer set already equals p's,
    by checking every subset of p's literals."""
    dom = p.domain
    if len(dom) > MIN_ISOLATING_DOM_LIMIT:
        raise ResourceLimitError(
            f"oracle_min_isolating guard: |dom| = {len(dom)} > {MIN_ISOLATING_DOM_LIMIT}"
        )
    target = _rows_satisfying(struct, p.items)
    for size in range(len(dom) + 1):
        for subset in combinations(p.items, size):
            if _rows_satisfying(struct, subset) == target:
                return size
    raise AssertionError("p itself always has its own realizer set")


def _delta_holds(
    struct: BipartiteStructure,
    c: int,
    zs: tuple[int, ...],
    t: int,
    s: tuple[int, ...],
    memo: dict,
) -> bool:
    key = (c, zs, t, s)
    hit = memo.get(key)
    if hit is None:
        hit = False
        for a in range(struct.m):
            if struct.truth[a][c] != t:
                continue
            if all(struct.truth[a][z] == sign for z, sign in zip(zs, s)):
                hit = True
                break
        memo[key] = hit
    return hit


def oracle_finitely_satisfiable(
    struct: BipartiteStructure,
    table: dict,
    base,
    k: int,
) -> bool:
    """Finite-k satisfiability of a delta table, keyed (zs, t, s) -> bool,
    in the base parameters: every min(k, |table|)-entry chunk of the table
    is matched by some base parameter on that chunk.  Enumerates every
    chunk; an empty base matches nothing."""
    entries = list(table.items())
    if len(entries) > FINSAT_ENTRY_LIMIT or k > FINSAT_K_LIMIT:
        raise ResourceLimitError(
            f"oracle_finitely_satisfiable guard: {len(entries)} entries, k = {k}"
        )
    if k < 1:
        raise ValueError("k must be >= 1")
    base = sorted(set(base))
    if not base:
        return False
    memo: dict = {}
    for chunk in combinations(entries, min(k, len(entries))):
        if not any(
            all(_delta_holds(struct, b, zs, t, s, memo) == value
                for (zs, t, s), value in chunk)
            for b in base
        ):
            return False
    return True


def _same_delta_type(
    struct: BipartiteStructure,
    arity: int,
    c0: int,
    c1: int,
    domain: tuple[int, ...],
    memo: dict,
) -> bool:
    for zs in product(domain, repeat=arity):
        for t in (0, 1):
            for s in product((0, 1), repeat=arity):
                if _delta_holds(struct, c0, zs, t, s, memo) != _delta_holds(
                    struct, c1, zs, t, s, memo
                ):
                    return False
    return True


def _clauses_hold(
    struct: BipartiteStructure,
    pairs: tuple[tuple[int, int], ...],
    p: PhiType,
    arity: int,
    memo: dict,
) -> bool:
    k = len(pairs)
    for c0, c1 in pairs:
        if c0 not in struct.theta_set or c1 not in struct.theta_set:
            return False
    literals = list(p.items)
    for c0, c1 in pairs:
        literals.append((c0, 0))
        literals.append((c1, 1))
    signs_seen: dict[int, int] = {}
    for b, sign in literals:
        if signs_seen.setdefault(b, sign) != sign:
            return False  # contradictory literals can have no realizer
    if not _rows_satisfying(struct, signs_seen.items()):
        return False
    base = tuple(sorted(struct.base_set))
    for s in product((0, 1), repeat=k):
        for j in range(k):
            domain = tuple(
                sorted(set(base) | {pairs[i][s[i]] for i in range(k) if i != j})
            )
            if not _same_delta_type(
                struct, arity, pairs[j][0], pairs[j][1], domain, memo
            ):
                return False
    return True


def oracle_all_good_configs(
    struct: BipartiteStructure,
    p: PhiType,
    max_k: int,
    arity: Optional[int] = None,
) -> list[tuple[tuple[int, int], ...]]:
    """Every pair list of length <= max_k passing the three clauses, in
    lexicographic order.

    The enumeration extends passing lists only: a list whose prefix fails a
    clause cannot pass (prefixes of good configurations are good), so the
    output is identical to checking all lists; the naive generate-and-test
    version is cross-checked against this at tiny scale in the tests.
    """
    theta = tuple(sorted(struct.theta_set))
    if len(theta) > GOODCONFIG_THETA_LIMIT:
        raise ResourceLimitError(
            f"oracle_all_good_configs guard: |theta| = {len(theta)} > {GOODCONFIG_THETA_LIMIT}"
        )
    if max_k > GOODCONFIG_MAX_K_LIMIT:
        raise ResourceLimitError(
            f"oracle_all_good_configs guard: max_k = {max_k} > {GOODCONFIG_MAX_K_LIMIT}"
        )
    if arity is None:
        arity = _oracle_dimension(struct)
    all_pairs = [(c0, c1) for c0 in theta for c1 in theta]
    memo: dict = {}
    found: list[tuple[tuple[int, int], ...]] = []

    def descend(prefix: tuple[tuple[int, int], ...]) -> None:
        if _clauses_hold(struct, prefix, p, arity, memo):
            found.append(prefix)
            if len(prefix) < max_k:
                for pair in all_pairs:
                    descend(prefix + (pair,))

    descend(())
    return found


def _oracle_dimension(struct: BipartiteStructure) -> int:
    value = getattr(struct, "_oracle_id_cache", None)
    if value is None:
        value = oracle_vc(struct)
        object.__setattr__(struct, "_oracle_id_cache", value)
    return value


def oracle_all_good_configs_naive(
    struct: BipartiteStructure,
    p: PhiType,
    max_k: int,
    arity: Optional[int] = None,
) -> list[tuple[tuple[int, int], ...]]:
    """Generate-and-test over all pair lists, no pruning; exists only to
    validate the pruned enumeration on very small instances."""
    theta = tuple(sorted(struct.theta_set))
    if len(theta) > 4 or max_k > 2:
        raise ResourceLimitError("naive enumeration is restricted to tiny instances")
    if arity is None:
        arity = _oracle_dimension(struct)
    all_pairs = [(c0, c1) for c0 in theta for c1 in theta]
    memo: dict = {}
    found = []
    for k in range(max_k + 1):
        for prefix in product(all_pairs, repeat=k):
            if _clauses_hold(struct, prefix, p, arity, memo):
                found.append(prefix)
    return sorted(found)
