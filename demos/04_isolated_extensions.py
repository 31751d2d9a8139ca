#!/usr/bin/env python3
"""The isolating-extension pipeline on a gap-filled chain.

A cut type over a sparse base can only be pinned down to the gap between
two base thresholds.  Extending the type by a good configuration drawn from
the gap points narrows it further, and the certificate of the extension is
still just two literals, within the 2K <= 2*dimension budget.

The satisfiability knob matters: at full strength (ALL) a candidate pair's
table must be realized by a single base column, which forces content
duplication and therefore no extension ever fires; at strength 1, each
table entry may be matched by a different base column, and the straddling
pair around the cut qualifies.

On a chain a step adds one pair, well short of the budget.  On a grid, one
chain per coordinate, the budget is met exactly: a type cut in both
coordinates takes one step per coordinate, K = ID pairs, 2K = 2*ID
parameters.
"""

from itertools import product

import philab as pl
from philab.delta import ALL
from philab.goodconfig import GoodConfiguration

chain = pl.gen_linear_order(12, [0, 4, 8], fill_gaps=True)
p = chain.trace(6, chain.base_members())
print("order on 0..11, base thresholds {0, 4, 8}, theta = every point")
print("cut type of element 6 over the base:", p)
print("its realizers:", chain.realizers(p))

print("\nfull-strength satisfiability: no extension pair exists")
print("  find_extension_pair(..., ALL) ->",
      pl.find_extension_pair(chain, GoodConfiguration((), p), ALL))

pair = pl.find_extension_pair(chain, GoodConfiguration((), p), 1)
print("\nstrength 1: the straddling pair fires")
print("  find_extension_pair(..., 1) ->", pair)

result = pl.isolated_extension(chain, p, k_sat=1)
print("\npipeline result:")
print("  configuration pairs:", result.configuration.pairs)
print("  extension:", result.extension)
print("  extension realizers:", chain.realizers(result.extension))
print("  certificate:", result.certificate.subtype,
      f"(size {result.certificate.size}, minimal={result.certificate.minimal})")
print("  budget: added", result.added_params, "params, 2K =", result.two_k,
      "<= 2*ID =", result.two_id, "->", result.budget_ok)
print("  diagnostic:", result.diagnostic)

formula = pl.phi_defining_formula(chain, result.certificate)
print("\nthe defining formula reproduces the extension's signs:")
for b, sign in result.extension.items:
    assert formula.holds(b) == bool(sign)
print("  checked on the whole domain; e.g. psi(8) =", formula.holds(8),
      "and psi(4) =", formula.holds(4))

print("\nwitness conjunction from a realizer's full trace:")
gamma = pl.gamma_certificate(chain, 5, result.configuration)
print("  gamma =", gamma)
print("  entails the extended type:",
      chain.entails(gamma, result.extension))

print("\ndisjunction covering the extension's realizers, one per trace class:")
disjuncts = pl.psi_disjunction(chain, result.configuration)
for g in disjuncts:
    print("  ", g, "-> realizers", chain.realizers(g))

print("\ngrid 8x8, column (i, t) holds x_i < t for t = 1..6, base cuts {3, 6}:")
cols = [(i, t) for i in range(2) for t in range(1, 7)]
rows = tuple(tuple(int(x[i] < t) for i, t in cols) for x in product(range(8), repeat=2))
base = frozenset(j for j, (_, t) in enumerate(cols) if t in (3, 6))
grid = pl.BipartiteStructure(rows, base, frozenset(range(len(cols))))
dim = pl.independence_dimension(grid).id_value
print(f"  {grid.m} x {grid.n}, ID = {dim}")
steps = {}
for q in grid.type_space(grid.base_members()):
    run = pl.isolated_extension(grid, q, k_sat=1)
    steps.setdefault(run.configuration.size, []).append(run)
print("  K histogram at strength 1:", {k: len(runs) for k, runs in sorted(steps.items())})
[top] = steps[dim]
print("  the type reaching K = ID:", top.configuration.base_type)
print("  configuration pairs:", top.configuration.pairs)
print("  budget: added", top.added_params, "params, 2K =", top.two_k,
      "<= 2*ID =", top.two_id, "->", top.budget_ok)
