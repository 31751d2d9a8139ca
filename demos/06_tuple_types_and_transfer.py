#!/usr/bin/env python3
"""What a parameter tuple must satisfy to replace a configuration.

The q-type of a maximal good configuration records membership, joint
realizability with the base type (every sub-conjunction of a finite type is
realizable once the whole type is, so that is one consistency check), and
one delta signature per component over the tuple of base parameters
followed by all components (the components are re-substitutable positions,
so the signatures pin down the candidates' mutual relations too).  Any
tuple realizing all three parts yields a type that isolates at most as hard
as the original: certificate sizes never grow across realizers of q.
"""

import philab as pl
from philab.goodconfig import GoodConfiguration
from philab.isolation import q_harness

# three overlapping intervals on 0..8, each column duplicated, empty base:
# plenty of content twins for the harness to discover
intervals = [(0, 3), (2, 5), (4, 7), (0, 3), (2, 5), (4, 7)]
cols = [set(range(lo, hi + 1)) for lo, hi in intervals]
rows = tuple(tuple(1 if x in c else 0 for c in cols) for x in range(9))
s = pl.BipartiteStructure(rows, frozenset(), frozenset(range(6)))

print("columns (duplicated intervals):", intervals)
dim = pl.independence_dimension(s).id_value
configs = pl.oracle_all_good_configs(s, min(2, dim + 1), pl.oracle_vc(s))
best = max(len(c) for c in configs)
pairs = min(c for c in configs if len(c) == best)
config = GoodConfiguration(pairs, pl.EMPTY_TYPE)
print("dimension:", dim, "| maximal configuration:", config.pairs)

q = pl.q_type(s, config)
print("\nq-type parts:")
print("  components constrained to theta:", q.component_count)
print("  base-type literals, checked once with each candidate's:", len(q.base_type))
print("  delta signature blocks, one per component and z-position tuple:",
      sum(map(len, q.blocks)))
print("  positions each signature ranges over:", len(s.base_members()) + q.component_count)

report = q_harness(s, config)
print(f"\nharness over theta^{q.component_count}:"
      f" {report.candidates_checked} tuples checked,"
      f" {len(report.passing)} realize q")
print("reference certificate size:", report.reference_size)
shown = 0
for candidate, size in report.passing:
    print(f"  tuple {candidate}: certificate size {size}")
    shown += 1
    if shown == 8:
        print(f"  ... and {len(report.passing) - shown} more")
        break
print("all within the reference:", report.ok)

print("\nthe generating tuple always realizes its own q-type:")
print("  check_q_realizer ->", pl.check_q_realizer(s, q, config.components))

print("\na content twin of the generating tuple also realizes it:")
twin = tuple((c + 3) % 6 for c in config.components)
print(f"  twin {twin} ->", pl.check_q_realizer(s, q, twin))

print("\ntuples outside theta fail the membership part:")
shrunk = pl.BipartiteStructure(s.truth, frozenset(), frozenset(range(4)))
cfgs = [c for c in pl.oracle_all_good_configs(shrunk, 1, pl.oracle_vc(shrunk)) if c]
cfg2 = GoodConfiguration(cfgs[0], pl.EMPTY_TYPE)
q2 = pl.q_type(shrunk, cfg2)
outside = (5,) * q2.component_count
print(f"  {outside} against theta of size 4 ->",
      pl.check_q_realizer(shrunk, q2, outside))
