#!/usr/bin/env python3
"""Good configurations and the dimension bound.

A good configuration of a type p is a list of parameter pairs, drawn from
theta, whose signed literals stay consistent with p and whose two members
are indistinguishable to the two-level existential family over the base set
plus any selection from the other pairs.  The point of the three clauses:
configurations can never grow past the independence dimension.
"""

from itertools import permutations

import philab as pl
from philab.goodconfig import GoodConfiguration

print("Enumerating every good configuration of the empty type")
print("(pair lists over theta, all three clauses checked):\n")
for seed in (3, 11, 17):
    s = pl.gen_random_bounded(seed, 20, 6, pl.generators.INTERVALS)
    dim = pl.independence_dimension(s).id_value
    configs = pl.oracle_all_good_configs(s, min(3, dim + 1), pl.oracle_vc(s))
    sizes = sorted({len(c) for c in configs})
    print(f"  seed {seed}: dimension {dim}, {len(configs)} configurations,"
          f" sizes {sizes} (bound holds: {max(sizes) <= dim})")

print("\nThe checker reports the first violated clause:")
s = pl.gen_linear_order(5, [0, 2])
check = pl.is_good_configuration(s, GoodConfiguration(((1, 3),), pl.EMPTY_TYPE))
print(f"  thresholds (1, 3) over base {{0, 2}}: ok={check.ok},"
      f" clause={check.clause}, witness={check.witness}")

print("\nEvery sub-list of a good configuration, in any order, is good")
print("(so the oracle extends a list only by pairs that extended its parent):")
s = pl.gen_random_bounded(19, 20, 6, pl.generators.UNIONS)
dim = pl.independence_dimension(s).id_value
configs = pl.oracle_all_good_configs(s, min(3, dim + 1), pl.oracle_vc(s))
checked = 0
for pairs in configs:
    for size in range(len(pairs) + 1):
        for sub in permutations(pairs, size):
            assert pl.is_good_configuration(s, GoodConfiguration(sub, pl.EMPTY_TYPE))
            assert sub in configs
            checked += 1
print(f"  {checked} sub-lists of {len(configs)} configurations verified"
      f" on unions seed 19")

print("\nGreedy maximal construction matches the exhaustive search:")
for seed in (3, 11, 17):
    s = pl.gen_random_bounded(seed, 20, 6, pl.generators.INTERVALS)
    exhaustive = pl.build_maximal(s, pl.EMPTY_TYPE, "exhaustive")
    bound_ok = exhaustive.size <= pl.independence_dimension(s).id_value
    print(f"  seed {seed}: exhaustive max size {exhaustive.size}, bound ok {bound_ok}")
