#!/usr/bin/env python3
"""Structures, traces, and type spaces.

A structure is a finite truth matrix for a partitioned formula phi(x; y):
rows are elements (the x sort), columns are parameters (the y sort).  A
type is a sign assignment to some parameters; its realizers are the rows
matching every literal.
"""

import philab as pl

TEXT = """# phi-structure v1
X 4
Y 2
B 0 1
THETA ALL
MATRIX
00
01
10
11
"""

s = pl.parse_structure(TEXT)
print("parsed a", s.m, "x", s.n, "structure; base =", s.base_members())

print("\nTraces read a row off the matrix:")
for a in range(s.m):
    print(f"  trace({a}) = {s.trace(a, [0, 1])}")

p = pl.PhiType({0: 1, 1: 1})
print("\nrealizers of {0->1, 1->1}:", s.realizers(p))
print("the empty type is realized by everything:", s.realizers(pl.EMPTY_TYPE))

print("\nThe type space over a domain is the set of realized traces:")
print("  over both columns:", len(s.type_space([0, 1])), "types (all four patterns)")
print("  over no columns:  ", len(s.type_space([])), "type (the empty one)")

print("\nEntailment is realizer containment inside the structure:")
chain = pl.gen_linear_order(5, [1, 2, 3, 4])
cut = chain.trace(0, [1, 2, 3, 4])
print("  chain: {1->1} entails the whole trace of element 0:",
      chain.entails(pl.PhiType({1: 1}), cut))
print("  shattered: {0->1} does not entail {0->1, 1->1}:",
      s.entails(pl.PhiType({0: 1}), p))

print("\nSerialization is canonical and round-trips byte-identically:")
print(pl.serialize_structure(s) == TEXT)
