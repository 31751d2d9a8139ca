import pytest

import philab as pl
from philab.cover import DEFAULT_COVER_LIMIT, least_cover
from philab.delta import ALL

S1_TEXT = """# phi-structure v1
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


@pytest.fixture
def s1():
    """Fully shattered 4x2 structure: rows 00, 01, 10, 11."""
    return pl.parse_structure(S1_TEXT)


@pytest.fixture
def s2():
    """Chain: X = {0..4}, columns y1..y4 with truth[i][j] = (i < j+1)."""
    rows = tuple(tuple(1 if i < j else 0 for j in range(1, 5)) for i in range(5))
    return pl.BipartiteStructure(rows, frozenset(range(4)), frozenset(range(4)))


@pytest.fixture
def gap_chain():
    """Order on 0..11 with sparse base {0, 4, 8} and theta covering the gaps."""
    return pl.gen_linear_order(12, [0, 4, 8], fill_gaps=True)


def build_corpus():
    """The regression corpus: both random families over seeds 0..99, small
    shattered/linear/eqrel instances.  Criteria filter it by |Y| as stated."""
    out = []
    for fam in (pl.generators.INTERVALS, pl.generators.UNIONS):
        for seed in range(100):
            out.append((f"{fam}:{seed}", pl.gen_random_bounded(seed, 20, 6, fam)))
    for k in range(1, 5):
        out.append((f"shattered:{k}", pl.gen_shattered(k)))
    out.append(("linear:5", pl.gen_linear_order(5, [1, 2, 3, 4])))
    out.append(("linear:6:b=1,3", pl.gen_linear_order(6, [1, 3])))
    out.append(("linear:6:b=2,4:nofill", pl.gen_linear_order(6, [2, 4], False)))
    out.append(("linear:12:b=0,4,8", pl.gen_linear_order(12, [0, 4, 8])))
    out.append(("eqrel:1", pl.gen_eqrel(pl.EqRelSpec([2], [1]))))
    out.append(("eqrel:2", pl.gen_eqrel(pl.EqRelSpec([3], [2]))))
    out.append(("eqrel:1,1", pl.gen_eqrel(pl.EqRelSpec([2, 1], [1, 1]))))
    return out


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


def reference_finitely_satisfiable(s, family, c, domain, base, k=ALL,
                                   limit=DEFAULT_COVER_LIMIT):
    """Finite satisfiability on full dict tables: one disagreement set per
    table entry, and k holds iff no cover of the base by at most k of them
    exists; k = ALL, or k >= |base|, asks for a base table equal to c's."""
    dom = sorted(set(domain))
    base = sorted(set(base))
    if not base:
        return False
    table = pl.delta_type(s, family, c, dom).table
    others = [pl.delta_type(s, family, b, dom).table for b in base]
    if k is ALL or k >= len(base):
        return table in others
    disagree = [sum(1 << j for j, other in enumerate(others) if other[entry] != value)
                for entry, value in table.items()]
    return least_cover(disagree, (1 << len(base)) - 1, min(k, len(disagree)), limit) is None
