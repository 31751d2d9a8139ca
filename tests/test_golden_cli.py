"""Golden outputs: the JSON stdout of `isolate`, `config` and `verify --suite
S` (S in remark, bound, defining, oracle, budget) over fixed random specs,
pinned by sha256.

Each digest covers one command line over all specs: for every spec in SPECS
order, the exit code and the stdout, so a change in any certificate,
configuration, tie-break or harness count changes the digest.
"""

import hashlib

import pytest

import philab as pl
from philab.cli import main

# intervals 18 and 37 grow a non-empty configuration for element 3 at k = 1
SPECS = [f"random:intervals:{g}:20:6" for g in (0, 1, 2, 3, 18, 37)] + [
    f"random:unions2:{g}:20:6" for g in range(6)
]

COMMANDS = {
    "isolate --k-sat all": ["isolate", "--of", "3", "--k-sat", "all"],
    "isolate --k-sat 1": ["isolate", "--of", "3", "--k-sat", "1"],
    "isolate --k-sat 2": ["isolate", "--of", "3", "--k-sat", "2"],
    "config --k-sat all": ["config", "--of", "3", "--k-sat", "all"],
    "config --k-sat 1": ["config", "--of", "3", "--k-sat", "1"],
    "config --k-sat 2": ["config", "--of", "3", "--k-sat", "2"],
    "verify --suite remark": ["verify", "--suite", "remark"],
    "verify --suite bound": ["verify", "--suite", "bound"],
    "verify --suite defining": ["verify", "--suite", "defining"],
    "verify --suite oracle": ["verify", "--suite", "oracle"],
    "verify --suite budget": ["verify", "--suite", "budget"],
}

DIGESTS = {
    "config --k-sat 1": "eb5f62457c5164a59fdeeaea6aafe9be49ef5ce0a11402c003f9a9c90ac6e722",
    "config --k-sat 2": "4f5f8bc582882732cedcc1b6a7315ef46c9e171ffa03a2515068318bb7940e88",
    "config --k-sat all": "4f5f8bc582882732cedcc1b6a7315ef46c9e171ffa03a2515068318bb7940e88",
    "isolate --k-sat 1": "2af674e60d6f72169a2608a20257c0c679235aa4375d4e420e5b671dcbbcf718",
    "isolate --k-sat 2": "f5f8f9c88b9e11b6cfb83c2de9e5e2e7751549d795bae0331f36fd500697e337",
    "isolate --k-sat all": "f5f8f9c88b9e11b6cfb83c2de9e5e2e7751549d795bae0331f36fd500697e337",
    "verify --suite remark": "c9a2dc7d69c95d73d982935621693ba0c7585279666fe74a5c9efe77131effea",
    "verify --suite bound": "3dae7c2daeef7863d1d4eb0fe198b8bd79a2b35c074fc9099d5cb15a3e0db23c",
    "verify --suite defining": "263258488ecafed916db866aba88c29b2244126e62a3380d5f709a93fb5feeb7",
    "verify --suite oracle": "9332f1461719302dd22c42c8f5c74cd4513df9edebf87457e1400366d969374e",
    "verify --suite budget": "9a3359a141c280e69a21f6b591cea0044ffc92f8dcfa708476a9cc611b70b84c",
}


def digest(capsys, argv: list[str]) -> str:
    h = hashlib.sha256()
    for spec in SPECS:
        code = main([*argv, "--gen", spec, "--format", "json"])
        h.update(f"{spec} {code}\n".encode())
        h.update(capsys.readouterr().out.encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_digest(capsys, name):
    assert digest(capsys, COMMANDS[name]) == DIGESTS[name]


def test_k_all_builds_no_full_table():
    # at k = 1 this structure grows a non-empty configuration; at every k the
    # memo holds only ints (the dimension and packed signatures)
    for k_sat in (pl.ALL, 1, 2):
        s = pl.gen_random_bounded(37, 20, 6)
        p = s.trace(3, s.base_members())
        pl.build_maximal(s, p, k_sat=k_sat)
        assert not any(key[0] == "delta_type" for key in s._memo)
        assert all(isinstance(value, int) for value in s._memo.values())
