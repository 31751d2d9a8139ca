"""Golden outputs: the JSON stdout of `isolate`, `config` and `verify --suite
S` (S in remark, bound, defining, oracle, budget) over fixed random specs,
pinned by sha256.

Each digest covers one command line over all specs: for every spec in SPECS
order, the exit code and the stdout, so a change in any certificate,
configuration, tie-break or harness count changes the digest.  The
multi-instance digests each cover one `verify` command line over several
instances, so they pin counters summed across instances, the `shatter`
report, and the oracle on tall structures, where its distinct rows are far
fewer than its rows.
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


#: One `verify` run over several instances: five random seeds of each family,
#: ten tall 4096x10 structures, where many rows repeat, or a fully shattered
#: structure.
MULTI_COMMANDS = {
    **{f"verify --suite {suite} --seeds 0..4":
       ["verify", "--suite", suite, "--gen", "random", "--seeds", "0..4"]
       for suite in ("bound", "remark", "defining", "oracle", "budget")},
    **{f"verify --suite {suite} --gen random:unions2:0:4096:10 --seeds 0..9":
       ["verify", "--suite", suite, "--gen", "random:unions2:0:4096:10", "--seeds", "0..9"]
       for suite in ("oracle", "remark", "bound")},
    **{f"verify --suite shatter --gen shattered:{k}":
       ["verify", "--suite", "shatter", "--gen", f"shattered:{k}"] for k in range(6)},
}

MULTI_DIGESTS = {
    "verify --suite bound --seeds 0..4":
        "980ac3d53af85012cc98d97f0a81122b1536cd942e065826caff160ba1cf99ed",
    "verify --suite budget --seeds 0..4":
        "a33c274e071f81385ecf35e4d8167ce83c39c6ca3c6f2053ea1408b77f9c787b",
    "verify --suite defining --seeds 0..4":
        "277be719e11a14b27ac6007779667f6cb77fd94cfd215ae1e5e2af34e2dde9b2",
    "verify --suite oracle --seeds 0..4":
        "d9e63a559d90218626854b20fcd27e271534c53cb73d7c711510a89a370be18a",
    "verify --suite remark --seeds 0..4":
        "efd5fa943c328c07124f3d6c93a75c62c723420c0465ebb98a4c3d9dca789666",
    "verify --suite oracle --gen random:unions2:0:4096:10 --seeds 0..9":
        "1eef4a52099355bbba771b9164694a1dd33ec60df5a5c421e522a03839bcb255",
    "verify --suite remark --gen random:unions2:0:4096:10 --seeds 0..9":
        "45e394fb780ce766a9877ce9ee882136ff431d0b3e78459e2174629abfaf3659",
    "verify --suite bound --gen random:unions2:0:4096:10 --seeds 0..9":
        "537cd1a5e98ecec4c3c4ace2acfd8368e15dc276a85113431d6e73e9abc56d08",
    "verify --suite shatter --gen shattered:0":
        "b7f4a6141b9f57edfc9d5e60ed8c8d8d3929eb0fcf5215e00a71c09dba6ab805",
    "verify --suite shatter --gen shattered:1":
        "d3d34c9d6175629d1eb0f2b28d16c118a285d0df46fb3ad01101c6a21136ce75",
    "verify --suite shatter --gen shattered:2":
        "6befff2a62a5d427a7d68e157cbb5268ec9c92ce35c3856bf2290148e7002054",
    "verify --suite shatter --gen shattered:3":
        "8239f2addcd87880d475f30fdbeb570cdaa6e59115009ecabe7653cfc3548854",
    "verify --suite shatter --gen shattered:4":
        "de4a9bed04eccd0a56efcfd9836fd69186632a19ab6a2a7239b2d755a87e01e7",
    "verify --suite shatter --gen shattered:5":
        "cea167b705d2923239aa007f1fea6fef583a812286afa902ae39eec2da8c8341",
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


@pytest.mark.parametrize("name", sorted(MULTI_COMMANDS))
def test_multi_instance_digest(capsys, name):
    code = main([*MULTI_COMMANDS[name], "--format", "json"])
    out = f"{code}\n{capsys.readouterr().out}"
    assert hashlib.sha256(out.encode()).hexdigest() == MULTI_DIGESTS[name]


def test_k_all_builds_no_full_table():
    # at k = 1 this structure grows a non-empty configuration; at every k the
    # memo holds only ints (the dimension and packed signatures)
    for k_sat in (pl.ALL, 1, 2):
        s = pl.gen_random_bounded(37, 20, 6)
        p = s.trace(3, s.base_members())
        pl.build_maximal(s, p, k_sat=k_sat)
        assert not any(key[0] == "delta_type" for key in s._memo)
        assert all(isinstance(value, int) for value in s._memo.values())
