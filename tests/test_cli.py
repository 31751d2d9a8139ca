import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from philab import cli, isolation, vc
from philab.cli import main

from conftest import S1_TEXT


@pytest.fixture
def s1_file(tmp_path):
    path = tmp_path / "s1.phi"
    path.write_text(S1_TEXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestId:
    def test_text(self, capsys, s1_file):
        code, out, _ = run(capsys, "id", "-i", s1_file)
        assert code == 0
        assert out.strip() == "ID = 2, witness = [0, 1]"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "id", "--gen", "shattered:3", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"capped": False, "id": 3, "witness": [0, 1, 2]}

    def test_chain_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "gen", "--gen", "linear:5:b=1,2,3,4",
                           "-o", str(tmp_path / "chain5.phi"))
        assert code == 0
        code, out, _ = run(capsys, "id", "-i", str(tmp_path / "chain5.phi"))
        assert out.startswith("ID = 1")

    def test_cap(self, capsys):
        code, out, _ = run(capsys, "id", "--gen", "shattered:4", "--cap", "2",
                           "--format", "json")
        payload = json.loads(out)
        assert payload["id"] == 2 and payload["capped"]

    def test_dimension_guard_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(vc, "DIMENSION_NODE_LIMIT", 14)
        code, out, err = run(capsys, "id", "--gen", "shattered:4", "--cap", "full")
        assert code == 3 and out == ""
        assert err.startswith("resource guard:")


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        argv = ["isolate", "--gen", "random:intervals:5:20:6", "--of", "0",
                "--format", "json"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestIsolate:
    def test_shattered_full_subtype_with_diagnostic(self, capsys):
        code, out, _ = run(capsys, "isolate", "--gen", "shattered:3",
                           "--of", "5", "--over", "ALL", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["subtype"] == payload["type"]
        assert payload["diagnostic"] == "saturation-deficit"
        assert payload["budget"]["ok"]

    def test_lits_clash_exits_4(self, capsys):
        code, _, err = run(capsys, "isolate", "--gen", "shattered:2",
                           "--lits", "0=1,0=0")
        assert code == 4
        assert "bad spec" in err

    def test_gap_chain_budget(self, capsys):
        code, out, _ = run(capsys, "isolate", "--gen", "linear:12:b=0,4,8",
                           "--of", "6", "--k-sat", "1", "--format", "json")
        payload = json.loads(out)
        assert len(payload["subtype"]) <= 2
        assert payload["budget"]["2K"] <= 2

    def test_lits_explicit(self, capsys):
        code, out, _ = run(capsys, "isolate", "--gen", "linear:6:b=1,3",
                           "--lits", "1=0,3=1", "--format", "json")
        assert code == 0


class TestConfigDefineEmbed:
    def test_config_bound_ok(self, capsys):
        code, out, _ = run(capsys, "config", "--gen", "linear:12:b=0,4,8",
                           "--of", "6", "--k-sat", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound_ok"] and payload["checker"]["ok"]
        assert payload["size"] == len(payload["pairs"]) == 1

    def test_define(self, capsys, s1_file):
        code, out, _ = run(capsys, "define", "-i", s1_file,
                           "--lits", "0=1,1=1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["on_base"] == [[0, 1], [1, 1]]

    def test_embed_agrees(self, capsys):
        code, out, _ = run(capsys, "embed", "--gen", "eqrel:2",
                           "--element", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["agrees"]


class TestGen:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "--gen", "shattered:2")
        assert code == 0
        assert out == S1_TEXT

    def test_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "e.phi"
        code, _, _ = run(capsys, "gen", "--gen", "eqrel:1", "-o", str(out_path))
        assert code == 0
        sidecar = json.loads((tmp_path / "e.meta.json").read_text())
        assert sidecar["family"] == "eqrel"
        assert sidecar["detail"]["class_sizes"] == [2]

    def test_bad_spec(self, capsys):
        code, _, err = run(capsys, "gen", "--gen", "pentagon:5")
        assert code == 4


class TestVerify:
    def test_bound_random_seeds(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bound",
                           "--gen", "random", "--seeds", "0..4")
        assert code == 0
        assert "pass" in out

    def test_shatter(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "shatter",
                           "--gen", "shattered:4")
        assert code == 0

    def test_oracle_json(self, capsys, s1_file):
        code, out, _ = run(capsys, "verify", "--suite", "oracle", "-i", s1_file,
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] and payload["suite"] == "oracle"

    def test_unknown_suite_exits_4(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope",
                           "--gen", "shattered:2")
        assert code == 4

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.phi"
        bad.write_text("# wrong header\n")
        code, _, err = run(capsys, "id", "-i", str(bad))
        assert code == 2
        assert "parse error" in err

    def test_resource_guard_exits_3(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "oracle",
                           "--gen", "linear:11:b=0")
        assert code == 3
        assert "resource guard" in err


class TestSharedParser:
    def test_command_table_is_read_at_call_time(self, capsys, monkeypatch):
        assert run(capsys, "id", "--gen", "shattered:1")[0] == 0  # builds the parser
        seen = []
        monkeypatch.setitem(cli.COMMANDS, "id", lambda args: seen.append(args.cap) or 7)
        assert run(capsys, "id", "--gen", "shattered:1", "--cap", "3") == (7, "", "")
        assert seen == ["3"]

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["id", "--gen", "shattered:2", "--cap", "abc"],
        ["id", "--gen", "shattered:2", "--cap", "-1"],
        ["verify", "--suite", "bound", "--gen", "random", "--seeds", "a..b"],
        ["verify", "--suite", "bound", "--gen", "random:intervals:0:20",
         "--seeds", "0..3"],
        ["isolate", "--gen", "shattered:2", "--lits", "bby1=1"],
        ["isolate", "--gen", "shattered:2", "--lits", "yb1=1"],
        ["verify", "--suite", "bound", "--gen", "random",
         "--seeds", "0..10000000000000000000"],
    ])
    def test_bad_spec_exits_4(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert err.startswith("bad spec:")

    @pytest.mark.parametrize("argv", [
        ["isolate", "--gen", "shattered:2", "--of", "abc"],
        ["frob"],
        [],
        ["config", "--gen", "shattered:2", "--of", "0", "--strategy", "bogus"],
    ])
    def test_usage_error_exits_4(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 4
        assert "usage: philab" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: philab" in capsys.readouterr().out

    @pytest.mark.parametrize("target", ["missing/x.phi", "."])
    def test_unwritable_output_exits_4(self, capsys, tmp_path, target):
        code, _, err = run(capsys, "gen", "--gen", "shattered:2",
                           "-o", str(tmp_path / target))
        assert code == 4
        assert err.startswith("bad spec:")

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "bound", "--gen", "random", "--seeds", ","],
        ["verify", "--suite", "bound", "--gen", "random", "--seeds", "5..1"],
        ["types", "--gen", "shattered:2", "--over", "0,0"],
        ["isolate", "--gen", "shattered:2", "--of", "0", "--over", "1,1"],
        ["config", "--gen", "shattered:2", "--of", "0", "--strategy", "exhaustive",
         "--k-sat", "1"],
    ])
    def test_vacuous_or_ignored_input_exits_4(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == ""
        assert err.startswith("bad spec:")

    def test_non_utf8_input_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.phi"
        bad.write_bytes(b"\xff\xfe\x00")
        code, out, err = run(capsys, "id", "-i", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("parse error:")

    def test_seeds_with_input_exits_4(self, capsys, s1_file):
        code, out, err = run(capsys, "verify", "--suite", "bound", "-i", s1_file,
                             "--seeds", "0..3")
        assert code == 4 and out == ""
        assert err.startswith("bad spec:")

    def test_exhaustive_accepts_k_sat_all(self, capsys):
        argv = ["config", "--gen", "shattered:2", "--of", "0", "--over", "ALL",
                "--strategy", "exhaustive", "--format", "json"]
        code, default, _ = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--k-sat", "all") == (0, default, "")

    def test_single_prefix_accepted(self, capsys):
        code, out, _ = run(capsys, "define", "--gen", "shattered:2",
                           "--lits", "b0=1,y1=0", "--format", "json")
        assert code == 0
        assert json.loads(out)["type"] == [[0, 1], [1, 0]]

    def test_failed_certificate_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(isolation.DefiningFormula, "holds", lambda self, b: False)
        code, _, err = run(capsys, "define", "--gen", "shattered:2", "--lits", "0=1")
        assert code == 1
        assert err.startswith("invariant violation:")

    def test_certificate_check_survives_optimize_flag(self):
        script = (
            "import sys\n"
            "from philab import isolation\n"
            "from philab.cli import main\n"
            "isolation.DefiningFormula.holds = lambda self, b: False\n"
            "sys.exit(main(['define', '--gen', 'shattered:2', '--lits', '0=1']))\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("invariant violation:")
