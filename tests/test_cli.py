import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from philab import cli, delta, generators, isolation, vc
from philab.cli import main
from philab.goodconfig import GoodConfiguration
from philab.structure import PhiType

from conftest import S1_TEXT


#: a 2x2 structure file: its matrix rows are lines 7 and 8
TWO_ROWS = "# phi-structure v1\nX 2\nY 2\nB 0\nTHETA ALL\nMATRIX\n01\n10\n"


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
        # shattered:4's search tries 10 extensions (see test_vc)
        monkeypatch.setattr(vc, "DIMENSION_NODE_LIMIT", 9)
        code, out, err = run(capsys, "id", "--gen", "shattered:4", "--cap", "full")
        assert code == 3 and out == ""
        assert err.startswith("resource guard:")
        monkeypatch.setattr(vc, "DIMENSION_NODE_LIMIT", 10)
        code, out, _ = run(capsys, "id", "--gen", "shattered:4", "--cap", "full")
        assert code == 0 and out.startswith("ID = 4")

    def test_change_bound_ends_a_search_past_the_guard(self, capsys):
        # proving that no 5-set is independent here takes more than
        # DIMENSION_NODE_LIMIT extensions; the change bound is 4, so the
        # search stops at the first 4-set instead
        code, out, _ = run(capsys, "id", "--gen", "random:unions2:1:4096:512",
                           "--cap", "full", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"capped": False, "id": 4, "witness": [2, 12, 238, 304]}
        s = generators.gen_random_bounded(1, 4096, 512, generators.UNIONS)
        patterns = {tuple(row[b] for b in payload["witness"]) for row in s.truth}
        assert len(patterns) == 16


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

    def test_a_sign_other_than_0_or_1_is_a_bad_literal(self, capsys):
        code, out, err = run(capsys, "isolate", "--gen", "shattered:2", "--lits", "3=2")
        assert (code, out) == (4, "")
        assert err == "bad spec: bad literal '3=2', expected <param>=0|1\n"

    @pytest.mark.parametrize("command", ["isolate", "config", "define"])
    def test_unknown_lits_parameter_names_the_least(self, capsys, command):
        # the library checks the type's parameters in increasing order
        code, out, err = run(capsys, command, "--gen", "shattered:2",
                             "--lits", "0=1,9=1,7=0")
        assert code == 4 and out == ""
        assert err == "bad spec: unknown parameter 7\n"

    @pytest.mark.parametrize("command", ["isolate", "config"])
    def test_bad_k_sat_is_reported_before_unknown_lits(self, capsys, command):
        code, _, err = run(capsys, command, "--gen", "shattered:2",
                           "--lits", "9=1", "--k-sat", "0")
        assert code == 4
        assert err == "bad spec: --k-sat must be >= 1\n"

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

    def test_lits_skip_empty_tokens(self):
        assert cli.parse_lits("3=1,,4=0") == cli.parse_lits("3=1,4=0") == PhiType({3: 1, 4: 0})


class TestTypes:
    def test_unsorted_over_labels_each_sign_column(self, capsys):
        # the header and `domain` list the columns in the order the signs
        # are printed, however --over lists them
        code, out, _ = run(capsys, "types", "--gen", "linear:4:b=1", "--over", "3,0")
        assert code == 0
        assert out.splitlines() == ["2 types over [0, 3] (not independent)",
                                    "  01", "  00"]
        assert run(capsys, "types", "--gen", "linear:4:b=1", "--over", "0,3")[1] == out
        code, out, _ = run(capsys, "types", "--gen", "linear:4:b=1", "--over", "3,0",
                           "--format", "json")
        payload = json.loads(out)
        assert payload["domain"] == [0, 3]
        assert payload["types"] == [[[0, 0], [3, 1]], [[0, 0], [3, 0]]]


class TestConfigDefineEmbed:
    def test_config_bound_ok(self, capsys):
        code, out, _ = run(capsys, "config", "--gen", "linear:12:b=0,4,8",
                           "--of", "6", "--k-sat", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound_ok"] and payload["checker"]["ok"]
        assert payload["size"] == len(payload["pairs"]) == 1

    def test_failed_certificate_check_exits_1(self, capsys, monkeypatch):
        # the payload is still printed, and names the failing clause
        monkeypatch.setattr(cli, "build_maximal",
                            lambda struct, p, *args: GoodConfiguration(((2, 1),), p))
        code, out, _ = run(capsys, "config", "--gen", "shattered:3", "--of", "0",
                           "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["bound_ok"] and not payload["checker"]["ok"]
        assert payload["checker"]["clauses"] == {"i": True, "ii": False, "iii": None}
        code, out, _ = run(capsys, "config", "--gen", "shattered:3", "--of", "0")
        assert code == 1 and out.rstrip().endswith("certificate check FAILED")

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

    def test_embed_disagreement_exits_1(self, capsys, monkeypatch):
        # a formula wrong on base parameter 0 alone never reaches the output
        holds = isolation.DefiningFormula.holds
        monkeypatch.setattr(isolation.DefiningFormula, "holds",
                            lambda self, b: holds(self, b) != (b == 0))
        code, out, err = run(capsys, "embed", "--gen", "eqrel:2",
                             "--element", "2", "--format", "json")
        assert (code, out) == (1, "")
        assert err.startswith("invariant violation:")


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

    def test_ten_element_sidecar_bytes(self, capsys, tmp_path):
        # eqrel:4,4 is a 10-element model: its int-keyed maps hold keys 0..9,
        # which sort_keys orders the same as numbers and as strings
        out_path = tmp_path / "e.phi"
        code, _, _ = run(capsys, "gen", "--gen", "eqrel:4,4", "-o", str(out_path))
        assert code == 0
        sidecar = (tmp_path / "e.meta.json").read_bytes()
        assert json.loads(sidecar)["detail"]["model_size"] == 10
        assert hashlib.sha256(sidecar).hexdigest() == (
            "51717346ed23f5ab15263f4c373276129e342c077eacd055ca54bbd6c435d56d")

    @pytest.mark.parametrize("spec, phi, sidecar", [
        ("random:unions2:1:200:24",
         "d86a98698dedd4635aeea0bd535b72d0223e73b35eabe73f3ae021863e64752f",
         "75c91aa5e0e758f9218ef2f96229757c12b9a11a5c11f2acb5d872fdea1331ee"),
        ("random:intervals:0:1:0",
         "2d3b283966364ce821e71edf0bc326a2a465237e99d6bf4eb81783c130cef7c4",
         "84c7ddc78ad1a21ba0103a61b95663e7eb9137b74136e8a2a1c2865a34c8ed9f"),
        ("linear:9:b=2,5",
         "66a7ea636fb6b1006a5175700f6c76663c2a3de08a56feb76586dfebf96a5810",
         "940aa34ab042497e3ee63b63ee63699c8ed0fd9cd9697114df0bdfd5375b8f4d"),
        ("shattered:0",
         "2d3b283966364ce821e71edf0bc326a2a465237e99d6bf4eb81783c130cef7c4",
         "e1cb7bbbb85b67d81b97207deb3db3ef68165cdcfe8cf9d8e4eadce176ce4c34"),
        ("shattered:1",
         "0dafce1b3d7ec8b122bb8ac9cad8b551d5bf924844a01cb9f683b2598ffedc9a",
         "a450c24f02d6cac64cb7f492cb6b8740906a91f9b61d95cfb1f132819e47b351"),
        ("shattered:2",
         "2e012f4db908ff2f2c7eb8e49d177fe886d1ae711736d95da83af4750cb340c3",
         "a189ef9475ba976d8959a098d47bb98963a0b2e8e21a74fe8e529f07d095e1b8"),
        ("shattered:3",
         "f833cbcd7a4765a95f3fbafdc8ab3a2dd6722958137dac97b72873781655c434",
         "eefa918987472ba4858e302fa936f787c8a1c19db1ad282e932e270ef185f0fe"),
        ("shattered:4",
         "d37ba39772da2d4872db345d579db9883220c9fa83fc489457b266419b1f4830",
         "28fe499076ca4ec3b8f46dc82c8f55b84522e63d5b2bfc88fd22a608d3afd464"),
        ("shattered:5",
         "fa39c9e0cda27cd10538ec93787d1747e024b843ea3d12e650581d8001f5cc65",
         "18213c620f11da4ef78183036600a4ec0fdb747744cf8043098f1b2070f300b3"),
        ("eqrel:2",
         "bfb1ba23a3288350406b84dbb74e5bd5cc97aebd290530e9d9f98e62b0541aa3",
         "2f8c8367bd5623f1e4563d4c5474ce472dc0b3b9315193bf5f0bb7bd18b228ba"),
        ("eqrel:3,2,1",
         "adbccd033d87fca325f7893fb24aff8a2f262ce0fa424931629ce2c511ffc65f",
         "13e69681dfcafeaef304dcbf189e0a53be4a70617442869c06a75282c7061c4e"),
        ("eqrel:4,4",
         "917698f114767cc85889c180606544778923dfca9d53f377cbc4264e3b9124b1",
         "51717346ed23f5ab15263f4c373276129e342c077eacd055ca54bbd6c435d56d"),
    ])
    def test_generated_file_and_sidecar_bytes(self, capsys, tmp_path, spec, phi, sidecar):
        # the digests of the generators' output when each built its rows
        out_path = tmp_path / "g.phi"
        code, _, _ = run(capsys, "gen", "--gen", spec, "-o", str(out_path))
        assert code == 0
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == phi
        assert hashlib.sha256((tmp_path / "g.meta.json").read_bytes()).hexdigest() == sidecar

    def test_bad_spec(self, capsys):
        code, _, err = run(capsys, "gen", "--gen", "pentagon:5")
        assert code == 4

    def test_linear_fill_is_the_default(self, capsys, tmp_path):
        written = []
        for spec in ("linear:5", "linear:5:fill"):
            out_path = tmp_path / f"{len(written)}.phi"
            assert run(capsys, "gen", "--gen", spec, "-o", str(out_path))[0] == 0
            written.append((out_path.read_bytes(),
                            out_path.with_suffix(".meta.json").read_bytes()))
        assert written[0] == written[1]

    def test_linear_guard_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(generators, "LINEAR_POINTS_LIMIT", 8)
        code, out, err = run(capsys, "gen", "--gen", "linear:9")
        assert code == 3 and out == ""
        assert err.startswith("resource guard:")
        code, out, _ = run(capsys, "gen", "--gen", "linear:8")
        assert code == 0 and out.startswith("# phi-structure")


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

    def test_shatter_rejects_structures_not_fully_shattered(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "shatter",
                             "--gen", "random", "--seeds", "0..1")
        assert code == 4 and out == ""
        assert err.startswith("bad spec:") and "fully shattered" in err

    def test_shatter_checks_each_distinct_type_once(self, capsys, tmp_path):
        path = tmp_path / "dup.phi"
        path.write_text(S1_TEXT.replace("X 4", "X 6") + "11\n11\n")
        code, out, _ = run(capsys, "verify", "--suite", "shatter", "-i", str(path),
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["types_checked"] == 4

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

    def test_seeds_guard_counts_before_building(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "SEEDS_LIMIT", 3)
        # a range past 2**63 seeds is counted like any other
        for seeds in ("0..3", "0,1,2,3", "0..10000000000000000000"):
            code, out, err = run(capsys, "verify", "--suite", "bound",
                                 "--gen", "random", "--seeds", seeds)
            assert code == 3 and out == ""
            assert err.startswith("resource guard:")
        code, out, _ = run(capsys, "verify", "--suite", "bound",
                           "--gen", "random", "--seeds", "0..2")
        assert code == 0 and "pass" in out


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
        ["verify", "--suite", "bound", "--gen", "random", "--seeds", "0..1e19"],
        ["isolate", "--gen", "linear:12:b=0,4,8", "--lits", "0=1"],
        ["isolate", "--gen", "linear:12:b=0,4,8", "--lits", "5=1"],
    ])
    def test_bad_spec_exits_4(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert err.startswith("bad spec:")

    @pytest.mark.parametrize("spec", [
        "random:intervals:3", "random:unions2:0:20:6:1", "random:", "random",
    ])
    def test_random_field_count_names_the_form(self, capsys, spec):
        code, out, err = run(capsys, "id", "--gen", spec)
        assert code == 4 and out == ""
        assert err == (f"bad spec: bad generator spec {spec!r}:"
                       " random takes the form random:FAMILY:SEED:X:Y\n")

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

    @pytest.mark.parametrize("text, first_line", [
        (TWO_ROWS.replace("10\n", ""), "parse error: line 8: unexpected end of file"),
        (TWO_ROWS.replace("X 2", "X"), "parse error: line 2: expected `X <count>`"),
        (TWO_ROWS.replace("B 0", "B q"), "parse error: line 4: bad B index 'q'"),
        (TWO_ROWS.replace("B 0", "BASE 0"), "parse error: line 4: expected `B <indices>`"),
        (TWO_ROWS.replace("THETA", "TH"),
         "parse error: line 5: expected `THETA ALL` or `THETA <indices>`"),
        (TWO_ROWS.replace("MATRIX", "ROWS"), "parse error: line 6: expected `MATRIX`"),
        (TWO_ROWS + "11\n", "parse error: line 9: unexpected content after matrix"),
    ], ids=["missing-row", "x-without-count", "bad-b-index", "base-keyword",
            "th-keyword", "rows-keyword", "extra-row"])
    def test_each_parse_error_exits_2_naming_its_line(self, capsys, tmp_path, text, first_line):
        path = tmp_path / "bad.phi"
        path.write_text(text)
        code, out, err = run(capsys, "id", "-i", str(path))
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == first_line and "Traceback" not in err

    @pytest.mark.parametrize("argv, first_line", [
        (["id", "--gen", "linear:"],
         "bad generator spec 'linear:': linear needs a point count"),
        (["id", "--gen", "linear:5:x"],
         "bad generator spec 'linear:5:x': unknown linear option 'x'"),
        (["id", "--gen", "random:foo:0:5:3"],
         "bad generator spec 'random:foo:0:5:3': random family must be intervals or unions2"),
        (["types", "--gen", "shattered:2", "--over", "a"], "bad --over spec 'a'"),
        (["isolate", "--gen", "shattered:2", "--of", "0", "--lits", "0=1"],
         "give exactly one of --of and --lits"),
        (["verify", "--suite", "bound"], "verify needs -i or --gen"),
        (["verify", "--suite", "bound", "--gen", "linear:3", "--seeds", "0..1"],
         "--seeds only applies to random generators"),
        (["isolate", "--gen", "shattered:2", "--of", "0", "--k-sat", "x"],
         "--k-sat must be `all` or a positive integer"),
    ], ids=["linear-no-count", "linear-bad-option", "random-bad-family", "over-not-int",
            "of-and-lits", "verify-no-source", "seeds-not-random", "k-sat-not-int"])
    def test_each_bad_spec_exits_4_with_its_message(self, capsys, argv, first_line):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err.splitlines()[0] == "bad spec: " + first_line and "Traceback" not in err

    def test_linear_nofill_option_is_accepted(self, capsys):
        assert run(capsys, "id", "--gen", "linear:5:nofill") == (0, "ID = 1, witness = [1]\n", "")

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
        assert cli.parse_k_sat("all") is delta.ALL

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


def test_python_m_philab_runs_main(capsys):
    argv = ["id", "--gen", "shattered:2", "--format", "json"]
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "philab", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run(capsys, *argv)[1]


@pytest.mark.parametrize("argv", [
    ["isolate", "--gen", "random:intervals:4:60:16", "--of", "0", "--k-sat", "1",
     "--format", "json"],
    ["verify", "--suite", "oracle", "--gen", "random", "--seeds", "0..4", "--format", "json"],
], ids=["isolate", "verify"])
def test_stdout_is_the_same_under_two_hash_seeds(argv):
    # str hashes, and so the iteration order of sets of strs, change with
    # PYTHONHASHSEED; stdout must not
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "philab", *argv],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] != b""
