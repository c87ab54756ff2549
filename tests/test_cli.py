import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vknot import basic_preflat, biquandle, make_affine, parse_signed, \
    table_to_text, unary_affine_params
from vknot import cli
from vknot.cli import execute

SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = execute(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    assert code == 0, err
    return json.loads(out)


class TestInvariant:
    def test_virtual_trefoil(self):
        data = run_json(["invariant", "O1+ O2+ U1+ U2+"])
        assert data["polynomial"] == "t^-1 - 2 + t"
        assert data["writhe"] == 2
        assert data["coloring"] == "1,0,1,2"
        assert {(w["id"], w["W"]) for w in data["weights"]} == {(1, 1), (2, -1)}
        assert data["vassiliev"] == {"1": "0", "2": "1", "3": "0", "4": "1/12"}

    def test_link_rejected_with_usage_error(self):
        code, _out, err = run(["invariant", "O1+ U2+ ; U1+ O2+"])
        assert code == 1
        assert "link-invariant" in err

    def test_invalid_code_exit_2(self):
        code, _out, err = run(["invariant", "O1+ O1+ U1+"])
        assert code == 2
        assert "invalid" in err

    def test_csv_format(self):
        code, out, _ = run(["--format", "csv", "invariant", "O1+ O2+ U1+ U2+"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "code,writhe,polynomial,v2,v3,v4"
        assert lines[1] == "O1+ O2+ U1+ U2+,2,t^-1 - 2 + t,1,0,1/12"

    def test_deterministic_output(self):
        assert run(["invariant", "O1+ O2+ U1+ U2+"]) \
            == run(["invariant", "O1+ O2+ U1+ U2+"])


class TestParseCommand:
    def test_signed(self):
        data = run_json(["parse", "U2+ U1+ O2+ O1+"])
        assert data["kind"] == "signed"
        assert data["canonical"] == "O1+ O2+ U1+ U2+"

    def test_flat(self):
        data = run_json(["parse", "R1 R2 L1 L2"])
        assert data["kind"] == "flat"
        assert data["crossings"] == 2

    def test_bad_token_exit_2(self):
        code, _out, _err = run(["parse", "Z1+"])
        assert code == 2


class TestLinkInvariant:
    def test_hopf_offsets(self):
        data = run_json(["link-invariant", "--offsets", "0,0", "O1+ U2+ ; U1+ O2+"])
        assert data["polynomial"] == "t^-1 - 2 + t"
        data = run_json(["link-invariant", "--offsets", "1,0", "O1+ U2+ ; U1+ O2+"])
        assert data["polynomial"] == "0"

    def test_uncolorable_exit_3(self):
        code, _out, err = run(["link-invariant", "O1+ O2+ ; U1+ U2+"])
        assert code == 3
        assert "uncolorable" in err


class TestSymbolicWeights:
    def test_hopf(self):
        data = run_json(["symbolic-weights", "O1+ U2+ ; U1+ O2+"])
        exprs = {w["id"]: w["expr"] for w in data["weights"]}
        assert exprs[1] == "-1 + off_0 - off_1"
        assert exprs[2] == "1 + off_1 - off_0"


class TestVassiliev:
    def test_max_order(self):
        data = run_json(["vassiliev", "--max-order", "4", "O1+ O2+ U1+ U2+"])
        assert data["vassiliev"] == {"1": "0", "2": "1", "3": "0", "4": "1/12"}


class TestTransform:
    def test_mirror(self):
        data = run_json(["transform", "--mirror", "O1+ O2+ U1+ U2+"])
        assert data["output"] == "U1- U2- O1- O2-"

    def test_smooth_zero(self):
        data = run_json(["transform", "--smooth-zero", "O3+ U3+ O1+ O2+ U1+ U2+"])
        assert data["output"] == "() ; O1+ O2+ U1+ U2+"
        assert data["coloring"] == "2 ; 2,1,2,3"

    def test_exactly_one_flag(self):
        code, _out, _err = run(["transform", "--mirror", "--reverse", "O1+ U1+"])
        assert code == 1


class TestMovesAndVerify:
    def test_walk_deterministic_and_invariant(self):
        a = run(["moves", "--walk", "15", "--seed", "3", "O1+ O2+ U1+ U2+"])
        b = run(["moves", "--walk", "15", "--seed", "3", "O1+ O2+ U1+ U2+"])
        assert a == b
        data = json.loads(a[1])
        assert data["polynomial_before"] == data["polynomial_after"] == "t^-1 - 2 + t"
        assert len(data["trace"]) == 15

    def test_verify_passes(self):
        data = run_json(["verify", "--trials", "5", "--steps", "8", "--seed", "2",
                         "O1+ O2+ U1+ U2+", "O1+ U1+"])
        assert data["ok"] is True
        assert data["trials"] == 10
        assert data["failures"] == []

    def test_walk_on_link_code(self):
        data = run_json(["moves", "--walk", "6", "--seed", "1",
                         "O1+ U2+ ; U1+ O2+"])
        assert len(data["trace"]) == 6
        assert "polynomial_before" not in data


class TestFlatAndGraph:
    def test_flat_certificate(self):
        data = run_json(["flat", "--certificate", "R1 R2 L1 L2"])
        assert data["certified"] is False
        assert data["witness"] is not None
        assert len(data["polynomials"]) == 4

    def test_graph(self):
        data = run_json(["graph", "--singular", "1", "O1+ O2+ U1+ U2+"])
        assert data["polynomial"] == "t^-1 - 2 + t"


class TestBiquandleCommands:
    def test_search_text_lines(self):
        code, out, _ = run(["--format", "text", "biquandle", "search", "5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 20
        assert lines[0] == "5 1 0 0 1 0 0"

    def test_search_json(self):
        data = run_json(["biquandle", "search", "3"])
        assert len(data) == 6

    def test_check_color_doodle(self, tmp_path):
        table_path = tmp_path / "inc.tbl"
        table_path.write_text(table_to_text(
            basic_preflat(5, 0, 1)), encoding="utf-8")
        data = run_json(["biquandle", "check", str(table_path)])
        assert data["is_flat_biquandle"] is True
        assert data["weight_condition"] == "pass"

        data = run_json(["biquandle", "color", "R1 R2 L1 L2", str(table_path)])
        assert data["count"] == 5

        data = run_json(["biquandle", "doodle", "O1+ O2+ U1+ U2+", str(table_path)])
        assert data["sum"] == [-10, 5, 0, 0, 5]
        assert data["colorings"] == 5

    def test_doodle_without_colorings(self, tmp_path):
        # each component turns by two roles, which Z/5 cannot close up
        table_path = tmp_path / "inc.tbl"
        table_path.write_text(table_to_text(
            basic_preflat(5, 0, 1)), encoding="utf-8")
        data = run_json(["biquandle", "doodle", "O1+ O2+ ; U1+ U2+",
                         str(table_path)])
        assert data["colorings"] == 0
        assert data["vectors"] == []
        assert data["sum"] == [0, 0, 0, 0, 0]

    def test_table_checks_run_once_per_call(self, tmp_path, monkeypatch):
        calls = {"weight_condition": 0, "check_coloring": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(biquandle, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(biquandle, name, counted)
        table = basic_preflat(5, 2, 1)
        table_path = tmp_path / "preflat.tbl"
        table_path.write_text(table_to_text(table), encoding="utf-8")
        code = "O1+ O2- U1+ U2- ; O3+ U3+ ; ()"
        data = run_json(["biquandle", "doodle", code, str(table_path)])
        assert data["colorings"] == 125
        assert calls == {"weight_condition": 1, "check_coloring": 0}
        assert list(biquandle.doodle_invariant_sum(parse_signed(code), table)) \
            == data["sum"]
        assert calls == {"weight_condition": 2, "check_coloring": 0}
        run_json(["biquandle", "check", str(table_path)])
        assert calls == {"weight_condition": 3, "check_coloring": 0}
        labels = biquandle.enumerate_colorings_fast(parse_signed(code), table)[0]
        biquandle.doodle_pre_invariant(parse_signed(code), table, labels)
        assert calls == {"weight_condition": 4, "check_coloring": 1}

    def test_check_reports_axiom3_failure(self, tmp_path):
        table_path = tmp_path / "preflat.tbl"
        table_path.write_text(table_to_text(basic_preflat(5, 2, 0)),
                              encoding="utf-8")
        data = run_json(["biquandle", "check", str(table_path)])
        assert data["is_preflat"] is True
        assert data["is_flat_biquandle"] is False
        assert isinstance(data["axiom3"], list)

    def test_weight_condition_witness(self, tmp_path):
        table_path = tmp_path / "alpha2.tbl"
        table_path.write_text(table_to_text(
            make_affine(unary_affine_params(5, 2, 0))), encoding="utf-8")
        data = run_json(["biquandle", "check", str(table_path)])
        assert data["is_flat_biquandle"] is True
        assert isinstance(data["weight_condition"], list)

    def test_missing_file_usage_error(self):
        code, _out, _err = run(["biquandle", "check", "/nonexistent.tbl"])
        assert code == 1

    def test_directory_is_usage_error(self, tmp_path):
        code, out, err = run(["biquandle", "check", str(tmp_path)])
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ")

    def test_missing_table_argument(self):
        code, _out, err = run(["biquandle", "color", "R1 L1"])
        assert code == 1 and "FILE" in err

    def test_bad_search_size(self):
        code, _out, _err = run(["biquandle", "search", "five"])
        assert code == 1


class TestBatch:
    def test_matches_single_invocations(self, tmp_path):
        batch = tmp_path / "codes.txt"
        batch.write_text(
            "# comment line\n"
            "O1+ O2+ U1+ U2+\n"
            "\n"
            "O1+ U1+\n"
            "O1+ O1+ U1+\n",
            encoding="utf-8")
        records = run_json(["batch", "--input", str(batch)])
        assert [r["line"] for r in records] == [2, 4, 5]
        assert records[0]["polynomial"] == \
            run_json(["invariant", "O1+ O2+ U1+ U2+"])["polynomial"]
        assert records[1]["polynomial"] == "0"
        assert "error" in records[2]

    def test_internal_failure_keeps_every_record(self, tmp_path,
                                                 monkeypatch):
        batch = tmp_path / "codes.txt"
        batch.write_text("O1+ O2+ U1+ U2+\nO1+ U1+\nO1+ O1+ U1+\n"
                         "O1+ U2+ O3+ U1+ O2+ U3+\n", encoding="utf-8")
        argv = ["batch", "--input", str(batch)]
        clean = run_json(argv)
        original = cli.canonicalize

        def drifting(code):
            if code.n_crossings() == 1:
                raise AssertionError("canonical form drifted")
            return original(code)

        monkeypatch.setattr(cli, "canonicalize", drifting)
        code, out, err = run(argv)
        assert (code, err) == (4, "")
        records = json.loads(out)
        assert [r["line"] for r in records] == [1, 2, 3, 4]
        assert records[1] == {"line": 2, "code": "O1+ U1+",
                              "error": "canonical form drifted"}
        assert [records[i] for i in (0, 2, 3)] \
            == [clean[i] for i in (0, 2, 3)]

    def test_directory_is_usage_error(self, tmp_path):
        code, out, err = run(["batch", "--input", str(tmp_path)])
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ")

    def test_csv(self, tmp_path):
        batch = tmp_path / "codes.txt"
        batch.write_text("O1+ O2+ U1+ U2+\nO1+ U1+\n", encoding="utf-8")
        code, out, _ = run(["--format", "csv", "batch", "--input", str(batch)])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3


class TestUsage:
    def test_no_command(self):
        code, _out, _err = run([])
        assert code == 1

    def test_unknown_command(self):
        code, _out, _err = run(["frobnicate"])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["vassiliev", "--max-order", "0", "O1+ O2+ U1+ U2+"],
        ["vassiliev", "--max-order", "-2", "O1+ U1+"],
        ["moves", "--walk", "-3", "O1+ O2+ U1+ U2+"],
        ["verify", "--trials", "-1"],
        ["verify", "--steps", "-1"],
    ], ids=["max-order", "max-order-negative", "walk", "trials", "steps"])
    def test_count_below_minimum(self, argv):
        code, out, err = run(argv)
        assert (code, out) == (1, "")
        assert err == (f"usage error: argument {argv[1]}: must be at least "
                       f"{1 if argv[1] == '--max-order' else 0}, "
                       f"got {argv[2]}\n")


class TestHelp:
    @pytest.mark.parametrize("argv", [["--help"], ["biquandle", "-h"]])
    def test_help_returns_zero(self, argv, capsys):
        code, out, err = run(argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: vknot")
        assert capsys.readouterr() == ("", "")

    def test_module_prints_the_same_help(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        result = subprocess.run([sys.executable, "-m", "vknot", "--help"],
                                env=env, capture_output=True, text=True,
                                timeout=60)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == run(["--help"])[1]
