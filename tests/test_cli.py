"""Command-line interface: subcommands, exit codes, file formats."""

from __future__ import annotations

import filecmp
import json
import os
from fractions import Fraction

import numpy as np
import pytest

from stochorder import cli
from stochorder.sweeps import SuiteResult, SweepConfig, SweepSummary

CE02_X = "q: 17/8*p - 1/2*p^2"
CE02_Y = "q: ln(15/8 + p)"


def read_json(path):
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fp:
        return fp.read().splitlines()


class TestCheckOrder:
    def test_holding_order_exits_zero(self):
        assert cli.main(["check-order", "--x", CE02_X, "--y", CE02_Y,
                         "--order", "dmrl"]) == 0

    def test_distorted_violation_exits_one(self):
        assert cli.main(["check-order", "--x", CE02_X, "--y", CE02_Y,
                         "--order", "dmrl", "--distort", "power:5",
                         "--grid-count", "128", "--grid-lo", "0.002",
                         "--grid-hi", "0.2"]) == 1

    def test_bad_distribution_spec_exits_two(self):
        assert cli.main(["check-order", "--x", "q: 1 - p", "--y", CE02_Y,
                         "--order", "ttt"]) == 2

    def test_bad_distortion_exits_two(self):
        assert cli.main(["check-order", "--x", CE02_X, "--y", CE02_Y,
                         "--order", "ttt", "--distort", "p/2"]) == 2

    def test_unwritable_csv_exits_four(self, tmp_path):
        missing = tmp_path / "no_such_dir" / "out.csv"
        assert cli.main(["check-order", "--x", CE02_X, "--y", CE02_Y,
                         "--order", "ttt", "--out-csv", str(missing)]) == 4

    def test_json_verdict_document(self, tmp_path):
        out = tmp_path / "verdict.json"
        code = cli.main(["check-order", "--x", "exp:1", "--y", "exp:0.5",
                         "--order", "ttt", "--order", "ew",
                         "--grid-count", "64", "--out-json", str(out)])
        assert code == 0
        doc = read_json(str(out))
        assert doc["holds"] is True
        orders = {rec["order"] for rec in doc["results"]}
        assert orders == {"ttt", "ew"}
        for rec in doc["results"]:
            assert rec["holds"] is True
            assert rec["grid"].startswith("64:")

    def test_multiple_orders_write_suffixed_csvs(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = cli.main(["check-order", "--x", "exp:1", "--y", "exp:0.5",
                         "--order", "ttt", "--order", "ew",
                         "--grid-count", "64", "--out-csv", str(out)])
        assert code == 0
        assert (tmp_path / "curve_ttt.csv").exists()
        assert (tmp_path / "curve_ew.csv").exists()

    def test_csv_streams_curve_rows(self, tmp_path):
        out = tmp_path / "curve.csv"
        cli.main(["check-order", "--x", "exp:1", "--y", "exp:0.5",
                  "--order", "ttt", "--grid-count", "64",
                  "--out-csv", str(out)])
        lines = read_lines(str(out))
        assert lines[0] == "p,value_x,value_y,functional"
        assert len(lines) == 1 + 64
        assert all(len(line.split(",")) == 4 for line in lines[1:])

    def test_config_file_supplies_defaults(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"x": "exp:1", "y": "exp:0.5", "orders": ["ttt"],
             "grid": {"count": 32}}))
        out = tmp_path / "verdict.json"
        code = cli.main(["check-order", "--config", str(config),
                         "--out-json", str(out)])
        assert code == 0
        doc = read_json(str(out))
        assert doc["results"][0]["grid"].startswith("32:")

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"x": "exp:1", "y": "exp:0.5", "orders": ["ttt"],
             "grid": {"count": 32}}))
        out = tmp_path / "verdict.json"
        cli.main(["check-order", "--config", str(config),
                  "--grid-count", "64", "--out-json", str(out)])
        assert read_json(str(out))["results"][0]["grid"].startswith("64:")

    @pytest.mark.parametrize("flag, value", [("--grid-lo", "-1"),
                                             ("--grid-hi", "2")])
    def test_grid_outside_the_unit_interval_exits_two(self, flag, value,
                                                      capsys):
        assert cli.main(["check-order", "--x", "q: p", "--y", "q: 2*p",
                         "--order", "star", "--grid-count", "32",
                         flag, value]) == 2
        assert "(0, 1)" in capsys.readouterr().err

    def test_malformed_config_exits_two(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("{not json")
        assert cli.main(["check-order", "--config", str(config),
                         "--order", "ttt"]) == 2

    def test_missing_config_is_an_input_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert cli.main(["check-order", "--config", str(missing),
                         "--order", "ttt"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read config {str(missing)!r}: No such file or directory\n")

    @pytest.mark.parametrize("order, code", [("ew", 2), ("dmrl", 2),
                                             ("ttt", 0), ("qmit", 0)])
    def test_infinite_mean_is_refused_only_where_ew_is_needed(self, order, code,
                                                              capsys):
        # q = 1/(1-p) - 1 has a log-divergent mean: ew is infinite, ttt and
        # mit stay finite
        assert cli.main(["check-order", "--x", "q: 1/(1-p) - 1",
                         "--y", "q: 2/(1-p) - 2", "--order", order,
                         "--grid-count", "64"]) == code
        if code == 2:
            assert "infinite mean" in capsys.readouterr().err

    @pytest.mark.parametrize("orders, code", [(("ttt", "qmit"), 0),
                                              (("ttt", "ew"), 2),
                                              (("dmrl", "star"), 2)])
    def test_infinite_mean_with_several_orders(self, orders, code, capsys):
        # one shared transform pass per side refuses the infinite mean exactly
        # when ew or dmrl is asked for, with the message of a one-order check
        argv = ["check-order", "--x", "q: 1/(1-p) - 1", "--y", "q: 2/(1-p) - 2",
                "--grid-count", "64"]
        for order in orders:
            argv += ["--order", order]
        assert cli.main(argv) == code
        if code == 2:
            assert capsys.readouterr().err == (
                "error: q:1/(1-p) - 1: infinite mean, tail contributions not "
                "decaying (rung ratios [" + ", ".join(["1.0"] * 11) + "])\n")

    @pytest.mark.parametrize("extra, named", [
        ({"grid": 64}, "'grid'"),
        ({"grid": {"cnt": 64}}, "cnt"),
        ({"grid": {"count": 64, "margin": 0.01}}, "margin"),
        ({"outputs": 5}, "'outputs'"),
        ({"outputs": {"csv": "out.csv"}}, "csv"),
    ])
    def test_malformed_config_values_exit_two(self, extra, named, tmp_path,
                                              capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"x": "exp:1", "y": "exp:0.5", "orders": ["ttt"], **extra}))
        assert cli.main(["check-order", "--config", str(config)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("orders", ["ttt", ["ttt", "stars"], [1], {"ttt": 1}])
    def test_config_orders_must_be_a_list_of_names(self, orders, tmp_path,
                                                   capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"x": "exp:1", "y": "exp:0.5", "orders": orders}))
        assert cli.main(["check-order", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "'orders'" in err
        assert "ttt, ew, dmrl, qmit, convex_transform, star" in err


class TestWriteCsv:
    VALUES = (-0.0, 5e-324, 1e300, float("inf"), 7, np.float64(0.1),
              Fraction(1, 3))

    @pytest.mark.parametrize("width", [2, 4])
    def test_bytes_match_per_field_format(self, width, tmp_path):
        values = self.VALUES
        rows = [tuple(values[(i + j) % len(values)] for j in range(width))
                for i in range(len(values))]
        header = tuple(f"c{j}" for j in range(width))
        out = tmp_path / "table.csv"
        cli._write_csv(str(out), header, iter(rows), comment="values")
        expected = "# values\n" + ",".join(header) + "\n" + "".join(
            ",".join(format(float(v), ".17g") for v in row) + "\n"
            for row in rows)
        assert out.read_bytes() == expected.encode("utf-8")


class TestClassify:
    def test_distortion_expression(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["classify", "--h", "p^2",
                         "--out-json", str(out)]) == 0
        doc = read_json(str(out))
        assert doc["verdict"] == "starshaped"
        assert doc["flags"]["convex"] is True
        assert set(doc["advice"]) \
            == {"ttt", "ew", "dmrl", "qmit", "convex_transform", "star"}
        assert doc["advice"]["star"]["verdict"] == "preserved"

    def test_generator_form_system(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["classify", "--signature", "0,1,1,-1",
                         "--copula", "durante: f=p^0.5, n=4",
                         "--out-json", str(out)])
        assert code == 0
        doc = read_json(str(out))
        assert doc["verdict"] == "starshaped"
        assert doc["closed_form"] == "p*f(p) + p*f(p)^2 - p*f(p)^3"
        assert doc["corollary"]["verdict"] == "starshaped_any_f"

    def test_diagonal_form_system(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["classify", "--signature", "0,0,2,-1",
                         "--copula",
                         "diagonal: d=1 - 7/4*(1-p) + 3/2*(1-p)^2"
                         " - 3/4*(1-p)^3, n=4",
                         "--out-json", str(out)])
        assert code == 0
        doc = read_json(str(out))
        assert doc["verdict"] == "dual-antistarshaped"
        assert doc["diag_classification"]["verdict"] == "inconclusive"

    def test_signature_without_copula_exits_two(self):
        assert cli.main(["classify", "--signature", "0,1,1,-1"]) == 2

    def test_both_h_and_signature_exit_two(self):
        assert cli.main(["classify", "--h", "p^2",
                         "--signature", "0,1,1,-1",
                         "--copula", "product:4"]) == 2

    def test_invalid_signature_sum_exits_two(self):
        assert cli.main(["classify", "--signature", "1,1",
                         "--copula", "product:2"]) == 2


class TestDistortAndSystem:
    def test_distort_table(self, tmp_path):
        out = tmp_path / "table.csv"
        assert cli.main(["distort", "--x", "exp:1", "--h", "power:2",
                         "--grid-count", "32", "--out-csv", str(out)]) == 0
        lines = read_lines(str(out))
        assert lines[0].startswith("# ")
        assert lines[1] == "p,value"
        assert len(lines) == 2 + 32

    def test_system_outputs(self, tmp_path):
        csv_out = tmp_path / "h.csv"
        json_out = tmp_path / "h.json"
        code = cli.main(["system", "--signature", "0,1,1,-1",
                         "--copula", "durante: f=p^0.5, n=4",
                         "--out-csv", str(csv_out),
                         "--out-json", str(json_out)])
        assert code == 0
        lines = read_lines(str(csv_out))
        assert len(lines) == 2 + 257  # comment + header + default grid
        doc = read_json(str(json_out))
        assert doc["closed_form"] == "p*f(p) + p*f(p)^2 - p*f(p)^3"

    @pytest.mark.parametrize("count", ["1", "0", "-3"])
    def test_system_grid_count_below_two_is_an_input_error(self, count,
                                                           tmp_path, capsys):
        csv_out = tmp_path / "h.csv"
        assert cli.main(["system", "--signature", "0,1", "--copula", "product:2",
                         "--grid-count", count, "--out-csv", str(csv_out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --grid-count must be at least 2, got {count}\n")
        assert not csv_out.exists()

    def test_system_rejects_invalid_generator(self):
        assert cli.main(["system", "--signature", "0,1,1,-1",
                         "--copula", "durante: f=p^2, n=4"]) == 2


class TestReproduce:
    def test_unknown_target_is_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["reproduce", "nope"])
        assert exc.value.code == 2

    def test_diagonal_target_is_byte_stable(self, tmp_path, capsys):
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        for out in (first, second):
            assert cli.main(["reproduce", "ex_diag_5comp",
                             "--out-dir", str(out)]) == 0
        names = sorted(os.listdir(first))
        assert "distortion.csv" in names and "classification.json" in names
        match, mismatch, errors = filecmp.cmpfiles(
            str(first), str(second), names, shallow=False)
        assert match == names and not mismatch and not errors

    def test_file_list_is_printed(self, tmp_path, capsys):
        cli.main(["reproduce", "ex_durante_1", "--out-dir",
                  str(tmp_path / "out")])
        printed = capsys.readouterr().out
        assert "distortion.csv" in printed
        assert "shape_condition.csv" in printed


class TestSweepCommand:
    def test_small_clean_sweep_exits_zero(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(
            {"trials": 2, "suites": ["convex_star_invariance"]}))
        out = tmp_path / "summary.json"
        assert cli.main(["sweep", "--config", str(config),
                         "--out", str(out)]) == 0
        doc = read_json(str(out))
        assert doc["ok"] is True

    def test_zero_trials_allowed(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"trials": 0}))
        assert cli.main(["sweep", "--config", str(config),
                         "--out", str(tmp_path / "s.json")]) == 0

    def test_unreadable_config_is_an_input_error(self, tmp_path, capsys):
        assert cli.main(["sweep", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: cannot read config {str(tmp_path)!r}: ")

    def test_unknown_suite_exits_two(self, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"suites": ["bogus"]}))
        assert cli.main(["sweep", "--config", str(config)]) == 2

    def test_failing_summary_exits_three(self, tmp_path, monkeypatch):
        config = SweepConfig(trials=1, suites=("ttt_starshaped",))
        failing = SweepSummary(config=config, suites=(
            SuiteResult(name="ttt_starshaped", trials=1, passes=0,
                        failures=({"trial": 0, "note": "synthetic"},)),
        ))
        monkeypatch.setattr(cli.sweeps_mod, "run_all",
                            lambda cfg: failing)
        assert cli.main(["sweep", "--out",
                         str(tmp_path / "s.json")]) == 3


class TestDeterminism:
    def test_json_outputs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            cli.main(["classify", "--h", "power:2", "--out-json", str(out)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")
