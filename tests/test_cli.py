"""Command-line interface: config handling, error codes, golden determinism."""

import csv
import json
from hashlib import sha256
from pathlib import Path

import numpy as np
import pytest

from forestdens import estimator, simbench
from forestdens.cli import main

DATA = Path(__file__).parent / "data" / "sample200.csv"


def write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def fit_config(tmp_path: Path, **overrides) -> str:
    cfg = {
        "input": str(DATA),
        "query_x": [0.5, 0.5, 0.5, 0.5],
        "seed": 7,
        "y_grid": {"start": 0.1, "stop": 0.9, "num": 9},
        "se": "auto",
        "forest": {"subsample_size": 40, "n_trees": 40, "basis_order": 4,
                   "min_child": 4},
    }
    cfg.update(overrides)
    return write_config(tmp_path / "fit.json", cfg)


def mc_config(tmp_path: Path, **overrides) -> str:
    cfg = {
        "design": "D1",
        "n": 150,
        "reps": 2,
        "seed": 3,
        "se": None,
        "design_points": [0.25, 0.5, 0.75],
        "forest": {"subsample_size": 30, "n_trees": 24, "basis_order": 4,
                   "min_child": 3, "initial_parent": [[0.0] * 4, [1.0] * 4]},
    }
    cfg.update(overrides)
    return write_config(tmp_path / "mc.json", cfg)


class TestFitCommand:
    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        cfg = fit_config(tmp_path, input=str(tmp_path / "nope.csv"))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_outcome_outside_unit_interval_names_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        rows = DATA.read_text().splitlines()
        rows[3] = "1.5" + rows[3][rows[3].index(","):]
        bad.write_text("\n".join(rows) + "\n")
        cfg = fit_config(tmp_path, input=str(bad))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "row 4" in err and "1.5" in err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = fit_config(tmp_path, bogus=1)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_workers_is_neither_a_config_key_nor_a_flag(self, tmp_path, capsys):
        # a fit runs in the calling thread; only mc has worker processes
        cfg = fit_config(tmp_path, workers=1)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "unknown config key 'workers'" in capsys.readouterr().err
        assert main(["fit", "--config", fit_config(tmp_path), "--workers", "1",
                     "--out", str(tmp_path)]) == 1
        assert not (tmp_path / "fit.csv").exists()

    def test_query_outside_parent_is_input_error(self, tmp_path, capsys):
        cfg = fit_config(tmp_path, query_x=[2.0, 2.0, 2.0, 2.0])
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_nan_parent_bound_is_rejected_before_the_fit(self, tmp_path, capsys):
        # json reads NaN; the bound is refused when the config is built
        cfg = fit_config(tmp_path, forest={
            "subsample_size": 40, "n_trees": 8, "basis_order": 4, "min_child": 4,
            "initial_parent": [[0.0, 0.0, 0.0, float("nan")], [1.0] * 4]})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "lower <= upper" in err and "outside" not in err

    def test_golden_rerun_is_byte_identical(self, tmp_path):
        cfg = fit_config(tmp_path)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert main(["fit", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["fit", "--config", cfg, "--out", str(out2)]) == 0
        golden = (out1 / "fit.csv").read_bytes()
        assert golden == (out2 / "fit.csv").read_bytes()
        assert (out1 / "fit_provenance.json").read_bytes() == \
            (out2 / "fit_provenance.json").read_bytes()
        with open(out1 / "fit.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["y", "pdf", "se", "ci_lo", "ci_hi"]
        assert len(rows) == 10
        for row in rows[1:]:
            assert float(row[1]) > 0.0
            assert float(row[3]) <= float(row[1]) <= float(row[4])

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = fit_config(tmp_path)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["fit", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["fit", "--config", cfg, "--seed", "99", "--out", str(out2)]) == 0
        assert (out1 / "fit.csv").read_bytes() != (out2 / "fit.csv").read_bytes()

    def test_estimation_failure_exits_two(self, tmp_path, capsys):
        # a parent box containing the query but none of the covariates makes
        # every leaf empty, which is an estimation failure, not an input error
        cfg = fit_config(tmp_path,
                         query_x=[0.05, 0.05, 0.05, 0.05],
                         se=None,
                         forest={"subsample_size": 40, "n_trees": 8,
                                 "basis_order": 4, "min_child": 4,
                                 "initial_parent": [[0.0] * 4, [0.1] * 4]})
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "fit" in err and "AllWeightsZero" in err

    def test_non_finite_y_grid_is_input_error(self, tmp_path, capsys):
        cfg = fit_config(tmp_path, se=None, y_grid=[0.5, float("nan")])
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "y_grid" in capsys.readouterr().err
        assert not (tmp_path / "fit.csv").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_covariate_is_input_error(self, tmp_path, capsys, bad):
        bad_csv = tmp_path / "bad.csv"
        rows = DATA.read_text().splitlines()
        rows[3] = rows[3][:rows[3].rindex(",") + 1] + bad
        bad_csv.write_text("\n".join(rows) + "\n")
        cfg = fit_config(tmp_path, input=str(bad_csv))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"input {bad_csv} row 4: non-finite value" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["fit", "mc"])
    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config"),
        ("{\"seed\": 1", "is not valid JSON"),
        ("[1, 2]", "must hold a JSON object"),
    ])
    def test_config_file_errors_exit_one(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and f"config {path}" in err and message in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("", "is empty"),
        ("y\n0.5\n", "needs an outcome and at least one covariate column"),
        ("y,x1\n0.5,0.1\n0.5\n", "row 3: expected 2 fields"),
        ("y,x1\n0.5,0.1,0.2\n", "row 2: expected 2 fields"),
        ("y,x1\n0.5,abc\n", "row 2: non-numeric value"),
        ("y,x1\n", "has no data rows"),
    ])
    def test_malformed_input_csv_exits_one(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        cfg = fit_config(tmp_path, input=str(bad))
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: input {bad}") and message in err
        assert "Traceback" not in err and not (tmp_path / "fit.csv").exists()

    def test_density_and_se_evaluated_once_per_grid_point(self, tmp_path, monkeypatch):
        calls = []

        def counted(name):
            original = getattr(estimator, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in ("pdf", "std_error"):
            monkeypatch.setattr(estimator, name, counted(name))
        assert main(["fit", "--config", fit_config(tmp_path), "--out", str(tmp_path)]) == 0
        assert calls.count("pdf") == calls.count("std_error") == 9

    def test_provenance_records_resolved_defaults(self, tmp_path):
        cfg = fit_config(tmp_path)
        out = tmp_path / "prov"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "fit_provenance.json").read_text())
        assert payload["command"] == "fit"
        assert payload["config"]["forest"]["min_fraction"] == 0.05
        assert payload["config"]["seed"] == 7
        assert payload["config"]["forest"]["initial_parent"] is not None

    @pytest.mark.parametrize("se, recorded", [
        ("auto", True), (True, True), (None, False)])
    def test_provenance_records_whether_se_was_computed(self, tmp_path, se, recorded):
        cfg = fit_config(tmp_path, se=se)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "fit_provenance.json").read_text())
        assert payload["config"]["se"] is recorded


class TestWrongTypedConfig:
    """A config value of the wrong type or out of range is an input error, exit 1."""

    @pytest.mark.parametrize("override", [
        {"y_grid": {"start": 0.1, "stop": 0.9, "num": float("nan")}},
        {"y_grid": {"start": 0.1, "stop": 0.9}},
        {"y_grid": [[0.1, 0.2], [0.3]]},
        {"query_x": ["a", 0.5, 0.5, 0.5]},
        {"se": {"n_sigma": "many", "d_sigma": 9}},
        {"se": {"n_sigma": 8}},
        {"ci_level": "high"},
        {"seed": None},
        {"forest": {"n_trees": None}},
        {"forest": {"n_trees": float("inf")}},
        {"forest": {"initial_parent": [[0.0, "a"], [1.0, 1.0]]}},
        {"forest": {"subsample_size": 40, "n_trees": 40.7, "basis_order": 4, "min_child": 4}},
        {"y_grid": {"start": 0.1, "stop": 0.9, "num": 9.7}},
        {"y_grid": {"start": 0.1, "stop": 0.9, "num": True}},
        {"se": {"n_sigma": 8.5, "d_sigma": 9}},
        {"se": {"n_sigma": 0, "d_sigma": 9}},
        {"se": None, "ci_level": 1.5},
        {"ci_level": 0.0},
        {"ci_level": float("nan")},
        {"y_grid": [[0.1, 0.2], [0.3, 0.4]]},
        {"y_grid": 0.5},
        {"query_x": [[0.5, 0.5, 0.5, 0.5]]},
        {"forest": {"subsample_size": 40, "n_trees": 40, "basis_order": 4, "min_child": 4,
                    "initial_parent": [[0.0], [1.0]]}},
        {"forest": {"subsample_size": 40, "n_trees": 40, "basis_order": 4, "min_child": 4,
                    "initial_parent": [[0.0] * 4]}},
        {"se": 1},
        {"se": 0},
        # a real value is a JSON number, never a string or a boolean
        {"ci_level": "0.9"},
        {"query_x": ["0.5", "0.5", "0.5", "0.5"]},
        {"y_grid": ["0.2", "0.5"]},
        {"y_grid": [True, False]},
        {"y_grid": {"start": "0.1", "stop": 0.9, "num": 9}},
        {"y_grid": {"start": 0.1, "stop": "0.9", "num": 9}},
        {"forest": {"subsample_size": 40, "n_trees": 40, "basis_order": 4, "min_child": 4,
                    "min_fraction": "0.1"}},
        {"forest": {"subsample_size": 40, "n_trees": 40, "basis_order": 4, "min_child": 4,
                    "initial_parent": [[False] * 4, [True] * 4]}},
    ])
    def test_fit(self, tmp_path, capsys, override):
        cfg = fit_config(tmp_path, **override)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "Traceback" not in err
        assert not (tmp_path / "fit.csv").exists()

    @pytest.mark.parametrize("override", [
        {"n": "lots"},
        {"reps": None},
        {"design_points": ["a"]},
        {"se": {"n_sigma": [8], "d_sigma": 9}},
        {"mise_grid_points": float("nan")},
        {"reps": 2.5},
        {"n": True},
        {"workers": True},
        {"ci_level": 1.5},
        {"ci_level": 0.0},
        {"design_points": [[0.25, 0.5]]},
        {"mise_grid_points": 1},
        {"forest": {"subsample_size": 30, "n_trees": 24, "basis_order": 4, "min_child": 3,
                    "initial_parent": [[0.0], [1.0]]}},
        {"ci_level": "0.9"},
        {"design_points": ["0.5"]},
        {"design_points": [True]},
        {"forest": {"subsample_size": 30, "n_trees": 24, "basis_order": 4, "min_child": 3,
                    "initial_parent": [["0.0"] * 4, ["1.0"] * 4]}},
    ])
    def test_mc(self, tmp_path, capsys, override):
        cfg = mc_config(tmp_path, **override)
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "Traceback" not in err
        assert not (tmp_path / "mc_report.csv").exists()

    @pytest.mark.parametrize("command, override, message", [
        ("fit", {"input": None}, "config key 'input' is required for fit"),
        ("fit", {"query_x": None}, "config key 'query_x' is required for fit"),
        ("mc", {"forest": {"subsample_size": 30, "n_trees": 24, "basis_order": 4,
                           "min_child": 3, "initial_parent": None}},
         "initial_parent must be given when no data bounds exist"),
    ])
    def test_missing_required_value(self, tmp_path, capsys, command, override, message):
        cfg = (fit_config if command == "fit" else mc_config)(tmp_path, **override)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_integral_float_counts_accepted(self, tmp_path):
        assert main(["fit", "--config", fit_config(tmp_path), "--out", str(tmp_path / "a")]) == 0
        whole = fit_config(tmp_path, seed=7.0, y_grid={"start": 0.1, "stop": 0.9, "num": 9.0},
                           forest={"subsample_size": 40, "n_trees": 40.0, "basis_order": 4,
                                   "min_child": 4})
        assert main(["fit", "--config", whole, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "fit.csv").read_bytes() == \
            (tmp_path / "b" / "fit.csv").read_bytes()

    def test_integral_float_seed_and_workers_recorded_as_integers(self, tmp_path):
        fit_cfg = fit_config(tmp_path, seed=7.0)
        mc_cfg = mc_config(tmp_path, seed=3.0, workers=1.0)
        assert main(["fit", "--config", fit_cfg, "--out", str(tmp_path / "fit")]) == 0
        assert main(["mc", "--config", mc_cfg, "--out", str(tmp_path / "mc")]) == 0
        config = json.loads((tmp_path / "fit" / "fit_provenance.json").read_text())["config"]
        assert config["seed"] == 7 and type(config["seed"]) is int
        config = json.loads((tmp_path / "mc" / "mc_report.json").read_text())["config"]
        assert [config["seed"], config["workers"]] == [3, 1]
        assert type(config["seed"]) is int and type(config["workers"]) is int


class TestMCCommand:
    def test_report_schema_and_determinism(self, tmp_path):
        cfg = mc_config(tmp_path)
        out1 = tmp_path / "m1"
        out2 = tmp_path / "m2"
        assert main(["mc", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["mc", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "mc_report.csv").read_bytes() == (out2 / "mc_report.csv").read_bytes()
        assert (out1 / "mc_report.json").read_bytes() == (out2 / "mc_report.json").read_bytes()
        with open(out1 / "mc_report.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["y", "truth", "bias", "sd", "avg_se", "coverage"]
        assert len(rows) == 1 + 3 + 1  # header, three points, mise row
        assert rows[-1][0] == "mise"

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_non_positive_workers_flag_is_input_error(self, tmp_path, capsys, monkeypatch,
                                                      workers):
        def no_process(*args, **kwargs):
            raise AssertionError("a worker process was started")

        monkeypatch.setattr(simbench, "ProcessPoolExecutor", no_process)
        monkeypatch.setattr(estimator, "fit", no_process)
        assert main(["mc", "--config", mc_config(tmp_path), "--workers", workers,
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ")
        assert f"workers must be at least 1, not {workers}" in err
        assert not (tmp_path / "mc_report.json").exists()

    def test_unknown_design_rejected(self, tmp_path, capsys):
        cfg = mc_config(tmp_path, design="D9")
        assert main(["mc", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "design" in capsys.readouterr().err

    def test_bad_flag_is_input_error(self, tmp_path, capsys):
        assert main(["mc", "--bogus"]) == 1


class TestRecordedConfig:
    """The config block a command records, given back, reproduces its outputs."""

    @pytest.mark.parametrize("command, make_config, outputs", [
        ("fit", fit_config, ("fit.csv", "fit_provenance.json")),
        ("mc", mc_config, ("mc_report.csv", "mc_report.json")),
    ])
    def test_rerun_from_recorded_config_is_byte_identical(self, tmp_path, command,
                                                          make_config, outputs):
        first, again = tmp_path / "first", tmp_path / "again"
        assert main([command, "--config", make_config(tmp_path), "--out", str(first)]) == 0
        recorded = json.loads((first / outputs[1]).read_text())["config"]
        assert main([command, "--config", write_config(tmp_path / "recorded.json", recorded),
                     "--out", str(again)]) == 0
        for name in outputs:
            assert (again / name).read_bytes() == (first / name).read_bytes()


class TestGoldenBytes:
    """The criterion-9 configs of tests/test_acceptance.py, pinned to their output bytes.

    The provenance files and ``mc_report.json`` embed library versions and
    are left out.
    """

    def test_criterion_9_outputs(self, tmp_path):
        fit_cfg = fit_config(tmp_path, seed=41, y_grid={"start": 0.05, "stop": 0.95, "num": 19})
        mc_cfg = mc_config(tmp_path, seed=43)
        assert main(["fit", "--config", fit_cfg, "--out", str(tmp_path / "fit")]) == 0
        assert main(["mc", "--config", mc_cfg, "--out", str(tmp_path / "mc")]) == 0
        assert sha256((tmp_path / "fit" / "fit.csv").read_bytes()).hexdigest() == (
            "e976fdd48db6e633a1045085ba1a6a67eda76aaa76681092f7dbd659b5166496")
        assert sha256((tmp_path / "mc" / "mc_report.csv").read_bytes()).hexdigest() == (
            "b75f804019dd9e3f22b4e271cd763c77ca6ac5c2147b3fb38940c81977e4c223")


class TestSmokeProfileRuntime:
    def test_small_mc_completes_quickly(self, tmp_path):
        import time

        cfg = mc_config(tmp_path, n=200, reps=2,
                        forest={"subsample_size": 50, "n_trees": 64,
                                "basis_order": 4, "min_child": 5,
                                "initial_parent": [[0.0] * 4, [1.0] * 4]})
        t0 = time.perf_counter()
        assert main(["mc", "--config", cfg, "--out", str(tmp_path / "smoke")]) == 0
        assert time.perf_counter() - t0 < 300.0
