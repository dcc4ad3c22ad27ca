"""Command-line interface: schemas, values, determinism, error handling."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from volbias import BootstrapResult, CalibrationFit, ScenarioSpec, cli
from volbias.cli import main

SRC = Path(cli.__file__).resolve().parents[1]


def write_config(tmp_path: Path, name: str, obj: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run(args) -> int:
    return main([str(a) for a in args])


class TestEncoding:
    @pytest.mark.parametrize(
        "cell, text",
        [
            (None, ""),
            ("sd", "sd"),
            (np.str_("val"), "val"),
            (2000, "2000"),
            (np.int64(7), "7"),
            (0.1 + 0.2, "0.3"),
            (1 / 3, "0.333333333333333"),
            (np.float64(2 / 3), f"{2 / 3:.15g}"),
        ],
    )
    def test_csv_cell(self, cell, text):
        assert cli._fmt(cell) == text

    def test_to_json_strings_are_pinned(self):
        # the exact strings, key order included, that the hand-written field lists produced
        spec = ScenarioSpec(s_alpha=100.0, s_gamma=1.0, mu=0.1 + 0.2, k_regions=4, p_beta=0.25)
        boot = BootstrapResult(mean_diff=-0.5, p_greater=1 / 3, p_smaller=1e-4, n_resamples=10000, significant=True)
        fit = CalibrationFit(slope=2.0, intercept=-0.0, n_points=3, residual_mean=1e-17, residual_slope=0.0)
        assert spec.to_json() == (
            '{"s_alpha": 100.0, "s_gamma": 1.0, "mu": 0.30000000000000004, "k_regions": 4, "p_beta": 0.25}'
        )
        assert boot.to_json() == (
            '{"mean_diff": -0.5, "p_greater": 0.3333333333333333, "p_smaller": 0.0001, '
            '"n_resamples": 10000, "significant": true}'
        )
        assert fit.to_json() == (
            '{"slope": 2.0, "intercept": -0.0, "n_points": 3, "residual_mean": 1e-17, "residual_slope": 0.0}'
        )


class TestRiskCurveCommand:
    def test_csv_schema_and_values(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"k_list": [1], "mu_list": [1.0], "p_beta_grid": [0.5, 1.0], "p_tilde_grid_size": 11},
        )
        assert run(["risk-curve", "--config", cfg, "--out", tmp_path]) == 0
        rows = read_rows(tmp_path / "risk_curve.csv")
        assert list(rows[0]) == ["k", "mu", "p_beta", "p_tilde", "expected_sd", "expected_ce"]
        assert len(rows) == 2 * 11
        first = rows[0]
        assert (first["k"], first["mu"], first["p_beta"], first["p_tilde"]) == ("1", "1", "0.5", "0")
        assert float(first["expected_sd"]) == pytest.approx(1 / 6, abs=1e-12)
        last = rows[-1]
        assert (last["p_beta"], last["p_tilde"]) == ("1", "1")
        assert float(last["expected_sd"]) == 0.0

    def test_rows_sorted_lexicographically(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"k_list": [4, 1], "mu_list": [4.0, 0.25], "p_beta_grid": [0.75, 0.25], "p_tilde_grid_size": 3},
        )
        assert run(["risk-curve", "--config", cfg, "--out", tmp_path]) == 0
        rows = read_rows(tmp_path / "risk_curve.csv")
        keys = [(int(r["k"]), float(r["mu"]), float(r["p_beta"]), float(r["p_tilde"])) for r in rows]
        assert keys == sorted(keys)


class TestBiasCurveCommand:
    def test_values_and_switch_points(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"k_list": [1, 4, 16], "mu_list": [1.0, 4.0], "p_beta_grid": [0.25, 0.75]},
        )
        assert run(["bias-curve", "--config", cfg, "--out", tmp_path]) == 0
        rows = read_rows(tmp_path / "bias_curve.csv")
        by_key = {(r["k"], r["mu"], r["p_beta"]): r for r in rows}
        low = by_key[("1", "1", "0.25")]
        assert float(low["prob_error"]) == -0.25
        assert float(low["switch_point"]) == pytest.approx(0.5, abs=1e-5)
        assert float(by_key[("16", "4", "0.25")]["switch_point"]) < float(by_key[("4", "4", "0.25")]["switch_point"])

    def test_integral_floats_accepted(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"k_list": [4.0, 1e0], "mu_list": [1.0], "p_beta_grid": [0.25]})
        assert run(["bias-curve", "--config", cfg, "--out", tmp_path]) == 0
        assert [r["k"] for r in read_rows(tmp_path / "bias_curve.csv")] == ["1", "4"]

    def test_volume_bias_column(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"k_list": [1], "mu_list": [4.0], "p_beta_grid": [0.25]})
        assert run(["bias-curve", "--config", cfg, "--out", tmp_path]) == 0
        (row,) = read_rows(tmp_path / "bias_curve.csv")
        assert float(row["volume_bias"]) == pytest.approx(-1.0, abs=1e-9)

    def test_background_volume_never_enters(self, tmp_path):
        # soft-Dice does not score true negatives, so s_alpha is not read
        base = {"k_list": [1, 4, 16], "mu_list": [0.25, 4.0], "p_beta_grid": [0.0, 0.3, 0.5, 1.0], "s_gamma": 2.5}
        outputs = set()
        for i, extra in enumerate(({}, {"s_alpha": 0}, {"s_alpha": 100}, {"s_alpha": 1e6})):
            cfg = write_config(tmp_path, f"cfg{i}.json", {**base, **extra})
            assert run(["bias-curve", "--config", cfg, "--out", tmp_path / str(i)]) == 0
            outputs.add((tmp_path / str(i) / "bias_curve.csv").read_bytes())
        assert len(outputs) == 1


class TestTrainToyCommand:
    CONFIG = {
        "scenarios": [
            {"s_alpha": 10, "s_gamma": 1, "mu": 1.0, "k_regions": 1, "p_beta": 0.75},
        ],
        "losses": ["ce", "sd"],
        "n_seeds": 3,
        "n_images": 300,
        "pixels_per_unit_volume": 10,
        "lr_sd": 0.5,
        "max_epochs": 600,
        "patience": 100,
        "n_resamples": 2000,
    }

    def test_outputs_and_summary(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", self.CONFIG)
        assert run(["train-toy", "--config", cfg, "--seed", 5, "--out", tmp_path]) == 0
        lines = (tmp_path / "train_reports.jsonl").read_text().strip().split("\n")
        assert len(lines) == 6  # 1 scenario x 2 losses x 3 seeds
        record = json.loads(lines[0])
        assert record["loss_kind"] == "ce"
        assert set(record["scenario"]) == {"s_alpha", "s_gamma", "mu", "k_regions", "p_beta"}
        assert len(record["per_region_pred"]) == 3
        rows = read_rows(tmp_path / "train_summary.csv")
        assert list(rows[0]) == ["scenario", "loss", "bias_soft", "bias_hard", "p_boot"]
        assert len(rows) == 2
        sd_row = next(r for r in rows if r["loss"] == "sd")
        assert float(sd_row["bias_soft"]) > 0  # over-estimation at p_beta=0.75

    def test_failed_cell_does_not_crash_run(self, tmp_path):
        cfg_obj = dict(self.CONFIG)
        cfg_obj["scenarios"] = [{"s_alpha": 10, "s_gamma": 1, "mu": 0.001, "k_regions": 1, "p_beta": 0.5}]
        cfg_obj["pixels_per_unit_volume"] = 10  # rounds the uncertain region to zero pixels
        cfg = write_config(tmp_path, "cfg.json", cfg_obj)
        assert run(["train-toy", "--config", cfg, "--seed", 1, "--out", tmp_path]) == 0
        lines = (tmp_path / "train_reports.jsonl").read_text().strip().split("\n")
        assert all("error" in json.loads(line) for line in lines)

    @pytest.mark.parametrize(
        "scenario, ppuv",
        [
            ({"mu": 1e-20}, None),  # the automatic resolution asks for ~1e22 background pixels
            ({"mu": 1e-320}, None),  # the automatic resolution itself is infinite
            ({}, 10**400),  # no float holds volume x resolution
        ],
        ids=["auto-past-int64", "auto-infinite", "past-float"],
    )
    def test_pixel_count_overflow_is_a_cell_error(self, tmp_path, scenario, ppuv):
        cfg_obj = {**self.CONFIG, "n_seeds": 1, "scenarios": [{**self.CONFIG["scenarios"][0], **scenario}]}
        cfg_obj.pop("pixels_per_unit_volume")
        if ppuv is not None:
            cfg_obj["pixels_per_unit_volume"] = ppuv
        cfg = write_config(tmp_path, "cfg.json", cfg_obj)
        assert run(["train-toy", "--config", cfg, "--out", tmp_path]) == 0
        lines = (tmp_path / "train_reports.jsonl").read_text().strip().split("\n")
        assert len(lines) == 2 and all("pixels per unit volume" in json.loads(line)["error"] for line in lines)
        assert [row["bias_soft"] for row in read_rows(tmp_path / "train_summary.csv")] == ["", ""]

    def test_artifacts_write_scenarios_at_15_digits(self, tmp_path):
        base = {"s_alpha": 10, "s_gamma": 1, "mu": 0.1 + 0.2, "k_regions": 1}
        cfg_obj = {
            **self.CONFIG,
            "scenarios": [{**base, "p_beta": 0.25}, {**base, "p_beta": 0.2500001}],
            "losses": ["ce"],
            "n_seeds": 1,
            "max_epochs": 5,
        }
        cfg = write_config(tmp_path, "cfg.json", cfg_obj)
        assert run(["train-toy", "--config", cfg, "--out", tmp_path]) == 0
        lines = (tmp_path / "train_reports.jsonl").read_text().strip().split("\n")
        assert [json.loads(line)["scenario"]["mu"] for line in lines] == [0.3, 0.3]
        assert "0.30000000000000004" not in "".join(lines)
        ids = [row["scenario"] for row in read_rows(tmp_path / "train_summary.csv")]
        assert ids == ["sa10-sg1-K1-mu0.3-pb0.25", "sa10-sg1-K1-mu0.3-pb0.2500001"]


class TestCalibrateCommand:
    @staticmethod
    def volumes_csv(tmp_path, rows):
        path = tmp_path / "volumes.csv"
        text = "true_volume,pred_volume,split\n" + "\n".join(f"{t},{p},{s}" for t, p, s in rows) + "\n"
        path.write_text(text)
        return path

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_volume_fails_cleanly(self, tmp_path, capsys, column, bad):
        rows = [[float(v), float(v), "train" if v % 2 else "val"] for v in range(1, 25)]
        rows[1][column] = bad  # a validation row: the fit never sees it, the correction and profile would
        self.volumes_csv(tmp_path, rows)
        cfg = write_config(tmp_path, "cfg.json", {"input_csv": "volumes.csv"})
        assert run(["calibrate", "--config", cfg, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_identity_data_unchanged(self, tmp_path):
        rows = [(float(v), float(v), "train" if v % 2 else "val") for v in range(1, 25)]
        self.volumes_csv(tmp_path, rows)
        cfg = write_config(tmp_path, "cfg.json", {"input_csv": "volumes.csv"})
        assert run(["calibrate", "--config", cfg, "--out", tmp_path]) == 0
        fit = json.loads((tmp_path / "calibration_fit.json").read_text())
        assert fit["slope"] == pytest.approx(1.0, abs=1e-12)
        assert fit["intercept"] == pytest.approx(0.0, abs=1e-12)
        out = read_rows(tmp_path / "calibrated.csv")
        for row in out:
            assert float(row["corrected_volume"]) == pytest.approx(float(row["pred_volume"]), abs=1e-9)

    def test_exact_double_scale_corrected(self, tmp_path):
        rows = [(float(v), 2.0 * v, "train" if v % 2 else "val") for v in range(1, 41)]
        self.volumes_csv(tmp_path, rows)
        cfg = write_config(tmp_path, "cfg.json", {"input_csv": "volumes.csv"})
        assert run(["calibrate", "--config", cfg, "--out", tmp_path]) == 0
        out = read_rows(tmp_path / "calibrated.csv")
        for row in out:
            if row["split"] == "val":
                assert float(row["corrected_volume"]) == pytest.approx(float(row["true_volume"]), abs=1e-9)
        profile = read_rows(tmp_path / "decile_profile_after.csv")
        assert len(profile) == 10

    def test_constant_offset_removed(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(200):
            t = float(rng.uniform(1, 20))
            rows.append((t, t + 5.0 + float(rng.normal(0, 0.3)), "train" if i % 2 else "val"))
        self.volumes_csv(tmp_path, rows)
        cfg = write_config(tmp_path, "cfg.json", {"input_csv": "volumes.csv"})
        assert run(["calibrate", "--config", cfg, "--out", tmp_path]) == 0
        out = read_rows(tmp_path / "calibrated.csv")
        val = [(float(r["corrected_volume"]), float(r["true_volume"])) for r in out if r["split"] == "val"]
        bias = np.mean([c - t for c, t in val])
        assert abs(bias) < 0.1

    def test_missing_columns_fail_cleanly(self, tmp_path, capsys):
        (tmp_path / "volumes.csv").write_text("a,b\n1,2\n")
        cfg = write_config(tmp_path, "cfg.json", {"input_csv": "volumes.csv"})
        assert run(["calibrate", "--config", cfg, "--out", tmp_path]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_too_few_training_rows_fail_cleanly(self, tmp_path, capsys):
        self.volumes_csv(tmp_path, [(1.0, 1.0, "train"), (2.0, 2.0, "val")])
        cfg = write_config(tmp_path, "cfg.json", {"input_csv": "volumes.csv"})
        assert run(["calibrate", "--config", cfg, "--out", tmp_path]) == 1
        assert "split=train" in capsys.readouterr().err


class TestBootstrapCommand:
    def test_inline_arrays(self, tmp_path):
        cfg = write_config(tmp_path, "cfg.json", {"a": [1, 2, 3, 4], "b": [0, 1, 2, 3], "n_resamples": 2000})
        assert run(["bootstrap", "--config", cfg, "--seed", 3, "--out", tmp_path]) == 0
        result = json.loads((tmp_path / "bootstrap.json").read_text())
        assert set(result) == {"mean_diff", "p_greater", "p_smaller", "n_resamples", "significant"}
        assert result["mean_diff"] == 1.0
        assert result["significant"] is True

    def test_csv_input(self, tmp_path):
        (tmp_path / "pairs.csv").write_text("a,b\n1.0,0.5\n2.0,1.5\n0.5,0.0\n1.5,2.0\n")
        cfg = write_config(tmp_path, "cfg.json", {"input_csv": "pairs.csv", "n_resamples": 2000})
        assert run(["bootstrap", "--config", cfg, "--seed", 3, "--out", tmp_path]) == 0
        result = json.loads((tmp_path / "bootstrap.json").read_text())
        assert result["n_resamples"] == 2000

    def test_exponent_notation_integer(self, tmp_path):
        (tmp_path / "cfg.json").write_text('{"a": [1, 2, 3, 4], "b": [0, 1, 2, 3], "n_resamples": 1e4}')
        assert run(["bootstrap", "--config", tmp_path / "cfg.json", "--out", tmp_path]) == 0
        assert json.loads((tmp_path / "bootstrap.json").read_text())["n_resamples"] == 10000


class TestDeterminismAndErrors:
    SCENARIO = TestTrainToyCommand.CONFIG["scenarios"][0]

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["risk-curve", "--config", tmp_path / "nope.json", "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_invalid_json_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["risk-curve", "--config", bad, "--out", tmp_path]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["risk-curve", "bias-curve"])
    @pytest.mark.parametrize(
        "override",
        [
            {"p_beta_grid": 0.5},
            {"k_list": 4},
            {"k_list": []},
            {"k_list": [None]},
            {"mu_list": ["x"]},
            {"k_list": [1.7]},
            {"p_beta_grid": [0.5, 1.5]},
            {"p_beta_grid": [-0.1]},
        ],
    )
    def test_malformed_grid_fails_cleanly(self, tmp_path, capsys, command, override):
        cfg = write_config(tmp_path, "cfg.json", {"k_list": [1], "mu_list": [1.0], "p_beta_grid": [0.5], **override})
        assert run([command, "--config", cfg, "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize(
        "command, cfg_obj",
        [
            ("risk-curve", {"k_list": [1], "mu_list": [1.0], "p_beta_grid": [0.5], "p_tilde_grid_size": [1]}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_seeds": None}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "scenarios": 5}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "scenarios": [3]}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_resamples": [2000]}),
            ("bootstrap", {"a": [[1], [2]], "b": [0, 0]}),
            ("bias-curve", {"k_list": [1], "mu_list": [1.0], "p_beta_grid": [0.5], "s_gamma": math.nan}),
            ("risk-curve", {"k_list": [1], "mu_list": [math.nan], "p_beta_grid": [0.5]}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "scenarios": [{**SCENARIO, "s_gamma": math.inf}]}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "patience": 0}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "patience": -5}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "pixels_per_unit_volume": 0}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "pixels_per_unit_volume": -3}),
            # integer keys refuse to truncate
            ("risk-curve", {"k_list": [1], "mu_list": [1.0], "p_beta_grid": [0.5], "p_tilde_grid_size": 10.5}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_seeds": 2.5}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_images": 300.5}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "max_epochs": 600.5}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "patience": 100.5}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "pixels_per_unit_volume": 10.5}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_resamples": 2000.5}),
            ("bootstrap", {"a": [1, 2], "b": [0, 0], "n_resamples": 2000.5}),
            # train-toy config errors, not per-cell error records
            ("train-toy", {**TestTrainToyCommand.CONFIG, "losses": ["dice"]}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_images": 0}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_images": 3}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "lr_ce": -1}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "max_epochs": 0}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_resamples": 0}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "scenarios": [{**SCENARIO, "k_regions": 1.7}]}),
            # NaN fails every ordered comparison, so it must be refused, not compared
            ("bias-curve", {"k_list": [4], "mu_list": [4.0], "p_beta_grid": [0.5], "switch_tol": math.nan}),
            ("bootstrap", {"a": [1.0, math.nan, 2.0], "b": [0.0, 0.0, 0.0]}),
            # numbers must be JSON numbers: quoted numbers and booleans are refused
            ("risk-curve", {"k_list": [1], "mu_list": [1.0], "p_beta_grid": [0.5], "s_alpha": "100"}),
            ("risk-curve", {"k_list": ["4"], "mu_list": [1.0], "p_beta_grid": [0.5]}),
            ("risk-curve", {"k_list": [1], "mu_list": [1.0], "p_beta_grid": [0.5], "p_tilde_grid_size": "3"}),
            ("bias-curve", {"k_list": [1], "mu_list": [1.0], "p_beta_grid": [True]}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "scenarios": [{**SCENARIO, "s_alpha": "10"}]}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "scenarios": [{**SCENARIO, "k_regions": True}]}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_seeds": True}),
            ("bootstrap", {"a": ["1", 2], "b": [0, 0]}),
            # the prediction grid needs both endpoints
            ("risk-curve", {"k_list": [1], "mu_list": [1.0], "p_beta_grid": [0.5], "p_tilde_grid_size": 1}),
            # JSON's Infinity passes a bare > 0 test
            ("train-toy", {**TestTrainToyCommand.CONFIG, "lr_sd": math.inf}),
        ],
    )
    def test_malformed_scalar_fails_cleanly(self, tmp_path, capsys, monkeypatch, command, cfg_obj):
        # every check comes before any work: train-toy must not train a cell
        monkeypatch.setattr(cli, "train", lambda *a, **kw: pytest.fail("trained despite a config error"))
        cfg = write_config(tmp_path, "cfg.json", cfg_obj)
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, cfg_obj",
        [
            ("risk-curve", {"k_list": [1], "mu_list": [1.0], "p_beta_grid": [0.5], "output_path": [1]}),
            ("bias-curve", {"k_list": [1], "mu_list": [1.0], "p_beta_grid": [0.5], "output_path": ""}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_seeds": 1, "summary_path": None}),
            ("calibrate", {"input_csv": 5}),
            ("calibrate", {"input_csv": "volumes.csv", "profile_after_path": {}}),
            ("bootstrap", {"a": [1, 2], "b": [0, 0], "output_path": 5}),
            ("bootstrap", {"input_csv": 5}),
        ],
    )
    def test_malformed_path_fails_cleanly(self, tmp_path, capsys, command, cfg_obj):
        rows = [(float(v), float(v), "train" if v % 2 else "val") for v in range(1, 25)]
        TestCalibrateCommand.volumes_csv(tmp_path, rows)
        cfg = write_config(tmp_path, "cfg.json", cfg_obj)
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_config_directory_fails_cleanly(self, tmp_path, capsys):
        assert run(["risk-curve", "--config", tmp_path, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["calibrate", "bootstrap"])
    def test_input_csv_directory_fails_cleanly(self, tmp_path, capsys, command):
        (tmp_path / "volumes.csv").mkdir()
        cfg = write_config(tmp_path, "cfg.json", {"input_csv": "volumes.csv"})
        assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_out_below_a_file_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "file").write_text("")
        # the check comes before any work: train-toy must not train a cell
        monkeypatch.setattr(cli, "train", lambda *a, **kw: pytest.fail("trained despite an unusable --out"))
        for command, cfg_obj in (
            ("bootstrap", {"a": [1, 2], "b": [0, 0], "n_resamples": 1000}),
            ("train-toy", TestTrainToyCommand.CONFIG),
        ):
            cfg = write_config(tmp_path, "cfg.json", cfg_obj)
            assert run([command, "--config", cfg, "--out", tmp_path / "file" / "out"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert (tmp_path / "file").read_text() == ""

    @pytest.mark.parametrize("key", ["switch_tol"])
    def test_tiny_tolerance_terminates(self, tmp_path, key):
        # A bracket that stops narrowing in floating point must end the
        # search; run in a subprocess so a regression fails, not hangs.
        cfg = write_config(tmp_path, "cfg.json", {"k_list": [1, 4], "mu_list": [1.0], "p_beta_grid": [0.25, 0.75], key: 1e-300})
        argv = [sys.executable, "-m", "volbias.cli", "bias-curve", "--config", str(cfg), "--out", str(tmp_path)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        rows = read_rows(tmp_path / "bias_curve.csv")
        assert [float(r["p_tilde_opt"]) for r in rows] == [0.0, 1.0, 0.0, 1.0]
        assert float(rows[0]["switch_point"]) == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("command", ["risk-curve", "bias-curve"])
    def test_large_k_writes_finite_rows(self, tmp_path, command):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"k_list": [2000], "mu_list": [1.0], "p_beta_grid": [0.25, 0.75], "p_tilde_grid_size": 11},
        )
        assert run([command, "--config", cfg, "--out", tmp_path]) == 0
        (path,) = tmp_path.glob("*.csv")
        rows = read_rows(path)
        assert len(rows) == (22 if command == "risk-curve" else 2)
        assert all(math.isfinite(float(v)) for row in rows for v in row.values())

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "cfg.json",
            {"k_list": [1, 4], "mu_list": [1.0], "p_beta_grid": [0.25, 0.75], "p_tilde_grid_size": 21},
        )
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            assert run(["risk-curve", "--config", cfg, "--seed", 11, "--out", out]) == 0
        assert (out1 / "risk_curve.csv").read_bytes() == (out2 / "risk_curve.csv").read_bytes()
