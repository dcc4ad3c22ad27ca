"""Command-line interface: schemas, values, determinism, error handling."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volbias import BootstrapResult, ScenarioSpec, cli
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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_number_is_refused(self, bad):
        for render in (cli._fmt, lambda x: cli._column(np.array([0.5, x])), lambda x: cli._json({"x": [x]})):
            with pytest.raises(ValueError):
                render(bad)

    def test_to_json_strings_are_pinned(self):
        # the exact strings, key order included, that the hand-written field lists produced
        spec = ScenarioSpec(s_alpha=100.0, s_gamma=1.0, mu=0.1 + 0.2, k_regions=4, p_beta=0.25)
        boot = BootstrapResult(mean_diff=-0.5, p_greater=1 / 3, p_smaller=1e-4, n_resamples=10000, significant=True)
        assert spec.to_json() == (
            '{"s_alpha": 100.0, "s_gamma": 1.0, "mu": 0.30000000000000004, "k_regions": 4, "p_beta": 0.25}'
        )
        assert boot.to_json() == (
            '{"mean_diff": -0.5, "p_greater": 0.3333333333333333, "p_smaller": 0.0001, '
            '"n_resamples": 10000, "significant": true}'
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
        "max_epochs": 600,
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
        cfg_obj["scenarios"] = [{"s_alpha": 0, "s_gamma": 1, "mu": 1.0, "k_regions": 1, "p_beta": 0.5}]  # no background
        cfg = write_config(tmp_path, "cfg.json", cfg_obj)
        assert run(["train-toy", "--config", cfg, "--seed", 1, "--out", tmp_path]) == 0
        lines = (tmp_path / "train_reports.jsonl").read_text().strip().split("\n")
        assert all("error" in json.loads(line) for line in lines)

    def test_report_serialization_keys(self, tmp_path):
        trained = self.CONFIG["scenarios"][0]
        cfg_obj = {
            **self.CONFIG,
            "scenarios": [trained, {**trained, "s_alpha": 0}],  # the second has no background: an error line
            "losses": ["ce"],
            "n_seeds": 1,
            "max_epochs": 50,
        }
        cfg = write_config(tmp_path, "cfg.json", cfg_obj)
        assert run(["train-toy", "--config", cfg, "--out", tmp_path]) == 0
        ok, failed = map(json.loads, (tmp_path / "train_reports.jsonl").read_text().strip().split("\n"))
        cell = {"scenario", "loss_kind", "replicate"}
        assert set(ok) == cell | {"final_loss", "per_region_pred", "epochs_run", "bias_soft", "bias_hard"}
        assert ok["loss_kind"] == "ce" and len(ok["per_region_pred"]) == 3
        assert set(failed) == cell | {"error"}

    @staticmethod
    def outputs(tmp_path, name, cfg_obj) -> dict:
        cfg = write_config(tmp_path, f"{name}.json", cfg_obj)
        assert run(["train-toy", "--config", cfg, "--seed", 5, "--out", tmp_path / name]) == 0
        return {f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())}

    @pytest.mark.parametrize(
        "key, value",
        [
            # the trainer works on the model's volumes: no resolution enters
            ("pixels_per_unit_volume", 10),
            # a run stops at its optimum or at max_epochs: no saturation window, even at a once refused 0
            ("patience", 0),
            # both losses train at one learning rate: neither a once refused nor a once different value is read
            ("lr_ce", 0),
            ("lr_sd", 0.5),
        ],
    )
    def test_former_key_is_not_read(self, tmp_path, key, value):
        with_key = {**self.CONFIG, key: value}
        assert self.outputs(tmp_path, "without", self.CONFIG) == self.outputs(tmp_path, "with", with_key)

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

    @pytest.mark.parametrize("column", [0, 1])
    def test_negative_volume_fails_cleanly(self, tmp_path, capsys, column):
        rows = [[1.0, 2.0, "train"], [2.0, 3.0, "train"], [3.0, 5.0, "train"], [4.0, 6.0, "val"]]
        rows[3][column] = -5.0  # a validation row: the fit never sees it
        self.volumes_csv(tmp_path, rows)
        cfg = write_config(tmp_path, "cfg.json", {"input_csv": "volumes.csv"})
        assert run(["calibrate", "--config", cfg, "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "negative volume" in err
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

    def test_json_field_names(self, tmp_path):
        self.volumes_csv(tmp_path, [(float(v), float(v), "train") for v in range(1, 21)])
        cfg = write_config(tmp_path, "cfg.json", {"input_csv": "volumes.csv"})
        assert run(["calibrate", "--config", cfg, "--out", tmp_path]) == 0
        fit = json.loads((tmp_path / "calibration_fit.json").read_text())
        assert set(fit) == {"slope", "intercept", "n_points", "residual_mean", "residual_slope"}

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
            {"mu_list": [1e308], "s_gamma": 10},  # an uncertain volume mu * s_gamma beyond the float range
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
            ("train-toy", {**TestTrainToyCommand.CONFIG, "losses": "ce"}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_resamples": 999}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_seeds": 0}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "losses": []}),
            # integer keys refuse to truncate
            ("risk-curve", {"k_list": [1], "mu_list": [1.0], "p_beta_grid": [0.5], "p_tilde_grid_size": 10.5}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_seeds": 2.5}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_images": 300.5}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "max_epochs": 600.5}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_seeds": 3.0000001}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_images": math.inf}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_resamples": 2000.5}),
            ("bootstrap", {"a": [1, 2], "b": [0, 0], "n_resamples": 2000.5}),
            # train-toy config errors, not per-cell error records
            ("train-toy", {**TestTrainToyCommand.CONFIG, "losses": ["dice"]}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_images": 0}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "n_images": 3}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "scenarios": [{**SCENARIO, "p_beta": 1.5}]}),
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
            # JSON's Infinity passes a bare >= 1 test
            ("train-toy", {**TestTrainToyCommand.CONFIG, "max_epochs": math.inf}),
            # an integer K beyond the float range cannot split a volume
            ("risk-curve", {"k_list": [10**400], "mu_list": [1.0], "p_beta_grid": [0.5]}),
            ("bias-curve", {"k_list": [10**400], "mu_list": [1.0], "p_beta_grid": [0.5]}),
            ("train-toy", {**TestTrainToyCommand.CONFIG, "scenarios": [{**SCENARIO, "k_regions": 10**400}]}),
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

    @pytest.mark.parametrize("command", ["calibrate", "bootstrap"])
    @pytest.mark.parametrize(
        "bad_row",
        [
            None,  # the control: blank lines between and after the rows are skipped
            "drop the last cell",
            "add a cell",
            "a cell past the csv module's field limit",
        ],
    )
    def test_ragged_or_oversized_csv_row_fails_cleanly(self, tmp_path, capsys, command, bad_row):
        header = "true_volume,pred_volume,split" if command == "calibrate" else "a,b"
        rows = [f"{v},{v + 1}" + (",train" if v % 2 else ",val") * (command == "calibrate") for v in range(1, 25)]
        if bad_row == "drop the last cell":
            rows[3] = rows[3].rsplit(",", 1)[0]
        elif bad_row == "add a cell":
            rows[3] += ",5"
        elif bad_row is not None:
            rows[3] = "1." + "0" * 131072 + rows[3][1:]  # still the number 1 followed by the row's other cells
        (tmp_path / "input.csv").write_text(header + "\n" + "\n\n".join(rows) + "\n\n")
        cfg = write_config(tmp_path, "cfg.json", {"input_csv": "input.csv", "n_resamples": 1000})
        code = run([command, "--config", cfg, "--out", tmp_path / "out"])
        if bad_row is None:
            assert code == 0
            return
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_deeply_nested_config_fails_cleanly(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text("[" * 100000 + "]" * 100000)
        assert run(["risk-curve", "--config", tmp_path / "cfg.json", "--out", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("exc", [MemoryError("Unable to allocate 7.28 TiB"), MemoryError()])
    def test_memory_error_fails_cleanly(self, tmp_path, capsys, monkeypatch, exc):
        def command(*args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "bootstrap", command)
        cfg = write_config(tmp_path, "cfg.json", {"a": [1, 2], "b": [0, 0]})
        assert run(["bootstrap", "--config", cfg, "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) > len("error: \n")

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


def run_in_process(work: Path, command: str, cfg_obj: dict) -> tuple[int, str, list[Path]]:
    """Run ``command`` on ``cfg_obj`` with ``--out work/out``: its exit code, its stderr and the files under ``--out``."""
    cfg = write_config(work, "cfg.json", cfg_obj)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run([command, "--config", cfg, "--out", work / "out"])
    return code, err.getvalue(), sorted(p for p in (work / "out").rglob("*") if p.is_file())


def assert_one_error_line(stderr: str):
    assert stderr.startswith("error:") and stderr.count("\n") == 1, stderr


class TestAllOrNothing:
    """Every artifact is rendered and checked before the first file is written, so a failed run writes none."""

    TINY_TRAINING = {**TestTrainToyCommand.CONFIG, "n_seeds": 1, "n_images": 40, "max_epochs": 5, "n_resamples": 1000}
    HUGE_CURVE = {"k_list": [1], "mu_list": [1.7e308], "p_beta_grid": [0.5, 1.0], "s_gamma": 1}

    @staticmethod
    def volumes(tmp_path, rows=None):
        rows = rows or [(float(v), float(v), "train" if v % 2 else "val") for v in range(1, 25)]
        return TestCalibrateCommand.volumes_csv(tmp_path, rows)

    @pytest.mark.parametrize(
        "command, cfg_obj",
        [
            # one output path under another: the fit would be written before the corrected CSV fails
            ("calibrate", {"input_csv": "volumes.csv", "corrected_path": "calibration_fit.json/x.csv"}),
            # two artifacts at one path: the second would overwrite the first
            ("calibrate", {"input_csv": "volumes.csv", "profile_before_path": "p.csv", "profile_after_path": "p.csv"}),
            ("train-toy", {**TINY_TRAINING, "reports_path": "x", "summary_path": "x"}),
            # an output path that is a directory: the rename would fail and leave the temp file
            ("bootstrap", {"a": [1, 2], "b": [0, 0], "n_resamples": 1000, "output_path": "taken"}),
            # finite pairs whose mean overflows, and whose resample means overflow
            ("bootstrap", {"a": [1e308] * 3, "b": [0, 0, 0], "n_resamples": 1000}),
            ("bootstrap", {"a": [1e308, -1e308, 0], "b": [0, 0, 0], "n_resamples": 1000}),
            # finite volumes whose variance overflows
            ("calibrate", {"input_csv": "huge.csv"}),
            # a soft-Dice denominator 2 (mu + 1) s_gamma beyond the float range
            ("bias-curve", HUGE_CURVE),
            ("risk-curve", {**HUGE_CURVE, "p_tilde_grid_size": 3}),
        ],
    )
    def test_failed_run_writes_nothing(self, tmp_path, command, cfg_obj):
        (tmp_path / "out" / "taken").mkdir(parents=True)
        rows = [(1e308, 1e308, "train"), (1.0, -1e308, "train"), (2.0, 3.0, "train"), (4.0, 5.0, "val")]
        TestCalibrateCommand.volumes_csv(tmp_path, rows).rename(tmp_path / "huge.csv")
        self.volumes(tmp_path)
        code, stderr, files = run_in_process(tmp_path, command, cfg_obj)
        assert code == 1
        assert_one_error_line(stderr)
        assert files == []
        assert not list(tmp_path.rglob("*.tmp"))

    def test_failed_run_changes_no_byte_of_earlier_artifacts(self, tmp_path):
        self.volumes(tmp_path)
        assert run_in_process(tmp_path, "calibrate", {"input_csv": "volumes.csv"})[0] == 0
        before = {p: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        assert len(before) == 4
        self.volumes(tmp_path, [(1e308, 1e308, "train"), (1.0, -1e308, "train"), (2.0, 3.0, "train")])
        code, stderr, _ = run_in_process(tmp_path, "calibrate", {"input_csv": "volumes.csv"})
        assert code == 1
        assert_one_error_line(stderr)
        assert {p: p.read_bytes() for p in (tmp_path / "out").iterdir()} == before

    def test_overflowing_cell_is_an_error_record(self, tmp_path):
        # the first scenario trains; in the second, the label volumes overflow their mean
        good = TestTrainToyCommand.CONFIG["scenarios"][0]
        huge = {"s_alpha": 9e307, "s_gamma": 8e307, "mu": 0.1, "k_regions": 1, "p_beta": 0.75}
        cfg_obj = {**self.TINY_TRAINING, "scenarios": [good, huge], "n_seeds": 2, "max_epochs": 20}
        code, stderr, _ = run_in_process(tmp_path, "train-toy", cfg_obj)
        assert (code, stderr) == (0, "")
        records = [json.loads(line) for line in (tmp_path / "out" / "train_reports.jsonl").read_text().splitlines()]
        assert len(records) == 8  # 2 scenarios x 2 losses x 2 seeds
        assert all("error" not in r for r in records[:4])
        assert all("overflow" in r["error"] for r in records[4:])
        rows = read_rows(tmp_path / "out" / "train_summary.csv")
        assert [bool(r["p_boot"]) for r in rows] == [True, True, False, False]


class TestWriterTouchesOnlyItsArtifacts:
    """No temp file takes the name of an artifact or of an existing file: no other file is replaced or removed."""

    def test_an_artifact_named_like_a_temp_file_survives(self, tmp_path):
        # the corrected CSV's temp file was <path>.tmp: it overwrote the fit written there and renamed it away
        runs = {}
        for name, cfg_obj in (("default", {}), ("renamed", {"fit_path": "calibrated.csv.tmp"})):
            (tmp_path / name).mkdir()
            TestAllOrNothing.volumes(tmp_path / name)
            cfg_obj = {"input_csv": "volumes.csv", **cfg_obj}
            code, stderr, files = run_in_process(tmp_path / name, "calibrate", cfg_obj)
            assert (code, stderr) == (0, "")
            runs[name] = {p.name: p.read_bytes() for p in files}
        fit = runs["default"].pop("calibration_fit.json")
        assert runs["renamed"] == {**runs["default"], "calibrated.csv.tmp": fit}

    def test_a_file_named_like_a_temp_file_is_kept(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "bootstrap.json.tmp").write_text("not the run's\n")
        cfg_obj = {"a": [1, 2, 3], "b": [0, 0, 0], "n_resamples": 1000}
        code, stderr, files = run_in_process(tmp_path, "bootstrap", cfg_obj)
        assert (code, stderr) == (0, "")
        assert [p.name for p in files] == ["bootstrap.json", "bootstrap.json.tmp"]
        assert (out / "bootstrap.json.tmp").read_text() == "not the run's\n"
        # the artifact is created as any new file is, with the mode the umask leaves
        assert (out / "bootstrap.json").stat().st_mode == (out / "bootstrap.json.tmp").stat().st_mode


# Adversarial finite JSON values: the float range's ends, a subnormal, signed and unsigned zeros, integers past int64
# and past the float range, and values of the wrong type.
ODD = [1e308, -1e308, 5e-324, -0.0, 0, -1, 2**63, 10**400, "1", None, True, [], {"a": 1}]
# A key that sets an amount of work (n_seeds, max_epochs, a trained region count) takes only values it refuses, so
# that a valid draw stays tiny: a huge valid n_seeds or max_epochs is a long run, and train-toy builds model and
# training arrays of one entry per trained region, so a huge valid k_regions would exhaust memory before any check
# could fail.
REFUSED_COUNTS = [0, -1, -0.0, 5e-324, 2.5, 10**400, "1", None, True]


def odd_list(*typical) -> st.SearchStrategy:
    entry = st.one_of(st.sampled_from(typical), st.sampled_from(ODD))
    return st.one_of(st.lists(entry, min_size=1, max_size=3), st.sampled_from(ODD))


def mutated(base: dict, odd: dict) -> st.SearchStrategy:
    """``base``, a valid tiny config, with up to two keys set to values drawn from ``odd``'s strategy for the key."""
    keys = st.lists(st.sampled_from(sorted(odd)), max_size=2, unique=True)
    return keys.flatmap(lambda ks: st.fixed_dictionaries({k: odd[k] for k in ks})).map(lambda d: {**base, **d})


def assert_contract(code: int, stderr: str, files: list[Path]):
    """Exit 0 with every written number finite, or exit 1 with one ``error:`` line and no file."""
    if code != 0:
        assert code == 1
        assert_one_error_line(stderr)
        assert files == []
        return
    assert stderr == "" and files
    for path in files:
        text = path.read_text()
        if path.suffix == ".csv":
            for cell in (c for line in text.splitlines()[1:] for c in line.split(",")):
                with contextlib.suppress(ValueError):
                    assert math.isfinite(float(cell)), (path.name, cell)
        else:
            for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
                json.loads(doc, parse_constant=lambda c: pytest.fail(f"{path.name} holds {c}"))


def run_contract(command: str, cfg_obj: dict, csv_text: str | None = None):
    with tempfile.TemporaryDirectory() as work:
        if csv_text is not None:
            (Path(work) / "input.csv").write_text(csv_text)
        assert_contract(*run_in_process(Path(work), command, cfg_obj))


CURVE = {"k_list": [1, 4], "mu_list": [0.25, 1.0], "p_beta_grid": [0.0, 0.5, 1.0], "s_gamma": 1.0}
ODD_CURVE = {
    "k_list": odd_list(1, 4),
    "mu_list": odd_list(0.25, 1.0),
    "p_beta_grid": odd_list(0.0, 0.5, 1.0),
    "s_gamma": st.sampled_from(ODD),
}
SCENARIO = {"s_alpha": 10.0, "s_gamma": 1.0, "mu": 1.0, "k_regions": 1, "p_beta": 0.75}
ODD_SCENARIO = {key: st.sampled_from(REFUSED_COUNTS if key == "k_regions" else ODD) for key in SCENARIO}
TRAINING = {"n_seeds": 2, "n_images": 10, "max_epochs": 3, "n_resamples": 1000, "losses": ["ce", "sd"]}
ODD_TRAINING = {
    "scenarios": st.sampled_from(ODD),
    "n_seeds": st.sampled_from(REFUSED_COUNTS),
    "n_images": st.sampled_from(ODD),
    "max_epochs": st.sampled_from(REFUSED_COUNTS),
    "n_resamples": st.sampled_from(ODD),
    "losses": odd_list("ce", "sd"),
}
ODD_CELLS = ["1e308", "-1e308", "5e-324", "-0.0", str(2**63), "1" + "0" * 400, "x", ""]
PAIR_VALUES = [1.5, 0.0, 2.0, 1e308, -1e308, 5e-324, -0.0, 10**400, "1"]


class TestErrorContract:
    """Generative: every config either writes finite artifacts or ends in the single ``error:`` line."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        cfg=mutated(
            {**CURVE, "p_tilde_grid_size": 3, "s_alpha": 100.0},
            {**ODD_CURVE, "p_tilde_grid_size": st.sampled_from(ODD), "s_alpha": st.sampled_from(ODD)},
        )
    )
    def test_risk_curve(self, cfg):
        run_contract("risk-curve", cfg)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(cfg=mutated({**CURVE, "switch_tol": 1e-6}, {**ODD_CURVE, "switch_tol": st.sampled_from(ODD)}))
    def test_bias_curve(self, cfg):
        run_contract("bias-curve", cfg)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(cfg=mutated({**SCENARIO, **TRAINING}, {**ODD_SCENARIO, **ODD_TRAINING}), two_scenarios=st.booleans())
    def test_train_toy(self, cfg, two_scenarios):
        scenario = {key: cfg.pop(key) for key in SCENARIO}  # the second, when there are two, is valid
        run_contract("train-toy", {"scenarios": [scenario, SCENARIO][: 1 + two_scenarios], **cfg})

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        n_rows=st.integers(0, 24),
        odd=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 1), st.sampled_from(ODD_CELLS)), max_size=3),
    )
    def test_calibrate(self, n_rows, odd):
        rows = [[str(v), str(1.5 * v + 2), "train" if v % 2 else "val"] for v in range(1, n_rows + 1)]
        for i, column, cell in odd:
            if i < n_rows:
                rows[i][column] = cell
        text = "true_volume,pred_volume,split\n" + "".join(",".join(row) + "\n" for row in rows)
        run_contract("calibrate", {"input_csv": "input.csv"}, text)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        pairs=st.lists(st.tuples(st.sampled_from(PAIR_VALUES), st.sampled_from(PAIR_VALUES)), min_size=1, max_size=4),
        cfg=mutated({"n_resamples": 1000}, {key: st.sampled_from(ODD) for key in ("a", "b", "n_resamples")}),
    )
    def test_bootstrap(self, pairs, cfg):
        run_contract("bootstrap", {"a": [a for a, _ in pairs], "b": [b for _, b in pairs], **cfg})
