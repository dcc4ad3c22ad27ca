"""Smoke test of the benchmark on minimal inputs.

It sits outside ``tests/`` so the tier-1 suite does not collect it. Run it
from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """The benchmark's ``run`` module, with every workload shrunk to a few seconds."""
    monkeypatch.chdir(ROOT)
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    import run
    import workloads

    for name in ("curves.json", "curves_tail.json"):
        cfg = json.loads((workloads.CONFIG_DIR / name).read_text())
        cfg.update(k_list=cfg["k_list"][:2], mu_list=cfg["mu_list"][:1], p_beta_grid=cfg["p_beta_grid"][:3])
        (tmp_path / name).write_text(json.dumps(cfg))
    cfg = json.loads((workloads.CONFIG_DIR / "train.json").read_text())
    cfg["scenarios"] = [s for s in cfg["scenarios"] if s["k_regions"] == 1 and s["mu"] == 1.0]
    (tmp_path / "train.json").write_text(json.dumps(cfg))
    monkeypatch.setattr(workloads, "CONFIG_DIR", tmp_path)
    monkeypatch.setattr(workloads.Oracle, "uncertain_counts", (12,))
    monkeypatch.setattr(workloads.Oracle, "n_samples", 300)
    monkeypatch.setattr(workloads.Oracle, "n_resamples", 1000)
    return run


def run_bench(bench, workload: str, trace: int) -> int:
    return bench.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(bench, capsys, workload, trace):
    code = run_bench(bench, workload, trace)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    lines = captured.out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines[:-1]), name
    assert any(line.split()[:1] == ["failed_frac"] for line in lines[:-1])


def _corrupt_switch_points(out: Path):
    for path in (out / "grid").glob("*/bias_curve.csv"):
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header] + [row.rsplit(",", 1)[0] + ",0.25" for row in rows]) + "\n")


def _corrupt_sd_predictions(out: Path):
    for path in out.glob("cell*/train_reports.jsonl"):
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for r in records:
            if r["loss_kind"] == "sd":
                r["per_region_pred"] = [0.5] * len(r["per_region_pred"])
        path.write_text("\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n")


def _corrupt_exact_values(out: Path):
    for path in out.glob("model*.json"):
        entry = json.loads(path.read_text())
        entry["exact_sd"] = [v + 0.5 for v in entry["exact_sd"]]
        path.write_text(json.dumps(entry, sort_keys=True) + "\n")


@pytest.mark.parametrize(
    "workload, corrupt",
    [("curves", _corrupt_switch_points), ("train", _corrupt_sd_predictions), ("oracle", _corrupt_exact_values)],
)
def test_a_broken_output_fails_the_run(bench, capsys, monkeypatch, workload, corrupt):
    original = bench.run_pass

    def run_pass_then_corrupt(workload, out):
        result = original(workload, out)
        corrupt(out)
        return result

    monkeypatch.setattr(bench, "run_pass", run_pass_then_corrupt)
    code = run_bench(bench, workload, 0)
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out.splitlines()[-1])["correct"] is False
    assert "check failed" in captured.err
