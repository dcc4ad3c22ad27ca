"""The benchmark's three workloads: seeded inputs, timed steps, output checks.

Each workload is built from ``(seed, work_dir)``. Building it is the
set-up step: it loads the committed configs or generates the models and
writes every input volbias will read. A pass is the workload's ``steps``
run in order; each step is a callable ``(out_dir) -> (attempted, failed)``
that only calls into volbias, writes artifacts and counts operations.
run.py times every step on its own, so steps are kept short: a few tenths
of a second at most. ``check(out_dir)`` runs after the timed region and
returns a list of problems, empty when every output holds at the tolerance
the test suite uses for it.

volbias is looked up through module attributes at call time
(``cli.main``, ``risk.expected_ce``, ...) so the tracer's wrappers see every
call the workload makes.
"""

from __future__ import annotations

import csv
import json
import math
import traceback
from pathlib import Path

import numpy as np

from volbias import cli, losses, regions, risk, stats
from volbias.minimize import sd_minimizer
from volbias.regions import Region, RegionModel, ScenarioSpec

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

# Criterion 3's regression fixtures (bisection at tolerance 1e-9); K = 1
# switches at exactly 0.5 for every mu.
FROZEN_SWITCH_POINTS = {
    (4, 0.25): 0.479106080994,
    (4, 1.0): 0.435795043417,
    (4, 4.0): 0.359043803762,
    (16, 0.25): 0.473877779629,
    (16, 1.0): 0.419585866364,
    (16, 4.0): 0.321145399113,
}


def _load_config(name: str) -> dict:
    return json.loads((CONFIG_DIR / name).read_text())


def _write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


def _call_cli(argv: list[str]) -> int | None:
    """Run one CLI command in process; None when it raised instead of exiting."""
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return None


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Curves:
    """``risk-curve`` and ``bias-curve`` on homogeneous scenarios.

    Two committed configs: the criterion grid (K in {1, 4, 16}, three
    volume ratios, a dense p_beta grid) and a large-K tail that stays below
    the K ~ 1030 overflow of the binomial weights. The seed redraws every
    p_beta grid as one point per equal-width stratum of [0, 1], so the
    amount of work is the same for every seed.

    Each step is one CLI command on one (K, mu) of the grid, or on one
    (K, mu, p_beta) of the tail, whose points cost far more; it writes its
    CSV under ``<out>/<part>/<call>/``.
    """

    name = "curves"
    writes_cli_artifacts = True
    commands = ("risk-curve", "bias-curve")
    n_sampled_rows = 200
    # part -> (committed config, split the p_beta grid into single points)
    parts = {"grid": ("curves.json", False), "tail": ("curves_tail.json", True)}

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.calls = {}  # part -> [(label, config)] in run order
        self.steps = []
        for part, (cfg_name, per_point) in self.parts.items():
            cfg = _load_config(cfg_name)
            n = len(cfg["p_beta_grid"])
            cfg["p_beta_grid"] = [round((i + u) / n, 6) for i, u in enumerate(rng.random(n))]
            grids = [[p] for p in cfg["p_beta_grid"]] if per_point else [cfg["p_beta_grid"]]
            self.calls[part] = []
            for k in sorted(cfg["k_list"]):
                for mu in sorted(cfg["mu_list"]):
                    for grid in grids:
                        label = f"K{k}-mu{mu:g}" + (f"-pb{grid[0]:g}" if per_point else "")
                        sub = dict(cfg, k_list=[k], mu_list=[mu], p_beta_grid=grid)
                        path = _write_config(work_dir / part / f"{label}.json", sub)
                        self.calls[part].append((label, sub))
                        for command in self.commands:
                            self.steps.append(self._step(command, path, part, label, self._rows(sub, command)))

    def _step(self, command: str, path: Path, part: str, label: str, rows: int):
        def step(out_dir: Path) -> tuple[int, int]:
            code = _call_cli([command, "--config", str(path), "--seed", str(self.seed), "--out", str(out_dir / part / label)])
            return rows, 0 if code == 0 else rows

        return step

    @staticmethod
    def _rows(cfg: dict, command: str) -> int:
        per_scenario = cfg["p_tilde_grid_size"] if command == "risk-curve" else 1
        return len(cfg["k_list"]) * len(cfg["mu_list"]) * len(cfg["p_beta_grid"]) * per_scenario

    @property
    def units_per_pass(self) -> int:
        return sum(self._rows(cfg, c) for calls in self.calls.values() for _, cfg in calls for c in self.commands)

    def check(self, out_dir: Path) -> list[str]:
        problems = []
        tables = {}  # (part, command) -> rows of every call, in run order
        for part, calls in self.calls.items():
            for command in self.commands:
                tables[part, command] = []
                for label, cfg in calls:
                    path = out_dir / part / label / f"{command.replace('-', '_')}.csv"
                    if not path.is_file():
                        problems.append(f"{part}/{label}/{path.name} is missing")
                        continue
                    rows = _read_csv(path)
                    if len(rows) != self._rows(cfg, command):
                        problems.append(f"{part}/{label}/{path.name} has {len(rows)} rows, expected {self._rows(cfg, command)}")
                    tables[part, command] += rows
        if problems:
            return problems

        cfg = self.calls["grid"][0][1]
        s_alpha, s_gamma = cfg["s_alpha"], cfg["s_gamma"]
        # Criterion 5: the binomial route agrees with enumeration to 1e-12.
        small = [r for r in tables["grid", "risk-curve"] if int(r["k"]) <= 16]
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(small), size=min(self.n_sampled_rows, len(small)), replace=False)
        worst = 0.0
        for i in sorted(picks):
            row = small[i]
            spec = ScenarioSpec(s_alpha, s_gamma, float(row["mu"]), int(row["k"]), float(row["p_beta"]))
            model = regions.expand_scenario(spec)
            pred = risk.scenario_prediction(model, float(row["p_tilde"]))
            exact = risk.expected_sd_exhaustive(model, pred).value
            worst = max(worst, abs(exact - float(row["expected_sd"])))
        if not worst < 1e-12:
            problems.append(f"risk-curve expected_sd differs from enumeration by {worst:.2e} (limit 1e-12)")

        # Criterion 3: switch points match the frozen fixtures to 1e-6.
        for row in tables["grid", "bias-curve"]:
            key = (int(row["k"]), float(row["mu"]))
            want = 0.5 if key[0] == 1 else FROZEN_SWITCH_POINTS.get(key)
            if want is not None and not abs(float(row["switch_point"]) - want) <= 1e-6:
                problems.append(f"switch point for K={key[0]} mu={key[1]} is {row['switch_point']}, frozen {want}")
                break
        for (part, command), rows in tables.items():
            if not all(math.isfinite(float(v)) for row in rows for v in row.values()):
                problems.append(f"{part}/{command} wrote a non-finite value")
        return problems


class Train:
    """``train-toy`` on a slice of the criterion-8 grid with two seeds per cell.

    The slice is every K and both p_beta at mu = 1; the whole grid takes
    about 14 s a pass, too long to repeat within a run. Each step is one CLI
    call on one (scenario, loss) cell, so the cell's bootstrap runs in it;
    it writes under ``<out>/cell<i>/``. The CLI seed of cell i is
    ``seed * n_cells + i``: every seed and every cell draw new datasets and
    splits, while the grid and the training settings stay fixed.
    """

    name = "train"
    writes_cli_artifacts = True

    def __init__(self, seed: int, work_dir: Path):
        self.cfg = _load_config("train.json")
        cells = [(s, loss) for s in self.cfg["scenarios"] for loss in self.cfg["losses"]]
        self.steps = []
        for i, (scenario, loss) in enumerate(cells):
            path = _write_config(work_dir / f"cell{i}.json", dict(self.cfg, scenarios=[scenario], losses=[loss]))
            self.steps.append(self._step(path, f"cell{i}", seed * len(cells) + i))

    def _step(self, path: Path, label: str, cli_seed: int):
        runs = self.cfg["n_seeds"]

        def step(out_dir: Path) -> tuple[int, int]:
            code = _call_cli(["train-toy", "--config", str(path), "--seed", str(cli_seed), "--out", str(out_dir / label)])
            if code != 0:
                return runs, runs
            records = self._records(out_dir / label)
            return runs, runs - len(records) + sum("error" in r for r in records)

        return step

    @property
    def units_per_pass(self) -> int:
        return len(self.cfg["scenarios"]) * len(self.cfg["losses"]) * self.cfg["n_seeds"]

    @staticmethod
    def _records(out_dir: Path) -> list[dict]:
        with open(out_dir / "train_reports.jsonl") as fh:
            return [json.loads(line) for line in fh if line.strip()]

    def check(self, out_dir: Path) -> list[str]:
        records = []
        for i in range(len(self.steps)):
            if not (out_dir / f"cell{i}" / "train_reports.jsonl").is_file():
                return [f"cell{i}/train_reports.jsonl is missing"]
            records += self._records(out_dir / f"cell{i}")
        sd_runs = [r for r in records if r["loss_kind"] == "sd" and "error" not in r]
        want = self.units_per_pass // len(self.cfg["losses"])
        if len(sd_runs) != want:
            return [f"{len(sd_runs)} soft-Dice runs reported, expected {want}"]
        # Criterion 8: at the soft-Dice argmin within 0.05, bias sign as theory, in >= 95 %.
        argmins = {}
        hits = signs = 0
        for r in sd_runs:
            spec = ScenarioSpec.from_dict(r["scenario"])
            key = spec.to_json()
            if key not in argmins:
                argmins[key] = sd_minimizer(spec).p_tilde_opt
            argmin = argmins[key]
            hits += max(abs(p - argmin) for p in r["per_region_pred"][1:-1]) < 0.05
            theory = spec.mu * spec.s_gamma * (argmin - spec.p_beta)
            signs += np.sign(r["bias_soft"]) == np.sign(theory)
        problems = []
        if hits < 0.95 * len(sd_runs):
            problems.append(f"soft-Dice predictions at the argmin in only {hits}/{len(sd_runs)} runs")
        if signs < 0.95 * len(sd_runs):
            problems.append(f"bias sign matches theory in only {signs}/{len(sd_runs)} runs")
        return problems


class Oracle:
    """Exact expectations on heterogeneous models, checked by Monte Carlo.

    The uncertain-region counts are fixed so enumeration costs the same for
    every seed; the seed draws volumes, probabilities, predictions and the
    Monte Carlo sample seeds. Per model, three steps: enumeration and
    closed-form CE at each prediction; a Monte Carlo estimate at the first
    two predictions; a paired bootstrap on the per-sample soft-Dice
    differences. Each model's results go to ``<out>/model<i>.json``.
    """

    name = "oracle"
    writes_cli_artifacts = False
    uncertain_counts = (12, 14, 16, 18, 20)
    n_predictions = 3
    n_monte_carlo = 2  # predictions cross-checked by sampling
    n_samples = 2000
    n_resamples = 10_000

    def __init__(self, seed: int, work_dir: Path):
        rng = np.random.default_rng(seed)
        self.models = []
        self.steps = []
        for index, u in enumerate(self.uncertain_counts):
            volumes = np.concatenate(([rng.uniform(20.0, 100.0)], rng.uniform(0.05, 2.0, u), [rng.uniform(1.0, 5.0)]))
            probs = np.concatenate(([0.0], rng.uniform(0.05, 0.95, u), [1.0]))
            model = RegionModel(tuple(Region(float(v), float(p)) for v, p in zip(volumes, probs)))
            preds = [
                probs,
                np.clip(probs + rng.normal(0.0, 0.2, probs.size), 0.01, 0.99),
                rng.uniform(0.01, 0.99, probs.size),
            ]
            m = {
                "model": model,
                "preds": [risk.PredictionAssignment(p) for p in preds],
                "sample_seeds": [int(s) for s in rng.integers(0, 2**63, self.n_samples)],
                "bootstrap_seed": int(rng.integers(0, 2**63)),
            }
            self.models.append(m)
            path = f"model{index}.json"
            self.steps += [
                lambda out, m=m, path=path: self._exact(m, out / path),
                lambda out, m=m, path=path: self._monte_carlo(m, out / path),
                lambda out, m=m, path=path: self._bootstrap(m, out / path),
            ]

    @property
    def units_per_pass(self) -> int:
        # per model: each exact expectation, the Monte Carlo estimate, the bootstrap
        return len(self.models) * (self.n_predictions + 2)

    @staticmethod
    def _update(path: Path, entry: dict) -> None:
        """Merge ``entry`` into the model's result file, creating it on the first step."""
        if path.is_file():
            entry = {**json.loads(path.read_text()), **entry}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(entry, sort_keys=True) + "\n")

    def _exact(self, m: dict, path: Path) -> tuple[int, int]:
        failed = 0
        entry = {"exact_sd": [], "exact_ce": []}
        for pred in m["preds"]:
            try:
                entry["exact_sd"].append(risk.expected_sd_exhaustive(m["model"], pred).value)
                entry["exact_ce"].append(risk.expected_ce(m["model"], pred).value)
            except Exception:
                traceback.print_exc()
                failed += 1
        self._update(path, entry)
        return self.n_predictions, failed

    def _monte_carlo(self, m: dict, path: Path) -> tuple[int, int]:
        model = m["model"]
        m.pop("sd_samples", None)
        try:
            w = model.volumes
            soft = [losses.SoftMap(p.p_pred, weights=w) for p in m["preds"][: self.n_monte_carlo]]
            sd = np.empty((len(soft), self.n_samples))
            ce = np.empty((len(soft), self.n_samples))
            for i, seed in enumerate(m["sample_seeds"]):
                hard = losses.HardMap(regions.sample_labeling(model, seed).as_array(), weights=w)
                for j, pred_map in enumerate(soft):
                    sd[j, i] = losses.soft_dice_loss(hard, pred_map)
                    ce[j, i] = losses.cross_entropy(hard, pred_map)
        except Exception:
            traceback.print_exc()
            return 1, 1
        root_n = math.sqrt(self.n_samples)
        self._update(
            path,
            {
                "mc_sd_mean": sd.mean(axis=1).tolist(),
                "mc_sd_se": (sd.std(axis=1, ddof=1) / root_n).tolist(),
                "mc_ce_mean": ce.mean(axis=1).tolist(),
                "mc_ce_se": (ce.std(axis=1, ddof=1) / root_n).tolist(),
            },
        )
        m["sd_samples"] = sd  # the bootstrap step's input
        return 1, 0

    def _bootstrap(self, m: dict, path: Path) -> tuple[int, int]:
        sd = m.pop("sd_samples", None)
        if sd is None:  # the Monte Carlo step failed
            return 1, 1
        try:
            boot = stats.bootstrap_paired(sd[0], sd[1], n_resamples=self.n_resamples, seed=m["bootstrap_seed"])
        except Exception:
            traceback.print_exc()
            return 1, 1
        self._update(path, {"bootstrap": json.loads(boot.to_json())})
        return 1, 0

    def check(self, out_dir: Path) -> list[str]:
        problems = []
        for index in range(len(self.models)):
            path = out_dir / f"model{index}.json"
            entry = json.loads(path.read_text()) if path.is_file() else {}
            if "bootstrap" not in entry or "mc_sd_mean" not in entry or len(entry["exact_sd"]) != self.n_predictions:
                problems.append(f"model {index} is missing results")
                continue
            # Criterion 5's Monte Carlo rule: within 4 SE, with a 1e-12 floor.
            for kind in ("sd", "ce"):
                for j in range(self.n_monte_carlo):
                    gap = abs(entry[f"mc_{kind}_mean"][j] - entry[f"exact_{kind}"][j])
                    if not gap < 4 * entry[f"mc_{kind}_se"][j] + 1e-12:
                        problems.append(f"model {index} prediction {j}: Monte Carlo {kind} off by {gap:.3g}")
            boot = entry["bootstrap"]
            diff = entry["mc_sd_mean"][0] - entry["mc_sd_mean"][1]
            if not (abs(boot["mean_diff"] - diff) < 1e-12 and 0 < boot["p_greater"] <= 1 and 0 < boot["p_smaller"] <= 1):
                problems.append(f"model {index}: bootstrap result {boot} is inconsistent with its samples")
        return problems


WORKLOADS = {w.name: w for w in (Curves, Train, Oracle)}
