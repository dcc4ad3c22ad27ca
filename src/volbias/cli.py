"""Command-line sweeps writing CSV/JSON artifacts for offline plotting.

Every subcommand is a pure function of its JSON config file and the --seed
flag that returns its artifacts as (path, text) pairs: rerunning with the same
inputs reproduces them byte for byte. ``main`` writes all of them, each
atomically (temp file, then rename), or none: a numpy overflow, a non-finite
number and output paths that coincide or lie one under another are refused
before the first file is written. A CSV cell holds text verbatim, nothing for
a missing value, and a number at 15 significant digits, so an integer has no
decimal point.

Subcommands:
  risk-curve   expected CE and SD losses over a prediction grid
  bias-curve   SD-optimal predictions, probability errors, volume biases
  train-toy    logistic-classifier training sweep with bias summaries
  calibrate    least-squares volume correction fit/apply on a CSV
  bootstrap    paired bootstrap significance test
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .minimize import bias_curve, find_switch_point
from .regions import ScenarioSpec, _json_number, expand_scenario
from .risk import _sd_binomial, ce_curve
from .stats import apply_calibration, bootstrap_paired, fit_calibration, volume_specific_profile
from .trainer import TrainingDivergedError, generate_dataset, train

__all__ = ["main"]


def _fmt(x) -> str:
    """Render a CSV cell: text verbatim, None empty, a finite number at 15 significant digits.

    ``.15g`` writes an integer below 10**15 exactly and without a decimal point.
    """
    if isinstance(x, str) or x is None:
        return x or ""
    if not math.isfinite(x):
        raise ValueError(f"a result is not finite: {x}")
    return f"{x:.15g}"


def _column(values: np.ndarray) -> list[str]:
    """The CSV cells of a float array, as ``_fmt`` writes each number."""
    if not np.isfinite(values).all():
        raise ValueError("a result is not finite")
    return list(map("{:.15g}".format, values.tolist()))


def _rounded(obj):
    """``obj`` with every float, also inside lists and dicts, at 15 significant digits."""
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return float(f"{obj:.15g}") if isinstance(obj, float) else obj


def _csv(header: list[str], rows: list[list]) -> str:
    return "\n".join([",".join(header), *(",".join(map(_fmt, row)) for row in rows)]) + "\n"


def _json(obj, indent=None) -> str:
    """``obj`` as one JSON text and a newline, its floats at 15 significant digits; a non-finite one is an error."""
    return json.dumps(_rounded(obj), indent=indent, sort_keys=True, allow_nan=False) + "\n"


def _write(artifacts: list[tuple[Path, str]]) -> None:
    """Write each (path, text) by temp file and rename, once no path is a directory or overlaps another.

    A temp file is hidden, pid-tagged and made only where no file exists (``O_EXCL``), so no file but an
    artifact is replaced or removed; as any new file, it takes mode 0o666 less the umask.
    """
    paths = [Path(os.path.abspath(path)) for path, _ in artifacts]  # lexically: resolve() stats every part
    for i, a in enumerate(paths):
        if a.is_dir() or any(a == b or a in b.parents or b in a.parents for b in paths[:i]):
            raise CliError(f"output path {a} is a directory or overlaps another output path")
    for path, _ in artifacts:
        path.parent.mkdir(parents=True, exist_ok=True)
    for path, text in artifacts:
        for n in itertools.count():
            tmp = path.with_name(f".{path.name}.{os.getpid()}.{n}.tmp")
            try:
                os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                break
            except FileExistsError:
                continue
        tmp.write_text(text)
        os.replace(tmp, path)


def _load_config(path: str) -> tuple[dict, Path]:
    cfg_path = Path(path)
    try:
        cfg = json.loads(cfg_path.read_text())
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path} is not valid JSON: {exc}")
    except RecursionError:
        raise CliError(f"config file {path} nests deeper than the JSON decoder can follow")
    if not isinstance(cfg, dict):
        raise CliError(f"config file {path} must contain a JSON object")
    return cfg, cfg_path.parent


class CliError(Exception):
    pass


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise CliError(f"config is missing required key {key!r}")
    return cfg[key]


def _integer(value) -> int:
    """``int(value)`` that refuses to truncate: 1e4 gives 10000, 1.7 is an error."""
    number = _json_number(value, int)
    if isinstance(value, float) and number != value:
        raise ValueError(f"{value!r} is not an integer")
    return number


def _list(cfg, key, cast=_json_number, default=None) -> list:
    """``cfg[key]`` as a nonempty list, each entry cast; required where there is no default."""
    values = _require(cfg, key) if default is None else cfg.get(key, default)
    if not isinstance(values, list) or not values:
        raise CliError(f"config key {key!r} must be a nonempty list")
    try:
        return [cast(v) for v in values]
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"config key {key!r} holds a bad entry: {exc}")


def _number(cfg, key, default, cast=_json_number, minimum=None, maximum=None):
    """``cfg[key]`` (``default`` when absent), cast and at least ``minimum``, at most ``maximum``."""
    value = cfg.get(key, default)
    try:
        number = cast(value)
    except (TypeError, ValueError, OverflowError):
        raise CliError(f"config key {key!r} must be {'an integer' if cast is _integer else 'a number'}, got {value!r}")
    if minimum is not None and not number >= minimum:
        raise CliError(f"config key {key!r} must be >= {minimum}, got {value!r}")
    if maximum is not None and number > maximum:
        raise CliError(f"config key {key!r} must be <= {maximum}, got {value!r}")
    return number


def _path(cfg, key, default, base: Path) -> Path:
    """``base / cfg[key]`` (``default`` when absent, required where that is None); absolute values stay absolute."""
    value = _require(cfg, key) if default is None else cfg.get(key, default)
    if not isinstance(value, str) or not value:
        raise CliError(f"config key {key!r} must be a nonempty path string, got {value!r}")
    return base / value


def _check_out_dir(out_dir: Path) -> None:
    """Fail unless the nearest existing ancestor of ``out_dir`` is a directory; creates nothing."""
    for path in (out_dir, *out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise CliError(f"--out {out_dir}: {path} is not a directory")
            return


def _cell_seed(parts: tuple[int, ...], n: int = 1) -> list[int]:
    state = np.random.SeedSequence(parts).generate_state(n, dtype=np.uint64)
    return [int(s) for s in state]


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _grid(cfg: dict) -> tuple[list[int], list[float], list[float], float]:
    """The sorted k_list, mu_list and p_beta_grid and the s_gamma of a curve command."""
    lists = (sorted(_list(cfg, "k_list", _integer)), sorted(_list(cfg, "mu_list")), sorted(_list(cfg, "p_beta_grid")))
    return (*lists, _number(cfg, "s_gamma", 1.0))


def cmd_risk_curve(cfg: dict, seed: int, out_dir: Path, cfg_dir: Path) -> list[tuple[Path, str]]:
    k_list, mu_list, p_grid, s_gamma = _grid(cfg)
    s_alpha = _number(cfg, "s_alpha", 100.0)  # the cross-entropy scores the background
    # at most numpy's largest float64 array: from 2**63 - 1 points on, linspace fails with an IndexError
    q_count = _number(cfg, "p_tilde_grid_size", 101, _integer, minimum=2, maximum=np.iinfo(np.intp).max // 8)
    qs = np.linspace(0.0, 1.0, q_count)
    path = _path(cfg, "output_path", "risk_curve.csv", out_dir)

    q_col = _column(qs)  # written column by column
    lines = ["k,mu,p_beta,p_tilde,expected_sd,expected_ce"]
    for k in k_list:
        for mu in mu_list:
            sd_at = _sd_binomial(k, mu, s_gamma, qs)  # one for every p
            for p in p_grid:
                spec = ScenarioSpec(s_alpha=s_alpha, s_gamma=s_gamma, mu=mu, k_regions=k, p_beta=p)
                prefix = f"{_fmt(k)},{_fmt(mu)},{_fmt(p)},"
                columns = zip(q_col, _column(sd_at(p)), _column(ce_curve(spec, qs)))
                lines.extend(prefix + ",".join(cells) for cells in columns)
    return [(path, "\n".join(lines) + "\n")]


def cmd_bias_curve(cfg: dict, seed: int, out_dir: Path, cfg_dir: Path) -> list[tuple[Path, str]]:
    k_list, mu_list, p_grid, s_gamma = _grid(cfg)
    switch_tol = _number(cfg, "switch_tol", 1e-6)
    path = _path(cfg, "output_path", "bias_curve.csv", out_dir)

    rows = []
    for k in k_list:
        for mu in mu_list:
            switch = find_switch_point(k, mu, tol=switch_tol, s_gamma=s_gamma)
            for pt in bias_curve(k, mu, p_grid, s_gamma=s_gamma):
                rows.append([k, mu, pt.p_beta, pt.p_tilde_opt, pt.prob_error, pt.volume_bias, switch])
    return [(path, _csv(["k", "mu", "p_beta", "p_tilde_opt", "prob_error", "volume_bias", "switch_point"], rows))]


def _scenario_id(spec: ScenarioSpec) -> str:
    return (
        f"sa{_fmt(spec.s_alpha)}-sg{_fmt(spec.s_gamma)}-K{spec.k_regions}"
        f"-mu{_fmt(spec.mu)}-pb{_fmt(spec.p_beta)}"
    )


def cmd_train_toy(cfg: dict, seed: int, out_dir: Path, cfg_dir: Path) -> list[tuple[Path, str]]:
    scenarios = _list(cfg, "scenarios", ScenarioSpec.from_dict)
    losses = _list(cfg, "losses", str, ["ce", "sd"])
    if not set(losses) <= {"ce", "sd"}:
        raise CliError(f"train-toy losses must be among ['ce', 'sd'], got {losses}")
    n_seeds = _number(cfg, "n_seeds", 1, _integer, minimum=1)
    n_images = _number(cfg, "n_images", 1000, _integer, minimum=4)  # the 60/20/20 split keeps a test image
    max_epochs = _number(cfg, "max_epochs", 4000, _integer, minimum=1)
    n_resamples = _number(cfg, "n_resamples", 10000, _integer, minimum=1000)  # bootstrap_paired's floor
    reports_path = _path(cfg, "reports_path", "train_reports.jsonl", out_dir)
    summary_path = _path(cfg, "summary_path", "train_summary.csv", out_dir)

    report_lines = []
    summary_rows = []
    for si, spec in enumerate(scenarios):
        model = expand_scenario(spec)
        for li, loss_kind in enumerate(losses):
            cell_biases_soft = []
            cell_biases_hard = []
            for rep in range(n_seeds):
                data_seed, split_seed = _cell_seed((seed, si, li, rep), 2)
                record = {
                    "scenario": asdict(spec),
                    "loss_kind": loss_kind,
                    "replicate": rep,
                }
                try:
                    dataset = generate_dataset(model, n_images, data_seed)
                    report = train(dataset, loss_kind, max_epochs=max_epochs, seed=split_seed)
                except (TrainingDivergedError, ValueError, FloatingPointError) as exc:
                    record["error"] = str(exc)
                else:
                    record.update(
                        final_loss=report.final_loss,
                        per_region_pred=report.per_region_pred.tolist(),
                        epochs_run=report.epochs_run,
                        bias_soft=report.bias_soft,
                        bias_hard=report.bias_hard,
                    )
                    cell_biases_soft.append(report.bias_soft)
                    cell_biases_hard.append(report.bias_hard)
                report_lines.append(_json(record))
            if len(cell_biases_soft) >= 2:
                boot = bootstrap_paired(
                    np.array(cell_biases_soft),
                    np.zeros(len(cell_biases_soft)),
                    n_resamples=n_resamples,
                    seed=_cell_seed((seed, si, li, 0xB007), 1)[0],
                )
                p_boot = min(boot.p_greater, boot.p_smaller)
            else:
                p_boot = None
            summary_rows.append(
                [
                    _scenario_id(spec),
                    loss_kind,
                    float(np.mean(cell_biases_soft)) if cell_biases_soft else None,
                    float(np.mean(cell_biases_hard)) if cell_biases_hard else None,
                    p_boot,
                ]
            )

    summary = _csv(["scenario", "loss", "bias_soft", "bias_hard", "p_boot"], summary_rows)
    return [(reports_path, "".join(report_lines)), (summary_path, summary)]


def _read_csv_columns(path: Path, numeric: list[str], text: tuple[str, ...] = ()) -> dict[str, np.ndarray]:
    """The ``numeric`` columns of a CSV as finite float arrays and the ``text`` columns as string arrays.

    Every row holds one cell per header column; blank lines are skipped.
    """
    try:
        with open(path, newline="") as fh:
            header, *rows = [row for row in csv.reader(fh) if row] or [[]]
    except FileNotFoundError:
        raise CliError(f"input CSV not found: {path}")
    except csv.Error as exc:
        raise CliError(f"{path} is not a readable CSV: {exc}")
    missing = [c for c in (*numeric, *text) if c not in header]
    if missing:
        raise CliError(f"{path} is missing columns: {missing}")
    for i, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise CliError(f"{path} data row {i} has {len(row)} cells for {len(header)} columns")
    cells = {c: [row[j] for row in rows] for j, c in enumerate(header)}  # a repeated name: its last column
    columns = {c: np.array(cells[c]) for c in text}
    for c in numeric:
        columns[c] = np.fromiter(map(float, cells[c]), float, len(rows))
        if not np.isfinite(columns[c]).all():
            raise CliError(f"{path} column {c!r} holds a non-finite value")
    return columns


def cmd_calibrate(cfg: dict, seed: int, out_dir: Path, cfg_dir: Path) -> list[tuple[Path, str]]:
    input_csv = _path(cfg, "input_csv", None, cfg_dir)
    fit_path = _path(cfg, "fit_path", "calibration_fit.json", out_dir)
    corrected_path = _path(cfg, "corrected_path", "calibrated.csv", out_dir)
    before_path, after_path = (
        _path(cfg, f"profile_{name}_path", f"decile_profile_{name}.csv", out_dir) for name in ("before", "after")
    )
    cols = _read_csv_columns(input_csv, ["true_volume", "pred_volume"], ("split",))
    true, pred, split = cols["true_volume"], cols["pred_volume"], cols["split"]
    for c in ("true_volume", "pred_volume"):
        if (cols[c] < 0.0).any():
            raise CliError(f"{input_csv} column {c!r} holds a negative volume")

    train_mask = split == "train"
    val_mask = split == "val"
    if np.count_nonzero(train_mask) < 3:
        raise CliError("need at least 3 rows with split=train to fit the calibration")
    fit = fit_calibration(pred[train_mask], true[train_mask])
    corrected = apply_calibration(fit, pred)

    rows = [[t, p, s, c] for t, p, s, c in zip(true, pred, split, corrected)]
    header = ["true_volume", "pred_volume", "split", "corrected_volume"]
    artifacts = [(fit_path, _json(asdict(fit), 2)), (corrected_path, _csv(header, rows))]
    if np.count_nonzero(val_mask) >= 10:
        for path, volumes in ((before_path, pred), (after_path, corrected)):
            profile = volume_specific_profile(volumes[val_mask], true[val_mask])
            rows = [[i, t, p] for i, (t, p) in enumerate(profile.decile_means)]
            artifacts.append((path, _csv(["decile", "mean_true_volume", "mean_pred_volume"], rows)))
    return artifacts


def cmd_bootstrap(cfg: dict, seed: int, out_dir: Path, cfg_dir: Path) -> list[tuple[Path, str]]:
    n_resamples = _number(cfg, "n_resamples", 10000, _integer)
    path = _path(cfg, "output_path", "bootstrap.json", out_dir)
    if "input_csv" in cfg:
        cols = _read_csv_columns(_path(cfg, "input_csv", None, cfg_dir), ["a", "b"])
        a, b = cols["a"], cols["b"]
    else:
        a = np.array(_list(cfg, "a"))
        b = np.array(_list(cfg, "b"))
    result = bootstrap_paired(a, b, n_resamples=n_resamples, seed=seed)
    return [(path, _json(asdict(result), 2))]


_COMMANDS = {
    "risk-curve": cmd_risk_curve,
    "bias-curve": cmd_bias_curve,
    "train-toy": cmd_train_toy,
    "calibrate": cmd_calibrate,
    "bootstrap": cmd_bootstrap,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volbias",
        description="Volume-bias analysis sweeps for segmentation losses under label uncertainty.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config for this command")
        p.add_argument("--seed", type=int, default=0, help="base seed for all randomness")
        p.add_argument("--out", default=".", help="directory for output files")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise CliError("--seed must be a nonnegative integer")
        cfg, cfg_dir = _load_config(args.config)
        out_dir = Path(args.out)
        _check_out_dir(out_dir)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            artifacts = _COMMANDS[args.command](cfg, args.seed, out_dir, cfg_dir)
        _write(artifacts)
    except (CliError, ValueError, OSError, MemoryError, FloatingPointError) as exc:
        overflowed = "a computation overflowed: " * isinstance(exc, FloatingPointError)
        print(f"error: {overflowed}{str(exc) or type(exc).__name__}", file=sys.stderr)  # a bare MemoryError has no text
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
