"""Spans around every call into volbias's layers, and the per-layer report.

``Tracer.install()`` wraps the public functions of each layer module under
every name a caller looks them up by: ``volbias.cli.bias_curve`` as well as
``volbias.minimize.bias_curve``, and the CLI's command table. A span records
its name, start, end and parent span; spans stay in memory for the pass and
the report is computed from them when it ends. A span's self time is its
duration minus the time its child spans cover.

Counts come from return values where possible (``ExpectedLoss.config_count``,
``TrainReport.epochs_run``), so they repeat exactly at a fixed seed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "minimize", "risk", "regions", "losses", "trainer", "stats")

# ``sigmoid`` runs inside every training epoch; a span per call would
# record ~10^5 spans per pass and swamp the trainer's own figures.
UNTRACED = {"trainer.sigmoid"}

# K at or below this counts as small for the binomial kernel's per-call cost.
SMALL_K = 16

# Arrays of config_count float64 entries that enumeration materializes:
# intersections, targets and log weights.
EXHAUSTIVE_BYTES_PER_CONFIG = 3 * 8


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _note_train(fn, args, kwargs, report):
    max_epochs = _bound(fn, args, kwargs)["max_epochs"]
    return report.loss_kind, report.epochs_run, report.converged, report.epochs_run >= max_epochs


def _note_bootstrap(fn, args, kwargs, result):
    return len(_bound(fn, args, kwargs)["a"]) * result.n_resamples


# name -> fn(wrapped, args, kwargs, result) giving the span's note
NOTES = {
    "risk.expected_sd_binomial": lambda fn, a, kw, r: r.config_count,
    "risk.expected_sd_exhaustive": lambda fn, a, kw, r: r.config_count,
    "trainer.train": _note_train,
    "stats.bootstrap_paired": _note_bootstrap,
}
TRACK_ALLOCATIONS = {"stats.bootstrap_paired"}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, self seconds, note)
        self._open: list = []  # [span index, seconds covered by children]
        self._patches: list = []

    def install(self) -> None:
        package = importlib.import_module("volbias")
        modules = {layer: importlib.import_module(f"volbias.{layer}") for layer in LAYERS}
        namespaces = [vars(package)] + [vars(m) for m in modules.values()]
        for layer, module in modules.items():
            functions = [getattr(module, n) for n in module.__all__]
            if layer == "cli":
                functions += list(module._COMMANDS.values())
                namespaces.append(module._COMMANDS)
            for fn in filter(inspect.isfunction, functions):
                name = f"{layer}.{fn.__name__}"
                if name in UNTRACED:
                    continue
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is fn:
                            self._patches.append((ns, key, fn))
                            ns[key] = wrapper

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            ns[key] = original
        self._patches.clear()

    def _wrap(self, name: str, fn):
        note = NOTES.get(name)
        track_alloc = name in TRACK_ALLOCATIONS
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            if track_alloc:
                tracemalloc.start()
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                extra = note(fn, args, kwargs, result) if note and result is not None else None
                if track_alloc:
                    extra = (extra, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                parent = stack[-1][0] if stack else -1
                spans[index] = (name, start, end, parent, end - start - frame[1], extra)

        return wrapper


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(spans: list) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    calls = defaultdict(int)
    total = defaultdict(float)
    layer_self = defaultdict(float)
    for name, start, end, _, self_s, _ in spans:
        calls[name] += 1
        total[name] += end - start
        layer_self[name.split(".", 1)[0]] += self_s

    def has_ancestor(span, wanted):
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == wanted:
                return True
            parent = spans[parent][3]
        return False

    binomial = [s for s in spans if s[0] == "risk.expected_sd_binomial" and s[5] is not None]
    small = [s for s in binomial if s[5] - 1 <= SMALL_K]
    large = [s for s in binomial if s[5] - 1 > SMALL_K]
    exhaustive = [s for s in spans if s[0] == "risk.expected_sd_exhaustive" and s[5] is not None]
    binomial_configs = sum(s[5] for s in binomial)
    exhaustive_configs = sum(s[5] for s in exhaustive)
    in_minimize = sum(has_ancestor(s, "minimize.sd_minimizer") for s in binomial)
    losses_calls = sum(n for name, n in calls.items() if name.startswith("losses."))

    runs = [s for s in spans if s[0] == "trainer.train" and s[5] is not None]
    by_kind = {kind: [s for s in runs if s[5][0] == kind] for kind in ("ce", "sd")}
    epochs = {kind: sum(s[5][1] for s in group) for kind, group in by_kind.items()}
    train_s = {kind: sum(s[2] - s[1] for s in group) for kind, group in by_kind.items()}

    boots = [s for s in spans if s[0] == "stats.bootstrap_paired"]
    boot_elems = sum(s[5][0] or 0 for s in boots)
    boot_s = total["stats.bootstrap_paired"]

    def per_call(name, scale):
        return _ratio(total[name], calls[name]) * scale

    def mean_time(group, scale):
        return _ratio(sum(s[2] - s[1] for s in group), len(group)) * scale

    return {
        "cli.self_s": layer_self["cli"],
        "minimize.sd_minimizer.calls": calls["minimize.sd_minimizer"],
        "minimize.sd_minimizer.ms_per_call": per_call("minimize.sd_minimizer", 1e3),
        "minimize.find_switch_point.calls": calls["minimize.find_switch_point"],
        "minimize.find_switch_point.ms_per_call": per_call("minimize.find_switch_point", 1e3),
        "minimize.kernel_calls_per_minimize": _ratio(in_minimize, calls["minimize.sd_minimizer"]),
        "minimize.self_s": layer_self["minimize"],
        "risk.sd_binomial.calls": len(binomial),
        "risk.sd_binomial.us_per_call.k_small": mean_time(small, 1e6),
        "risk.sd_binomial.us_per_call.k_large": mean_time(large, 1e6),
        "risk.sd_binomial.configs": binomial_configs,
        "risk.sd_binomial.ns_per_config": _ratio(total["risk.expected_sd_binomial"], binomial_configs) * 1e9,
        "risk.sd_exhaustive.calls": len(exhaustive),
        "risk.sd_exhaustive.ms_per_call": mean_time(exhaustive, 1e3),
        "risk.sd_exhaustive.configs": exhaustive_configs,
        "risk.sd_exhaustive.ns_per_config": _ratio(total["risk.expected_sd_exhaustive"], exhaustive_configs) * 1e9,
        "risk.sd_exhaustive.bytes_computed": exhaustive_configs * EXHAUSTIVE_BYTES_PER_CONFIG,
        "risk.ce.calls": calls["risk.expected_ce"],
        "risk.ce.us_per_call": per_call("risk.expected_ce", 1e6),
        "risk.self_s": layer_self["risk"],
        "regions.sample_labeling.calls": calls["regions.sample_labeling"],
        "regions.sample_labeling.us_per_call": per_call("regions.sample_labeling", 1e6),
        "regions.expand_scenario.calls": calls["regions.expand_scenario"],
        "regions.self_s": layer_self["regions"],
        "losses.calls": losses_calls,
        "losses.us_per_call": _ratio(layer_self["losses"], losses_calls) * 1e6,
        "losses.self_s": layer_self["losses"],
        "trainer.generate_dataset.s": total["trainer.generate_dataset"],
        "trainer.runs.ce": len(by_kind["ce"]),
        "trainer.runs.sd": len(by_kind["sd"]),
        "trainer.epochs.ce": epochs["ce"],
        "trainer.epochs.sd": epochs["sd"],
        "trainer.us_per_epoch.ce": _ratio(train_s["ce"], epochs["ce"]) * 1e6,
        "trainer.us_per_epoch.sd": _ratio(train_s["sd"], epochs["sd"]) * 1e6,
        "trainer.max_epochs_frac.sd": _ratio(sum(s[5][3] for s in by_kind["sd"]), len(by_kind["sd"])),
        "trainer.converged_frac": _ratio(sum(s[5][2] for s in runs), len(runs)),
        "trainer.self_s": layer_self["trainer"],
        "stats.bootstrap.calls": len(boots),
        "stats.bootstrap.ms_per_call": _ratio(boot_s, len(boots)) * 1e3,
        "stats.bootstrap.resample_elems": boot_elems,
        "stats.bootstrap.ns_per_elem": _ratio(boot_s, boot_elems) * 1e9,
        "stats.bootstrap.peak_alloc_mb": max((s[5][1] for s in boots), default=0) / 2**20,
        "stats.self_s": layer_self["stats"],
    }


def unit_of(name: str) -> str:
    """Unit of a per-layer figure, read off its name."""
    for marker, unit in (("ms_per_", "ms"), ("us_per_", "us"), ("ns_per_", "ns"), ("bytes_", "B"), ("_mb", "MiB"), ("_frac", "ratio")):
        if marker in name:
            return unit
    return "s" if name.endswith(("_s", ".s")) else "count"


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each figure over the traced passes; counts repeat, so they pass through."""
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}


def write_spans(spans: list, path: Path) -> None:
    """Write one pass's spans as CSV, times in microseconds from the pass start."""
    origin = min((s[1] for s in spans), default=0.0)
    lines = ["id,parent,name,start_us,end_us,self_us"]
    for i, (name, start, end, parent, self_s, _) in enumerate(spans):
        lines.append(
            f"{i},{parent},{name},{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f},{self_s * 1e6:.1f}"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
