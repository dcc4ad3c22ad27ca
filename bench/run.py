"""Benchmark for volbias: one workload at one seed, measured in this process.

Run from the root of a volbias checkout; the package is imported from
``src/`` there, never from an installed copy:

    python3 bench/run.py --workload curves --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``curves`` (risk-curve and bias-curve CLI),
``train`` (train-toy CLI) and ``oracle`` (enumeration, Monte Carlo and
bootstrap through the library).

The workload repeats whole passes until they add up to ``--seconds``, and
at least twice; every pass after the first must write byte-identical
artifacts. The output checks run on the first pass's artifacts, outside the
timed region. With ``--trace 0`` the last line reports the end-to-end
metrics: ``run_s``, ``setup_s`` and ``peak_rss_mb``. With ``--trace 1`` the
passes alternate untraced and traced, and it reports the per-layer figures
of tracing.py plus the tracing overhead. The failed share of operations is
printed above the result; its base is the result's ``attempted``.

Timings are in reference seconds. On a host whose cores are shared with
other tenants, such as the 2-vCPU VM this benchmark was tuned on, speed
changes by up to half within seconds and drifts by as much over minutes; no
statistic of raw wall time over a 30-s run removes that. So the benchmark runs ``probe()``, a fixed mix of interpreter and
small-array numpy work that no change to volbias can alter, before every
timed step and after the last. Each step's wall time is divided by the mean
of its two neighbouring probes, the median of that ratio over the run's
passes is taken per step, and the sum over the steps, times
``PROBE_REFERENCE_S`` (the probe's time on an idle core of that VM), is
``run_s``: the pass's wall time at that reference speed. ``setup_s`` is
the median, over several fresh interpreters started between passes, of
process start to the end of set-up (imports, config load, input
generation), scaled by the probes on either side in the same way. The raw
pass wall times and probe times are printed above the result.

Exit status: 0 when every output check holds, 1 when one fails, 2 when
the checkout has no ``src/volbias`` or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOAD_NAMES = ("curves", "train", "oracle")
# Load comes from this one process; BLAS is held to one thread (<= nproc).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 15
MIN_PASSES = 2
# probe() on an idle core of the host the benchmark was tuned on (2-vCPU VM,
# Python 3.11, numpy 2.4); only the scale of the reported seconds.
PROBE_REFERENCE_S = 0.0015


def probe() -> float:
    """Wall seconds of a fixed mix of interpreter and small-array numpy work."""
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    a = np.arange(256.0)
    for _ in range(200):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - start


def timed(fn, *args):
    """``fn(*args)``, its wall seconds, and the mean of probes run just before and after it."""
    before = probe()
    start = time.perf_counter()
    result = fn(*args)
    seconds = time.perf_counter() - start
    return result, seconds, (before + probe()) / 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def build_workload(args, root: Path, work: Path):
    """The set-up step: import volbias from the checkout and make the inputs."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import volbias

    if src not in Path(volbias.__file__).resolve().parents:
        raise SystemExit(f"error: volbias was imported from {volbias.__file__}, not from {src}")
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed, work)


def time_setup(args) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to the end of its set-up, and the neighbouring probes' mean."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", "0", "--setup-only"]
    before = probe()
    start = time.time()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    seconds = float(done.stdout.split()[-1]) - start
    return seconds, (before + probe()) / 2


def artifact_digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def cli_output(out: Path) -> dict[str, int]:
    """Data rows (CSV lines after the header, JSONL lines) and bytes the CLI wrote."""
    files = [p for p in out.rglob("*") if p.is_file()]
    rows = sum(p.read_text().count("\n") - (p.suffix == ".csv") for p in files)
    return {"cli.rows_out": rows, "cli.bytes_out": sum(p.stat().st_size for p in files)}


def commit_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "load_processes": 1,
        "commit": commit_sha(root),
    }


def run_pass(workload, out: Path) -> tuple[int, int, list[tuple[float, float]]]:
    """Run every step once; the operation counts and, per step, its wall seconds and probe mean."""
    attempted = failed = 0
    steps = []
    for step in workload.steps:
        (a, f), seconds, probe_s = timed(step, out)
        attempted += a
        failed += f
        steps.append((seconds, probe_s))
    return attempted, failed, steps


def reference_seconds(samples: list[list[tuple[float, float]]]) -> float:
    """Sum over the steps of the median over passes of wall / probe seconds, in reference seconds."""
    ratios = ([seconds / probe_s for seconds, probe_s in column] for column in zip(*samples))
    return PROBE_REFERENCE_S * sum(statistics.median(column) for column in ratios)


def measure(args, root: Path, work: Path) -> int:
    workload = build_workload(args, root, work)
    from tracing import Tracer, median_metrics, pass_metrics, unit_of, write_spans

    tracer = Tracer() if args.trace else None
    times = {False: [], True: []}  # per pass: each step's (wall seconds, probe mean)
    traced_figures = []
    first_spans = None
    reference = None
    attempted = failed = 0
    problems = []
    setup_times = []
    i = 0
    while i < MIN_PASSES or sum(t for p in times[False] + times[True] for t, _ in p) < args.seconds:
        traced = bool(args.trace) and i % 2 == 1
        out = work / f"pass{i}"
        if traced:
            tracer.spans.clear()
            tracer.install()
        try:
            a, f, steps = run_pass(workload, out)
        finally:
            if traced:
                tracer.uninstall()
        times[traced].append(steps)
        attempted += a
        failed += f
        if traced:
            figures = pass_metrics(tracer.spans)
            figures.update(cli_output(out) if workload.writes_cli_artifacts else {"cli.rows_out": 0, "cli.bytes_out": 0})
            traced_figures.append(figures)
            if first_spans is None:
                first_spans = list(tracer.spans)
        digests = artifact_digests(out)
        if reference is None:
            reference = digests
        else:
            if digests != reference:
                problems.append(f"pass {i} wrote artifacts that differ from pass 0's")
            shutil.rmtree(out)
        i += 1
        # Set-up samples are spread over the run so they see the same machine
        # load as the passes; a burst of them at the start would not.
        if not args.trace and len(setup_times) < SETUP_SAMPLES:
            setup_times.append(time_setup(args))
    while not args.trace and len(setup_times) < SETUP_SAMPLES:
        setup_times.append(time_setup(args))
    problems += workload.check(work / "pass0")

    if args.trace:
        metrics = median_metrics(traced_figures)
        run_traced = reference_seconds(times[True])
        metrics["trace.run_s"] = run_traced
        metrics["trace.overhead_s"] = run_traced - reference_seconds(times[False])
        units = {name: unit_of(name) for name in metrics}
        write_spans(first_spans, root / ".bench_run" / "spans" / f"{args.workload}-seed{args.seed}.csv")
    else:
        metrics = {
            "run_s": reference_seconds(times[False]),
            "setup_s": reference_seconds([[sample] for sample in setup_times]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

    print(f"env {json.dumps(environment(root), sort_keys=True)}")
    print(
        f"workload {args.workload} seed {args.seed}: {i} passes ({len(times[True])} traced), "
        f"{workload.units_per_pass} operations in {len(workload.steps)} timed steps per pass"
    )
    for traced, label in ((False, "untraced"), (True, "traced")):
        if times[traced]:
            t = [sum(s for s, _ in p) for p in times[traced]]
            probes = [q for p in times[traced] for _, q in p]
            print(
                f"  {label} pass wall seconds: n={len(t)} min={min(t):.4f} median={statistics.median(t):.4f} "
                f"max={max(t):.4f}; probe ms: n={len(probes)} min={min(probes) * 1e3:.3f} "
                f"median={statistics.median(probes) * 1e3:.3f} (reference {PROBE_REFERENCE_S * 1e3:g})"
            )
    if setup_times:
        t = [s for s, _ in setup_times]
        print(f"  setup wall seconds: n={len(t)} min={min(t):.4f} median={statistics.median(t):.4f}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:.6g} {units[name]}")
    print(f"  {'failed_frac':42s} {failed / attempted:.6g} ratio ({failed} of {attempted} operations failed)")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "volbias" / "__init__.py").is_file():
        print(f"error: {root} has no src/volbias; run from the root of a volbias checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"  # read when numpy loads, so before any import of it

    work = root / ".bench_run" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            build_workload(args, root, work)
            print(time.time())
            return 0
        return measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
