"""Benchmark of the abflux package: one closed-loop client, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stokes-sweep --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): stokes-sweep, loop-phase, cli-mix.  Inputs
are drawn from --seed.  Every result is checked against its analytic
value (oracle.py); an operation that raises, exits nonzero or misses the
test suite's error bound counts as failed.

--trace 0 runs each pooled operation at least MIN_ROUNDS times over
--seconds and reports the end-to-end metrics.  Shared machines change
speed by up to 2x for seconds to minutes at a time, so every latency is
scaled to a reference speed by a calibration timed next to it (class
Speed: a pure-Python loop, or a bare interpreter for cli-mix); the
unscaled figures are printed on the record line.
setup_s is the median over fresh processes started after the timed
operations, each scaled by a bare interpreter timed just before it.
--trace 1 runs every pooled operation once per pass, untraced and traced
in turn, at least twice each, with the layer functions wrapped
(tracing.py); it reports per-operation layer metrics, unscaled, and the
tracing overhead, and requires every traced pass to count identical
work.

Every metric is printed as "name value unit", followed by one JSON line
recording the run and its environment; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The package
is imported from src/ of the checkout; without it the run exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: every pooled operation is timed at least this often, at different
#: times of the run; its latency is the median of its repeats
MIN_ROUNDS = 2
#: a run stops extending for MIN_ROUNDS this long after --seconds
MAX_EXTENSION_S = 90.0
#: fresh processes timed from start to the first timed operation, after
#: the timed operations
SETUP_PROBES = 21
#: run time of a bare interpreter at the reference speed
BARE_REF_S = 40e-3
#: traced runs: untraced + traced pass pairs over the pool, at least and
#: at most (pairs beyond the least are added while --seconds lasts)
TRACED_PAIRS = 2
MAX_TRACED_PAIRS = 4
#: cli-mix: bare-interpreter and import probes in the traced run
STARTUP_PROBES = 5
#: calibrations in the rolling median that sets the current speed
CAL_WINDOW = 9


class Speed:
    """Machine speed relative to the reference, from calibrations taken
    next to the measurements.

    Shared machines change speed by up to 2x for seconds to minutes at a
    time.  Each workload names a calibration that slows by nearly the same
    factor as its operations, and the time it takes at the reference
    speed; scaling a latency by reference / calibration removes most of
    the drift, while a change in abflux itself shows in full.
    """

    def __init__(self, workload):
        self.workload = workload
        self.window = deque(maxlen=CAL_WINDOW)
        self.count = 0

    def scale(self) -> float:
        """Calibrate when due; returns the factor for the next timing."""
        if self.count % self.workload.calibration_every == 0:
            self.window.append(self.workload.calibration_s())
        self.count += 1
        return self.workload.calibration_ref_s / statistics.median(self.window)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("stokes-sweep", "loop-phase", "cli-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)  # set up, print "ready", exit
    return parser.parse_args(argv)


def run_ops(workload, call, ops, tally, stop, tracer=None, speed=None):
    """Run operations from ``ops`` until ``stop(count)``; grade each.

    Returns (pool index, latency in seconds, speed scale) per operation;
    the scale is 1 without ``speed``.
    """
    timings = []
    while not stop(len(timings)):
        key, op = next(ops)
        scale = speed.scale() if speed else 1.0
        error = result = None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = call(op)
            else:
                result = tracer.run_op(len(timings), lambda: call(op))
        except Exception as exc:  # a failed operation is data, not a crash
            error = type(exc).__name__
        timings.append((key, time.perf_counter() - start, scale))
        checks = None
        if error is None:
            try:
                checks = workload.grade(op, result)
            except Exception as exc:  # unparseable output or nonzero exit
                error = type(exc).__name__
        tally.add(checks, error)
    return timings


def bare_interpreter_s() -> float:
    """Run time of an interpreter that does nothing."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=BENCH, check=True)
    return time.perf_counter() - start


def setup_seconds(args) -> tuple[float, float]:
    """Set-up time of fresh processes: interpreter start, import and input
    generation, up to the point where a run's first timed operation would
    start.  There is no warm-up: it would run seed-chosen operations whose
    cost varies 30x on loop-phase, and every operation is timed at least
    MIN_ROUNDS times anyway.

    Returns the median of SETUP_PROBES probes, each scaled to the
    reference speed by a bare interpreter timed just before it (process
    start dominates both), and the unscaled median.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe-setup"]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        bare = bare_interpreter_s()
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
        raw.append(ready - start)
        scaled.append(raw[-1] * BARE_REF_S / bare)
    return statistics.median(scaled), statistics.median(raw)


def percentile_ms(latencies, p: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[p - 1] * 1e3


def timed_run(workload, args, tally):
    ops = workload.stream()
    speed = Speed(workload)
    needed = MIN_ROUNDS * len(workload.pool)
    start = time.perf_counter()

    def stop(n):
        elapsed = time.perf_counter() - start
        return elapsed >= args.seconds + MAX_EXTENSION_S or (
            elapsed >= args.seconds and n >= needed)
    timings = run_ops(workload, workload.call, ops, tally, stop, speed=speed)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workload.child_peak_kb
    setup_s, raw_setup_s = setup_seconds(args)

    def latency_metrics(scaled: bool) -> dict:
        """Percentiles over pooled operations of each one's median latency."""
        repeats: dict[int, list[float]] = {}
        for key, latency, scale in timings:
            repeats.setdefault(key, []).append(latency * scale if scaled else latency)
        latencies = [statistics.median(times) for times in repeats.values()]
        return {
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "op_p50_ms": (percentile_ms(latencies, 50), "ms"),
            "op_p95_ms": (percentile_ms(latencies, 95), "ms"),
        }
    metrics = {
        **latency_metrics(scaled=True),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    raw = {f"unscaled_{name}": value for name, (value, _) in latency_metrics(False).items()}
    info = {"samples": len({key for key, _, _ in timings}), "ops_timed": len(timings),
            "speed_scale_median": statistics.median(s for _, _, s in timings),
            "unscaled_setup_s": raw_setup_s, **raw}
    return metrics, info, True


def startup_ms(workload) -> tuple[float, float]:
    """Medians of a bare interpreter's run time and of the cumulative
    import time of the abflux package and its cli (``-X importtime``)."""
    bare, imports = [], []
    for _ in range(STARTUP_PROBES):
        bare.append(workload.calibration_s() * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import abflux.cli"],
                              env=workload.env, cwd=BENCH, check=True,
                              capture_output=True, text=True)
        us = 0
        for line in proc.stderr.splitlines():
            _, _, rest = line.partition("import time:")
            cells = rest.split("|")
            # top-level entries have one space before the module name
            if len(cells) == 3 and cells[2].startswith(" abflux"):
                us += int(cells[1])
        imports.append(us / 1e3)
    return statistics.median(bare), statistics.median(imports)


def layer_metrics(tracer, n: int, out_bytes: int) -> dict:
    """Per-operation work counts and times of one traced pass."""
    calls = tracer.calls
    self_ms = {layer: ns / n / 1e6 for layer, ns in tracer.self_ns().items()}
    panels, panel_ns, _ = tracer.panels
    return {
        "fields.eval_A.calls": (calls["fields.eval_A"] / n, "count"),
        "fields.eval_B.calls": (calls["fields.eval_B"] / n, "count"),
        "fields.ms": (self_ms["fields"], "ms"),
        "geometry.panels": (panels / n, "count"),
        "geometry.seed_panels": (tracer.seed_panels / n, "count"),
        "geometry.splits": (tracer.splits / n, "count"),
        "geometry.us_per_panel": (panel_ns / panels / 1e3 if panels else 0.0, "us"),
        "geometry.circulation.calls": (calls["geometry.circulation"] / n, "count"),
        "geometry.sector_flux.calls": (calls["geometry.sector_flux"] / n, "count"),
        "geometry.segment_integral.calls": (calls["geometry.segment_integral"] / n, "count"),
        "geometry.self_ms": (self_ms["geometry"], "ms"),
        "stokes.verify_stokes.ms": (tracer.inclusive_ns("stokes", "verify_stokes") / n / 1e6, "ms"),
        "stokes.chart_audit.ms": (tracer.inclusive_ns("stokes", "chart_audit") / n / 1e6, "ms"),
        "stokes.self_ms": (self_ms["stokes"], "ms"),
        "phase.holonomy.calls": (calls["phase.holonomy"] / n, "count"),
        "phase.self_ms": (self_ms["phase"], "ms"),
        "quantize.self_ms": (self_ms["quantize"], "ms"),
        "cli.main_self_ms": (self_ms["cli"], "ms"),
        "cli.stdout_bytes": (out_bytes / n, "bytes"),
    }


def traced_run(workload, args, tally):
    """Untraced and traced passes over the whole pool, alternating.

    Every pass runs each pooled operation once, so the work counted does
    not depend on the clock; --seconds only adds pass pairs beyond
    TRACED_PAIRS.  Times are each operation's smallest over the passes,
    counts must be equal in every traced pass.
    """
    import tracing
    call = workload.call_inprocess
    n = len(workload.pool)
    deadline = time.perf_counter() + args.seconds
    tracers, layers, traced, untraced = [], [], [], []
    while len(tracers) < TRACED_PAIRS or (time.perf_counter() < deadline
                                          and len(tracers) < MAX_TRACED_PAIRS):
        untraced.append(run_ops(workload, call, workload.stream(), tally,
                                lambda count: count >= n))
        tracer = tracing.Tracer()
        out_before = workload.stdout_bytes
        with tracer.installed():
            traced.append(run_ops(workload, call, workload.stream(), tally,
                                  lambda count: count >= n, tracer))
        tracers.append(tracer)
        layers.append(layer_metrics(tracer, n, workload.stdout_bytes - out_before))
    counts_equal = all(t.counts() == tracers[0].counts() for t in tracers)

    def busy(passes):
        return sum(min(times) for times in zip(*([t for _, t, _ in p] for p in passes)))

    metrics = {name: (min(layer[name][0] for layer in layers), unit)
               for name, (_, unit) in layers[0].items()}
    worst = tally.worst_over_tol
    interp_ms = import_ms = 0.0
    if args.workload == "cli-mix":
        interp_ms, import_ms = startup_ms(workload)
    metrics.update({
        "geometry.max_err_over_tol": (worst.get("geometry", 0.0), "ratio"),
        "stokes.max_err_over_tol": (worst.get("stokes", 0.0), "ratio"),
        "cli.interp_ms": (interp_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "trace_overhead_frac": (busy(traced) / busy(untraced) - 1.0, "frac"),
        "tol_miss_frac": (tally.tol_miss_frac, "frac"),
    })
    info = {"samples": n, "passes": len(tracers), "spans": len(tracers[0].spans),
            "work_counts_equal": counts_equal}
    return metrics, info, counts_equal


def environment(workload) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "subprocess_env": getattr(workload, "env", None),
    }


def main(argv=None) -> int:
    sys.dont_write_bytecode = True  # leave no caches beside the sources
    args = parse_args(argv)
    if not (SRC / "abflux" / "__init__.py").is_file():
        print(f"error: abflux sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import abflux
    if Path(abflux.__file__).resolve().parent != SRC / "abflux":
        print(f"error: imported abflux from {abflux.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import oracle
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        workload = workloads.make(args.workload, args.seed, workdir, SRC)
        if args.probe_setup:
            print("ready", flush=True)
            return 0
        tally = oracle.Tally()
        run = traced_run if args.trace else timed_run
        metrics, info, gate = run(workload, args, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {tally.error_rate:.6g} frac")
    print(f"tol_miss_frac {tally.tol_miss_frac:.6g} frac")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **info, "attempted": tally.attempted,
        "failed": tally.failed, "errors": tally.errors,
        "tol_missed": tally.tol_missed, "misses_by_quantity": tally.misses,
        "max_err_over_tol": tally.worst_over_tol, "env": environment(workload),
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0 and gate,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
