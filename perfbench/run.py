"""ksettrace benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`. With --trace 0 the run times reps of the workload for S seconds and
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced reps of one seeded suite and reports the per-layer metrics and the
tracing overhead. Outputs are checked after the timed calls. The last line
of standard output is the result object; the line before it is a report
with the environment, the workload's own metrics and a digest of its seeded
outputs. Exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
# setup_s is given in seconds at the speed where the reference loop takes
# this long (about its time on a 2-core x86-64 host with CPython 3.11)
REF_NOMINAL_S = 0.003

END_TO_END = ("ops_per_ref", "peak_rss_mb", "setup_s")


def _import_library() -> None:
    if not (ROOT / "src" / "ksettrace" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ksettrace sources under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Seconds to import the library and build the workload's inputs, in a
    process that has imported neither, and the reference loop's median
    time right after."""
    t0 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[name](seed)
    setup = time.perf_counter() - t0
    return setup, statistics.median(workloads.reference_loop() for _ in range(5))


def measure_setup(name: str, seed: int) -> tuple[float, float]:
    """Medians over SETUP_PROBES fresh processes of the set-up time in
    seconds at the nominal reference speed, and of the wall-clock time."""
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        setup, ref = map(float, out.stdout.split()[-2:])
        scaled.append(setup * REF_NOMINAL_S / ref)
        wall.append(setup)
    return statistics.median(scaled), statistics.median(wall)


def _keep(wl, reps: list, calls, digests: set) -> None:
    """Add a rep, recording its digest. Only the first rep keeps its
    outputs, for the checks; later ones would only grow the heap, which
    slows the garbage collector in later reps."""
    digests.add(wl.digest(calls))
    if reps:
        for c in calls:
            c.output = None
    reps.append(calls)


def timed_reps(wl, seconds: float):
    """Reps until `seconds` have passed (at least one rep). Returns the
    reps and the set of their output digests."""
    from workloads import Meter

    reps, digests = [], set()
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        _keep(wl, reps, wl.run_rep(Meter()), digests)
    return reps, digests


def traced_reps(wl, seconds: float):
    """Pairs of an untraced and a traced rep until `seconds` have passed.
    Returns (untraced reps, traced reps, output digests, per-layer
    metrics)."""
    import layers
    from tracing import Tracer
    from workloads import Detect, Meter

    tracer = Tracer()
    reps, traced, digests, per_rep = [], [], set(), []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        _keep(wl, reps, wl.run_rep(Meter()), digests)
        with tracer.installed(layers.span_targets(), layers.COUNTERS):
            calls = wl.run_rep(Meter())
        spans, counts = tracer.take_summary()
        oracles = [c.output[3] for c in calls if c.error is None] if isinstance(wl, Detect) else []
        per_rep.append(layers.rep_metrics(spans, counts, calls, oracles))
        _keep(wl, traced, calls, digests)
    rep_s = [sum(c.seconds for c in calls) for calls in reps]
    traced_s = [sum(c.seconds for c in calls) for calls in traced]
    return reps, traced, digests, layers.run_metrics(per_rep, tracer.errors, rep_s, traced_s)


def cost_per_op(calls, unit=lambda c: c.seconds) -> float:
    """Geometric mean over the rep's cells of `unit` per op, so that each
    cell counts alike in relative terms, however many ops it holds and
    however long they take."""
    cells: dict[str, list[float]] = {}
    for c in calls:
        if c.error is None and c.ops:
            acc = cells.setdefault(c.cell, [0.0, 0])
            acc[0] += unit(c)
            acc[1] += c.ops
    return statistics.geometric_mean(s / n for s, n in cells.values()) if cells else math.inf


def environment(traced: bool) -> dict:
    try:
        mpmath = importlib.metadata.version("mpmath")
    except importlib.metadata.PackageNotFoundError:
        mpmath = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "traced": traced,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_library()
    if args.setup_probe:
        print(*probe_setup(args.workload, args.seed))
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    setup_s, setup_wall_s = measure_setup(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        reps, traced, digests, layer_metrics = traced_reps(wl, args.seconds)
    else:
        reps, digests = timed_reps(wl, args.seconds)
        traced = []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    every = reps + traced
    failures = [f"{c.cell}: {c.error}" for calls in every for c in calls if c.error]
    failures += wl.check(reps[0])
    if len(digests) > 1:
        failures.append(f"{len(digests)} different outputs from {len(every)} reps of the same inputs")
    attempted = sum(len(calls) for calls in every)
    failed = min(attempted, len(failures))

    throughput = 1 / statistics.median(cost_per_op(calls) for calls in reps)
    # time in units of the reference loop run just before each call
    per_ref = 1 / statistics.median(cost_per_op(calls, lambda c: c.seconds / c.ref_s)
                                    for calls in reps)
    times = workloads.median_seconds(reps)
    op_us = [t / c.ops * 1e6 for c, t in zip(reps[0], times) if c.error is None and c.ops]
    named = {
        "setup_s": (setup_s, "s"),
        "setup_wall_s": (setup_wall_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (failed / attempted, "share"),
        "ops_per_ref": (per_ref, "op/ref"),
        "ops_per_s": (throughput, "1/s"),
        "ref_loop_s": (statistics.median(c.ref_s for calls in reps for c in calls), "s"),
    }
    named.update(workloads.latency_percentiles("op_us", op_us, "us"))
    named.update(wl.named(reps, throughput))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "env": environment(bool(args.trace)),
        "reps": len(reps),
        "calls": attempted,
        "ops": sum(c.ops for calls in reps for c in calls),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "digest": wl.digest(reps[0]),
        "failures": failures[:20],
    }
    if args.workload == "exact":
        report["rho_table_mismatches"] = wl.rho_table_mismatches()

    if args.trace:
        import layers

        units = layers.metric_units()
        metrics = {k: {"value": layer_metrics[k], "unit": units[k]} for k in units}
    else:
        metrics = {k: {"value": named[k][0], "unit": named[k][1]} for k in END_TO_END}
    for k, m in {**report["metrics"], **metrics}.items():
        print(f"# {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
