"""fay-lab benchmark: one workload, one master seed, one JSON result line.

    python3 perfbench/run.py --workload suite-g12 --seed 42 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Load is a closed loop in one process and one thread: passes run back to
back, trials in order, with BLAS pinned to one thread.

--trace 0  repeats set-up + check passes until --seconds have gone by (at
           least one pass) and prints the end-to-end metrics, with times
           scaled to a reference host speed (see hostspeed.py).
--trace 1  runs one untraced and one traced pass plus the layer probes and
           prints the per-layer metrics.

Every pass goes through the correctness gate (see ``workloads.gate``).  If
any check fails the run prints the problems on stderr, a result line with
``"correct": false`` and no metrics, and exits with status 1.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: set-up builds before each pass, and in a whole run at least
SETUPS_PER_PASS = 3
MIN_SETUPS = 6


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "faylab" / "__init__.py").is_file():
        _fail(f"no fay-lab sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import faylab
    if Path(faylab.__file__).resolve().parent != SRC / "faylab":
        _fail(f"imported faylab from {faylab.__file__}, not from {SRC}")


def untraced_run(workload, seed, seconds):
    """Passes until ``seconds`` have gone by: (problems, attempted, metrics).

    Times are scaled to the reference host (see ``hostspeed``)."""
    from hostspeed import Laps
    from workloads import gate, tol_margins
    setup_s, report_s, problems, first = [], [], [], None
    start = time.perf_counter()
    while not report_s or time.perf_counter() - start < seconds:
        setups = Laps()
        for _ in range(SETUPS_PER_PASS):
            env = workload.setup()
            setups.lap()
        setup_s += setups.scaled
        laps = Laps()
        reports = workload.check(env, seed, laps.lap)
        report_s.append(laps.scaled)
        print(f"perfbench: pass {len(report_s)}: wall {sum(laps.wall):.3f} s, "
              f"scaled {sum(laps.scaled):.3f} s, calibration median "
              f"{1e3 * statistics.median(laps.samples):.2f} ms", file=sys.stderr)
        problems += gate(workload, reports, first)
        first = first or reports
        del env
    setups = Laps()
    for _ in range(MIN_SETUPS - len(setup_s)):
        workload.setup()
        setups.lap()
    setup_s += setups.scaled
    metrics = {
        # every pass does the same work; each report counts with its
        # median over the passes, so a burst of host load that slows one
        # report of one pass drops out
        "check_s": (sum(statistics.median(col) for col in zip(*report_s)), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        # the mean over reports: the minimum swings by a fifth between seeds
        "tol_margin_decades": (statistics.fmean(tol_margins(first)), "decades"),
    }
    return problems, len(report_s) * len(first), metrics


def traced_run(workload, seed):
    """One untraced and one traced pass: (problems, attempted, metrics)."""
    from hostspeed import calibrate
    from layers import attributed_share, layer_metrics, probe_metrics
    from tracer import SpanTable, Tracer
    from workloads import gate, tol_margins
    calibration_s = [calibrate() for _ in range(5)]
    env = workload.setup()
    t0 = time.perf_counter()
    plain = workload.check(env, seed)
    plain_s = time.perf_counter() - t0
    del env
    with Tracer() as tracer:
        tracer.install()
        tracer.wrap_trials(workload.specs())
        env = tracer.in_root("setup", workload.setup)
        traced = tracer.in_root("check", workload.check, env, seed)
    del env
    problems = gate(workload, plain) + gate(workload, traced, plain)
    spans = SpanTable(tracer)
    root, _ = spans.root_range("check")
    metrics = {name: (value, _unit(name))
               for name, value in layer_metrics(spans).items()}
    metrics["trace.overhead_s"] = (float(spans.dur[root]) - plain_s, "s")
    metrics["trace.attributed_share"] = (attributed_share(spans), "ratio")
    metrics["tol_margin_decades.min"] = (min(tol_margins(plain)), "decades")
    # per-layer times are wall times; this relates them to the host's speed
    metrics["host.calibration_ms"] = (1e3 * statistics.median(calibration_s), "ms")
    metrics.update({name: (value, _unit(name))
                    for name, value in probe_metrics(workload.genera).items()})
    return problems, 2 * len(plain), metrics


def _unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    for tag, unit in ((".us_per_row", "us"), ("_us.", "us"), ("_ms.", "ms")):
        if tag in name:
            return unit
    if "ratio" in name or name.endswith("per_call"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42, help="master seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="untraced runs repeat passes for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.trace:
        problems, attempted, metrics = traced_run(workload, args.seed)
    else:
        problems, attempted, metrics = untraced_run(workload, args.seed, args.seconds)
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": len(problems),
              "metrics": {} if problems else
              {name: {"value": value, "unit": unit}
               for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
