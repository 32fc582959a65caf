"""refpack benchmark: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload cohort --seed 1 --seconds 36 --trace 0

With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1`` it
prints every per-layer metric of a traced run instead. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print the metrics for a
reader, the per-round times, the ``raw`` line (the end-to-end metrics from
unscaled times, and the median host-speed factor of the run's probes) and the
run's provenance. Scratch files go
under ``.perfbench/`` in the repository root; the spans of the last traced
round are written there too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def _import_refpack() -> None:
    """Put the checkout's own ``src`` first on the path; refuse any other copy."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        import refpack
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import refpack from {src}: {exc}")
    if Path(refpack.__file__).resolve().parent != src / "refpack":
        sys.exit(f"perfbench: refpack was imported from {refpack.__file__}, not {src}")


def provenance(args) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def result_line(metrics: dict, units: dict, tally) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def save_spans(tracer, path: Path) -> None:
    import numpy

    path.parent.mkdir(parents=True, exist_ok=True)
    numpy.savez(path, names=numpy.array(tracer.names), **tracer.spans())


def main(argv=None) -> int:
    _import_refpack()
    from perfbench import harness, tracing, workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat rounds for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; the self-test uses a tiny one")
    args = parser.parse_args(argv)

    if args.trace:
        metrics, n_rounds, tally, tracer = harness.measure_traced(
            args.workload, args.seed, args.seconds, args.scale, OUT)
        save_spans(tracer, OUT / "out" / f"spans-{args.workload}-seed{args.seed}.npz")
        units = dict(tracing.PER_LAYER)
    else:
        metrics, raw, rounds, tally = harness.measure(
            args.workload, args.seed, args.seconds, args.scale, OUT)
        units = dict(harness.END_TO_END)
        n_rounds = len(rounds)
        print("rounds " + json.dumps([
            {**r.scaled, **{f"{k}.raw": v for k, v in r.raw.items()},
             "extract_p50_ms.raw": harness.percentile(r.extract_ms, 50),
             "extract_p99_ms.raw": harness.percentile(r.extract_ms, 99)} for r in rounds]))
        print("raw " + json.dumps(raw))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} rounds={n_rounds}")
    for name, unit in units.items():
        print(f"  {name:<42} {metrics[name]:>14.6g} {unit}")
    print(f"  {'error_rate':<42} {tally.error_rate:>14.6g} share "
          f"({tally.failed} of {tally.attempted} operations failed)")
    for problem in tally.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print("provenance " + json.dumps(provenance(args)))
    print(result_line(metrics, units, tally))
    return 0


if __name__ == "__main__":
    sys.exit(main())
