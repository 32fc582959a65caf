"""Repeat the benchmark over seeds and summarise every metric.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each run is a fresh ``run.py`` process at ``run_seconds`` from BENCHMARK.json,
with ten seeds from 201, or from ``--first-seed``.
For every workload and end-to-end metric the summary holds the values, their
median, their quartiles (as ``statistics.quantiles(values, n=4)`` gives them)
and the spread, which is the distance between the quartiles over the median.
``raw`` summarises the same metrics from unscaled times and the median
host-speed factor of each run. One traced run per workload, at the first
seed, then gives the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUNS = 10


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict, dict | None]:
    """Provenance, result and (untraced runs only) raw line of one run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    lines = done.stdout.splitlines()

    def tagged(tag):
        return next((json.loads(l[len(tag):]) for l in lines if l.startswith(tag)), None)

    return tagged("provenance "), json.loads(lines[-1]), tagged("raw ")


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=201)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    summary = {"seconds": SPEC["run_seconds"], "runs": [], "end_to_end": {}, "raw": {},
               "per_layer": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        values: dict[str, list[float]] = {}
        raw_values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in range(args.first_seed, args.first_seed + RUNS):
            provenance, result, raw = run_once(workload, seed, 0)
            summary["runs"].append({**provenance, **{k: result[k] for k in
                                                     ("correct", "attempted", "failed")}})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            for name, value in {**raw["metrics"], "factor": raw["factor_median"]}.items():
                raw_values.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: correct={result['correct']}", file=sys.stderr)
        summary["end_to_end"][workload] = {
            name: {"unit": units[name], **summarise(v)} for name, v in values.items()
        }
        summary["raw"][workload] = {name: summarise(v) for name, v in raw_values.items()}
        provenance, result, _ = run_once(workload, args.first_seed, 1)
        summary["runs"].append({**provenance, **{k: result[k] for k in
                                                 ("correct", "attempted", "failed")}})
        summary["per_layer"][workload] = result["metrics"]

    text = json.dumps(summary, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    for workload, metrics in summary["end_to_end"].items():
        for name, s in metrics.items():
            print(f"{workload:<11} {name:<24} median {s['median']:<12.6g} {s['unit']:<9} "
                  f"spread {s['spread'] if s['spread'] is not None else float('nan'):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
