#!/usr/bin/env python3
"""Record the benchmark's baseline: ``python3 perfbench/baseline.py``.

Runs every workload ``--runs`` times untraced (seeds ``--seed``,
``--seed``+1, ...) and once traced, then writes, per workload, each
end-to-end and reported metric's values, median, quartiles and spread
(interquartile range over the median, as ``statistics.quantiles(values,
n=4)`` gives them), the per-layer metrics and self-time shares of the
traced run, and the tracing overhead.  Every gated metric's spread,
``setup_s`` included, is checked against a third of its bound in
BENCHMARK.json.  The result goes to perfbench/BASELINE.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed "
                         f"(exit {proc.returncode})")
    detail = next(json.loads(line[len("detail: "):]) for line in lines
                  if line.startswith("detail: "))
    return {"result": json.loads(lines[-1]), "detail": detail,
            "wall_s": time.monotonic() - started}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    out = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    steady = True
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            runs.append(run(workload, args.seed + i, seconds, 0))
            print(f"{workload} seed {args.seed + i}: "
                  f"{runs[-1]['wall_s']:.1f}s", flush=True)
        traced = run(workload, args.seed, seconds, 1)
        metrics = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = summarize(values)
            metrics[name]["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            limit = bounds[name] / 3
            ok = metrics[name]["spread"] < limit
            steady &= ok
            print(f"  {workload:10s} {name:14s} median "
                  f"{metrics[name]['median']:10.3f} spread "
                  f"{metrics[name]['spread']:.3f} (limit {limit:.3f})"
                  f"{'' if ok else '  TOO WIDE'}", flush=True)
        reported = {}
        for name in runs[0]["detail"]["reported"]:
            values = [r["detail"]["reported"].get(name) for r in runs]
            if None not in values:
                reported[name] = summarize(values)
        layers = {k: v["value"]
                  for k, v in traced["result"]["metrics"].items()}
        untraced_p50 = reported["admit_ms.p50"]["median"]
        overhead_ms = layers["traced.admit_ms.p50"] - untraced_p50
        out["workloads"][workload] = {
            "seeds": [args.seed + i for i in range(args.runs)],
            "end_to_end": metrics,
            "reported": reported,
            "admit_samples_per_run": min(
                r["detail"]["samples"]["admit_ms"] for r in runs),
            "wall_s_per_run": summarize([r["wall_s"] for r in runs]),
            "traced": {
                "seed": args.seed,
                "per_layer": layers,
                "self_time_share": {
                    k[len("share."):]: v for k, v in layers.items()
                    if k.startswith("share.")
                },
                "tracing_overhead_admit_p50_ms": overhead_ms,
                "tracing_overhead_share": overhead_ms / untraced_p50,
                "acceptance": traced["detail"].get("acceptance"),
            },
            "detail_of_first_run": runs[0]["detail"],
        }
    path = os.path.join(HERE, "BASELINE.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}; every spread within a third of its bound: "
          f"{steady}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
