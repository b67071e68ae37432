#!/usr/bin/env python3
"""End-to-end serving benchmark of the debloat engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 25 --trace 0

Workloads (all at scale 0.125, ``DebloatOptions(verify=False,
runtime_comparison_top_n=0)``; see perfbench/README.md):

* ``churn``     - in-process closed loop, durable: Zipf admits, evicts and
                  byte-budget sweeps over pytorch/tensorflow/transformers;
* ``fresh``     - in-process closed loop: never-seen workload variants, so
                  every admission runs its workload (capture);
* ``http-zipf`` - open-loop Poisson traffic over HTTP against
                  ``negativa-ml serve --http --durable`` in a child process.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
layer wrappers and prints the per-layer metrics instead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``--workload`` every workload runs
untraced and traced, and a table of all metrics is printed.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from common import (  # noqa: E402
    ROOT,
    WORK_ROOT,
    median,
    pin_environment,
    require_sources,
    samples_beyond,
)

WORKLOADS = ("churn", "fresh", "http-zipf")
#: The gated metrics (BENCHMARK.json ``end_to_end``).
END_TO_END_UNITS = {
    "setup_s": "s",
    "rss_peak_mb": "MiB",
}
#: Printed with every untraced run and recorded in the baseline, but not
#: gated.  On the shared 2-core machine the benchmark was built on, the
#: timings' spread across ten seeds reached 0.2-0.5 while the machine was
#: busy, above the 0.25 a bound may have; evictions are too few per run, a
#: ladder rung is short, and failures are zero on a healthy run.
REPORTED_UNITS = {
    "admit_ms.p50": "ms",
    "admit_ms.p90": "ms",
    "ops_per_s": "op/s",
    "recover_s": "s",
    "evict_ms.p50": "ms",
    "max_rate_rps": "req/s",
    "fail_ratio": "ratio",
}
#: Set-ups per untraced run (this run's own plus fresh-process repeats);
#: ``setup_s`` is their median.
SETUP_REPEATS = 3
DEFAULT_SECONDS = 25
#: Spans each traced workload exists to exercise; a traced run in which
#: one never fired fails instead of reporting zeros.
REQUIRED_SPANS = {
    "churn": ("compact.calls", "blocks.ingest_calls", "wal.appends"),
    "fresh": ("capture.calls",),
    "http-zipf": ("server.queue_wait_count",),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _run_workload(workload: str, seed: int, seconds: int, work: str,
                  traced: bool) -> dict:
    phases: dict = {}
    tracer = None
    if traced and workload != "http-zipf":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if workload == "churn":
            from inproc import run_churn

            result = run_churn(seed, seconds, work, phases, tracer)
        elif workload == "fresh":
            from inproc import run_fresh

            result = run_fresh(seed, seconds, work, phases, tracer)
        else:
            from httpzipf import run_http

            result = run_http(seed, seconds, work, phases, STARTED, traced)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if "setup_s" not in result:
        result["setup_s"] = phases["timed"][0] - STARTED
    phases["setup"] = [STARTED, phases["timed"][0]]
    result["phases"] = phases
    if traced:
        if tracer is not None:
            spans = tracer.spans
        else:
            from tracing import load_spans

            spans = load_spans(result["spans_path"])
        result["per_layer"] = _per_layer(workload, result, spans, phases)
    return result


def _per_layer(workload: str, result: dict, spans, phases) -> dict:
    from layers import admit_breakdown, layer_metrics

    extra = dict(result.get("gauges", {}))
    extra.update(result.get("server_layers", {}))
    extra["traced.admit_ms.p50"] = result["metrics"]["admit_ms.p50"]
    metrics = layer_metrics(spans, phases, extra)
    missing = [
        name for name in REQUIRED_SPANS[workload]
        if not (metrics.get(name) or extra.get(name))
    ]
    if missing:
        raise SystemExit(
            f"perfbench: traced {workload} run recorded no {missing}; a "
            f"wrapped function was renamed or no longer called"
        )
    breakdown = None
    if workload != "http-zipf":
        breakdown = admit_breakdown(spans, phases["timed"])
        result["admit_breakdown_ms"] = breakdown
    result["acceptance"] = _acceptance(workload, metrics, extra, breakdown)
    return metrics


def _acceptance(workload, metrics, extra, breakdown) -> dict:
    """The facts the traced baseline must confirm for each workload."""
    if workload == "churn":
        share = ((breakdown["compact_ms"] + breakdown["blocks_ingest_ms"])
                 / breakdown["admit_ms"])
        return {
            "compact+ingest share of admit time": share,
            "capture.hit_ratio": metrics["capture.hit_ratio"],
            "holds": share > 0.5 and metrics["capture.hit_ratio"] == 1.0,
        }
    if workload == "fresh":
        layers = {k[len("share."):]: v for k, v in metrics.items()
                  if k.startswith("share.") and k != "share.other"}
        largest = max(layers, key=layers.get)
        return {
            "largest layer": largest,
            "store.recompacted_per_op": metrics["store.recompacted_per_op"],
            "holds": largest == "capture"
            and metrics["store.recompacted_per_op"] == 0,
        }
    n = max(1, len(extra.get("recompacted", ())))
    serving = (metrics["store.self_ms"]
               + extra["queue_wait_ms.total"] + extra["http.self_ms.total"])
    return {
        "store self + queue wait + http self (ms/admit)": serving / n,
        "compact (ms/admit)": metrics["compact.ms"] / n,
        "holds": serving > metrics["compact.ms"],
    }


def _setup_probe(workload: str, work: str) -> float:
    if workload == "churn":
        from inproc import churn_setup

        engine = churn_setup(work)[0]
        elapsed = time.monotonic() - STARTED
        engine.close()
        return elapsed
    if workload == "fresh":
        from inproc import fresh_setup

        engine = fresh_setup()
        elapsed = time.monotonic() - STARTED
        engine.close()
        return elapsed
    from httpzipf import run_setup_probe

    return run_setup_probe(work, STARTED)


def _repeat_setup(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes (imports, builds, warm-ups)."""
    out = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up probe of {workload} failed")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _report(workload: str, args, result: dict, pinned: dict) -> dict:
    mismatches = result["mismatches"]
    invalid = result.get("invalid", [])
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    # An invalid run could not check its output, so it is not correct
    # either; its message says why, apart from output mismatches.
    correct = not mismatches and not invalid
    if not correct:
        failed = attempted
    if args.trace:
        from layers import PER_LAYER_UNITS as units

        values = result["per_layer"]
    else:
        units = END_TO_END_UNITS
        values = dict(result["metrics"])
        values["setup_s"] = median(result["setup_samples"])
    detail = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": pinned,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "samples": {k: len(v) for k, v in result["samples"].items()},
        "admit_samples_beyond_p90": samples_beyond(
            result["samples"]["admit_ms"], 90),
        "setup_samples_s": result.get("setup_samples"),
        **result["detail"],
    }
    for key in ("acceptance", "admit_breakdown_ms"):
        if key in result:
            detail[key] = result[key]
    reported = {}
    if not args.trace:
        reported = dict(result.get("reported", {}))
        for name in REPORTED_UNITS:
            if name in result["metrics"]:
                reported[name] = result["metrics"][name]
        reported["fail_ratio"] = detail["fail_ratio"]
        detail["reported"] = reported
    for problem in invalid:
        print(f"RUN INVALID: {problem}")
    for problem in mismatches:
        print(f"CHECK FAILED: {problem}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    for name, unit in units.items():
        print(f"  {workload:10s} {name:28s} {values[name]:14.4f} {unit}")
    for name, unit in REPORTED_UNITS.items():
        if reported.get(name) is not None:
            print(f"  {workload:10s} {name:28s} {reported[name]:14.4f} "
                  f"{unit}  (reported, not gated)")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def run_one(args) -> int:
    require_sources()
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        pinned = pin_environment(os.path.join(work, "cache"))
        if args.setup_probe:
            print(json.dumps({"setup_s": _setup_probe(args.workload, work)}))
            return 0
        result = _run_workload(args.workload, args.seed, args.seconds, work,
                               traced=bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["setup_samples"] = [result["setup_s"]]
    if not args.trace:
        result["setup_samples"] += _repeat_setup(args.workload, args.seed)
    line = _report(args.workload, args, result, pinned)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def run_all(args) -> int:
    """Every workload, untraced then traced: the human-readable report."""
    require_sources()
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                if line.startswith(("  ", "CHECK FAILED", "RUN INVALID")):
                    print(line)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-4000:])
                print(f"{workload} (trace {trace}) FAILED "
                      f"(exit {proc.returncode})")
                status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
