"""Micro-benchmark: warm snapshot import vs cold federation rebuild.

A replica has two ways to reach a serving state: **cold rebuild** (admit
every workload through the full detect -> locate -> compact pipeline
against an empty pipeline cache) or **warm import** (install the exported
store images - usage unions, per-library decisions, kernel-usage indexes,
debloated extents - with zero workload runs).  This benchmark times both
from fresh processes-worth of state, asserts the imported replica
re-exports byte-identical images, and proves the zero-run property by
patching ``WorkloadRunner.run`` to fail during the import.

``test_*`` functions run the comparison at the tiny test scale under a
plain pytest invocation; ``python benchmarks/bench_federation.py``
regenerates ``BENCH_federation.json``, the recorded baseline (benchmark
scale 0.125) future PRs compare against.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_federation.json"

BENCH_SCALE = 0.125
TEST_SCALE = 0.02

WORKLOAD_IDS = [
    "pytorch/train/mobilenetv2",
    "pytorch/inference/mobilenetv2",
    "pytorch/train/transformer",
    "tensorflow/train/mobilenetv2",
]

#: Floor for warm-import speedup over cold rebuild at benchmark scale.
SPEEDUP_FLOOR = 2.0


def _federation(scale: float):
    from repro.api import EngineConfig
    from repro.api.federation import StoreFederation
    from repro.core.debloat import DebloatOptions

    return StoreFederation(
        EngineConfig(
            scale=scale, options=DebloatOptions(runtime_comparison_top_n=0)
        )
    )


def _specs():
    from repro.workloads.spec import workload_by_id

    return [workload_by_id(wid) for wid in WORKLOAD_IDS]


def warm_vs_cold(scale: float) -> dict:
    """Time cold rebuild vs snapshot import; assert byte-identity."""
    import repro.workloads.runner as runner
    from repro.experiments.common import PIPELINE_CACHE
    from repro.frameworks.catalog import clear_framework_cache
    from repro.frameworks.genlib import clear_library_cache

    with tempfile.TemporaryDirectory(prefix="repro-bench-fed-") as root:
        # Cold rebuild: empty pipeline cache, every admission runs the
        # full pipeline.  The in-memory state is dropped too - the
        # pipeline cache's memory tier and the framework and library
        # memos, whose libraries carry their kernel indexes - so the leg
        # is as cold as in a fresh process, whatever ran earlier in it.
        os.environ["REPRO_PIPELINE_CACHE_DIR"] = os.path.join(root, "cold")
        PIPELINE_CACHE.invalidate()
        clear_framework_cache()
        clear_library_cache()
        source = _federation(scale)
        start = time.perf_counter()
        for spec in _specs():
            source.admit(spec)
        cold_s = time.perf_counter() - start

        snapdir = os.path.join(root, "snapshot")
        start = time.perf_counter()
        manifest = source.export_snapshot(snapdir)
        export_s = time.perf_counter() - start
        snapshot_bytes = sum(e["bytes"] for e in manifest["shards"])

        # Warm import: a fresh federation (and another empty cache dir -
        # the image itself is the warmth), with workload runs forbidden.
        os.environ["REPRO_PIPELINE_CACHE_DIR"] = os.path.join(root, "warm")
        replica = _federation(scale)
        original_run = runner.WorkloadRunner.run

        def _refuse(self):
            raise AssertionError("workload ran during snapshot import")

        runner.WorkloadRunner.run = _refuse
        try:
            start = time.perf_counter()
            generations = replica.import_snapshot(snapdir)
            import_s = time.perf_counter() - start
        finally:
            runner.WorkloadRunner.run = original_run

        # Byte-identity: the replica re-exports the exact same files.
        reexport = os.path.join(root, "reexport")
        replica.export_snapshot(reexport)
        for entry in manifest["shards"]:
            a = Path(snapdir, entry["file"]).read_bytes()
            b = Path(reexport, entry["file"]).read_bytes()
            assert a == b, f"replica diverged on {entry['framework']}"
        assert set(generations) == {s.framework for s in _specs()}

    return {
        "scale": scale,
        "workloads": len(WORKLOAD_IDS),
        "snapshot_bytes": snapshot_bytes,
        "cold_rebuild_s": round(cold_s, 3),
        "snapshot_export_s": round(export_s, 3),
        "warm_import_s": round(import_s, 3),
        "speedup_import_vs_rebuild": round(cold_s / import_s, 2),
    }


# -- pytest checks (run in CI without --benchmark-only) ------------------------


def test_warm_import_is_byte_identical_and_faster():
    """Import beats rebuild and reproduces the exact store images."""
    result = warm_vs_cold(TEST_SCALE)
    print("\n" + json.dumps(result, indent=2))
    # Byte-identity and the zero-run property are asserted inside; at
    # tiny scale only sanity-bound the timing (the speedup *floor* is
    # asserted at benchmark scale in main()).
    assert result["warm_import_s"] < result["cold_rebuild_s"]


def main() -> None:
    """Regenerate the recorded baseline (run on the reference machine)."""
    result = warm_vs_cold(BENCH_SCALE)
    assert result["speedup_import_vs_rebuild"] >= SPEEDUP_FLOOR, (
        f"warm import only {result['speedup_import_vs_rebuild']}x faster "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    baseline = {
        "workload": {
            "scale": BENCH_SCALE,
            "workload_ids": WORKLOAD_IDS,
            "what": "cold federation rebuild (empty pipeline cache, full "
            "pipeline per admission) vs warm snapshot import "
            "(store images installed verbatim, zero workload "
            "runs, byte-identical re-export)",
        },
        **{k: v for k, v in result.items() if k != "scale"},
        "speedup_floor": SPEEDUP_FLOOR,
    }
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
    print(json.dumps(baseline, indent=2))


if __name__ == "__main__":
    main()
