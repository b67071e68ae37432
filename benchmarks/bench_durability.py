"""Crash matrix + recovery timing for the write-ahead admissions log.

Two halves:

**Kill matrix** - for every registered durability fault site
(``wal.append``, ``wal.fsync``, ``wal.replay``, ``checkpoint.truncate``)
a child process serves real admissions and is
SIGKILLed *at the site* via a ``REPRO_FAULT_PLAN`` ``:kill`` rule.  A
never-killed control run records the expected store image after every
admission; recovery (``DebloatEngine.open()`` with the workload runner
patched to fail) must reproduce the committed prefix **byte-identically**
with zero workload runs.  Which prefix is "committed" is the WAL's
contract: a kill before the record's bytes land (``wal.append``) loses
exactly that admission; a kill after the write but before the physical
sync (``wal.fsync``) keeps it (process death doesn't drop flushed OS
buffers); a kill between checkpoint export and WAL truncation loses
nothing (the watermark skips the double-covered records); a kill during
replay is free (replay never writes).

**Timing** - replay-from-WAL against a warm pipeline cache must beat a
cold rebuild (empty cache, full pipeline per admission) by
``SPEEDUP_FLOOR``x; the recovery wall times and replay counts land in
``BENCH_durability.json``.

``test_*`` functions run both halves at the tiny test scale under plain
pytest; ``python benchmarks/bench_durability.py`` regenerates the
recorded baseline at benchmark scale.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_durability.json"

BENCH_SCALE = 0.125
TEST_SCALE = 0.02

WORKLOAD_IDS = [
    "pytorch/train/mobilenetv2",
    "pytorch/inference/mobilenetv2",
    "pytorch/train/transformer",
    "tensorflow/train/mobilenetv2",
]

#: Floor for WAL-replay recovery speedup over cold rebuild.
SPEEDUP_FLOOR = 2.0

SIGKILLED = -9

#: site -> (fault plan, child mode, committed admissions after recovery).
#: ``None`` means "all of them".
KILL_MATRIX = {
    "wal.append": ("seed=1;wal.append@2:kill", "traffic", 1),
    "wal.fsync": ("seed=1;wal.fsync@2:kill", "traffic-fsync-always", 2),
    "checkpoint.truncate": (
        "seed=1;checkpoint.truncate@1:kill", "traffic-checkpoint", None
    ),
    "wal.replay": ("seed=1;wal.replay@2:kill", "recover", None),
}


_CHILD = r"""
import json, os, sys, time

mode, root, scale = sys.argv[1], sys.argv[2], float(sys.argv[3])

from repro.api import AdmitRequest, DebloatEngine, EngineConfig
from repro.api.config import DurabilityConfig
from repro.core import serialize
from repro.core.debloat import DebloatOptions
from repro.testing import faults

plan = faults.plan_from_env()
if plan is not None:
    faults.activate(plan)

WIDS = [
    "pytorch/train/mobilenetv2",
    "pytorch/inference/mobilenetv2",
    "pytorch/train/transformer",
    "tensorflow/train/mobilenetv2",
]


def cfg(dur_dir=None, fsync="batch"):
    kw = dict(
        scale=scale,
        options=DebloatOptions(runtime_comparison_top_n=0),
        use_cache=True,
    )
    if dur_dir:
        kw["durability"] = DurabilityConfig(
            enabled=True, directory=dur_dir, fsync=fsync
        )
    return EngineConfig(**kw)


def export_blob(engine):
    shards = sorted(
        engine.federation.shards(),
        key=lambda s: s.store.framework.name,
    )
    return b"".join(
        serialize.payload_dumps(s.store.export_state()) for s in shards
    )


def forbid_runs():
    import repro.workloads.runner as runner

    def _boom(self, *a, **k):
        raise AssertionError("workload ran during recovery")

    runner.WorkloadRunner.run = _boom


def write(path, data):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)


if mode == "traffic":
    dur_dir, expect, fsync, do_checkpoint = sys.argv[4:8]
    engine = DebloatEngine(cfg(dur_dir, fsync=fsync)).open()
    for k, wid in enumerate(WIDS, start=1):
        engine.admit(AdmitRequest(workload_id=wid))
        write(os.path.join(expect, f"{k}.bin"), export_blob(engine))
    if do_checkpoint == "1":
        engine.checkpoint()
    engine.close()
    print("TRAFFIC_DONE")
elif mode == "recover":
    dur_dir = sys.argv[4]
    forbid_runs()
    start = time.perf_counter()
    engine = DebloatEngine(cfg(dur_dir)).open()
    wall = time.perf_counter() - start
    write(os.path.join(root, "recovered.bin"), export_blob(engine))
    for s in engine.federation.shards():
        s.store.validate_invariants()  # includes block refcount checks
    k = sum(
        s.store.generation for s in engine.federation.shards()
    )
    report = dict(engine.recovery)
    engine.close()
    print(json.dumps({
        "k": k,
        "replayed": report["replayed"],
        "snapshot_loaded": report["snapshot_loaded"],
        "recovery_s": round(wall, 4),
    }))
else:
    raise SystemExit(f"unknown child mode {mode!r}")
"""


def _run_child(
    mode: str,
    root: str,
    scale: float,
    *args: str,
    plan: str | None = None,
    expect_kill: bool = False,
) -> dict | None:
    env = dict(os.environ)
    env["REPRO_PIPELINE_CACHE_DIR"] = os.path.join(root, "cache")
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    if plan is not None:
        env["REPRO_FAULT_PLAN"] = plan
    else:
        env.pop("REPRO_FAULT_PLAN", None)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, root, str(scale), *args],
        env=env, capture_output=True, text=True, timeout=600,
    )
    if expect_kill:
        assert proc.returncode == SIGKILLED, (
            f"{mode} child survived the {plan!r} kill "
            f"(rc={proc.returncode}): {proc.stderr[-2000:]}"
        )
        return None
    assert proc.returncode == 0, (
        f"{mode} child failed (rc={proc.returncode}): "
        f"{proc.stderr[-2000:]}"
    )
    last = proc.stdout.strip().splitlines()[-1]
    return json.loads(last) if last.startswith("{") else {"out": last}


def _kill_site(site: str, root: str, scale: float, expect: str) -> dict:
    """One matrix entry: crash child, recover, byte-compare."""
    plan, mode, committed = KILL_MATRIX[site]
    dur = os.path.join(root, f"dur-{site.replace('.', '-')}")
    if mode == "traffic":
        _run_child("traffic", root, scale, dur, dur + "-x", "batch", "0",
                   plan=plan, expect_kill=True)
    elif mode == "traffic-fsync-always":
        _run_child("traffic", root, scale, dur, dur + "-x", "always", "0",
                   plan=plan, expect_kill=True)
    elif mode == "traffic-checkpoint":
        _run_child("traffic", root, scale, dur, dur + "-x", "batch", "1",
                   plan=plan, expect_kill=True)
    elif mode == "recover":
        # Clean traffic first, then a recovery that is killed mid-replay:
        # replay never writes, so the second recovery sees pristine disk.
        _run_child("traffic", root, scale, dur, dur + "-x", "batch", "0")
        _run_child("recover", root, scale, dur, plan=plan, expect_kill=True)
    else:
        raise AssertionError(mode)

    result = _run_child("recover", root, scale, dur)
    k = result["k"]
    if committed is not None:
        assert k == committed, (
            f"{site}: recovered {k} admissions, expected {committed}"
        )
    recovered = Path(root, "recovered.bin").read_bytes()
    expected = Path(expect, f"{k}.bin").read_bytes()
    assert recovered == expected, (
        f"{site}: recovered image diverges from the never-killed control "
        f"after {k} admissions"
    )
    return {
        "killed_at": plan.split(";", 1)[1],
        "recovered_admissions": k,
        "replayed": result["replayed"],
        "snapshot_loaded": result["snapshot_loaded"],
        "recovery_s": result["recovery_s"],
        "byte_identical": True,
    }


def crash_matrix(scale: float) -> dict:
    """Kill -9 at every durability fault site; recovery must byte-match."""
    with tempfile.TemporaryDirectory(prefix="repro-bench-dur-") as root:
        expect = os.path.join(root, "expect")
        # Warm the shared pipeline cache, then record the control images
        # with identical (all-warm) counter trajectories.
        _run_child("traffic", root, scale,
                   os.path.join(root, "dur-warmup"), expect + "-warm",
                   "batch", "0")
        _run_child("traffic", root, scale,
                   os.path.join(root, "dur-control"), expect, "batch", "0")
        sites = {
            site: _kill_site(site, root, scale, expect)
            for site in KILL_MATRIX
        }
    return sites


def replay_vs_cold(scale: float) -> dict:
    """Time WAL-replay recovery against a cold federation rebuild."""
    from repro.api import AdmitRequest, DebloatEngine, EngineConfig
    from repro.api.config import DurabilityConfig
    from repro.core.debloat import DebloatOptions
    import repro.workloads.runner as runner

    opts = DebloatOptions(runtime_comparison_top_n=0)
    with tempfile.TemporaryDirectory(prefix="repro-bench-dur-") as root:
        # Cold rebuild: empty pipeline cache, full pipeline per admission.
        os.environ["REPRO_PIPELINE_CACHE_DIR"] = os.path.join(root, "cold")
        cold = DebloatEngine(EngineConfig(scale=scale, options=opts))
        cold.open()
        start = time.perf_counter()
        for wid in WORKLOAD_IDS:
            cold.admit(AdmitRequest(workload_id=wid))
        cold_s = time.perf_counter() - start
        cold.close()

        # Durable run: its own cache (cold for it) + a WAL of the
        # admissions; recovery then replays against the now-warm cache.
        os.environ["REPRO_PIPELINE_CACHE_DIR"] = os.path.join(root, "warm")
        dur = os.path.join(root, "durability")
        cfg = EngineConfig(
            scale=scale, options=opts,
            durability=DurabilityConfig(
                enabled=True, directory=dur, fsync="off"
            ),
        )
        source = DebloatEngine(cfg)
        source.open()
        for wid in WORKLOAD_IDS:
            source.admit(AdmitRequest(workload_id=wid))
        source.close()

        original_run = runner.WorkloadRunner.run

        def _refuse(self):
            raise AssertionError("workload ran during WAL replay")

        runner.WorkloadRunner.run = _refuse
        try:
            replica = DebloatEngine(cfg)
            start = time.perf_counter()
            replica.open()
            replay_s = time.perf_counter() - start
        finally:
            runner.WorkloadRunner.run = original_run
        report = dict(replica.recovery)
        replica.close()

    assert report["replayed"] == len(WORKLOAD_IDS)
    return {
        "workloads": len(WORKLOAD_IDS),
        "cold_rebuild_s": round(cold_s, 3),
        "wal_replay_s": round(replay_s, 3),
        "wal_records_replayed": report["replayed"],
        "speedup_replay_vs_rebuild": round(cold_s / replay_s, 2),
    }


# -- pytest checks (run in CI without --benchmark-only) ------------------------


def test_kill_matrix_recovers_byte_identical():
    """SIGKILL at every durability site; recovery must byte-match."""
    sites = crash_matrix(TEST_SCALE)
    print("\n" + json.dumps(sites, indent=2))
    assert set(sites) == set(KILL_MATRIX)
    assert all(row["byte_identical"] for row in sites.values())


def test_wal_replay_beats_cold_rebuild():
    result = replay_vs_cold(TEST_SCALE)
    print("\n" + json.dumps(result, indent=2))
    # Tiny scale: only sanity-bound the ordering; the speedup *floor* is
    # asserted at benchmark scale in main().
    assert result["wal_replay_s"] < result["cold_rebuild_s"]


def main() -> None:
    """Regenerate the recorded baseline (run on the reference machine)."""
    timing = replay_vs_cold(BENCH_SCALE)
    assert timing["speedup_replay_vs_rebuild"] >= SPEEDUP_FLOOR, (
        f"WAL replay only {timing['speedup_replay_vs_rebuild']}x faster "
        f"than cold rebuild (floor {SPEEDUP_FLOOR}x)"
    )
    sites = crash_matrix(BENCH_SCALE)
    baseline = {
        "workload": {
            "scale": BENCH_SCALE,
            "workload_ids": WORKLOAD_IDS,
            "what": "kill -9 at every durability fault site (child "
            "processes, REPRO_FAULT_PLAN :kill rules) followed by "
            "auto-recovery on open: byte-identical store images "
            "with zero workload runs; plus WAL-replay recovery "
            "timed against a cold rebuild",
        },
        **timing,
        "speedup_floor": SPEEDUP_FLOOR,
        "kill_matrix": sites,
    }
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
    print(json.dumps(baseline, indent=2))


if __name__ == "__main__":
    main()
