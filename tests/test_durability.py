"""Engine-level durability tests.

Recovery's contract is byte-identity: after ``close()`` (or a crash) and
a fresh ``open()``, the recovered store's ``export_state()`` bytes equal
the committed pre-crash state, with **zero** workload runs - replay goes
through the warm pipeline cache exactly like the snapshot import path.
With the pipeline cache off, replay has no cached usage and runs each
admitted workload once instead.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

from repro.api import AdmitRequest, DebloatEngine, EngineConfig, EvictRequest
from repro.api.config import DurabilityConfig
from repro.core import serialize
from repro.core.debloat import DebloatOptions
from repro.errors import ConfigurationError, UsageError
from repro.experiments import common as excommon
from repro.experiments.diskcache import DiskReportCache
from repro.testing import faults
from repro.workloads import runner as runner_mod

from tests.conftest import TEST_SCALE

OPTS = DebloatOptions(runtime_comparison_top_n=0)
PT_IDS = [
    "pytorch/train/mobilenetv2",
    "pytorch/inference/mobilenetv2",
    "pytorch/train/transformer",
]
TF_ID = "tensorflow/train/mobilenetv2"


def durable_config(tmp_path, **kwargs) -> EngineConfig:
    defaults = dict(
        scale=TEST_SCALE,
        options=OPTS,
        use_cache=True,
        durability=DurabilityConfig(
            enabled=True, directory=str(tmp_path / "durability"), fsync="off"
        ),
    )
    defaults.update(kwargs)
    return EngineConfig(**defaults)


def export_bytes(engine: DebloatEngine) -> dict[str, bytes]:
    return {
        shard.store.framework.name: serialize.payload_dumps(
            shard.store.export_state()
        )
        for shard in engine.federation.shards()
    }


@contextmanager
def forbid_workload_runs():
    """Fail the test if recovery runs a workload instead of the cache."""

    def _boom(self, *args, **kwargs):
        raise AssertionError("WorkloadRunner.run called during recovery")

    original = runner_mod.WorkloadRunner.run
    runner_mod.WorkloadRunner.run = _boom
    try:
        yield
    finally:
        runner_mod.WorkloadRunner.run = original


@pytest.fixture()
def pinned_cache(tmp_path, monkeypatch):
    """An enabled pipeline cache on this test's own directory, so the
    zero-run recovery contract holds under ``REPRO_PIPELINE_CACHE=0`` too."""
    cache = excommon.PipelineCache(
        enabled=True,
        disk=DiskReportCache(directory=tmp_path / "pipeline-cache"),
    )
    monkeypatch.setattr(excommon, "PIPELINE_CACHE", cache)
    return cache


# -- recovery -----------------------------------------------------------------


@pytest.mark.usefixtures("pinned_cache")
class TestRecovery:
    def test_replay_is_byte_identical_with_zero_runs(self, tmp_path):
        cfg = durable_config(tmp_path)
        with DebloatEngine(cfg) as engine:
            for wid in (*PT_IDS[:2], TF_ID):
                engine.admit(AdmitRequest(workload_id=wid))
            committed = export_bytes(engine)

        with forbid_workload_runs():
            with DebloatEngine(cfg) as engine:
                report = engine.recovery
                assert report is not None
                assert report["replayed"] == 3
                assert not report["snapshot_loaded"]
                assert export_bytes(engine) == committed
                assert engine.stats()["wal_replayed"] == 3

    def test_evict_and_readmit_replay(self, tmp_path):
        cfg = durable_config(tmp_path)
        with DebloatEngine(cfg) as engine:
            for wid in PT_IDS[:2]:
                engine.admit(AdmitRequest(workload_id=wid))
            engine.evict(EvictRequest(workload_id=PT_IDS[0]))
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
            committed = export_bytes(engine)

        with forbid_workload_runs():
            with DebloatEngine(cfg) as engine:
                assert engine.recovery["replayed"] == 4
                assert export_bytes(engine) == committed

    def test_checkpoint_truncates_then_recovers_from_snapshot(
        self, tmp_path
    ):
        cfg = durable_config(tmp_path)
        with DebloatEngine(cfg) as engine:
            for wid in PT_IDS[:2]:
                engine.admit(AdmitRequest(workload_id=wid))
            result = engine.checkpoint()
            assert result.value["truncated"] == 2
            assert engine.stats()["wal_lag"] == 0
            # Post-checkpoint traffic lands in the (now short) WAL.
            engine.admit(AdmitRequest(workload_id=TF_ID))
            committed = export_bytes(engine)

        with forbid_workload_runs():
            with DebloatEngine(cfg) as engine:
                report = engine.recovery
                assert report["snapshot_loaded"]
                # Only the post-checkpoint admission replays.
                assert report["replayed"] == 1
                assert export_bytes(engine) == committed

    def test_kill_between_export_and_truncate_is_harmless(self, tmp_path):
        """The checkpoint crash window: snapshot written, WAL untouched.

        Recovery must load the snapshot and *skip* the already-folded
        records by watermark - replaying them would double-admit.
        """
        cfg = durable_config(tmp_path)
        with DebloatEngine(cfg) as engine:
            for wid in PT_IDS[:2]:
                engine.admit(AdmitRequest(workload_id=wid))
            plan = faults.FaultPlan(
                (faults.FaultRule("checkpoint.truncate", ordinals=(1,)),),
                seed=7,
            )
            with faults.fault_plan(plan):
                with pytest.raises(faults.FaultError):
                    engine.checkpoint()
            assert engine.stats()["checkpoints_failed"] == 1
            committed = export_bytes(engine)

        with forbid_workload_runs():
            with DebloatEngine(cfg) as engine:
                report = engine.recovery
                assert report["snapshot_loaded"]
                assert report["replayed"] == 0  # watermark skips them
                assert export_bytes(engine) == committed

    def test_wal_append_fault_never_undoes_commit(self, tmp_path):
        cfg = durable_config(tmp_path)
        with DebloatEngine(cfg) as engine:
            plan = faults.FaultPlan(
                (faults.FaultRule("wal.append", ordinals=(2,)),), seed=7
            )
            with faults.fault_plan(plan):
                for wid in PT_IDS[:2]:
                    engine.admit(AdmitRequest(workload_id=wid))
            stats = engine.stats()
            assert stats["wal_failures"] == 1
            # The admission itself still stands in-memory...
            assert engine.snapshot().workload_count == 2
            # ...but durable state = what the log recorded: one admission.
            assert stats["wal_appended"] == 1

        with forbid_workload_runs():
            with DebloatEngine(cfg) as engine:
                assert engine.recovery["replayed"] == 1
                snapshot = engine.snapshot()
                assert snapshot.workload_count == 1

    def test_torn_wal_tail_quarantined_on_recovery(self, tmp_path):
        cfg = durable_config(tmp_path)
        with DebloatEngine(cfg) as engine:
            for wid in PT_IDS[:2]:
                engine.admit(AdmitRequest(workload_id=wid))
            committed = export_bytes(engine)
        wal_path = tmp_path / "durability" / "wal" / "pytorch.wal"
        with open(wal_path, "ab") as fh:
            fh.write(b"\x99\x00\x00\x00torn-mid-append")

        with forbid_workload_runs():
            with DebloatEngine(cfg) as engine:
                assert engine.recovery["replayed"] == 2
                assert engine.stats()["wal_quarantined_bytes"] > 0
                assert export_bytes(engine) == committed

    def test_periodic_checkpointer_fires(self, tmp_path):
        cfg = durable_config(
            tmp_path,
            durability=DurabilityConfig(
                enabled=True,
                directory=str(tmp_path / "durability"),
                fsync="off",
                checkpoint_interval_s=0.05,
            ),
        )
        with DebloatEngine(cfg) as engine:
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if engine.stats()["checkpoints_run"] >= 1:
                    break
                time.sleep(0.01)
            assert engine.stats()["checkpoints_run"] >= 1
            assert engine.stats()["wal_lag"] == 0

    def test_health_and_stats_expose_durability(self, tmp_path):
        cfg = durable_config(tmp_path)
        with DebloatEngine(cfg) as engine:
            engine.admit(AdmitRequest(workload_id=PT_IDS[0]))
            health = engine.health()
            assert health["durability"]["enabled"]
            assert health["durability"]["fsync"] == "off"
            stats = engine.stats()
            assert stats["wal_appended"] == 1
            assert stats["wal_lag"] == 1

    def test_cache_off_replay_runs_each_admission_once(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            excommon, "PIPELINE_CACHE", excommon.PipelineCache(enabled=False)
        )
        admitted = (*PT_IDS[:2], TF_ID)
        cfg = durable_config(tmp_path)
        with DebloatEngine(cfg) as engine:
            for wid in admitted:
                engine.admit(AdmitRequest(workload_id=wid))
            committed = export_bytes(engine)

        runs: list[str] = []
        original = runner_mod.WorkloadRunner.run

        def counting_run(runner_self, *args, **kwargs):
            runs.append(runner_self.spec.workload_id)
            return original(runner_self, *args, **kwargs)

        monkeypatch.setattr(runner_mod.WorkloadRunner, "run", counting_run)
        with DebloatEngine(cfg) as engine:
            assert engine.recovery["replayed"] == len(admitted)
            assert export_bytes(engine) == committed
        assert sorted(runs) == sorted(admitted)

    def test_checkpoint_requires_durability(self):
        cfg = EngineConfig(scale=TEST_SCALE, options=OPTS)
        with DebloatEngine(cfg) as engine:
            with pytest.raises(UsageError, match="durability"):
                engine.checkpoint()
            assert engine.recovery is None


# -- configuration ------------------------------------------------------------


class TestDurabilityConfig:
    def test_enabled_needs_a_directory(self):
        with pytest.raises(ConfigurationError, match="directory"):
            EngineConfig(durability=DurabilityConfig(enabled=True))

    def test_snapshot_dir_is_an_acceptable_root(self, tmp_path):
        cfg = EngineConfig(
            snapshot_dir=str(tmp_path),
            durability=DurabilityConfig(enabled=True),
        )
        assert cfg.durability.directory is None  # resolved at open()

    def test_bad_fsync_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="fsync"):
            DurabilityConfig(fsync="sometimes")
