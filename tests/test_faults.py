"""Fault-tolerance tests: deterministic injection via repro.testing.faults,
transactional admission rollback, retry/backoff in the server workers,
disk-cache quarantine, and degraded-mode health.

The end-to-end class runs the acceptance plan (``ci-standard``, or
whatever ``$REPRO_FAULT_PLAN`` names in the CI fault leg) against a live
server and asserts the contract: zero hung tickets, every admission
succeeds after retry or fails typed, and the end-state store is
byte-identical to a fault-free run of the same arrivals.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    FaultError,
    ServerClosedError,
    TicketTimeoutError,
    TransientError,
    UsageError,
)
from repro.serving import DebloatServer, DebloatStore, RetryPolicy
from repro.testing import faults
from repro.utils.retry import DEFAULT_RETRYABLE
from repro.workloads.spec import workload_by_id

from tests.test_serving import OPTS, SPEC_IDS, assert_same_libraries, specs


@pytest.fixture(autouse=True)
def _clean_fault_state():
    """No active fault plan around each test."""
    faults.deactivate()
    yield
    faults.deactivate()


# -- retry policy --------------------------------------------------------------


class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}
        sleeps: list[float] = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientError("not yet")
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_backoff_s=0.01)
        assert policy.call(flaky, sleep=sleeps.append) == "ok"
        assert calls["n"] == 3
        assert len(sleeps) == 2
        assert sleeps[1] > sleeps[0]  # exponential backoff

    def test_permanent_error_not_retried(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise UsageError("malformed")

        policy = RetryPolicy(max_attempts=5)
        with pytest.raises(UsageError):
            policy.call(broken, sleep=lambda _: None)
        assert calls["n"] == 1

    def test_budget_exhaustion_reraises_last_error(self):
        calls = {"n": 0}

        def always_fails():
            calls["n"] += 1
            raise OSError("disk on fire")

        policy = RetryPolicy(max_attempts=3)
        with pytest.raises(OSError):
            policy.call(always_fails, sleep=lambda _: None)
        assert calls["n"] == 3

    def test_jitter_is_deterministic_per_token_and_attempt(self):
        a = RetryPolicy()
        b = RetryPolicy()
        for attempt in (1, 2, 3):
            assert a.backoff_s(attempt, token="w1") == b.backoff_s(
                attempt, token="w1"
            )
        # Different tokens decorrelate (thundering-herd protection).
        assert a.backoff_s(1, token="w1") != a.backoff_s(1, token="w2")

    def test_deadline_stops_retrying(self):
        now = {"t": 0.0}

        def clock():
            return now["t"]

        def sleep(s):
            now["t"] += s

        def fails():
            now["t"] += 0.2
            raise TransientError("slow and flaky")

        policy = RetryPolicy(
            max_attempts=100, base_backoff_s=0.01, deadline_s=0.5
        )
        calls = {"n": 0}

        def counted():
            calls["n"] += 1
            fails()

        with pytest.raises(TransientError):
            policy.call(counted, sleep=sleep, clock=clock)
        assert calls["n"] < 100  # the deadline cut the budget short

    def test_fault_error_is_retryable_by_default(self):
        assert issubclass(FaultError, DEFAULT_RETRYABLE)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=2.0)


# -- the fault plan itself -----------------------------------------------------


class TestFaultPlan:
    def test_inactive_check_is_a_noop(self):
        faults.check("store.merge")  # no active plan: nothing raises

    def test_ordinal_rule_fires_exactly_on_its_ordinals(self):
        plan = faults.FaultPlan(
            [faults.FaultRule("site.a", ordinals=(2,))], seed=1
        )
        plan.check("site.a")
        with pytest.raises(FaultError):
            plan.check("site.a")
        plan.check("site.a")  # ordinal 3: quiet again
        assert plan.stats() == {"site.a": 1}

    def test_prefix_matching(self):
        plan = faults.FaultPlan(
            [faults.FaultRule("diskcache", ordinals=(1, 2), kind="oserror")],
            seed=1,
        )
        with pytest.raises(OSError):
            plan.check("diskcache.read")
        plan.check("diskcachex.read")  # not a dotted prefix: no match
        plan.check("sweeper.tick")  # unrelated site: no match, no count
        with pytest.raises(OSError):
            plan.check("diskcache.write")  # ordinal 2 of the same rule
        assert plan.stats() == {"diskcache": 2}

    def test_rate_rule_is_deterministic(self):
        def run(plan):
            fired = []
            for i in range(200):
                try:
                    plan.check("site.r")
                except FaultError:
                    fired.append(i)
            return fired

        rule = faults.FaultRule("site.r", rate=0.1)
        first = run(faults.FaultPlan([rule], seed=42))
        second = run(faults.FaultPlan([rule], seed=42))
        assert first == second
        assert 0 < len(first) < 60  # ~10% of 200
        assert run(faults.FaultPlan([rule], seed=43)) != first

    def test_reset_rewinds_counters(self):
        plan = faults.FaultPlan(
            [faults.FaultRule("site.a", ordinals=(1,))], seed=1
        )
        with pytest.raises(FaultError):
            plan.check("site.a")
        plan.reset()
        with pytest.raises(FaultError):
            plan.check("site.a")

    def test_context_manager_restores_previous_plan(self):
        outer = faults.activate(
            faults.FaultPlan([faults.FaultRule("x", ordinals=(99,))])
        )
        inner = faults.FaultPlan([faults.FaultRule("y", ordinals=(99,))])
        with faults.fault_plan(inner):
            assert faults.active_plan() is inner
        assert faults.active_plan() is outer

    def test_parse_named_plan(self):
        plan = faults.parse_plan("ci-standard")
        assert plan.name == "ci-standard"
        assert plan.seed == faults.CI_STANDARD_SEED
        assert faults.parse_plan("ci-standard:123").seed == 123

    def test_parse_inline_spec(self):
        plan = faults.parse_plan(
            "seed=7;store.merge@1,3;diskcache.read%0.05:corrupt"
        )
        assert plan.seed == 7
        assert plan.rules[0].ordinals == (1, 3)
        assert plan.rules[1].rate == 0.05
        assert plan.rules[1].kind == "corrupt"

    def test_parse_rejects_garbage(self):
        for bad in ("", "no-such-plan", "seed=7", "site.a",
                    "site.a@1:weird"):
            with pytest.raises(ConfigurationError):
                faults.parse_plan(bad)

    def test_plan_from_env(self, monkeypatch):
        monkeypatch.delenv(faults.PLAN_ENV, raising=False)
        assert faults.plan_from_env() is None
        monkeypatch.setenv(faults.PLAN_ENV, "ci-standard")
        assert faults.plan_from_env().name == "ci-standard"


# -- transactional admission ---------------------------------------------------


class TestTransactionalRollback:
    def test_mid_admission_fault_rolls_back_to_prior_epoch(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        store.admit(specs()[0])
        before = store.snapshot()
        with faults.fault_plan(faults.parse_plan("seed=1;store.process@1")):
            with pytest.raises(FaultError):
                store.admit(specs()[2])
        after = store.snapshot()
        assert after.generation == before.generation
        assert after.workload_ids == before.workload_ids
        assert set(after.libraries) == set(before.libraries)
        assert store.stats()["rollbacks"] == 1
        assert store.last_error is not None
        store.validate_invariants()

    def test_readmission_after_rollback_is_byte_identical(self, pytorch):
        faulted = DebloatStore(pytorch, OPTS)
        with faults.fault_plan(faults.parse_plan("seed=1;store.merge@2")):
            faulted.admit(specs()[0])
            with pytest.raises(FaultError):
                faulted.admit(specs()[1])
            faulted.admit(specs()[1])  # retry: plan ordinal passed
            faulted.admit(specs()[2])
        clean = DebloatStore(pytorch, OPTS)
        for s in specs():
            clean.admit(s)
        assert_same_libraries(
            faulted.debloated_libraries(), clean.debloated_libraries()
        )
        assert (
            faulted.snapshot().workload_ids == clean.snapshot().workload_ids
        )
        assert faulted.stats()["rollbacks"] == 1

    def test_mid_batch_fault_rolls_back_whole_batch(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        with faults.fault_plan(faults.parse_plan("seed=1;store.merge@2")):
            with pytest.raises(FaultError):
                store.admit_many(specs())
        snap = store.snapshot()
        assert snap.generation == 0
        assert snap.workload_ids == ()
        assert len(snap.libraries) == 0
        assert store.stats()["rollbacks"] == 1
        # The store is fully usable afterwards.
        store.admit_many(specs())
        clean = DebloatStore(pytorch, OPTS)
        clean.admit_many(specs())
        assert_same_libraries(
            store.debloated_libraries(), clean.debloated_libraries()
        )

    def test_rollback_preserves_counters_of_committed_work(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        store.admit(specs()[0])
        committed = store.stats()
        with faults.fault_plan(faults.parse_plan("seed=1;store.process@1")):
            with pytest.raises(FaultError):
                store.admit(specs()[2])
        after = store.stats()
        assert after["admissions"] == committed["admissions"]
        assert after["recompactions"] == committed["recompactions"]

    def test_concurrent_evict_races_inflight_admit(self, pytorch):
        """An eviction racing an in-flight admission: both transactions
        serialize, invariants hold, and the end state is one of the two
        serial orders (which converge on membership)."""
        store = DebloatStore(pytorch, OPTS)
        store.admit(specs()[0])
        store.admit(specs()[1])
        errors: list[BaseException] = []

        def admit_third():
            try:
                store.admit(specs()[2])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        def evict_first():
            try:
                store.evict(SPEC_IDS[0])
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=admit_third),
            threading.Thread(target=evict_first),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        store.validate_invariants()
        assert set(store.snapshot().workload_ids) == {
            SPEC_IDS[1], SPEC_IDS[2]
        }
        expected = DebloatStore(pytorch, OPTS)
        expected.admit(specs()[1])
        expected.admit(specs()[2])
        assert_same_libraries(
            store.debloated_libraries(), expected.debloated_libraries()
        )


# -- server retry / close / sweeper --------------------------------------------


class _BlockingStore:
    """Duck-typed admission target whose admit() parks on an event."""

    def __init__(self):
        self.release = threading.Event()
        self.admitted: list[str] = []

    def admit(self, spec, verify=False):
        self.release.wait(30)
        self.admitted.append(spec.workload_id)
        raise UsageError("released without result")

    def stats(self):
        return {}


class TestServerFaultTolerance:
    def test_transient_fault_retried_to_success(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        plan = faults.parse_plan("seed=1;worker.pre_merge@1")
        with faults.fault_plan(plan):
            with DebloatServer(store, workers=1) as server:
                res = server.admit(specs()[0], timeout=120)
                stats = server.stats()
        assert res.workload_id == SPEC_IDS[0]
        assert stats["retries"] == 1
        assert stats["served"] == 1
        assert stats["failed"] == 0

    def test_exhausted_retries_fail_typed(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        retry = RetryPolicy(max_attempts=2, base_backoff_s=0.001)
        plan = faults.parse_plan("seed=1;worker.pre_merge%1.0")
        with faults.fault_plan(plan):
            with DebloatServer(store, workers=1, retry=retry) as server:
                ticket = server.submit(specs()[0])
                with pytest.raises(AdmissionError) as err:
                    ticket.result(120)
        assert err.value.workload_id == SPEC_IDS[0]
        assert err.value.attempts == 2
        assert isinstance(err.value.__cause__, FaultError)
        # The fault fired before any store mutation: nothing admitted.
        assert store.snapshot().generation == 0

    def test_result_timeout_leaves_ticket_valid(self):
        target = _BlockingStore()
        server = DebloatServer(target, workers=1)
        try:
            ticket = server.submit(specs()[0])
            start = time.perf_counter()
            with pytest.raises(TicketTimeoutError):
                ticket.result(timeout=0.05)
            assert time.perf_counter() - start < 5
            assert not ticket.done()
            target.release.set()
            with pytest.raises(UsageError):
                ticket.result(timeout=30)
        finally:
            target.release.set()
            server.close(timeout=5)

    def test_ticket_timeout_is_a_timeout_error(self):
        assert issubclass(TicketTimeoutError, TimeoutError)

    def test_close_fails_pending_tickets_immediately(self):
        target = _BlockingStore()
        server = DebloatServer(target, workers=1)
        stuck = server.submit(specs()[0])
        queued = server.submit(specs()[1])
        server.close(timeout=0.2)  # worker is parked: close gives up waiting
        start = time.perf_counter()
        with pytest.raises(ServerClosedError):
            queued.result()  # no timeout: must not hang
        with pytest.raises(ServerClosedError):
            stuck.result()
        assert time.perf_counter() - start < 5
        assert server.stats()["failed"] == 2
        with pytest.raises(ServerClosedError):
            server.submit(specs()[2])
        target.release.set()

    def test_sweeper_survives_a_failing_tick(self):
        class SweepTarget:
            def __init__(self):
                self.sweeps = 0

            def sweep(self):
                self.sweeps += 1
                return []

            def stats(self):
                return {}

        target = SweepTarget()
        plan = faults.parse_plan("seed=1;sweeper.tick@1")
        with faults.fault_plan(plan):
            server = DebloatServer(target, workers=1, sweep_interval_s=0.01)
            try:
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    if server.stats()["sweeps_run"] >= 1:
                        break
                    time.sleep(0.01)
                stats = server.stats()
                health = server.health()
            finally:
                server.close(timeout=5)
        assert stats["sweeps_failed"] == 1
        assert stats["sweeps_run"] >= 1  # the tick after the fault swept
        assert health["sweeper"]["alive"]
        assert "FaultError" in health["sweeper"]["last_error"]

    def test_health_reports_store_rollbacks(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        with DebloatServer(store, workers=1) as server:
            server.admit(specs()[0], timeout=120)
            health = server.health()
        assert health["state"] == "ok"
        assert health["workers_alive"] == 1
        assert health["store"] == {"rollbacks": 0, "last_error": None}


# -- disk-cache quarantine -----------------------------------------------------


class TestDiskQuarantine:
    def test_corrupt_entry_quarantined_and_recomputed(self, monkeypatch):
        import repro.experiments.common as excommon
        from repro.experiments.diskcache import QUARANTINE_DIR
        from repro.frameworks.catalog import get_framework

        from tests.conftest import TEST_SCALE

        monkeypatch.setattr(
            excommon, "PIPELINE_CACHE", excommon.PipelineCache(enabled=True)
        )
        fw = get_framework("pytorch", scale=TEST_SCALE)
        cold = DebloatStore(fw, use_cache=True)
        for s in specs():
            cold.admit(s)
        # A fresh cache instance = a "restarted" process: the memory tier
        # is empty, so the warm admissions read the persisted disk tier.
        restarted = excommon.PipelineCache(enabled=True)
        monkeypatch.setattr(excommon, "PIPELINE_CACHE", restarted)
        plan = faults.parse_plan("seed=1;diskcache.read@1:corrupt")
        with faults.fault_plan(plan):
            warm = DebloatStore(fw, use_cache=True)
            for s in specs():
                warm.admit(s)
        # One read was "corrupt": quarantined, recomputed, byte-identical.
        assert plan.stats() == {"diskcache.read": 1}
        stats = restarted.stats()
        assert stats["disk_quarantined"] == 1
        qdir = restarted.disk.directory / QUARANTINE_DIR
        assert len(list(qdir.iterdir())) == 1
        assert_same_libraries(
            warm.debloated_libraries(), cold.debloated_libraries()
        )

    def test_quarantine_disabled_drops_entry(self, monkeypatch):
        import repro.experiments.common as excommon
        from repro.experiments.diskcache import QUARANTINE_DIR
        from repro.frameworks.catalog import get_framework

        from tests.conftest import TEST_SCALE

        cache = excommon.PipelineCache(enabled=True)
        cache.configure(quarantine=False)
        monkeypatch.setattr(excommon, "PIPELINE_CACHE", cache)
        fw = get_framework("pytorch", scale=TEST_SCALE)
        DebloatStore(fw, use_cache=True).admit(specs()[0])
        restarted = excommon.PipelineCache(enabled=True)
        restarted.configure(quarantine=False)
        monkeypatch.setattr(excommon, "PIPELINE_CACHE", restarted)
        plan = faults.parse_plan("seed=1;diskcache.read@1:corrupt")
        with faults.fault_plan(plan):
            DebloatStore(fw, use_cache=True).admit(specs()[0])
        assert plan.stats() == {"diskcache.read": 1}
        assert restarted.stats()["disk_quarantined"] == 0
        # Quarantine off: the corrupt entry was dropped, not moved aside.
        assert not (restarted.disk.directory / QUARANTINE_DIR).exists()


# -- federation degraded modes -------------------------------------------------


class TestFederationDegradedModes:
    def _federation(self):
        from repro.api import EngineConfig
        from repro.api.federation import StoreFederation

        from tests.conftest import TEST_SCALE

        return StoreFederation(
            EngineConfig(scale=TEST_SCALE, options=OPTS, use_cache=False)
        )

    def test_recovering_shard_serves_last_good_snapshot(self):
        fed = self._federation()
        fed.admit(specs()[0])
        good_gen = fed.shard("pytorch").store.generation
        fed.mark_recovering(specs()[1], TransientError("mid-retry"))
        snap = fed.snapshot()
        assert snap.shards["pytorch"].state == "recovering"
        assert snap.shards["pytorch"].store.generation == good_gen
        health = fed.health()
        assert health["state"] == "recovering"
        assert health["shards"]["pytorch"]["retries"] == 1
        # Success clears the state and refreshes last-good.
        fed.admit(specs()[1])
        snap = fed.snapshot()
        assert snap.shards["pytorch"].state == "ok"
        assert snap.shards["pytorch"].store.generation == good_gen + 1
        assert fed.health()["state"] == "ok"

    def test_record_failure_marks_shard_degraded(self):
        fed = self._federation()
        fed.admit(specs()[0])
        fed.record_failure(specs()[1], OSError("dead disk"))
        health = fed.health()
        assert health["state"] == "degraded"
        assert health["shards"]["pytorch"]["state"] == "degraded"
        assert "dead disk" in health["shards"]["pytorch"]["last_error"]


# -- the acceptance plan, end to end -------------------------------------------


class TestCiStandardEndToEnd:
    def test_every_arrival_lands_or_fails_typed(self, pytorch):
        """The CI contract: under the acceptance plan every admission
        succeeds after retry or fails with a typed AdmissionError, no
        ticket outlives its deadline, and the end-state store is
        byte-identical to a fault-free run of the same arrivals."""
        plan = faults.plan_from_env() or faults.named_plan("ci-standard")
        arrivals = specs() + [specs()[0]]  # one duplicate re-admission
        store = DebloatStore(pytorch, OPTS)
        outcomes: list[tuple[str, object]] = []
        with faults.fault_plan(plan):
            with DebloatServer(store, workers=2) as server:
                tickets = [(s, server.submit(s)) for s in arrivals]
                for spec, ticket in tickets:
                    try:
                        outcomes.append((spec.workload_id,
                                         ticket.result(timeout=120)))
                    except AdmissionError as err:
                        outcomes.append((spec.workload_id, err))
                stats = server.stats()
                health = server.health()
        # Zero hung tickets: every ticket resolved inside the deadline.
        assert len(outcomes) == len(arrivals)
        admitted = [
            wid for wid, out in outcomes
            if not isinstance(out, BaseException)
        ]
        # The plan's faults are all transient one-shots: with the default
        # 3-attempt budget every arrival must land.
        assert admitted == [s.workload_id for s in arrivals]
        assert plan.stats()  # ...and faults really fired
        assert stats["retries"] >= 1
        assert stats["failed"] == 0
        assert health["state"] == "ok"
        store.validate_invariants()
        # Byte-identity against a fault-free run of the same arrivals.
        clean = DebloatStore(pytorch, OPTS)
        for s in arrivals:
            clean.admit(s)
        assert_same_libraries(
            store.debloated_libraries(), clean.debloated_libraries()
        )
        assert (
            store.snapshot().union_kernels == clean.snapshot().union_kernels
        )
        assert sorted(store.snapshot().workload_ids) == sorted(
            clean.snapshot().workload_ids
        )
