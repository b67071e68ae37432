"""Request-queue + worker-pool front-end over a store or federation.

The serving story: workloads arrive over time, each admission's expensive
part (the fused instrumented detection run) is independent of the store,
and only the union merge + delta compaction must serialize.  The server
keeps a bounded worker pool draining a request queue; workers overlap
their detection runs and the store's admission lock orders the merges.
Readers never queue - :meth:`snapshot` returns the store's current
immutable epoch directly.

The target is anything with the store admission surface - a single
:class:`DebloatStore` or a multi-framework
:class:`~repro.api.federation.StoreFederation` (the engine facade fronts
the latter); the server itself is routing-agnostic.

With ``batch_max > 1`` a worker that picks up a request also drains
whatever else is already queued (up to the cap) and admits the whole batch
through :meth:`DebloatStore.admit_many` - one union merge and one delta
locate/compact pass per grown library instead of one per admission.  Each
ticket still resolves to its own :class:`AdmissionResult`; a batch whose
specs fail upfront validation falls back to per-spec admission so one bad
request never poisons its queue neighbours.

With ``sweep_interval_s`` set (and a ``sweep()``-capable target), a
background sweeper thread periodically applies the federation's
traffic-driven eviction policy - the ROADMAP's TTL/eviction story - so
idle workloads age out of a long-running server without any caller
driving eviction explicitly.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

from repro.errors import (
    AdmissionError,
    ServerClosedError,
    TicketTimeoutError,
    UsageError,
)
from repro.serving.store import AdmissionResult, DebloatStore, StoreSnapshot
from repro.testing import faults
from repro.utils.retry import DEFAULT_RETRYABLE, RetryPolicy
from repro.workloads.spec import WorkloadSpec


@dataclass
class AdmissionTicket:
    """A pending admission: resolves to a result or re-raises the failure."""

    spec: WorkloadSpec
    _done: threading.Event = field(default_factory=threading.Event)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _result: AdmissionResult | None = None
    _error: BaseException | None = None
    _error_tb: object = None
    #: Wall-clock seconds from submit to completion (queueing included).
    latency_s: float | None = None

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> AdmissionResult:
        """Block for the outcome; raise it if the admission failed.

        Raises :class:`~repro.errors.TicketTimeoutError` (a
        :class:`TimeoutError` subclass) when ``timeout`` expires first;
        the ticket stays valid and a later call can still succeed.
        Failures re-raise as a fresh per-call copy: raising the one
        stored exception object would let every waiter's propagation
        frames pile onto the shared ``__traceback__``.
        """
        if not self._done.wait(timeout):
            raise TicketTimeoutError(
                f"admission of {self.spec.workload_id} still pending "
                f"after {timeout}s"
            )
        if self._error is not None:
            raise self._error_copy()
        assert self._result is not None
        return self._result

    def _error_copy(self) -> BaseException:
        """A same-type clone of the stored error, carrying the worker's
        traceback but owning its own ``__traceback__`` slot."""
        err = self._error
        assert err is not None
        try:
            clone = type(err).__new__(type(err))
            clone.args = err.args
            clone.__dict__.update(err.__dict__)
        except Exception:
            # Exotic exception type (custom __new__); fall back to the
            # shared object rather than mask the real failure.
            return err
        clone.__cause__ = err.__cause__
        clone.__suppress_context__ = err.__suppress_context__
        return clone.with_traceback(self._error_tb)

    def _resolve(
        self,
        started: float,
        result: AdmissionResult | None,
        error: BaseException | None,
    ) -> bool:
        """First resolution wins; returns whether this call was it.

        Idempotence lets ``close()`` fail a ticket whose worker is stuck
        without racing that worker's own (late) resolution.
        """
        with self._lock:
            if self._done.is_set():
                return False
            self.latency_s = time.perf_counter() - started
            self._result = result
            self._error = error
            # Captured once: waiters re-raise clones, so the worker's
            # traceback chain stays pristine no matter how many callers
            # (or threads) observe the failure.
            self._error_tb = (
                error.__traceback__ if error is not None else None
            )
            self._done.set()
            return True


_SHUTDOWN = object()


class DebloatServer:
    """Admission workers over one shared store (or store federation)."""

    def __init__(
        self,
        store: DebloatStore,
        workers: int = 2,
        verify: bool = False,
        batch_max: int = 1,
        sweep_interval_s: float | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if workers < 1:
            raise UsageError("DebloatServer needs at least one worker")
        if batch_max < 1:
            raise UsageError("batch_max must be >= 1")
        if sweep_interval_s is not None:
            if sweep_interval_s <= 0:
                raise UsageError("sweep_interval_s must be positive")
            if not hasattr(store, "sweep"):
                raise UsageError(
                    "sweep_interval_s needs a sweep()-capable target "
                    "(a StoreFederation)"
                )
        self.store = store
        self.verify = verify
        self.batch_max = batch_max
        self.retry = retry if retry is not None else RetryPolicy()
        self._batches_merged = 0
        self._queue: queue.Queue = queue.Queue()
        # Orders submit() against close(): a ticket must never land behind
        # the shutdown sentinels (it would hang its waiter forever), and
        # the served/failed counters are bumped from N worker threads.
        self._state_lock = threading.Lock()
        self._closed = False
        self._submitted = 0
        self._served = 0
        self._failed = 0
        self._retries = 0
        #: Every unresolved ticket, keyed by identity: close() fails
        #: whatever is left here so no waiter ever hangs.
        self._pending: dict[int, tuple[AdmissionTicket, float]] = {}
        self._sweeps_run = 0
        self._sweeps_evicted = 0
        self._sweeps_failed = 0
        self.last_sweep_error: str | None = None
        self._sweep_stop = threading.Event()
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"debloat-serve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()
        self._sweeper: threading.Thread | None = None
        if sweep_interval_s is not None:
            self._sweeper = threading.Thread(
                target=self._sweep_loop,
                args=(sweep_interval_s,),
                name="debloat-serve-sweeper",
                daemon=True,
            )
            self._sweeper.start()

    # -- submission -----------------------------------------------------------

    def submit(self, spec: WorkloadSpec) -> AdmissionTicket:
        """Enqueue one admission; returns immediately with a ticket."""
        with self._state_lock:
            if self._closed:
                raise ServerClosedError("server is closed")
            ticket = AdmissionTicket(spec)
            started = time.perf_counter()
            self._submitted += 1
            self._pending[id(ticket)] = (ticket, started)
            self._queue.put((ticket, started))
        return ticket

    def admit(
        self, spec: WorkloadSpec, timeout: float | None = None
    ) -> AdmissionResult:
        """Submit and block until the admission completes."""
        return self.submit(spec).result(timeout)

    def admit_all(
        self, specs: list[WorkloadSpec], timeout: float | None = None
    ) -> list[AdmissionResult]:
        """Submit a batch and wait for all, preserving submission order."""
        tickets = [self.submit(spec) for spec in specs]
        return [t.result(timeout) for t in tickets]

    # -- readers --------------------------------------------------------------

    def snapshot(self) -> StoreSnapshot:
        return self.store.snapshot()

    def stats(self) -> dict[str, int]:
        """One *consistent* snapshot of the server counters.

        All server-side fields are read under ``_state_lock`` - workers
        bump them concurrently, and an unlocked read could see e.g. a
        ``served`` that already counts a ticket still present in
        ``in_flight`` (a torn view where served + failed + in_flight
        exceeds the submissions).  Two queue-depth fields with distinct
        meanings: ``queued`` counts tickets no worker has dequeued yet,
        ``in_flight`` counts every unresolved ticket (queued + being
        admitted right now).
        """
        store_stats = self.store.stats()
        with self._state_lock:
            return {
                **store_stats,
                "workers": len(self._threads),
                "queued": self._queue.qsize(),
                "in_flight": len(self._pending),
                "submitted": self._submitted,
                "served": self._served,
                "failed": self._failed,
                "retries": self._retries,
                "batches_merged": self._batches_merged,
                "sweeps_run": self._sweeps_run,
                "sweeps_evicted": self._sweeps_evicted,
                "sweeps_failed": self._sweeps_failed,
            }

    def health(self) -> dict:
        """Liveness + fault counters for the server and its target.

        ``state`` is ``ok`` (all workers alive), ``degraded`` (some worker
        died), or ``closed``.  When the target exposes its own ``health()``
        (a :class:`~repro.api.federation.StoreFederation`) it is included
        under ``target``; a bare store contributes its rollback counters
        under ``store``.
        """
        with self._state_lock:
            closed = self._closed
            queued = self._queue.qsize()
            in_flight = len(self._pending)
            served, failed, retries = self._served, self._failed, self._retries
            sweeps_run = self._sweeps_run
            sweeps_failed = self._sweeps_failed
        alive = sum(t.is_alive() for t in self._threads)
        if closed:
            state = "closed"
        elif alive == len(self._threads):
            state = "ok"
        else:
            state = "degraded"
        out: dict = {
            "state": state,
            "workers": len(self._threads),
            "workers_alive": alive,
            "queued": queued,
            "in_flight": in_flight,
            "served": served,
            "failed": failed,
            "retries": retries,
            "sweeper": {
                "configured": self._sweeper is not None,
                "alive": (
                    self._sweeper.is_alive()
                    if self._sweeper is not None
                    else False
                ),
                "runs": sweeps_run,
                "failed": sweeps_failed,
                "last_error": self.last_sweep_error,
            },
        }
        target_health = getattr(self.store, "health", None)
        if callable(target_health):
            out["target"] = target_health()
        else:
            stats = self.store.stats()
            out["store"] = {
                "rollbacks": stats.get("rollbacks", 0),
                "last_error": getattr(self.store, "last_error", None),
            }
        return out

    # -- lifecycle ------------------------------------------------------------

    def close(self, timeout: float | None = None) -> None:
        """Drain the queue, stop the workers, and reject new submissions.

        Never strands a waiter: after the workers are joined (or
        ``timeout`` expires while one is stuck), every still-unresolved
        ticket fails immediately with
        :class:`~repro.errors.ServerClosedError` - a pending ``result()``
        call returns right away instead of blocking out its own timeout.
        """
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            # Sentinels enqueue under the same lock as tickets, so every
            # submitted ticket precedes them and gets drained before the
            # workers exit.
            for _ in self._threads:
                self._queue.put(_SHUTDOWN)
        self._sweep_stop.set()
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        for t in self._threads:
            t.join(
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
        if self._sweeper is not None:
            self._sweeper.join(
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
        with self._state_lock:
            leftovers = [t for t, _ in self._pending.values()]
            self._pending.clear()
            for ticket in leftovers:
                won = ticket._resolve(
                    time.perf_counter(),
                    None,
                    ServerClosedError(
                        f"server closed with admission of "
                        f"{ticket.spec.workload_id} still pending"
                    ),
                )
                if won:
                    self._failed += 1

    def __enter__(self) -> "DebloatServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _sweep_loop(self, interval_s: float) -> None:
        """Periodic policy sweep against the federation target.

        Sweep failures (a racing explicit evict, a strict-verify error
        surfaced by a recompaction) must never kill the sweeper - the
        next tick retries against fresh state.
        """
        while not self._sweep_stop.wait(interval_s):
            try:
                faults.check("sweeper.tick")
                swept = self.store.sweep()
            except Exception as exc:  # noqa: BLE001 - sweeping is best-effort
                with self._state_lock:
                    self._sweeps_failed += 1
                self.last_sweep_error = f"{type(exc).__name__}: {exc}"
                continue
            with self._state_lock:
                self._sweeps_run += 1
                self._sweeps_evicted += len(swept)

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            batch = [item]
            while len(batch) < self.batch_max:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _SHUTDOWN:
                    # Hand the sentinel on: another worker (or this one's
                    # next loop turn) still has to see it.
                    self._queue.put(_SHUTDOWN)
                    break
                batch.append(extra)
            if len(batch) == 1:
                self._admit_one(*batch[0])
            else:
                self._admit_batch(batch)

    def _admit_one(self, ticket: AdmissionTicket, started: float) -> None:
        """One admission under the retry policy.

        Transient failures (injected faults, OS errors - the store rolled
        back, so re-admission is safe) retry with backoff; exhausting the
        budget resolves the ticket with a typed
        :class:`~repro.errors.AdmissionError`.  Permanent failures (usage
        or verification errors) resolve immediately without retrying.
        Shard recovery state is relayed to federation targets that track
        it (``mark_recovering`` / ``record_failure`` / ``record_success``).
        """
        spec = ticket.spec
        attempts = 1

        def attempt():
            faults.check("worker.pre_merge")
            return self.store.admit(spec, verify=self.verify)

        def note_retry(n: int, exc: BaseException) -> None:
            nonlocal attempts
            attempts = n + 1
            with self._state_lock:
                self._retries += 1
            mark = getattr(self.store, "mark_recovering", None)
            if callable(mark):
                mark(spec, exc)

        try:
            result = self.retry.call(
                attempt, token=spec.workload_id, on_retry=note_retry
            )
        except DEFAULT_RETRYABLE as exc:
            record = getattr(self.store, "record_failure", None)
            if callable(record):
                record(spec, exc)
            self._finish(
                ticket,
                started,
                None,
                AdmissionError(spec.workload_id, attempts, exc),
            )
        except BaseException as exc:  # noqa: BLE001 - relayed to caller
            self._finish(ticket, started, None, exc)
        else:
            record = getattr(self.store, "record_success", None)
            if callable(record):
                record(spec)
            self._finish(ticket, started, result, None)

    def _finish(
        self,
        ticket: AdmissionTicket,
        started: float,
        result: AdmissionResult | None,
        error: BaseException | None,
    ) -> None:
        # Resolve and count in one state-lock section: a waiter that wakes
        # from result() and reads stats() then sees its admission counted.
        # Lock order is state -> ticket (_resolve takes only the ticket's).
        with self._state_lock:
            won = ticket._resolve(started, result, error)
            self._pending.pop(id(ticket), None)
            if won:
                if error is None:
                    self._served += 1
                else:
                    self._failed += 1

    def _admit_batch(
        self, batch: list[tuple[AdmissionTicket, float]]
    ) -> None:
        """Drained-queue admission: one ``admit_many`` for the whole batch.

        Any batch-level failure falls back to per-spec admission so one
        bad request never fails its queue neighbours: ``admit_many``
        validates every spec before mutating anything (a malformed batch
        raises :class:`UsageError` with the store untouched), and a
        failure *after* the batch committed (e.g. a strict-verify
        :class:`VerificationError` for one spec) is safe to retry because
        re-admission is idempotent - the per-spec pass re-verifies each
        workload and errors only the ticket that actually failed.
        """
        try:
            results = self.store.admit_many(
                [ticket.spec for ticket, _ in batch], verify=self.verify
            )
        except Exception:  # noqa: BLE001 - per-spec retry assigns blame
            for ticket, started in batch:
                self._admit_one(ticket, started)
            return
        with self._state_lock:
            self._batches_merged += 1
        record = getattr(self.store, "record_success", None)
        for (ticket, started), result in zip(batch, results):
            if callable(record):
                record(ticket.spec)
            self._finish(ticket, started, result, None)
