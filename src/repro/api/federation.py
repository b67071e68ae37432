"""Federated multi-framework serving: N per-framework store shards.

A :class:`~repro.serving.store.DebloatStore` serves one framework build;
production traffic spans several (the paper's Table 1 alone covers four).
:class:`StoreFederation` hosts one store *shard* per framework - keyed by
the framework-build fingerprint - and routes every admission by its spec's
framework, creating shards on demand from the catalog.  On top of routing
it adds what a long-running service needs and a single store does not have:

* **last-served timestamps fed by request traffic** - every admission
  (fresh or duplicate) touches its workload's timestamp, so idleness is
  defined by what callers actually request, not by what the store holds;
* **policy-driven eviction** (:class:`~repro.api.config.EvictionPolicy`):
  :meth:`sweep` applies ttl/lru/pinned rules per shard, evicting through
  :meth:`DebloatStore.evict` - which rebuilds the union from the remaining
  admissions and re-compacts only the libraries that actually shrank;
* **federation-wide snapshots** - one immutable
  :class:`FederationSnapshot` pairing every shard's generation-numbered
  :class:`~repro.serving.store.StoreSnapshot` with its fingerprint and
  traffic state.

The federation exposes the same ``admit``/``admit_many``/``snapshot``/
``stats`` surface as a single store, so the queue-draining
:class:`~repro.serving.server.DebloatServer` fronts either interchangeably
(and batches spanning frameworks split per shard).

Every shard is an in-process :class:`~repro.serving.store.DebloatStore`.
:meth:`export_snapshot` / :meth:`import_snapshot` move whole federations
through the versioned on-disk image format
(:mod:`repro.serving.snapshot`): a fresh replica imports every shard's
committed epoch byte-identically, with zero workload runs.  Crash
recovery is the per-shard write-ahead log plus checkpoint snapshot
(:mod:`repro.serving.wal`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

from repro.api.config import EngineConfig
from repro.core.debloat import MultiWorkloadReport
from repro.errors import UsageError
from repro.frameworks.catalog import (
    build_key_for,
    framework_build_fingerprint,
    get_framework,
)
from repro.frameworks.spec import Framework
from repro.serving import snapshot as snapshots
from repro.serving.store import (
    AdmissionResult,
    DebloatStore,
    EvictionResult,
    StoreSnapshot,
)
from repro.storage.blockstore import BlockStore
from repro.storage.evictor import CostAwareEvictor, EvictionCandidate
from repro.workloads.spec import WorkloadSpec


@dataclass(frozen=True)
class SweptWorkload:
    """One workload a :meth:`StoreFederation.sweep` evicted."""

    framework: str
    workload_id: str
    #: Seconds since the workload was last served, at sweep time.
    idle_s: float
    #: Which policy rule evicted it: ``ttl``/``lru``/``unpinned``/``bytes``.
    reason: str
    result: EvictionResult


@dataclass(frozen=True)
class ShardSnapshot:
    """One shard's consistent view plus its traffic state."""

    framework: str
    #: Build fingerprint for catalog builds, None for hand-built shards.
    fingerprint: str | None
    store: StoreSnapshot
    #: workload id -> last-served clock reading (federation clock units).
    last_served: Mapping[str, float]
    pinned: tuple[str, ...]
    #: ``ok`` / ``recovering`` (a server worker is retrying against it;
    #: ``store`` may be the last-good epoch) / ``degraded`` (the last
    #: admission failed permanently).
    state: str = "ok"


@dataclass(frozen=True)
class FederationSnapshot:
    """An immutable view across every shard (taken under the routing lock)."""

    shards: Mapping[str, ShardSnapshot]

    @property
    def frameworks(self) -> tuple[str, ...]:
        return tuple(sorted(self.shards))

    @property
    def total_file_size(self) -> int:
        return sum(s.store.total_file_size for s in self.shards.values())

    @property
    def total_file_size_after(self) -> int:
        return sum(
            s.store.total_file_size_after for s in self.shards.values()
        )

    @property
    def workload_count(self) -> int:
        return sum(len(s.store.workload_ids) for s in self.shards.values())


class FederationShard:
    """One framework's store plus the federation's per-shard traffic state."""

    def __init__(
        self,
        framework: Framework,
        config: EngineConfig,
        cache=None,
        blockstore=None,
    ) -> None:
        self.framework = framework
        self.name = framework.name
        # Fingerprint of the build this shard ACTUALLY serves: derived
        # from the instance's own catalog generation key, never from the
        # engine config (ensure_shard may host a build - e.g. a
        # single-arch ablation - that differs from config.archs).
        build_key = build_key_for(framework)
        self.fingerprint = (
            framework_build_fingerprint(*build_key)
            if build_key is not None
            else None
        )
        self.store = DebloatStore(
            framework,
            config.options,
            use_cache=config.use_cache,
            cache=cache,
            blockstore=blockstore,
        )
        #: workload id -> last-served clock reading; the eviction policy's
        #: only input besides pins.
        self.last_served: dict[str, float] = {}
        self.pinned: set[str] = set()
        #: Rebuild-cost model for the byte-budget eviction mode: each
        #: workload's observed admission virtual time and the marginal
        #: growth of the shard's compacted union it caused.
        self.admit_cost_s: dict[str, float] = {}
        self.admit_bytes: dict[str, int] = {}
        self._union_after_seen = 0
        #: ``ok`` / ``recovering`` / ``degraded`` - see ShardSnapshot.
        self.state = "ok"
        self.consecutive_failures = 0
        self.retries = 0
        self.last_error: str | None = None
        #: The last successfully committed epoch; served for reads while
        #: the shard is mid-recovery (``degraded_modes.serve_last_good_reads``).
        self.last_good: StoreSnapshot = self.store.snapshot()

    def touch(self, workload_id: str, now: float, pinned: bool) -> None:
        self.last_served[workload_id] = now
        if pinned:
            self.pinned.add(workload_id)

    def forget(self, workload_id: str) -> None:
        self.last_served.pop(workload_id, None)
        self.pinned.discard(workload_id)
        self.admit_cost_s.pop(workload_id, None)
        self.admit_bytes.pop(workload_id, None)

    def note_admission(self, workload_id: str, result) -> None:
        """Record the byte-budget cost model's inputs for one admission.

        The admission's virtual pipeline time is the workload's rebuild
        cost (what evicting it would make a later re-admission pay), and
        the marginal growth of the shard's compacted union is its bytes
        estimate.  A duplicate admission grows nothing and keeps the
        original estimates.
        """
        after = int(result.union_file_size_after)
        grown = max(0, after - self._union_after_seen)
        self._union_after_seen = max(self._union_after_seen, after)
        if grown > 0 or workload_id not in self.admit_bytes:
            self.admit_bytes[workload_id] = max(1, grown)
        self.admit_cost_s[workload_id] = max(
            self.admit_cost_s.get(workload_id, 0.0),
            float(result.admit_virtual_s),
        )

    # -- recovery state (called under the federation's routing lock) ---------

    def note_retry(self, error: BaseException) -> None:
        self.state = "recovering"
        self.consecutive_failures += 1
        self.retries += 1
        self.last_error = f"{type(error).__name__}: {error}"

    def note_failure(self, error: BaseException) -> None:
        self.state = "degraded"
        self.consecutive_failures += 1
        self.last_error = f"{type(error).__name__}: {error}"

    def note_success(self) -> None:
        self.state = "ok"
        self.consecutive_failures = 0
        self.last_good = self.store.snapshot()


class StoreFederation:
    """Routes admissions across per-framework shards and applies eviction."""

    def __init__(
        self,
        config: EngineConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
        cache=None,
        durability=None,
    ) -> None:
        self.config = config or EngineConfig()
        self.policy = self.config.eviction
        self._clock = clock
        #: Pipeline-cache override threaded into every shard's store
        #: (None = the process-wide cache, resolved dynamically).
        self._cache = cache
        #: A :class:`~repro.serving.wal.DurabilityController`; when set,
        #: every created shard gets its write-ahead log attached
        #: so committed mutations are journaled from the first admission.
        self._durability = durability
        #: Guards shard creation and traffic bookkeeping; the expensive
        #: work (detection, delta compaction) runs under each store's own
        #: admission lock, never under this one.
        self._lock = threading.RLock()
        self._shards: dict[str, FederationShard] = {}
        self._stat_sweeps = 0
        self._stat_evicted = 0
        #: One content-addressed block store shared by every shard:
        #: byte-identical chunks admitted into different framework shards
        #: collapse to a single refcounted physical copy, and the
        #: byte-budget eviction mode sweeps against its physical size.
        self.blockstore = BlockStore()

    # -- shards ---------------------------------------------------------------

    def ensure_shard(self, framework: Framework) -> FederationShard:
        """Register (or fetch) the shard hosting ``framework``.

        The explicit-instance form exists for non-catalog builds (the
        ``debloat_many`` shim hands over whatever framework the caller
        constructed); :meth:`shard` creates catalog shards by name.
        """
        with self._lock:
            shard = self._shards.get(framework.name)
            if shard is None:
                shard = FederationShard(
                    framework, self.config, self._cache, self.blockstore
                )
                self._shards[framework.name] = shard
                if self._durability is not None:
                    self._durability.attach(shard)
            elif shard.framework is not framework:
                raise UsageError(
                    f"federation already hosts a different "
                    f"{framework.name!r} build"
                )
            return shard

    def shard(self, framework_name: str) -> FederationShard:
        """The shard serving ``framework_name``, built from the catalog."""
        with self._lock:
            existing = self._shards.get(framework_name)
            if existing is not None:
                return existing
        # Framework generation can be expensive; do it outside the lock.
        framework = get_framework(
            framework_name,
            scale=self.config.scale,
            archs=tuple(self.config.archs),
        )
        with self._lock:
            existing = self._shards.get(framework_name)
            if existing is not None:
                # A racing builder won.  Catalog generation is
                # deterministic, so the instances are equivalent builds -
                # keep the registered shard.
                return existing
            shard = FederationShard(
                framework, self.config, self._cache, self.blockstore
            )
            self._shards[framework_name] = shard
            if self._durability is not None:
                self._durability.attach(shard)
            return shard

    def shards(self) -> list[FederationShard]:
        """Every registered shard (checkpointing walks these)."""
        with self._lock:
            return list(self._shards.values())

    def warm_shard(self, framework_name: str) -> int:
        """Refresh traffic/recovery bookkeeping after an out-of-band install.

        Durability recovery installs store state directly (snapshot
        import + WAL replay); this brings the federation's view in line:
        recovered workloads enter the eviction clock as freshly served,
        the shard reads as ``ok``, and ``last_good`` is the recovered
        epoch.  Returns the shard's generation.
        """
        with self._lock:
            shard = self._shards[framework_name]
            snap = shard.store.snapshot()
            now = self._clock()
            for workload_id in snap.workload_ids:
                shard.touch(workload_id, now, False)
            shard.state = "ok"
            shard.consecutive_failures = 0
            shard.last_good = snap
            return snap.generation

    def frameworks(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._shards))

    # -- admission ------------------------------------------------------------

    def admit(
        self,
        spec: WorkloadSpec,
        verify: bool = False,
        pinned: bool = False,
    ) -> AdmissionResult:
        """Route one admission to its framework's shard and record traffic."""
        shard = self.shard(spec.framework)
        result = shard.store.admit(spec, verify=verify)
        with self._lock:
            shard.touch(spec.workload_id, self._clock(), pinned)
            shard.note_admission(spec.workload_id, result)
            shard.note_success()
        return result

    def admit_many(
        self, specs: list[WorkloadSpec], verify: bool = False
    ) -> list[AdmissionResult]:
        """Batch admission across shards, preserving input order.

        Specs are grouped by framework and each group drains through its
        shard's :meth:`DebloatStore.admit_many` (one union merge + one
        delta pass per grown library).  Groups validate upfront within
        their own shard; a malformed group raises with *that shard*
        untouched - callers that need all-or-nothing across shards (the
        server's drained batches) fall back to per-spec admission, which
        is safe because re-admission is idempotent.
        """
        if not specs:
            raise UsageError("admit_many needs at least one workload")
        groups: dict[str, list[int]] = {}
        for pos, spec in enumerate(specs):
            groups.setdefault(spec.framework, []).append(pos)
        results: list[AdmissionResult | None] = [None] * len(specs)
        for framework_name, positions in groups.items():
            shard = self.shard(framework_name)
            group_results = shard.store.admit_many(
                [specs[pos] for pos in positions], verify=verify
            )
            now = self._clock()
            with self._lock:
                for pos, result in zip(positions, group_results):
                    results[pos] = result
                    shard.touch(specs[pos].workload_id, now, False)
                    shard.note_admission(specs[pos].workload_id, result)
                shard.note_success()
        return results  # type: ignore[return-value]

    # -- recovery tracking ----------------------------------------------------
    # Duck-typed hooks the DebloatServer workers call on their target;
    # a shard that has not been created yet (the very first admission of a
    # framework failed before its shard registered) is simply skipped.

    def mark_recovering(self, spec: WorkloadSpec, error: BaseException) -> None:
        """A worker is retrying ``spec``'s admission after a transient error."""
        with self._lock:
            shard = self._shards.get(spec.framework)
            if shard is not None:
                shard.note_retry(error)

    def record_failure(self, spec: WorkloadSpec, error: BaseException) -> None:
        """``spec``'s admission failed permanently (retry budget exhausted)."""
        with self._lock:
            shard = self._shards.get(spec.framework)
            if shard is not None:
                shard.note_failure(error)

    def record_success(self, spec: WorkloadSpec) -> None:
        """``spec``'s admission committed; the shard is healthy again."""
        with self._lock:
            shard = self._shards.get(spec.framework)
            if shard is not None:
                shard.note_success()

    def touch(self, workload_id: str, framework: str | None = None) -> int:
        """Refresh last-served timestamps without admitting (read traffic)."""
        now = self._clock()
        touched = 0
        with self._lock:
            for shard in self._shards.values():
                if framework is not None and shard.name != framework:
                    continue
                if workload_id in shard.last_served:
                    shard.last_served[workload_id] = now
                    touched += 1
        return touched

    # -- eviction -------------------------------------------------------------

    def evict(
        self, workload_id: str, framework: str | None = None
    ) -> dict[str, EvictionResult]:
        """Evict a workload from every shard holding it (or one shard)."""
        with self._lock:
            shards = [
                shard
                for shard in self._shards.values()
                if framework is None or shard.name == framework
            ]
        results: dict[str, EvictionResult] = {}
        for shard in shards:
            if workload_id not in set(
                shard.store.snapshot().workload_ids
            ):
                continue
            try:
                results[shard.name] = shard.store.evict(workload_id)
            except UsageError:
                # Raced with the background sweeper (or another evictor):
                # the workload is gone, which is what this call wanted.
                continue
            with self._lock:
                shard.forget(workload_id)
                self._stat_evicted += 1
        if not results:
            held = sorted(
                {
                    wid
                    for shard in shards
                    for wid in shard.store.snapshot().workload_ids
                }
            )
            raise UsageError(
                f"{workload_id!r} is not admitted"
                + (f" in {framework!r}" if framework else "")
                + f"; held: {held}"
            )
        return results

    def sweep(self, now: float | None = None) -> list[SweptWorkload]:
        """Apply the eviction policy to every shard.

        Victim selection reads the traffic state under the routing lock;
        the evictions themselves (union rebuild + recompaction of shrunk
        libraries) run under each store's own admission lock.  A workload
        re-admitted between selection and eviction is still evicted - TTL
        serving is approximate by design, and a later request simply
        re-admits (cheaply, from recorded usage) what the sweep dropped.
        """
        if now is None:
            now = self._clock()
        if self.policy.mode == "bytes":
            return self._sweep_bytes(now)
        with self._lock:
            self._stat_sweeps += 1
            victims = [
                (shard, workload_id, idle, reason)
                for shard in self._shards.values()
                for workload_id, idle, reason in self._victims(shard, now)
            ]
        swept: list[SweptWorkload] = []
        for shard, workload_id, idle, reason in victims:
            try:
                result = shard.store.evict(workload_id)
            except UsageError:
                continue  # raced with an explicit evict; already gone
            with self._lock:
                shard.forget(workload_id)
                self._stat_evicted += 1
            swept.append(
                SweptWorkload(
                    framework=shard.name,
                    workload_id=workload_id,
                    idle_s=idle,
                    reason=reason,
                    result=result,
                )
            )
        return swept

    def _sweep_bytes(self, now: float) -> list[SweptWorkload]:
        """Byte-budget sweep: evict cheapest-rebuild-per-byte until it fits.

        Victim selection runs against the **shared block store's physical
        bytes** - what the federation actually occupies after dedupe - not
        the sum of logical shard sizes.  Each round picks the unpinned
        workload with the lowest tracked rebuild-cost-per-byte-freed
        (:class:`~repro.storage.evictor.CostAwareEvictor`), evicts it, and
        re-reads the physical size: shared blocks mean an eviction can
        free fewer bytes than estimated, so the loop measures instead of
        trusting the plan.
        """
        evictor = CostAwareEvictor(self.policy.budget_bytes)
        with self._lock:
            self._stat_sweeps += 1
        swept: list[SweptWorkload] = []
        while True:
            physical = self.blockstore.stats()["bytes_physical"]
            if not evictor.over_budget(physical):
                break
            with self._lock:
                candidates = []
                for shard in self._shards.values():
                    protected = shard.pinned | set(self.policy.pinned)
                    for wid, served in shard.last_served.items():
                        if wid in protected:
                            continue
                        candidates.append(
                            EvictionCandidate(
                                framework=shard.name,
                                workload_id=wid,
                                rebuild_cost_s=shard.admit_cost_s.get(
                                    wid, 0.0
                                ),
                                bytes_estimate=shard.admit_bytes.get(wid, 1),
                                idle_s=now - served,
                            )
                        )
            victim = evictor.pick(candidates)
            if victim is None:
                break
            with self._lock:
                shard = self._shards.get(victim.framework)
            if shard is None:
                break
            try:
                result = shard.store.evict(victim.workload_id)
            except UsageError:
                # Raced with an explicit evict; drop it from the traffic
                # state so the next round offers fresh candidates.
                with self._lock:
                    shard.forget(victim.workload_id)
                continue
            with self._lock:
                shard.forget(victim.workload_id)
                self._stat_evicted += 1
            swept.append(
                SweptWorkload(
                    framework=shard.name,
                    workload_id=victim.workload_id,
                    idle_s=victim.idle_s,
                    reason="bytes",
                    result=result,
                )
            )
        return swept

    def _victims(
        self, shard: FederationShard, now: float
    ) -> list[tuple[str, float, str]]:
        """(workload, idle seconds, reason) a sweep should evict, per policy."""
        policy = self.policy
        if not policy.enabled:
            return []
        protected = shard.pinned | set(policy.pinned)
        idle_of = {
            wid: now - served for wid, served in shard.last_served.items()
        }
        candidates = [
            wid for wid in shard.last_served if wid not in protected
        ]
        if policy.mode == "ttl":
            return [
                (wid, idle_of[wid], "ttl")
                for wid in candidates
                if idle_of[wid] > policy.ttl_s
            ]
        if policy.mode == "lru":
            excess = len(shard.last_served) - policy.max_workloads
            if excess <= 0:
                return []
            oldest = sorted(candidates, key=lambda wid: idle_of[wid],
                            reverse=True)
            return [(wid, idle_of[wid], "lru") for wid in oldest[:excess]]
        # "pinned": only explicitly pinned workloads survive.
        return [(wid, idle_of[wid], "unpinned") for wid in candidates]

    # -- readers --------------------------------------------------------------

    def snapshot(self) -> FederationSnapshot:
        """Every shard's consistent view (one immutable object).

        A shard that is mid-recovery (a worker retrying against it) serves
        its **last-good** committed epoch when
        ``degraded_modes.serve_last_good_reads`` is on - readers keep
        getting a consistent library set while the shard heals, they just
        may not see the admission that is being retried yet.
        """
        serve_last_good = self.config.degraded_modes.serve_last_good_reads
        with self._lock:
            return FederationSnapshot(
                shards=MappingProxyType(
                    {
                        name: ShardSnapshot(
                            framework=name,
                            fingerprint=shard.fingerprint,
                            store=(
                                shard.last_good
                                if serve_last_good
                                and shard.state == "recovering"
                                else shard.store.snapshot()
                            ),
                            last_served=MappingProxyType(
                                dict(shard.last_served)
                            ),
                            pinned=tuple(sorted(shard.pinned)),
                            state=shard.state,
                        )
                        for name, shard in self._shards.items()
                    }
                )
            )

    def health(self) -> dict:
        """Per-shard recovery state, retry/rollback counters, last errors."""
        with self._lock:
            shards = dict(self._shards)
        rows = {}
        for name, shard in shards.items():
            snap = shard.store.snapshot()
            rows[name] = {
                "state": shard.state,
                "generation": snap.generation,
                "workloads": len(snap.workload_ids),
                "consecutive_failures": shard.consecutive_failures,
                "retries": shard.retries,
                "rollbacks": shard.store.stats().get("rollbacks", 0),
                "last_error": shard.last_error,
            }
        states = {row["state"] for row in rows.values()}
        if "recovering" in states:
            state = "recovering"
        elif "degraded" in states:
            state = "degraded"
        else:
            state = "ok"
        return {"state": state, "shards": rows}

    def report(self, framework_name: str) -> MultiWorkloadReport:
        """One shard's ``debloat_many``-shaped union report."""
        with self._lock:
            shard = self._shards.get(framework_name)
        if shard is None:
            raise UsageError(
                f"federation has no {framework_name!r} shard; serving: "
                f"{sorted(self._shards)}"
            )
        return shard.store.report()

    # -- snapshots ------------------------------------------------------------

    def export_snapshot(self, directory: str) -> dict:
        """Write every shard's committed store image under ``directory``.

        Each shard's store serialises its full committed epoch (usage
        unions, per-library decisions, kernel-usage indexes, debloated
        extents) and :func:`~repro.serving.snapshot.write_snapshot` lays
        them down crash-safely with a manifest.  Returns the manifest.
        """
        with self._lock:
            shards = dict(self._shards)
        payloads = {
            name: shard.store.export_state()
            for name, shard in sorted(shards.items())
        }
        return snapshots.write_snapshot(directory, payloads)

    def import_snapshot(self, directory: str) -> dict[str, int]:
        """Warm every shard from the snapshot at ``directory``.

        Creates a shard per imaged framework and installs its store image
        verbatim - **zero** workload runs.  Imported workloads enter the
        eviction clock as freshly served.  Returns
        ``{framework: generation}``.
        """
        payloads = snapshots.load_snapshot(directory)
        generations: dict[str, int] = {}
        now = self._clock()
        for name in sorted(payloads):
            shard = self.shard(name)
            shard.store.import_state(payloads[name])
            snap = shard.store.snapshot()
            with self._lock:
                for workload_id in snap.workload_ids:
                    shard.touch(workload_id, now, False)
                shard.state = "ok"
                shard.consecutive_failures = 0
                shard.last_good = snap
            generations[name] = snap.generation
        return generations

    def stats(self) -> dict[str, int]:
        """Federation-wide counters (per-shard stores summed)."""
        with self._lock:
            shards = list(self._shards.values())
            sweeps, evicted = self._stat_sweeps, self._stat_evicted
        totals: dict[str, int] = {
            "shards": len(shards),
            "sweeps": sweeps,
            "evicted_workloads": evicted,
        }
        for shard in shards:
            for key, value in shard.store.stats().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def storage_stats(self) -> dict[str, int | float]:
        """The shared block store's gauges, ``storage_``-prefixed.

        These are the exact names the Prometheus ``/metrics`` route and
        ``engine.health()`` publish; ``storage_dedupe_ratio`` is a float
        (logical/physical, >= 1.0), everything else an integer byte or
        block count.
        """
        s = self.blockstore.stats()
        return {
            "storage_blocks_total": s["blocks_total"],
            "storage_bytes_physical": s["bytes_physical"],
            "storage_bytes_logical": s["bytes_logical"],
            "storage_dedupe_ratio": s["dedupe_ratio"],
            "storage_evicted_bytes_total": s["evicted_bytes_total"],
        }

    def storage_report(self) -> dict:
        """The ``inspect --blocks`` view: per-shard bytes + top blocks."""
        return {
            "stats": self.blockstore.stats(),
            "per_shard": self.blockstore.per_owner_stats(),
            "top_blocks": self.blockstore.top_blocks(10),
        }
