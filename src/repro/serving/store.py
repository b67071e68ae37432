"""Thread-safe shared debloated-library store with delta admission.

The paper's §5 discussion argues that usage saturates: code unused by one
workload is rarely needed by others, so the *union* of workload usage stops
growing after a handful of admissions.  ``Debloater.debloat_many`` proves
that statically but recomputes every library per call;
:class:`DebloatStore` makes it a serving primitive:

* the store holds the current union usage (kernel names + function indices
  per soname) and the debloated libraries built against it;
* :meth:`admit` runs detection for the *new* workload only, then
  re-locates/re-compacts **only the libraries whose union actually grew**
  (:meth:`~repro.core.locate.KernelLocator.locate_delta` reuses the
  previous decisions and the per-library cached
  :class:`~repro.core.kindex.KernelUsageIndex`); libraries with zero
  new kernels/functions are served from the store untouched;
* :meth:`admit_many` drains a *batch* of queued workloads into one union
  merge and a single delta locate/compact pass per grown library -
  byte-identical end state to sequential admission with far fewer
  recompactions (the server's queue-draining path);
* every successful mutation publishes a new immutable
  :class:`StoreSnapshot` (generation-numbered, copy-on-write library map),
  so concurrent readers always observe a consistent library set while
  admissions mutate;
* every mutation is **transactional**: the union merge, delta
  locate/compact, and bookkeeping run inside :meth:`_txn`, which commits
  (invariant check + snapshot publish) atomically or rolls the store back
  to the pre-mutation epoch on any exception - a failure mid-``admit``,
  mid-batch in ``admit_many``, or mid-eviction leaves no partially-merged
  union behind (see :class:`~repro.errors.StoreInvariantError`);
* delta compaction fans out over threads
  (``DebloatOptions.locate_workers``) while the union merge itself stays
  serialized under the admission lock; per-library locks additionally
  order any two compactions of the same library, keeping the fan-out safe
  for callers that move it outside the admission lock (e.g. future
  admission batching) - today's serialized merges never contend them;
* :meth:`evict` rebuilds the union from the remaining admissions and
  re-compacts only the libraries whose union shrank; :meth:`reset` clears
  everything;
* with ``use_cache=True`` admission detection routes through the two-tier
  pipeline cache (:mod:`repro.serving.usage`), so a warm store survives
  process restarts with zero workload runs.

Incremental admission is byte-identical to a one-shot union:
locate/compact is a pure function of (library, union sets, architecture),
and retention is monotone in the union, so admitting N workloads one at a
time ends in exactly the library bytes ``debloat_many`` produces for the
same N - which is why ``debloat_many`` is now a thin loop over
:meth:`admit`.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.core.compact import Compactor, DebloatedLibrary
from repro.core.cpu import FunctionLocator
from repro.core.debloat import DebloatOptions, MultiWorkloadReport
from repro.core.locate import KernelLocator, LocateResult
from repro.core.kindex import KernelUsageIndex, index_for
from repro.core.report import LibraryReduction
from repro.core.verify import VerificationResult, verify_debloat
from repro.cuda.clock import VirtualClock
from repro.cuda.costs import DEFAULT_COSTS
from repro.errors import StoreInvariantError, UsageError, VerificationError
from repro.frameworks.spec import Framework
from repro.serving.usage import WorkloadUsage, cached_usage, capture_usage
from repro.storage.blockstore import BlockStore
from repro.testing import faults
from repro.utils.units import pct_reduction
from repro.workloads.spec import WorkloadSpec

_EMPTY_INDICES = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class AdmissionResult:
    """What one :meth:`DebloatStore.admit` call did."""

    workload_id: str
    #: Store generation after this admission.
    generation: int
    #: Kernels this workload added to the union (the marginal-retention
    #: series the saturation experiment plots).
    new_kernels: int
    new_functions: int
    #: Libraries re-located/re-compacted because their union grew.
    recompacted: tuple[str, ...]
    #: Libraries served from the store untouched.
    untouched: tuple[str, ...]
    #: First-seen libraries (subset of ``recompacted``).
    added_libraries: tuple[str, ...]
    #: Union library sizes at this admission's epoch (captured under the
    #: admission lock, so they describe exactly this generation even when
    #: later admissions land before the caller reads the result).
    union_file_size: int
    union_file_size_after: int
    #: Virtual cost of the fused detection run for this workload.
    detection_run_s: float
    #: Virtual cost of the delta locate/compact work (0 when nothing grew).
    locate_compact_s: float
    #: The workload's usage was served from the pipeline cache (no run).
    detection_cached: bool
    #: This exact spec had been admitted before (idempotent re-admission).
    duplicate: bool
    verification: VerificationResult | None = None

    @property
    def admit_virtual_s(self) -> float:
        return self.detection_run_s + self.locate_compact_s


@dataclass(frozen=True)
class EvictionResult:
    """What one :meth:`DebloatStore.evict` call did."""

    workload_id: str
    generation: int
    removed_admissions: int
    #: Libraries re-compacted because their union shrank.
    recompacted: tuple[str, ...]
    #: Libraries dropped entirely (no remaining workload needs them).
    dropped_libraries: tuple[str, ...]


@dataclass(frozen=True)
class StoreSnapshot:
    """An immutable, internally consistent view of the store.

    Snapshots are copy-on-write: admissions build a new library map and
    publish a new snapshot atomically, so a reader holding generation N
    never observes generation N+1's libraries - the reader's set, counts,
    and reductions all describe the same epoch.
    """

    generation: int
    workload_ids: tuple[str, ...]
    libraries: Mapping[str, DebloatedLibrary]
    union_kernels: int
    union_functions: int
    #: Per-library reductions in catalog order (the report's row order).
    reductions: tuple[LibraryReduction, ...]

    @property
    def sonames(self) -> tuple[str, ...]:
        return tuple(r.soname for r in self.reductions)

    @property
    def total_file_size(self) -> int:
        return sum(r.file_size for r in self.reductions)

    @property
    def total_file_size_after(self) -> int:
        return sum(r.file_size_after for r in self.reductions)

    @property
    def file_reduction_pct(self) -> float:
        return pct_reduction(self.total_file_size, self.total_file_size_after)

    def library(self, soname: str) -> DebloatedLibrary:
        return self.libraries[soname]


class DebloatStore:
    """One debloated library set shared across admitted workloads."""

    def __init__(
        self,
        framework: Framework,
        options: DebloatOptions | None = None,
        use_cache: bool = False,
        cache=None,
        blockstore: BlockStore | None = None,
    ) -> None:
        self.framework = framework
        self.options = options or DebloatOptions()
        #: Explicit pipeline-cache override (the engine facade threads its
        #: own through); None = the process-wide PIPELINE_CACHE, resolved
        #: dynamically per use so reconfiguration/monkeypatching holds.
        self._cache_override = cache
        # Cached usage is keyed on (spec, scale, catalog-build fingerprint)
        # under the default cost model; a custom cost model changes run
        # metrics and a non-catalog build (e.g. a single-arch ablation
        # rebuild) would collide with the canonical build's entries - both
        # silently opt out of the cache rather than risk serving stale or
        # cross-build data.
        self._use_cache = (
            bool(use_cache)
            and self.options.costs is DEFAULT_COSTS
            and _is_catalog_build(framework)
        )
        # Generation key for the persisted kernel-index tier: cached
        # indexes are keyed on the framework-build fingerprint, so only
        # catalog builds (whose (name, scale, archs) a fingerprint can
        # describe) participate; the usage-cache guard implies that.
        self._index_key = (
            _catalog_build_key(framework) if self._use_cache else None
        )
        self._admission_lock = threading.RLock()
        # Guards only the per-library lock table (not the admission lock):
        # pool workers fetch their lock while the admitting thread holds
        # the admission lock across the fan-out, so the table needs its
        # own tiny guard to stay deadlock-free.
        self._locks_guard = threading.Lock()
        self._lib_locks: dict[str, threading.Lock] = {}
        self._generation = 0
        self._arch: int | None = None
        self._features: frozenset[str] = frozenset()
        self._union_kernels: dict[str, set[str]] = {}
        #: soname -> sorted-unique int64 used-function indices; kept as
        #: arrays so membership growth checks and union merges run at
        #: NumPy speed instead of Python set algebra.
        self._union_functions: dict[str, np.ndarray] = {}
        self._admitted: list[WorkloadSpec] = []
        self._usage: dict[WorkloadSpec, WorkloadUsage] = {}
        self._marginal_kernels: list[int] = []
        self._debloated: dict[str, DebloatedLibrary] = {}
        self._locates: dict[str, LocateResult] = {}
        self._kernel_locator = KernelLocator(self.options.costs)
        self._function_locator = FunctionLocator(self.options.costs)
        self._compactor = Compactor(self.options.costs)
        #: Content-addressed block layer backing every committed library's
        #: payload bytes (compacted + original).  A federation threads one
        #: shared store through all of its shards so cross-shard duplicates
        #: collapse to a single physical copy; a bare store gets a private
        #: one.  Mirrored at transaction commit (:meth:`_sync_blocks_locked`),
        #: so rollbacks never touch refcounts and WAL replay/snapshot import
        #: reconstruct them exactly by re-committing.
        self._blocks = blockstore if blockstore is not None else BlockStore()
        self._block_owner = self._blocks.new_owner(framework.name)
        #: soname -> committed DebloatedLibrary last mirrored into the block
        #: layer; rebind-on-write epochs make identity comparison an exact
        #: change detector.
        self._block_synced: dict[str, DebloatedLibrary] = {}
        self._snapshot = StoreSnapshot(
            generation=0,
            workload_ids=(),
            libraries=MappingProxyType({}),
            union_kernels=0,
            union_functions=0,
            reductions=(),
        )
        self._stat_admissions = 0
        self._stat_duplicates = 0
        self._stat_recompactions = 0
        self._stat_untouched_served = 0
        self._stat_usage_cache_hits = 0
        self._stat_rollbacks = 0
        self._stat_rollback_recompactions = 0
        #: ``"ExcType: message"`` of the last rolled-back mutation, or None.
        self.last_error: str | None = None
        #: Write-ahead log journaling committed mutations (durability off
        #: until :meth:`attach_wal`); append failures degrade durability,
        #: never the committed admission.
        self._wal = None
        self._stat_wal_failures = 0
        #: ``"ExcType: message"`` of the last failed WAL append, or None.
        self.last_wal_error: str | None = None

    # -- transactions ----------------------------------------------------------

    #: Counter attributes restored on rollback alongside the union state
    #: (``_stat_rollbacks`` is deliberately absent: a rolled-back mutation
    #: must still be *counted*).
    _TXN_COUNTERS = (
        "_stat_admissions",
        "_stat_duplicates",
        "_stat_recompactions",
        "_stat_untouched_served",
        "_stat_usage_cache_hits",
    )

    @contextmanager
    def _txn(self):
        """All-or-nothing mutation scope (admission lock must be held).

        The body stages union growth, delta locates, and recompactions
        against the live fields; on success the commit validates the
        epoch's invariants and publishes the new :class:`StoreSnapshot`.
        On *any* exception - including one raised mid-batch or by the
        invariant check itself - every mutable field (union sets, library
        map, admission ledger, counters, pinned architecture) is restored
        to the pre-transaction epoch before the exception propagates, and
        nothing is published: lock-free readers only ever observe the
        last committed snapshot.
        """
        state = self._capture_epoch_locked()
        try:
            yield
            self._validate_invariants_locked()
        except BaseException as exc:
            # Recompactions performed inside the aborted transaction are
            # discarded work; count them before the restore erases them.
            self._stat_rollback_recompactions += (
                self._stat_recompactions
                - state["counters"]["_stat_recompactions"]
            )
            self._restore_epoch_locked(state)
            self._stat_rollbacks += 1
            self.last_error = f"{type(exc).__name__}: {exc}"
            raise
        else:
            self._publish_snapshot()
            self._sync_blocks_locked()

    def _capture_epoch_locked(self) -> dict:
        return {
            "generation": self._generation,
            "arch": self._arch,
            "features": self._features,
            # Kernel sets are mutated in place by the merge; everything
            # else is rebind-on-write, so shallow container copies suffice.
            "union_kernels": {
                k: set(v) for k, v in self._union_kernels.items()
            },
            "union_functions": dict(self._union_functions),
            "admitted": list(self._admitted),
            "usage": dict(self._usage),
            "marginal_kernels": list(self._marginal_kernels),
            "debloated": dict(self._debloated),
            "locates": dict(self._locates),
            "counters": {
                name: getattr(self, name) for name in self._TXN_COUNTERS
            },
        }

    def _restore_epoch_locked(self, state: dict) -> None:
        self._generation = state["generation"]
        self._arch = state["arch"]
        self._features = state["features"]
        self._union_kernels = state["union_kernels"]
        self._union_functions = state["union_functions"]
        self._admitted = state["admitted"]
        self._usage = state["usage"]
        self._marginal_kernels = state["marginal_kernels"]
        self._debloated = state["debloated"]
        self._locates = state["locates"]
        for name, value in state["counters"].items():
            setattr(self, name, value)

    def _sync_blocks_locked(self) -> None:
        """Mirror the committed epoch into the content-addressed block layer.

        Diffs the committed library map against the last synced epoch by
        object identity, ingesting changed payloads *first* (unchanged
        pieces dedupe against live blocks, bumping refcounts) and releasing
        replaced manifests after - the copy-on-write ordering that keeps
        blocks shared between epochs from transiently hitting refcount
        zero.  Runs only on successful commits: a rolled-back transaction
        never reaches this hook, so rollback restores refcounts by simply
        never having changed them, and WAL replay / snapshot import
        reconstruct them exactly by re-committing through the ordinary
        mutators.
        """
        current = self._debloated
        previous = self._block_synced
        for soname, d in current.items():
            prev = previous.get(soname)
            if prev is d:
                continue
            # ingest() replaces copy-on-write: a delta recompaction
            # allocates only its changed blocks.
            self._blocks.ingest(
                self._block_owner, f"comp:{soname}", d.lib.data
            )
            if prev is None or prev.original is not d.original:
                self._blocks.ingest(
                    self._block_owner, f"orig:{soname}", d.original.data
                )
        for soname in previous:
            if soname not in current:
                self._blocks.release(self._block_owner, f"comp:{soname}")
                self._blocks.release(self._block_owner, f"orig:{soname}")
        self._block_synced = dict(current)

    def validate_invariants(self) -> None:
        """Check epoch consistency; raise :class:`StoreInvariantError`.

        Runs automatically at every transaction commit; public so tests
        and health probes can assert the live store is consistent.  The
        public form additionally cross-checks the block-layer mirror
        (committed libraries <-> registered manifests) and the block
        store's own refcount invariants; the commit-time form cannot,
        because it runs *before* the epoch is mirrored.
        """
        with self._admission_lock:
            self._validate_invariants_locked()
            self._validate_blocks_locked()

    def _validate_blocks_locked(self) -> None:
        problems: list[str] = []
        if set(self._block_synced) != set(self._debloated):
            problems.append(
                f"block mirror tracks {sorted(self._block_synced)}, "
                f"library map holds {sorted(self._debloated)}"
            )
        else:
            stale = [
                soname
                for soname, d in self._debloated.items()
                if self._block_synced[soname] is not d
            ]
            if stale:
                problems.append(
                    f"block mirror is stale for {sorted(stale)}"
                )
        expected = {
            f"{kind}:{soname}"
            for soname in self._block_synced
            for kind in ("comp", "orig")
        }
        registered = set(self._block_owner.manifests)
        if registered != expected:
            problems.append(
                f"registered manifests {sorted(registered ^ expected)} "
                f"disagree with the mirror"
            )
        if problems:
            raise StoreInvariantError("; ".join(problems))
        self._blocks.validate_invariants()

    # -- content-addressed block layer -----------------------------------------

    @property
    def blockstore(self) -> BlockStore:
        """The block layer backing this store (possibly federation-shared)."""
        return self._blocks

    def block_manifest(self, soname: str):
        """Committed compacted payload's block manifest, or None."""
        with self._admission_lock:
            return self._blocks.manifest_for(
                self._block_owner, f"comp:{soname}"
            )

    def block_view(self, soname: str):
        """``BlockRef``-backed read view over shared physical extents.

        Reads resolve through the block store's single physical copy of
        each chunk; ``None`` when the store does not hold ``soname``.
        """
        manifest = self.block_manifest(soname)
        return None if manifest is None else self._blocks.view(manifest)

    def _validate_invariants_locked(self) -> None:
        problems: list[str] = []
        if len(self._marginal_kernels) != len(self._admitted):
            problems.append(
                f"{len(self._admitted)} admissions but "
                f"{len(self._marginal_kernels)} marginal entries"
            )
        admitted = set(self._admitted)
        if admitted != set(self._usage):
            problems.append("admission ledger and usage map disagree")
        if self._admitted:
            if self._arch is None:
                problems.append("admissions present but no pinned arch")
            else:
                expected = {
                    lib.soname
                    for lib in self.framework.libraries_for(self._features)
                }
                if set(self._debloated) != expected:
                    problems.append(
                        f"library map holds {sorted(self._debloated)}, "
                        f"feature set implies {sorted(expected)}"
                    )
        elif self._debloated:
            problems.append("empty store still holds libraries")
        if not set(self._locates) <= set(self._debloated):
            problems.append("locate results for libraries not in the store")
        if problems:
            raise StoreInvariantError("; ".join(problems))

    # -- write-ahead logging ---------------------------------------------------

    @property
    def wal(self):
        """The attached :class:`~repro.serving.wal.WriteAheadLog`, or None."""
        return self._wal

    def attach_wal(self, wal) -> None:
        """Journal every committed mutation to ``wal`` from now on.

        Taken under the admission lock so the first journaled record
        cannot race an in-flight commit.  Recovery attaches the WAL only
        *after* replaying it, so replayed mutations are never re-appended.
        """
        with self._admission_lock:
            self._wal = wal

    def _wal_append_locked(self, op: str, args: dict) -> None:
        """Append one committed mutation record (admission lock held).

        Runs *after* the transaction published its snapshot, so the
        journal only ever describes committed state and record order
        equals commit order.  An append failure (disk full, injected
        ``wal.append`` fault) is counted and remembered but never undoes
        the commit: durability degrades, serving does not.
        """
        if self._wal is None:
            return
        record = dict(args)
        record["op"] = op
        record["generation"] = self._generation
        record["counters"] = {
            name: getattr(self, name) for name in self._TXN_COUNTERS
        }
        try:
            self._wal.append(record)
        except Exception as exc:
            self._stat_wal_failures += 1
            self.last_wal_error = f"{type(exc).__name__}: {exc}"

    def restore_counters(self, counters: dict) -> None:
        """Install journaled transactional counters (WAL replay only).

        Counters like ``usage_cache_hits`` are replay-variant (a replayed
        admission hits the cache where the original computed), so recovery
        installs the values recorded at the last committed mutation to
        make the recovered image byte-identical to the pre-crash one.
        """
        with self._admission_lock:
            for name in self._TXN_COUNTERS:
                if name in counters:
                    setattr(self, name, int(counters[name]))

    def export_durable(self) -> tuple[dict, int]:
        """``(export_state(), WAL watermark)`` as one atomic observation.

        Both are captured under the admission lock, so the returned
        sequence number is exactly the last record contributing to the
        image - the checkpoint writer stores it as the shard's
        ``wal_seq`` and recovery replays only records past it.
        """
        with self._admission_lock:
            seq = self._wal.last_seq if self._wal is not None else 0
            return self.export_state(), seq

    # -- admission ------------------------------------------------------------

    def admit(
        self, spec: WorkloadSpec, verify: bool = False
    ) -> AdmissionResult:
        """Admit one workload into the union, delta-compacting as needed.

        Detection (the expensive part) runs *outside* the admission lock,
        so concurrent admitters overlap their instrumented runs; only the
        union merge and the delta locate/compact serialize.  ``verify``
        re-runs the workload against the post-admission library set (union
        growth is monotone, so previously admitted workloads stay
        verified).  Raises :class:`UsageError` for a workload that targets
        another framework or device architecture.
        """
        self._validate(spec)
        with self._admission_lock:
            prior = self._usage.get(spec)
        if prior is not None:
            usage, detection_cached, duplicate = prior, True, True
        else:
            usage, detection_cached = self._capture(spec)
            duplicate = False

        with self._admission_lock:
            if self._arch is not None:
                # Authoritative re-check under the lock: two racing first
                # admissions may both have seen no pinned architecture.
                # Validation precedes the transaction - a malformed
                # request is a rejection, not a rollback.
                _check_spec(self.framework.name, self._arch, spec)
            duplicate = duplicate or spec in self._usage

            with self._txn():
                if detection_cached and not duplicate:
                    self._stat_usage_cache_hits += 1
                if self._arch is None:
                    self._arch = spec.devices()[0].sm_arch

                added_kernels, grown_fn, marginal, marginal_fn = (
                    self._merge_usage_locked(spec, usage)
                )

                libs = self.framework.libraries_for(self._features)
                to_process = [
                    lib
                    for lib in libs
                    if lib.soname not in self._debloated
                    or lib.soname in added_kernels
                    or lib.soname in grown_fn
                ]
                added_libs = tuple(
                    lib.soname
                    for lib in libs
                    if lib.soname not in self._debloated
                )
                processed = {p.soname for p in to_process}
                untouched = tuple(
                    lib.soname
                    for lib in libs
                    if lib.soname in self._debloated
                    and lib.soname not in processed
                )

                results = self._process(to_process, added_kernels)
                new_debloated = dict(self._debloated)
                locate_compact_s = 0.0
                for soname, gpu_res, d, elapsed in results:
                    new_debloated[soname] = d
                    self._locates[soname] = gpu_res
                    locate_compact_s += elapsed
                self._debloated = new_debloated

                self._admitted.append(spec)
                self._usage.setdefault(spec, usage)
                self._marginal_kernels.append(marginal)
                self._generation += 1
                self._stat_admissions += 1
                self._stat_duplicates += int(duplicate)
                self._stat_recompactions += len(to_process)
                self._stat_untouched_served += len(untouched)

            from repro.core import serialize

            self._wal_append_locked(
                "admit",
                {
                    "spec": serialize.spec_to_payload(spec),
                    "verify": bool(verify),
                },
            )
            snapshot_libs = self._debloated
            generation = self._generation
            union_file_size = self._snapshot.total_file_size
            union_file_size_after = self._snapshot.total_file_size_after

        verification = None
        if verify:
            verification = verify_debloat(
                spec,
                self.framework,
                snapshot_libs,
                usage.metrics,
                self.options.costs,
            )
            if self.options.strict_verify and not verification.ok:
                raise VerificationError(
                    f"{spec.workload_id}: {verification.error}"
                )

        return AdmissionResult(
            workload_id=spec.workload_id,
            generation=generation,
            new_kernels=marginal,
            new_functions=marginal_fn,
            recompacted=tuple(lib.soname for lib in to_process),
            untouched=untouched,
            added_libraries=added_libs,
            union_file_size=union_file_size,
            union_file_size_after=union_file_size_after,
            detection_run_s=usage.metrics.execution_time_s,
            locate_compact_s=locate_compact_s,
            detection_cached=detection_cached,
            duplicate=duplicate,
            verification=verification,
        )

    def _merge_usage_locked(
        self, spec: WorkloadSpec, usage: WorkloadUsage
    ) -> tuple[dict[str, frozenset[str]], set[str], int, int]:
        """Merge one workload's usage into the union (admission lock held).

        Returns ``(added_kernels, grown_fn, marginal_kernels,
        marginal_functions)``.  Function unions are sorted-unique int64
        arrays: growth detection is one ``np.setdiff1d`` probe and the
        merge one ``np.union1d`` - no Python set algebra on paper-scale
        index sets.
        """
        faults.check("store.merge")
        before = sum(len(v) for v in self._union_kernels.values())
        before_fn = sum(int(v.size) for v in self._union_functions.values())
        added_kernels: dict[str, frozenset[str]] = {}
        for soname, names in usage.kernels.items():
            new = names - self._union_kernels.get(soname, frozenset())
            if new:
                added_kernels[soname] = frozenset(new)
        grown_fn: set[str] = set()
        for soname, idx in usage.functions.items():
            have = self._union_functions.get(soname)
            if have is None:
                if idx.size:
                    grown_fn.add(soname)
            elif np.setdiff1d(idx, have).size:
                grown_fn.add(soname)

        for soname, new in added_kernels.items():
            self._union_kernels.setdefault(soname, set()).update(new)
        for soname, idx in usage.functions.items():
            have = self._union_functions.get(soname)
            self._union_functions[soname] = (
                np.union1d(have, idx)
                if have is not None
                else np.unique(np.asarray(idx, dtype=np.int64))
            )
        marginal = sum(len(v) for v in self._union_kernels.values()) - before
        marginal_fn = (
            sum(int(v.size) for v in self._union_functions.values())
            - before_fn
        )
        self._features = self._features | spec.features
        return added_kernels, grown_fn, marginal, marginal_fn

    def admit_many(
        self, specs: list[WorkloadSpec], verify: bool = False
    ) -> list[AdmissionResult]:
        """Admit a batch of queued workloads in ONE delta pass per library.

        Sequential :meth:`admit` calls re-locate/re-compact a library once
        per admission that grows it; a drained queue of N workloads can
        touch the same hot library N times.  ``admit_many`` merges every
        workload's usage into the union first - computing the same
        per-spec marginals a sequential admission would - and then runs a
        *single* delta locate/compact over the union of grown libraries.
        Retention is monotone in the union, so the end state is
        byte-identical to admitting the specs one at a time; only the
        number of recompactions shrinks.

        Bookkeeping mirrors sequential admission: the generation advances
        once per spec, each result's ``recompacted`` lists the libraries
        *that spec* grew, and the one batched pass's per-library cost is
        attributed to the first spec that grew each library.  All specs
        are validated against the store (and each other) before anything
        is mutated, so a malformed batch raises :class:`UsageError` with
        the store untouched.
        """
        if not specs:
            raise UsageError("admit_many needs at least one workload")
        with self._admission_lock:
            pinned = self._arch
        arch = (
            pinned if pinned is not None else specs[0].devices()[0].sm_arch
        )
        for spec in specs:
            _check_spec(self.framework.name, arch, spec)

        captures: list[tuple[WorkloadUsage, bool, bool]] = []
        batch_seen: dict[WorkloadSpec, WorkloadUsage] = {}
        for spec in specs:
            with self._admission_lock:
                prior = self._usage.get(spec)
            if prior is None:
                # A spec queued twice in one batch captures once, exactly
                # like sequential admission reuses the first admission's
                # recorded usage.
                prior = batch_seen.get(spec)
            if prior is not None:
                captures.append((prior, True, True))
            else:
                usage, cached = self._capture(spec)
                batch_seen[spec] = usage
                captures.append((usage, cached, False))

        results: list[AdmissionResult] = []
        with self._admission_lock:
            if self._arch is not None:
                # Re-validate under the lock (a racing admission may have
                # pinned a conflicting architecture) before any mutation.
                for spec in specs:
                    _check_spec(self.framework.name, self._arch, spec)
            pending, cost_of = self._admit_many_locked(specs, captures)
            from repro.core import serialize

            self._wal_append_locked(
                "admit_many",
                {
                    "specs": [
                        serialize.spec_to_payload(s) for s in specs
                    ],
                    "verify": bool(verify),
                },
            )
            generation = self._generation
            union_file_size = self._snapshot.total_file_size
            union_file_size_after = self._snapshot.total_file_size_after
            snapshot_libs = self._debloated

        for pos, item in enumerate(pending):
            verification = None
            if verify:
                verification = verify_debloat(
                    item["spec"],
                    self.framework,
                    snapshot_libs,
                    item["usage"].metrics,
                    self.options.costs,
                )
                if self.options.strict_verify and not verification.ok:
                    raise VerificationError(
                        f"{item['spec'].workload_id}: {verification.error}"
                    )
            results.append(
                AdmissionResult(
                    workload_id=item["spec"].workload_id,
                    generation=generation - len(specs) + pos + 1,
                    new_kernels=item["marginal"],
                    new_functions=item["marginal_fn"],
                    recompacted=item["recompacted"],
                    untouched=item["untouched"],
                    added_libraries=item["added_libraries"],
                    union_file_size=union_file_size,
                    union_file_size_after=union_file_size_after,
                    detection_run_s=item["usage"].metrics.execution_time_s,
                    locate_compact_s=cost_of[pos],
                    detection_cached=item["cached"],
                    duplicate=item["duplicate"],
                    verification=verification,
                )
            )
        return results

    def _admit_many_locked(
        self,
        specs: list[WorkloadSpec],
        captures: list[tuple[WorkloadUsage, bool, bool]],
    ) -> tuple[list[dict], list[float]]:
        """The transactional body of :meth:`admit_many` (lock held).

        Any exception - a merge fault on the third spec, a compaction
        failure in the single batched pass - rolls the *whole batch* back:
        the store ends at the pre-batch epoch, exactly as if ``admit_many``
        was never called.  Returns the per-spec bookkeeping ``pending``
        dicts and the per-spec attributed locate/compact costs.
        """
        with self._txn():
            if self._arch is None:
                self._arch = specs[0].devices()[0].sm_arch
            for spec in specs:
                _check_spec(self.framework.name, self._arch, spec)

            batch_added: dict[str, frozenset[str]] = {}
            first_grower: dict[str, int] = {}
            pending: list[dict] = []
            for pos, (spec, (usage, cached, known)) in enumerate(
                zip(specs, captures)
            ):
                duplicate = known or spec in self._usage
                if cached and not duplicate:
                    self._stat_usage_cache_hits += 1
                added_kernels, grown_fn, marginal, marginal_fn = (
                    self._merge_usage_locked(spec, usage)
                )
                for soname, new in added_kernels.items():
                    batch_added[soname] = (
                        batch_added.get(soname, frozenset()) | new
                    )
                libs = self.framework.libraries_for(self._features)
                grown = {
                    lib.soname
                    for lib in libs
                    if lib.soname not in self._debloated
                    and lib.soname not in first_grower
                    or lib.soname in added_kernels
                    or lib.soname in grown_fn
                }
                added_libs = tuple(
                    lib.soname
                    for lib in libs
                    if lib.soname not in self._debloated
                    and lib.soname not in first_grower
                )
                for soname in grown | set(added_libs):
                    first_grower.setdefault(soname, pos)
                untouched = tuple(
                    lib.soname
                    for lib in libs
                    if lib.soname not in grown
                    and (
                        lib.soname in self._debloated
                        or lib.soname in first_grower
                    )
                )
                pending.append(
                    {
                        "spec": spec,
                        "usage": usage,
                        "cached": cached,
                        "duplicate": duplicate,
                        "marginal": marginal,
                        "marginal_fn": marginal_fn,
                        "recompacted": tuple(sorted(grown)),
                        "untouched": untouched,
                        "added_libraries": added_libs,
                    }
                )
                self._admitted.append(spec)
                self._usage.setdefault(spec, usage)
                self._marginal_kernels.append(marginal)
                self._generation += 1
                self._stat_admissions += 1
                self._stat_duplicates += int(duplicate)
                self._stat_untouched_served += len(untouched)

            libs = self.framework.libraries_for(self._features)
            to_process = [
                lib for lib in libs if lib.soname in first_grower
            ]
            processed = self._process(to_process, batch_added)
            per_lib_cost: dict[str, float] = {}
            new_debloated = dict(self._debloated)
            for soname, gpu_res, d, elapsed in processed:
                new_debloated[soname] = d
                self._locates[soname] = gpu_res
                per_lib_cost[soname] = elapsed
            self._debloated = new_debloated
            self._stat_recompactions += len(to_process)

            cost_of: list[float] = [0.0] * len(specs)
            for soname, pos in first_grower.items():
                cost_of[pos] += per_lib_cost.get(soname, 0.0)
        return pending, cost_of

    # -- delta locate/compact -------------------------------------------------

    def _process(
        self,
        libs: list,
        added_kernels: dict[str, frozenset[str]],
    ) -> list[tuple[str, LocateResult | None, DebloatedLibrary, float]]:
        """Locate + compact the grown libraries, optionally in parallel.

        Each library is charged to a private clock, so the fan-out is
        deterministic and the per-library results are identical whether
        the loop runs serial or threaded.  The per-library lock is
        uncontended under today's admission-lock-serialized merges; it
        exists so two compactions of one library stay ordered if a caller
        ever runs ``_process`` outside the admission lock.

        A pass that dies partway discards every compaction it already
        finished (the enclosing transaction rolls back); those are counted
        in ``rollback_recompactions`` - the cost a retry re-pays, and the
        number the rollback-vs-rebuild benchmark compares against a full
        union rebuild.
        """
        completed: list[str] = []

        def process_one(lib) -> tuple:
            faults.check("store.process")
            with self._lib_lock(lib.soname):
                clock = VirtualClock()
                index = self._lib_index(lib)
                prev = self._locates.get(lib.soname)
                if prev is not None and prev.element_count:
                    gpu_res = self._kernel_locator.locate_delta(
                        lib,
                        prev,
                        added_kernels.get(lib.soname, frozenset()),
                        clock=clock,
                        index=index,
                    )
                else:
                    gpu_res = self._kernel_locator.locate(
                        lib,
                        frozenset(self._union_kernels.get(lib.soname, ())),
                        self._arch,
                        clock=clock,
                        index=index,
                    )
                used = self._union_functions.get(lib.soname)
                used_arr = used if used is not None else _EMPTY_INDICES
                cpu_res = self._function_locator.locate(
                    lib, used_arr, clock=clock
                )
                d = self._compactor.compact(lib, cpu_res, gpu_res, clock=clock)
                completed.append(lib.soname)
                return lib.soname, gpu_res, d, clock.now

        workers = self.options.locate_workers
        try:
            if workers and workers > 1 and len(libs) > 1:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    return list(pool.map(process_one, libs))
            return [process_one(lib) for lib in libs]
        except BaseException:
            self._stat_rollback_recompactions += len(completed)
            raise

    def _lib_lock(self, soname: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._lib_locks.get(soname)
            if lock is None:
                lock = self._lib_locks[soname] = threading.Lock()
            return lock

    def _lib_index(self, lib) -> KernelUsageIndex | None:
        """The library's cached :class:`KernelUsageIndex`.

        The in-process cache (which replaced the store's raw cubin cache)
        lives on the :class:`SharedLibrary` instance itself via
        :func:`index_for`: one fatbin walk per library for the library's
        lifetime, shared by every admission's locate/locate_delta,
        eviction recompactions, and any other pipeline touching the same
        framework build.  Cache-backed catalog stores additionally route
        through the pipeline cache's persisted index tier
        (:meth:`~repro.experiments.common.PipelineCache.library_index`),
        so a warm engine skips even the one-time fatbin walk.
        """
        if lib.fatbin is None:
            return None
        if self._index_key is not None:
            name, scale, archs = self._index_key
            return self._pipeline_cache().library_index(
                lib, name, scale, archs
            )[0]
        return index_for(lib)

    def _pipeline_cache(self):
        if self._cache_override is not None:
            return self._cache_override
        from repro.experiments.common import PIPELINE_CACHE

        return PIPELINE_CACHE

    def _capture(self, spec: WorkloadSpec) -> tuple[WorkloadUsage, bool]:
        if self._use_cache:
            return cached_usage(
                spec, self.framework, cache=self._pipeline_cache()
            )
        return capture_usage(spec, self.framework, self.options.costs), False

    def _validate(self, spec: WorkloadSpec) -> None:
        _check_spec(self.framework.name, self._arch, spec)

    # -- readers --------------------------------------------------------------

    def snapshot(self) -> StoreSnapshot:
        """The current consistent view (lock-free atomic reference read)."""
        return self._snapshot

    @property
    def generation(self) -> int:
        return self._snapshot.generation

    def debloated_libraries(self) -> dict[str, DebloatedLibrary]:
        """The current library map (a copy; entries are immutable)."""
        return dict(self._snapshot.libraries)

    def admitted_specs(self) -> tuple[WorkloadSpec, ...]:
        """The admission ledger in admission order (duplicates included)."""
        with self._admission_lock:
            return tuple(self._admitted)

    def _publish_snapshot(self) -> None:
        reductions: tuple[LibraryReduction, ...] = ()
        if self._admitted:
            reductions = tuple(
                LibraryReduction.from_debloated(
                    lib, self._debloated[lib.soname]
                )
                for lib in self.framework.libraries_for(self._features)
            )
        self._snapshot = StoreSnapshot(
            generation=self._generation,
            workload_ids=tuple(s.workload_id for s in self._admitted),
            libraries=MappingProxyType(self._debloated),
            union_kernels=sum(
                len(v) for v in self._union_kernels.values()
            ),
            union_functions=sum(
                int(v.size) for v in self._union_functions.values()
            ),
            reductions=reductions,
        )

    # -- reporting ------------------------------------------------------------

    def report(
        self, verify: bool | None = None, strict: bool | None = None
    ) -> MultiWorkloadReport:
        """The ``debloat_many``-shaped report for everything admitted.

        Verification re-runs every admitted workload against the *final*
        library set (the seed ``debloat_many`` semantics, so the refactored
        thin loop stays byte-identical to the one-shot union).
        """
        with self._admission_lock:
            if not self._admitted:
                raise UsageError("store has no admitted workloads")
            specs = list(self._admitted)
            debloated = self._debloated
            usages = dict(self._usage)
            reductions = list(self._snapshot.reductions)
            marginal = list(self._marginal_kernels)
        if verify is None:
            verify = self.options.verify
        if strict is None:
            strict = self.options.strict_verify
        verifications: list[VerificationResult] = []
        if verify:
            for spec in specs:
                result = verify_debloat(
                    spec,
                    self.framework,
                    debloated,
                    usages[spec].metrics,
                    self.options.costs,
                )
                verifications.append(result)
                if strict and not result.ok:
                    raise VerificationError(
                        f"{spec.workload_id}: {result.error}"
                    )
        return MultiWorkloadReport(
            workload_ids=[spec.workload_id for spec in specs],
            libraries=reductions,
            verifications=verifications,
            marginal_new_kernels=marginal,
        )

    # -- snapshot export / import ---------------------------------------------

    def export_state(self) -> dict:
        """One consistent image of the committed epoch (a payload tree).

        Captured under the admission lock, so the image describes exactly
        one generation: usage unions, the admission ledger with per-spec
        recorded usage, per-library locate decisions, the debloated
        libraries' extents + compacted bytes, the cached kernel-usage
        indexes, and the transactional counters.  The tree is
        ``payload_dumps``-ready (kind
        :data:`~repro.core.serialize.STORE_KIND`); equal epochs export
        byte-identical containers.
        """
        from repro.core import serialize
        from repro.core.kindex import cached_index, index_to_payload
        from repro.frameworks.catalog import (
            build_key_for,
            framework_build_fingerprint,
        )
        from repro.serving.usage import usage_to_payload

        with self._admission_lock:
            build_key = build_key_for(self.framework)
            kindexes = {}
            for soname in sorted(self._debloated):
                index = cached_index(self.framework.libraries[soname])
                if index is not None:
                    kindexes[soname] = index_to_payload(index)
            return {
                "schema": serialize.SCHEMA_VERSION,
                "kind": serialize.STORE_KIND,
                "framework": self.framework.name,
                "build": (
                    None
                    if build_key is None
                    else {
                        "name": build_key[0],
                        "scale": build_key[1],
                        "archs": list(build_key[2]),
                    }
                ),
                "fingerprint": (
                    framework_build_fingerprint(*build_key)
                    if build_key is not None
                    else None
                ),
                "generation": self._generation,
                "arch": self._arch,
                "features": sorted(self._features),
                "union_kernels": {
                    soname: sorted(names)
                    for soname, names in sorted(self._union_kernels.items())
                },
                "union_functions": {
                    soname: np.asarray(idx, dtype=np.int64)
                    for soname, idx in sorted(self._union_functions.items())
                },
                "admissions": [
                    serialize.spec_to_payload(s) for s in self._admitted
                ],
                "usage": [
                    {
                        "spec": serialize.spec_to_payload(spec),
                        "usage": usage_to_payload(usage),
                    }
                    for spec, usage in self._usage.items()
                ],
                "marginal_kernels": [
                    int(n) for n in self._marginal_kernels
                ],
                "locates": {
                    soname: serialize.locate_to_payload(res)
                    for soname, res in sorted(self._locates.items())
                },
                "debloated": {
                    soname: serialize.debloated_to_payload(d)
                    for soname, d in sorted(self._debloated.items())
                },
                "kindexes": kindexes,
                "counters": {
                    name: getattr(self, name)
                    for name in self._TXN_COUNTERS
                },
            }

    def import_state(self, payload: dict) -> None:
        """Replace this store's state with an exported image, wholesale.

        The image must describe the same framework build (name always;
        fingerprint too when both sides have one) - the debloated bytes
        are reattached to *this* instance's original libraries, which is
        only sound against an identical build.  Decoding happens entirely
        before the transactional install, so a malformed image raises
        :class:`~repro.errors.SnapshotError` (schema skew:
        :class:`~repro.errors.SnapshotSchemaError`) with the store
        untouched.  Importing runs **zero** workloads: usage, decisions,
        and library bytes all come from the image, and the shipped
        kernel-usage indexes are re-attached so even the one-time fatbin
        walk is skipped.
        """
        from repro.core import serialize
        from repro.core.kindex import (
            cached_index,
            index_from_payload,
            index_matches_library,
            remember_index,
        )
        from repro.errors import SnapshotError
        from repro.frameworks.catalog import (
            build_key_for,
            framework_build_fingerprint,
        )
        from repro.serving.usage import usage_from_payload

        serialize._check_store_payload(payload)
        if payload.get("framework") != self.framework.name:
            raise SnapshotError(
                f"store image is for {payload.get('framework')!r}, this "
                f"store serves {self.framework.name!r}"
            )
        build_key = build_key_for(self.framework)
        ours = (
            framework_build_fingerprint(*build_key)
            if build_key is not None
            else None
        )
        theirs = payload.get("fingerprint")
        if ours is not None and theirs is not None and ours != theirs:
            raise SnapshotError(
                f"store image fingerprint {theirs} != this build's {ours}"
            )
        try:
            arch = payload["arch"]
            features = frozenset(payload["features"])
            union_kernels = {
                soname: set(names)
                for soname, names in payload["union_kernels"].items()
            }
            union_functions = {
                soname: np.asarray(idx, dtype=np.int64)
                for soname, idx in payload["union_functions"].items()
            }
            admitted = [
                serialize.spec_from_payload(p)
                for p in payload["admissions"]
            ]
            usage = {
                serialize.spec_from_payload(entry["spec"]):
                    usage_from_payload(entry["usage"])
                for entry in payload["usage"]
            }
            marginal = [int(n) for n in payload["marginal_kernels"]]
            locates = {
                soname: serialize.locate_from_payload(p)
                for soname, p in payload["locates"].items()
            }
            debloated: dict[str, DebloatedLibrary] = {}
            for soname, p in payload["debloated"].items():
                original = self.framework.libraries.get(soname)
                if original is None:
                    raise SnapshotError(
                        f"store image holds {soname!r}, which this build "
                        f"does not provide"
                    )
                debloated[soname] = serialize.debloated_from_payload(
                    p, original
                )
            indexes = {
                soname: index_from_payload(p)
                for soname, p in payload.get("kindexes", {}).items()
            }
            generation = int(payload["generation"])
            counters = {
                name: int(value)
                for name, value in payload.get("counters", {}).items()
                if name in self._TXN_COUNTERS
            }
        except SnapshotError:
            raise
        except Exception as exc:
            raise SnapshotError(
                f"malformed store image: {exc}"
            ) from exc

        for soname, index in indexes.items():
            lib = self.framework.libraries.get(soname)
            if (
                lib is not None
                and cached_index(lib) is None
                and index_matches_library(index, lib)
            ):
                remember_index(lib, index)

        with self._admission_lock:
            with self._txn():
                self._arch = None if arch is None else int(arch)
                self._features = features
                self._union_kernels = union_kernels
                self._union_functions = union_functions
                self._admitted = admitted
                self._usage = usage
                self._marginal_kernels = marginal
                self._locates = locates
                self._debloated = debloated
                self._generation = generation
                for name in self._TXN_COUNTERS:
                    setattr(self, name, counters.get(name, 0))
            # A wholesale install supersedes the journaled history: the
            # imported image itself becomes the journal's new baseline, so
            # a crash right after an import still recovers this state.
            self._wal_append_locked("import", {"state": payload})

    # -- eviction / reset -----------------------------------------------------

    def evict(self, workload_id: str) -> EvictionResult:
        """Remove every admission of ``workload_id`` and shrink the union.

        The union is rebuilt from the remaining admissions' recorded usage
        (no workload re-runs); only libraries whose union actually shrank
        are re-compacted, and libraries no remaining workload needs are
        dropped from the store.
        """
        with self._admission_lock:
            result = self._evict_locked(workload_id)
            self._wal_append_locked("evict", {"workload_id": workload_id})
            return result

    def _evict_locked(self, workload_id: str) -> EvictionResult:
        """The transactional body of :meth:`evict` (lock held; reentrant)."""
        with self._admission_lock:
            keep = [s for s in self._admitted if s.workload_id != workload_id]
            removed = len(self._admitted) - len(keep)
            if removed == 0:
                raise UsageError(
                    f"{workload_id!r} is not admitted; held: "
                    f"{sorted({s.workload_id for s in self._admitted})}"
                )
            kept_specs = {s for s in keep}
            with self._txn():
                self._usage = {
                    s: u for s, u in self._usage.items() if s in kept_specs
                }
                old_kernels = self._union_kernels
                old_functions = self._union_functions
                self._union_kernels = {}
                self._union_functions = {}
                self._marginal_kernels = []
                for spec in keep:
                    usage = self._usage[spec]
                    before = sum(
                        len(v) for v in self._union_kernels.values()
                    )
                    for soname, names in usage.kernels.items():
                        self._union_kernels.setdefault(
                            soname, set()
                        ).update(names)
                    for soname, idx in usage.functions.items():
                        have = self._union_functions.get(soname)
                        self._union_functions[soname] = (
                            np.union1d(have, idx)
                            if have is not None
                            else np.unique(np.asarray(idx, dtype=np.int64))
                        )
                    self._marginal_kernels.append(
                        sum(len(v) for v in self._union_kernels.values())
                        - before
                    )
                self._admitted = keep
                if not keep:
                    # Last admission gone: the store is empty, not "serving
                    # the zero-feature library set".
                    dropped = tuple(self._debloated)
                    self._arch = None
                    self._features = frozenset()
                    self._debloated = {}
                    self._locates = {}
                    self._generation += 1
                    return EvictionResult(
                        workload_id=workload_id,
                        generation=self._generation,
                        removed_admissions=removed,
                        recompacted=(),
                        dropped_libraries=dropped,
                    )
                self._features = frozenset().union(
                    *(s.features for s in keep)
                )

                libs = self.framework.libraries_for(self._features)
                keep_sonames = {lib.soname for lib in libs}
                dropped = tuple(
                    soname
                    for soname in self._debloated
                    if soname not in keep_sonames
                )
                shrunk = [
                    lib
                    for lib in libs
                    if self._union_kernels.get(lib.soname, set())
                    != old_kernels.get(lib.soname, set())
                    or not _fn_union_equal(
                        self._union_functions.get(lib.soname),
                        old_functions.get(lib.soname),
                    )
                ]
                # Shrunk unions invalidate the delta path's monotonicity
                # premise: drop the previous locate results so _process
                # takes the full locate path for them.
                for lib in shrunk:
                    self._locates.pop(lib.soname, None)
                results = self._process(shrunk, {})
                new_debloated = {
                    soname: d
                    for soname, d in self._debloated.items()
                    if soname in keep_sonames
                }
                for soname, gpu_res, d, _elapsed in results:
                    new_debloated[soname] = d
                    self._locates[soname] = gpu_res
                for soname in dropped:
                    self._locates.pop(soname, None)
                self._debloated = new_debloated
                self._generation += 1
                self._stat_recompactions += len(shrunk)
                return EvictionResult(
                    workload_id=workload_id,
                    generation=self._generation,
                    removed_admissions=removed,
                    recompacted=tuple(lib.soname for lib in shrunk),
                    dropped_libraries=dropped,
                )

    def reset(self) -> None:
        """Forget every admission and library; the generation still advances."""
        with self._admission_lock:
            with self._txn():
                self._arch = None
                self._features = frozenset()
                self._union_kernels = {}
                self._union_functions = {}
                self._admitted = []
                self._usage = {}
                self._marginal_kernels = []
                self._debloated = {}
                self._locates = {}
                self._generation += 1
            self._wal_append_locked("reset", {})

    # -- stats ----------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        snap = self._snapshot
        out = {
            "generation": snap.generation,
            "admissions": self._stat_admissions,
            "duplicates": self._stat_duplicates,
            "libraries": len(snap.reductions),
            "union_kernels": snap.union_kernels,
            "union_functions": snap.union_functions,
            "recompactions": self._stat_recompactions,
            "untouched_served": self._stat_untouched_served,
            "usage_cache_hits": self._stat_usage_cache_hits,
            "rollbacks": self._stat_rollbacks,
            "rollback_recompactions": self._stat_rollback_recompactions,
        }
        wal = self._wal
        if wal is not None:
            out["wal_appended"] = wal.appended
            out["wal_records"] = wal.records_on_disk
            out["wal_failures"] = self._stat_wal_failures
        return out


def _fn_union_equal(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    """Equality of two sorted-unique function unions (None == empty)."""
    a = a if a is not None else _EMPTY_INDICES
    b = b if b is not None else _EMPTY_INDICES
    return np.array_equal(a, b)


def _is_catalog_build(framework: Framework) -> bool:
    """True iff ``framework`` is the canonical default-archs catalog build.

    A memo-table identity peek (never generates anything): custom specs,
    ablation arch lists, and instances orphaned by a catalog-cache clear
    all fail, and the store runs uncached for them.
    """
    from repro.frameworks.catalog import is_canonical_build

    return is_canonical_build(framework)


def _catalog_build_key(
    framework: Framework,
) -> tuple[str, float, tuple[int, ...]] | None:
    """The (name, scale, archs) generation key of a catalog build, or None."""
    from repro.frameworks.catalog import build_key_for

    return build_key_for(framework)


def _check_spec(
    framework_name: str, pinned_arch: int | None, spec: WorkloadSpec
) -> None:
    """The one place admission preconditions are spelled out.

    Raises :class:`UsageError` for a workload targeting another framework
    or (when an architecture is pinned) another device architecture.
    """
    if spec.framework != framework_name:
        raise UsageError(
            f"{spec.workload_id} targets {spec.framework!r}, the union "
            f"holds {framework_name!r}"
        )
    if (
        pinned_arch is not None
        and spec.devices()[0].sm_arch != pinned_arch
    ):
        raise UsageError(
            "multi-workload debloating requires one device architecture"
        )


def validate_union_specs(
    framework_name: str, specs: list[WorkloadSpec]
) -> None:
    """Upfront usage validation for a whole spec list (``debloat_many``).

    Raises :class:`UsageError` - before any workload runs - for an empty
    list, a workload targeting a different framework, or a mix of device
    architectures.
    """
    if not specs:
        raise UsageError("debloat_many needs at least one workload")
    arch = specs[0].devices()[0].sm_arch
    for spec in specs:
        _check_spec(framework_name, arch, spec)
