"""Exception hierarchy for the Negativa-ML reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so callers
can catch library failures without also swallowing programming errors.  The
hierarchy mirrors the subsystems: binary-format errors (ELF / fatbin), runtime
errors from the simulated CUDA driver and loader, and debloating-pipeline
errors (most importantly :class:`MissingKernelError` /
:class:`MissingFunctionError`, which are what a *broken* debloat produces when
the workload is re-run for verification).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


# ---------------------------------------------------------------------------
# Binary container errors
# ---------------------------------------------------------------------------


class BinaryFormatError(ReproError):
    """A binary container (ELF or fatbin) is malformed or unsupported."""


class ElfFormatError(BinaryFormatError):
    """An ELF image violates the ELF64 structure this library understands."""


class FatbinFormatError(BinaryFormatError):
    """A ``.nv_fatbin`` payload violates the fatbin container structure."""


class CubinFormatError(FatbinFormatError):
    """A cubin payload inside a fatbin element is malformed."""


# ---------------------------------------------------------------------------
# Simulated runtime errors
# ---------------------------------------------------------------------------


class CudaError(ReproError):
    """Base class for simulated CUDA driver errors."""


class CudaArchMismatchError(CudaError):
    """No fatbin element in a module matches the device architecture."""


class MissingKernelError(CudaError):
    """``cuModuleGetFunction`` could not resolve a kernel name.

    After debloating, this is the failure mode of an over-aggressive locator
    that removed an element still needed by the workload.
    """


class DoubleFreeError(CudaError):
    """A device allocation was freed twice."""


class OutOfMemoryError(CudaError):
    """A host or device allocation exceeded the configured capacity."""


class LoaderError(ReproError):
    """Base class for dynamic-loader failures."""


class LibraryNotFoundError(LoaderError):
    """The process image does not contain the requested library."""


class SymbolResolutionError(LoaderError):
    """A dynamic symbol could not be resolved in any loaded library."""


class MissingFunctionError(LoaderError):
    """A call targeted a CPU function whose code bytes were removed.

    Raised when a workload, re-run against a debloated library, calls into a
    zeroed file range - i.e. the CPU-side analogue of
    :class:`MissingKernelError`.
    """


# ---------------------------------------------------------------------------
# Pipeline errors
# ---------------------------------------------------------------------------


class DebloatError(ReproError):
    """Base class for errors in the Negativa-ML debloating pipeline."""


class DetectionError(DebloatError):
    """The kernel/function detector could not attach or record."""


class LocationError(DebloatError):
    """The locator could not map a used kernel/function to file ranges."""


class CompactionError(DebloatError):
    """Compaction produced an inconsistent library."""


class VerificationError(DebloatError):
    """The debloated workload output differs from the original output."""


class StoreInvariantError(DebloatError):
    """A serving-store epoch failed its commit-time consistency check.

    Raised by :meth:`~repro.serving.store.DebloatStore.validate_invariants`
    when the union bookkeeping, library map, and admission ledger disagree.
    A transactional admission that trips this rolls back to the previous
    epoch before re-raising, so the store a caller observes afterwards is
    always the last consistent one.
    """


class BlockStoreError(DebloatError):
    """The content-addressed block store was misused or is inconsistent.

    Raised by :mod:`repro.storage` on double-release of a manifest, a
    digest collision with mismatched payload length, or a
    :meth:`~repro.storage.blockstore.BlockStore.validate_invariants`
    failure (refcount != live referents, leaked or dangling blocks).
    """


class ConfigurationError(ReproError):
    """A spec or configuration object is internally inconsistent."""


class UsageError(ConfigurationError):
    """The caller passed an unusable argument set to a pipeline entry point.

    Distinct from :class:`VerificationError` (a *result* of running the
    pipeline): a usage error means the request itself was malformed - an
    empty workload list, a workload targeting a different framework than
    the debloater holds, or a mixed-architecture union - and nothing was
    executed.
    """


# ---------------------------------------------------------------------------
# Fault tolerance / serving errors
# ---------------------------------------------------------------------------


class TransientError(ReproError):
    """A failure that is expected to succeed on retry.

    The serving tier's :class:`~repro.utils.retry.RetryPolicy` retries
    these (and OS-level errors); everything else - usage errors,
    verification failures - is permanent and surfaces immediately.
    """


class FaultError(TransientError):
    """An injected failure from the deterministic fault harness.

    Raised by :func:`repro.testing.faults.check` at an instrumented fault
    site when the active :class:`~repro.testing.faults.FaultPlan` fires.
    Subclasses :class:`TransientError` so every recovery path (retry,
    rollback, quarantine, sweeper survival) treats an injected fault
    exactly like the real transient failure it stands in for.
    """

    def __init__(self, site: str, ordinal: int = 0, kind: str = "fault"):
        super().__init__(f"injected {kind} at {site} (ordinal {ordinal})")
        self.site = site
        self.ordinal = ordinal
        self.kind = kind


class AdmissionError(ReproError):
    """An admission failed permanently after exhausting its retry budget.

    Carries the workload, the attempt count, and the last underlying
    failure (also chained as ``__cause__``), so a ticket waiter can tell a
    retried-then-dead admission apart from a malformed request
    (:class:`UsageError`) or a closed server (:class:`ServerClosedError`).
    """

    def __init__(
        self, workload_id: str, attempts: int, cause: BaseException
    ):
        super().__init__(
            f"admission of {workload_id} failed after {attempts} "
            f"attempt(s): {type(cause).__name__}: {cause}"
        )
        self.workload_id = workload_id
        self.attempts = attempts
        self.cause = cause
        self.__cause__ = cause


class ProtocolError(UsageError):
    """A wire request (HTTP/JSON) is malformed or violates the schema.

    Raised by :mod:`repro.serving.protocol` while decoding request bodies
    - unknown workload ids, wrong field types, unparseable JSON.  The
    HTTP tier maps it to a 400 response; nothing was admitted.
    """


class ServerClosedError(UsageError):
    """The serving queue is closed: the request was rejected or abandoned.

    Raised by ``submit()`` on a closed server, and by
    :meth:`~repro.serving.server.AdmissionTicket.result` for tickets that
    were still pending when ``close()`` drained the queue - a closed
    server never strands a waiter.
    """


class TicketTimeoutError(ReproError, TimeoutError):
    """An :class:`~repro.serving.server.AdmissionTicket` deadline expired.

    Subclasses :class:`TimeoutError` so pre-existing callers that caught
    the builtin keep working; the ticket itself stays valid and a later
    ``result()`` call can still succeed once the admission lands.
    """


# ---------------------------------------------------------------------------
# Cache / serialization errors
# ---------------------------------------------------------------------------


class CacheError(ReproError):
    """Base class for report-serialization and pipeline-cache errors.

    Callers that treat a cache as best-effort (the disk tier of the pipeline
    cache) catch this and fall back to recomputation; nothing in the cache
    path is allowed to surface a :class:`CacheError` to the user.
    """


class CacheDecodeError(CacheError):
    """A serialized report container is truncated, corrupt, or malformed."""


class CacheSchemaError(CacheDecodeError):
    """A serialized report uses a different (older/newer) schema version."""


# ---------------------------------------------------------------------------
# Snapshot (store image) errors
# ---------------------------------------------------------------------------


class SnapshotError(ReproError):
    """A store snapshot image on disk is unusable.

    Unlike :class:`CacheError` (where the fallback is silent
    recomputation), a snapshot is an explicit import request: a missing
    manifest, a digest mismatch, or a corrupt shard container surfaces to
    the caller - except during crash recovery, where the supervisor falls
    back to a cold ledger replay.
    """


class SnapshotSchemaError(SnapshotError):
    """A snapshot image was written under a different schema version."""


# ---------------------------------------------------------------------------
# Write-ahead log (durability) errors
# ---------------------------------------------------------------------------


class WalError(ReproError):
    """A write-ahead log operation failed.

    Raised for problems that are *not* recoverable by scanning: an append
    to a closed log, an unknown operation kind in a record, or a replay
    that diverged from the generation recorded at commit time.  Torn or
    corrupt tails are **not** errors - recovery silently keeps the longest
    valid prefix and quarantines the rest (see
    :func:`repro.serving.wal.scan_wal`).
    """


class WalReplayError(WalError, TransientError):
    """Replaying a WAL record failed to reproduce the committed state.

    Subclasses :class:`TransientError` because the most common causes -
    an injected ``wal.replay`` fault or a cold pipeline cache mid-flight -
    can succeed on a fresh :meth:`~repro.api.engine.DebloatEngine.open`.
    """
