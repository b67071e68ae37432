"""Shared experiment harness: the two-tier pipeline cache + rendering.

Running the Negativa-ML pipeline for one workload takes a few seconds at the
default entity scale, and the ~19 table/figure experiments overwhelmingly
re-request the same (workload, scale) pipelines.  :class:`PipelineCache`
memoizes :class:`~repro.core.report.WorkloadDebloatReport` objects in two
tiers: tier 0 in memory (each pipeline runs once per process) and tier 1 on
disk (:class:`~repro.experiments.diskcache.DiskReportCache` - serialized
reports persisted across processes, so a warm CLI or benchmark invocation
performs *zero* instrumented workload runs and every experiment is pure
rendering).

**Cache key.**  ``(workload_id, dataset, batch_size, epochs, device,
world_size, loading_mode, framework, scale, frozen(options))`` - the full
run identity.  ``options`` (a :class:`~repro.core.debloat.DebloatOptions`)
is frozen recursively into a hashable tuple, so two option objects with
equal fields share an entry and any field change (ablation flags, cost
model, top-N) misses.  Disk entries additionally key on the framework-build
fingerprint (:func:`~repro.frameworks.catalog.framework_build_fingerprint`),
so persisted reports never survive a change to the generated library set.

**Invalidation hook.**  :meth:`PipelineCache.invalidate` drops entries by
``workload_id``/``framework``/``scale`` filters (no filter = everything)
from *both* tiers - memory entries and matching disk files - and returns
the total eviction count; use it after mutating a framework build or cost
model.  ``clear_report_cache()`` remains as the historical alias.

**Environment.**

* ``REPRO_PIPELINE_CACHE=0`` - bypass caching entirely (both tiers; also
  ``PIPELINE_CACHE.configure(enabled=False)`` or the CLIs' ``--no-cache``);
* ``REPRO_PIPELINE_DISK_CACHE=0`` - keep the in-memory tier but never read
  or write disk (CLI ``--no-disk-cache``);
* ``REPRO_PIPELINE_CACHE_DIR`` - disk-tier directory (default
  ``~/.cache/repro-debloat``; CLI ``--cache-dir``).

Outputs are byte-identical with the cache cold, warm, or disabled - caching
only ever costs or saves recomputation.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

from repro.core.debloat import Debloater, DebloatOptions
from repro.core.report import WorkloadDebloatReport
from repro.cuda.arch import SHIPPED_ARCHITECTURES
from repro.experiments.diskcache import DiskReportCache
from repro.frameworks.catalog import framework_build_fingerprint, get_framework
from repro.frameworks.spec import Framework
from repro.utils.freeze import freeze as _freeze
from repro.utils.units import fmt_count, fmt_mb, pct_reduction
from repro.workloads.metrics import RunMetrics
from repro.workloads.spec import TABLE1_WORKLOADS, WorkloadSpec

#: Default entity-count scale for experiments.  Byte sizes are always
#: paper-magnitude; counts (functions/kernels/elements) scale linearly, and
#: all reduction *percentages* are scale-invariant.  Use ``--scale 1.0`` for
#: paper-magnitude counts.
DEFAULT_SCALE = 0.125


@dataclass
class PipelineCache:
    """Memoizes debloat pipeline reports across experiments and processes.

    Tier 0 is the in-memory store; tier 1 is :attr:`disk`.  A memory miss
    consults the disk tier (keyed on the run identity plus the framework
    build fingerprint) before recomputing, and a recompute populates both
    tiers, so one warm process seeds every later one.
    """

    enabled: bool = field(
        default_factory=lambda: os.environ.get("REPRO_PIPELINE_CACHE", "1")
        not in ("0", "false", "no")
    )
    hits: int = 0
    misses: int = 0
    _store: dict[tuple, WorkloadDebloatReport] = field(default_factory=dict)
    _values: dict[tuple, object] = field(default_factory=dict)
    disk: DiskReportCache = field(default_factory=DiskReportCache)

    @staticmethod
    def key(
        spec: WorkloadSpec,
        scale: float,
        options: DebloatOptions | None,
        archs: tuple[int, ...] = SHIPPED_ARCHITECTURES,
    ) -> tuple:
        # locate_workers is a pure tuning knob - reports are deterministic
        # for any worker count (see DebloatOptions) - so it is normalized
        # out of the identity: runs with different fan-out share an entry.
        options = dataclasses.replace(
            options or DebloatOptions(), locate_workers=0
        )
        return (
            *spec_run_identity(spec),
            spec.framework,
            scale,
            _freeze(options),
            tuple(archs),
        )

    def get_or_run(
        self,
        spec: WorkloadSpec,
        scale: float,
        options: DebloatOptions | None,
        archs: tuple[int, ...] = SHIPPED_ARCHITECTURES,
        provenance: dict | None = None,
    ) -> WorkloadDebloatReport:
        """Fetch (or compute) a pipeline report.

        ``provenance``, when given, receives ``{"source": "memory" |
        "disk" | "computed"}`` - the engine facade surfaces it on every
        :class:`~repro.api.requests.EngineResult`.
        """
        if provenance is not None:
            provenance["source"] = "computed"
        key = self.key(spec, scale, options, archs)
        fingerprint: str | None = None
        if self.enabled:
            cached = self._store.get(key)
            if cached is not None:
                self.hits += 1
                if provenance is not None:
                    provenance["source"] = "memory"
                return cached
            if self.disk.enabled:
                fingerprint = framework_build_fingerprint(
                    spec.framework, scale, archs
                )
                report = self.disk.get(key, fingerprint)
                if report is not None:
                    self._store[key] = report
                    if provenance is not None:
                        provenance["source"] = "disk"
                    return report
        self.misses += 1
        framework = get_framework(spec.framework, scale=scale, archs=archs)
        debloater = Debloater(framework, options or DebloatOptions())
        report = debloater.debloat(spec)
        if self.enabled:
            self._store[key] = report
            if self.disk.enabled:
                if fingerprint is None:
                    fingerprint = framework_build_fingerprint(
                        spec.framework, scale, archs
                    )
                self.disk.put(key, fingerprint, report)
        return report

    def get_or_run_value(
        self,
        spec: WorkloadSpec,
        scale: float,
        kind: str,
        extra: tuple,
        compute,
        archs: tuple[int, ...] = SHIPPED_ARCHITECTURES,
    ):
        """Two-tier cache for non-report pipeline byproducts.

        A handful of experiments measure things a
        :class:`~repro.core.report.WorkloadDebloatReport` does not carry -
        tool-overhead run metrics, ablation outcomes.  ``compute`` runs the
        (expensive, workload-executing) measurement and returns a payload
        tree (:func:`repro.core.serialize.value_dumps`-compatible); the
        result is cached under the same run identity + build fingerprint
        discipline as reports, with ``kind``/``extra`` distinguishing the
        measurement.  Warm processes therefore skip these workload runs
        too.
        """
        # Same layout as a report key minus the (meaningless here) options
        # component at index 9; archs stays in, and indices 0/7/8 keep the
        # workload/framework/scale positions invalidate() filters on.
        base = self.key(spec, scale, None, archs)
        key = base[:9] + base[10:] + (kind, *extra)
        if self.enabled:
            cached = self._values.get(key)
            if cached is not None:
                self.hits += 1
                return cached
            if self.disk.enabled:
                fingerprint = framework_build_fingerprint(
                    spec.framework, scale, archs
                )
                value = self.disk.get_value(key, fingerprint, kind)
                if value is not None:
                    self._values[key] = value
                    return value
        self.misses += 1
        value = compute()
        if self.enabled:
            self._values[key] = value
            if self.disk.enabled:
                fingerprint = framework_build_fingerprint(
                    spec.framework, scale, archs
                )
                self.disk.put_value(key, fingerprint, kind, value)
        return value

    def library_index(
        self,
        lib,
        framework_name: str,
        scale: float,
        archs: tuple[int, ...] = SHIPPED_ARCHITECTURES,
    ) -> tuple["KernelUsageIndex", str]:
        """Two-tier :class:`~repro.core.kindex.KernelUsageIndex` lookup.

        Tier 0 is the per-``SharedLibrary`` attribute cache
        (:func:`~repro.core.kindex.index_for`); tier 1 persists the index
        arrays on disk keyed on the framework-build fingerprint, so a warm
        engine skips even the one-time fatbin walk and per-name hashing.
        Returns ``(index, source)`` with source ``memory``/``disk``/
        ``computed``; corrupted or cross-wired entries are misses that
        recompute and overwrite.
        """
        from repro.core import kindex
        from repro.errors import CacheError

        use_disk = self.enabled and self.disk.enabled
        key = fingerprint = None
        if use_disk:
            key = _kindex_key(framework_name, scale, archs, lib.soname)
            fingerprint = framework_build_fingerprint(
                framework_name, scale, archs
            )
        target = (
            str(self.disk.path_for(key, fingerprint, kindex.INDEX_KIND))
            if use_disk
            else None
        )
        cached = kindex.cached_index(lib)
        if cached is not None:
            # Write-through once per library and cache location: an index
            # built before this cache saw it (a plain pipeline run earlier
            # in the process) still warms the next process.
            if use_disk and getattr(
                lib, "_kernel_usage_index_persisted", None
            ) != target:
                self.disk.put_value(
                    key, fingerprint, kindex.INDEX_KIND,
                    kindex.index_to_payload(cached),
                )
                lib._kernel_usage_index_persisted = target
            return cached, "memory"
        if use_disk:
            value = self.disk.get_value(key, fingerprint, kindex.INDEX_KIND)
            if value is not None:
                try:
                    index = kindex.index_from_payload(value)
                except CacheError:
                    index = None
                if index is not None and kindex.index_matches_library(
                    index, lib
                ):
                    kindex.remember_index(lib, index)
                    lib._kernel_usage_index_persisted = target
                    return index, "disk"
                # Decodable-but-wrong entries count like corrupt ones and
                # fall through to a recompute that overwrites the file.
                self.disk.errors += 1
        index = kindex.index_for(lib)
        if use_disk:
            self.disk.put_value(
                key, fingerprint, kindex.INDEX_KIND,
                kindex.index_to_payload(index),
            )
            lib._kernel_usage_index_persisted = target
        return index, "computed"

    def invalidate(
        self,
        workload_id: str | None = None,
        framework: str | None = None,
        scale: float | None = None,
    ) -> int:
        """Drop matching entries from BOTH tiers (no filters = everything).

        Filters are ANDed.  Returns the total eviction count: in-memory
        entries plus disk files removed.
        """
        evicted = 0
        for store in (self._store, self._values):
            doomed = [
                key
                for key in store
                if (workload_id is None or key[0] == workload_id)
                and (framework is None or key[7] == framework)
                and (scale is None or key[8] == scale)
            ]
            for key in doomed:
                del store[key]
            evicted += len(doomed)
        evicted += self.disk.invalidate(
            workload_id=workload_id, framework=framework, scale=scale
        )
        return evicted

    def configure(
        self,
        enabled: bool | None = None,
        disk_enabled: bool | None = None,
        cache_dir: str | os.PathLike | None = None,
        quarantine: bool | None = None,
    ) -> None:
        """Adjust either tier in place (None leaves a setting unchanged)."""
        if enabled is not None:
            self.enabled = enabled
            if not enabled:
                self._store.clear()
                self._values.clear()
        self.disk.configure(
            directory=cache_dir, enabled=disk_enabled, quarantine=quarantine
        )

    def __len__(self) -> int:
        return len(self._store)

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._store),
            "value_entries": len(self._values),
            "hits": self.hits,
            "misses": self.misses,
            **self.disk.stats(),
        }


#: The process-wide cache every experiment shares.
PIPELINE_CACHE = PipelineCache()


def _kindex_key(
    framework_name: str,
    scale: float,
    archs: tuple[int, ...],
    soname: str,
) -> tuple:
    """Disk-cache key of one library's persisted kernel-usage index.

    Mirrors the :meth:`PipelineCache.key` positional contract the disk
    tier's file naming and filtered invalidation rely on: index 0 is the
    (pseudo) workload id, 7 the framework, 8 the scale.  The ``kindex/``
    prefix keeps these ids disjoint from every real workload's.
    """
    return (
        f"kindex/{soname}",
        "kindex",
        0,
        0,
        "",
        0,
        "",
        framework_name,
        float(scale),
        tuple(archs),
    )


def spec_run_identity(spec: WorkloadSpec) -> tuple:
    """The per-workload component of every cache key.

    The single place a workload's run identity is enumerated: any new
    identity-bearing :class:`WorkloadSpec` field must be added here, and
    every key that covers a workload (pipeline reports, cached values, the
    saturation curve's whole-catalog key) picks it up automatically.
    """
    return (
        spec.workload_id,
        spec.dataset.name,
        spec.batch_size,
        spec.epochs,
        spec.device_name,
        spec.world_size,
        spec.loading_mode.value,
    )


def framework_for(spec: WorkloadSpec, scale: float = DEFAULT_SCALE) -> Framework:
    return get_framework(spec.framework, scale=scale)


def pipeline_report(
    spec: WorkloadSpec,
    scale: float = DEFAULT_SCALE,
    options: DebloatOptions | None = None,
    archs: tuple[int, ...] = SHIPPED_ARCHITECTURES,
) -> WorkloadDebloatReport:
    """Run (or fetch cached) the full debloat pipeline for a workload.

    The experiments' canonical path: a thin adapter over the process-wide
    :class:`~repro.api.engine.DebloatEngine`, which routes through
    :data:`PIPELINE_CACHE` - outputs are byte-identical to the pre-engine
    ``report_for``.  ``archs`` selects the framework *build* (which fatbin
    architectures the generated libraries ship); the architecture ablation
    debloats a single-arch rebuild through the same cache.
    """
    from repro.api import DebloatRequest, default_engine

    return default_engine().debloat(
        DebloatRequest(spec=spec, scale=scale, options=options, archs=archs)
    ).report


def report_for(
    spec: WorkloadSpec,
    scale: float = DEFAULT_SCALE,
    options: DebloatOptions | None = None,
    archs: tuple[int, ...] = SHIPPED_ARCHITECTURES,
) -> WorkloadDebloatReport:
    """Deprecated alias of :func:`pipeline_report` (the pre-API entry point).

    Returns the byte-identical report the engine produces; new code should
    call :meth:`repro.api.DebloatEngine.debloat` (or :func:`pipeline_report`
    inside the experiments package).
    """
    import warnings

    warnings.warn(
        "report_for is deprecated; use repro.api.DebloatEngine.debloat "
        "(or repro.experiments.common.pipeline_report)",
        DeprecationWarning,
        stacklevel=2,
    )
    return pipeline_report(spec, scale, options, archs)


def instrumented_run_metrics(
    spec: WorkloadSpec, scale: float, instrument: str
) -> tuple[RunMetrics, dict[str, int]]:
    """Cached single workload run: clean, detector-attached, or NSys-traced.

    Returns the run's metrics plus the attached tool's summary counters
    (empty for a clean run).  The overhead experiments (§4.6 and the
    detector-scaling ablation) compare runs that exist *outside* any
    debloat pipeline; routing them through the cached-value tier means a
    warm process renders them without executing a single workload run.
    """
    from repro.core import serialize

    def compute() -> dict:
        from repro.core.detect import KernelDetector
        from repro.core.nsys import NsysTracer
        from repro.workloads.runner import WorkloadRunner

        framework = get_framework(spec.framework, scale=scale)
        if instrument == "none":
            metrics = WorkloadRunner(spec, framework).run()
            stats: dict[str, int] = {}
        elif instrument == "detector":
            detector = KernelDetector()
            metrics = WorkloadRunner(
                spec, framework, subscribers=(detector,)
            ).run()
            stats = {
                "interceptions": detector.interceptions,
                "detected_kernels": detector.total_detected(),
            }
        elif instrument == "nsys":
            nsys = NsysTracer()
            metrics = WorkloadRunner(
                spec, framework, subscribers=(nsys,)
            ).run()
            stats = {
                "launch_records": nsys.launch_records,
                "misc_records": nsys.misc_records,
            }
        else:
            raise ValueError(f"unknown instrument {instrument!r}")
        return {
            "metrics": serialize.metrics_to_payload(metrics),
            "stats": stats,
        }

    value = PIPELINE_CACHE.get_or_run_value(
        spec, scale, "instrumented_run", (instrument,), compute
    )
    metrics = serialize.metrics_from_payload(value["metrics"])
    return metrics, {k: int(v) for k, v in value["stats"].items()}


def used_bloat_report(spec: WorkloadSpec, scale: float):
    """Cached §5 used-bloat analysis (one workload run on a cold cache)."""
    import dataclasses

    from repro.core.usedbloat import LibraryUsedBloat, UsedBloatReport

    def compute() -> dict:
        from repro.core.usedbloat import analyze_used_bloat

        report = analyze_used_bloat(
            spec, get_framework(spec.framework, scale=scale)
        )
        return {
            "libraries": [dataclasses.asdict(lib) for lib in report.libraries]
        }

    value = PIPELINE_CACHE.get_or_run_value(
        spec, scale, "used_bloat", (), compute
    )
    return UsedBloatReport(
        workload_id=spec.workload_id,
        libraries=[
            LibraryUsedBloat(
                soname=lib["soname"],
                used_functions=int(lib["used_functions"]),
                startup_only_functions=int(lib["startup_only_functions"]),
                used_bytes=int(lib["used_bytes"]),
                startup_only_bytes=int(lib["startup_only_bytes"]),
            )
            for lib in value["libraries"]
        ],
    )


def table1_reports(
    scale: float = DEFAULT_SCALE,
) -> list[tuple[WorkloadSpec, WorkloadDebloatReport]]:
    """Pipeline reports for all ten Table-1 workloads."""
    return [(spec, pipeline_report(spec, scale)) for spec in TABLE1_WORKLOADS]


def clear_report_cache() -> None:
    """Historical alias for a full :meth:`PipelineCache.invalidate`."""
    PIPELINE_CACHE.invalidate()


# -- rendering helpers ---------------------------------------------------------------


def cell_mb(before: int, after: int) -> str:
    """The paper's ``<MB> (<reduction %>)`` cell."""
    return f"{fmt_mb(before)} ({pct_reduction(before, after):.0f})"


def cell_count(before: int, after: int) -> str:
    return f"{fmt_count(before)} ({pct_reduction(before, after):.0f})"


def workload_row_labels(spec: WorkloadSpec) -> tuple[str, str, str]:
    """(model, framework:version, operation) display labels."""
    fw = framework_for(spec, DEFAULT_SCALE).spec
    return (
        spec.model.display_name,
        f"{_fw_display(spec.framework)}:{fw.version}",
        spec.operation.capitalize(),
    )


def _fw_display(name: str) -> str:
    return {
        "pytorch": "PyTorch",
        "tensorflow": "TensorFlow",
        "vllm": "vLLM",
        "transformers": "Transformers",
    }.get(name, name)


def shape_check(label: str, ok: bool, detail: str = "") -> str:
    """A pass/fail line tying measured output to the paper's claim."""
    mark = "PASS" if ok else "DEVIATION"
    suffix = f" - {detail}" if detail else ""
    return f"[{mark}] {label}{suffix}"
