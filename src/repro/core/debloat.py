"""End-to-end Negativa-ML orchestration (paper Fig. 2).

``Debloater.debloat(workload)`` runs the full pipeline:

1. a clean **baseline run** (original runtime metrics for Tables 5/7);
2. one **fused instrumented run** with the CUPTI kernel-detection hook
   (§3.1) *and* the CPU function profiler (Negativa's CPU detection phase)
   attached together - the two tools observe disjoint callback paths, so a
   single instrumented execution yields both usage sets and saves one full
   workload run per debloat.  The per-tool overheads are additive on the
   deterministic virtual clock, so the standalone detection/profiling run
   times the paper's Table 8 reports are attributed exactly from the fused
   run (see :class:`~repro.core.report.DebloatTiming`);
3. per library: **kernel location** (element decisions), **CPU function
   location**, and **compaction** - each library charged to its own clock
   (explicit locate/compact marks), summed in library order, and optionally
   fanned out over a thread pool (``DebloatOptions.locate_workers``) since
   libraries are independent;
4. **verification**: re-run with *all* debloated libraries substituted;
5. optional **runtime comparison**: re-run with the top-N bloat
   contributors replaced (the paper replaces the top 8) for Table 5.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.core.compact import Compactor, DebloatedLibrary
from repro.core.cpu import FunctionLocator
from repro.core.detect import KernelDetector
from repro.core.locate import KernelLocator
from repro.core.nsys import NsysTracer
from repro.core.report import DebloatTiming, LibraryReduction, WorkloadDebloatReport
from repro.core.verify import VerificationResult, verify_debloat
from repro.cuda.clock import VirtualClock
from repro.cuda.costs import DEFAULT_COSTS, CostModel
from repro.errors import VerificationError
from repro.frameworks.spec import Framework
from repro.loader.profiler import FunctionProfiler
from repro.workloads.runner import WorkloadRunner
from repro.workloads.spec import WorkloadSpec


#: Version of the pipeline's *behavior* (locate/compact/verify semantics,
#: timing attribution, exact-kernel ablation).  Folded into every disk-cache
#: digest alongside the serialization schema and generator versions, so
#: persisted reports never survive an algorithm change that leaves both the
#: payload layout and the generated library bytes untouched.  Bump on ANY
#: change that can alter a report's numbers for identical inputs.
PIPELINE_VERSION = 1


@dataclass(frozen=True)
class DebloatOptions:
    """Pipeline configuration."""

    costs: CostModel = DEFAULT_COSTS
    #: Re-run the workload on debloated libraries and require identical output.
    verify: bool = True
    #: Fail hard if verification fails (tests use this).
    strict_verify: bool = True
    #: Re-run with the top-N bloat contributors replaced for the runtime
    #: comparison (the paper's §4.4 flow uses 8); 0 disables, None replaces
    #: all libraries.
    runtime_comparison_top_n: int | None = 8
    #: Skip CPU-side debloating (GPU-only ablation).
    debloat_cpu: bool = True
    #: Skip GPU-side debloating (CPU-only ablation - plain Negativa).
    debloat_gpu: bool = True
    #: Fan the independent per-library locate/compact loop out over this
    #: many workers (0/1 = serial).  Results and timings are deterministic
    #: regardless of worker count: each library is charged to its own clock
    #: and sums are taken in library order.
    locate_workers: int = 0


@dataclass
class Debloater:
    """Negativa-ML."""

    framework: Framework
    options: DebloatOptions = field(default_factory=DebloatOptions)

    def debloat(self, spec: WorkloadSpec) -> WorkloadDebloatReport:
        if spec.framework != self.framework.name:
            raise VerificationError(
                f"workload targets {spec.framework!r}, debloater holds "
                f"{self.framework.name!r}"
            )
        costs = self.options.costs
        device_arch = spec.devices()[0].sm_arch

        # 1. Baseline run (original metrics).
        baseline = WorkloadRunner(spec, self.framework, costs).run()

        # 2. Fused instrumented run: the CUPTI kernel-detection hook and the
        # CPU function profiler attach to the same execution (exactly how
        # debloat_many composes them), saving one full workload run.  A
        # *passive* NSys tracer rides along - it counts the records a
        # standalone `nsys --trace=cuda` run would emit without charging
        # the clock - so the §4.6 tool-stack comparison is attributed from
        # this same run instead of executing the workload a third time.
        detector = KernelDetector(costs)
        profiler = FunctionProfiler()
        nsys = NsysTracer(costs, passive=True)
        instrumented_metrics = WorkloadRunner(
            spec, self.framework, costs, subscribers=(detector, nsys),
            profiler=profiler,
        ).run()
        used_functions = profiler.used_functions()

        # Attribute the fused run to the two tools.  The detector's charge
        # is exact and closed-form (one CUPTI attach per device driver plus
        # one callback per interception); the profiler's charge is whatever
        # instrumentation time remains above the baseline.
        detector_overhead_s = (
            len(spec.devices()) * costs.cupti_attach
            + costs.detector_callback * detector.interceptions
        )

        # 3. Locate + compact every library the workload loaded.
        results = self._locate_and_compact(
            spec.features, detector, used_functions, device_arch
        )
        debloated: dict[str, DebloatedLibrary] = {}
        reductions: list[LibraryReduction] = []
        locate_results = {}
        locate_elapsed = 0.0
        compact_elapsed = 0.0
        for lib, gpu_res, d, locate_s, compact_s in results:
            if gpu_res is not None:
                locate_results[lib.soname] = gpu_res
            debloated[lib.soname] = d
            reductions.append(LibraryReduction.from_debloated(lib, d))
            locate_elapsed += locate_s
            compact_elapsed += compact_s

        timing = DebloatTiming(
            kernel_detection_run_s=(
                baseline.execution_time_s + detector_overhead_s
            ),
            cpu_profiling_run_s=(
                instrumented_metrics.execution_time_s - detector_overhead_s
            ),
            locate_s=locate_elapsed,
            compact_s=compact_elapsed,
            instrumented_run_s=instrumented_metrics.execution_time_s,
            nsys_traced_run_s=(
                baseline.execution_time_s
                + nsys.traced_run_overhead_s(len(spec.devices()))
            ),
        )

        # 5. Verification with all debloated libraries.
        verification = None
        if self.options.verify:
            verification = verify_debloat(
                spec, self.framework, debloated, baseline, costs
            )
            if self.options.strict_verify and not verification.ok:
                raise VerificationError(
                    f"{spec.workload_id}: {verification.error}"
                )

        # 6. Runtime comparison with the top-N contributors replaced.
        debloated_run = None
        top_n = self.options.runtime_comparison_top_n
        if top_n != 0:
            ranked = sorted(
                reductions, key=lambda r: r.file_reduction_bytes, reverse=True
            )
            chosen = ranked if top_n is None else ranked[:top_n]
            overrides = {
                r.soname: debloated[r.soname].lib for r in chosen
            }
            debloated_run = WorkloadRunner(
                spec, self.framework, costs, overrides=overrides
            ).run()

        report = WorkloadDebloatReport(
            workload_id=spec.workload_id,
            device_arch=device_arch,
            libraries=reductions,
            locate_results=locate_results,
            timing=timing,
            baseline=baseline,
            detection=instrumented_metrics,
            debloated_run=debloated_run,
            verification=verification,
        )
        report_extras = {
            "detector_interceptions": detector.interceptions,
            "detected_kernels": detector.total_detected(),
            "profiled_functions": profiler.used_count(),
            "nsys_launch_records": nsys.launch_records,
            "nsys_misc_records": nsys.misc_records,
        }
        baseline.counters.update(report_extras)
        self.debloated_libraries = debloated
        return report

    # -- per-library locate/compact ------------------------------------------------

    def _locate_and_compact(
        self,
        features: frozenset[str],
        detector: KernelDetector,
        used_functions: dict[str, np.ndarray],
        device_arch: int,
    ) -> list[tuple]:
        """Locate and compact every library, optionally in parallel.

        Each library is charged to a private :class:`VirtualClock` with
        explicit locate/compact marks, so the work is embarrassingly
        parallel and the timing sums (taken in library order by the caller)
        are identical whether the loop runs serial or fanned out over
        threads.
        """
        libs = self.framework.libraries_for(features)
        no_functions = np.zeros(0, dtype=np.int64)
        options = self.options

        def one(lib) -> tuple:
            return (
                lib,
                *_locate_compact_library(
                    lib,
                    detector.used_kernels_for(lib.soname),
                    used_functions.get(lib.soname, no_functions),
                    device_arch,
                    options,
                ),
            )

        workers = options.locate_workers
        if workers and workers > 1 and len(libs) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(one, libs))
        return [one(lib) for lib in libs]

    # -- multi-workload debloating (paper §5 extension) ---------------------------

    def debloat_many(
        self, specs: list[WorkloadSpec]
    ) -> "MultiWorkloadReport":
        """Debloat one library set against the *union* of several workloads.

        The paper's discussion (§5) observes that code unused by one
        workload is likely unnecessary for others; this extension makes
        that actionable: detection runs once per workload, usage sets are
        unioned, each library is located/compacted once, and the result is
        verified against *every* workload.  The report exposes the marginal
        retention growth per added workload - how quickly the "needed" set
        saturates.

        DEPRECATED: this is now a shim over the :mod:`repro.api` facade -
        an ephemeral :class:`~repro.api.engine.DebloatEngine` hosts this
        debloater's framework as one federation shard, admits every spec,
        and returns the shard's union report (byte-identical to the
        pre-engine loop over :meth:`DebloatStore.admit`, which itself is
        byte-identical to the one-shot union).  New code should hold an
        engine and call :meth:`~repro.api.engine.DebloatEngine.admit` /
        :meth:`~repro.api.engine.DebloatEngine.report` directly.  Malformed
        spec lists (empty, mixed frameworks, mixed device architectures)
        still raise :class:`~repro.errors.UsageError` before anything runs.
        """
        import warnings

        warnings.warn(
            "Debloater.debloat_many is deprecated; use "
            "repro.api.DebloatEngine.admit/report",
            DeprecationWarning,
            stacklevel=2,
        )
        from repro.api import AdmitRequest, DebloatEngine, EngineConfig
        from repro.serving.store import validate_union_specs

        validate_union_specs(self.framework.name, specs)
        config = EngineConfig(
            scale=self.framework.scale,
            options=self.options,
            use_cache=False,
        )
        with DebloatEngine(config) as engine:
            shard = engine.federation.ensure_shard(self.framework)
            for spec in specs:
                engine.admit(AdmitRequest(spec=spec))
            report = engine.report(self.framework.name).union_report
            self.debloated_libraries = shard.store.debloated_libraries()
        return report


# -- per-library pipeline ------------------------------------------------------


def _locate_compact_library(
    lib,
    used_kernels: frozenset[str],
    used_fn: np.ndarray,
    device_arch: int,
    options: DebloatOptions,
) -> tuple:
    """Locate + compact one library on a private clock.

    The unit of work serial and threaded runs share: pure in (library,
    usage, architecture, options), so both produce identical results and
    identical per-library clock marks.
    Returns ``(gpu_res, debloated, locate_s, compact_s)``.
    """
    costs = options.costs
    clock = VirtualClock()
    gpu_res = None
    if options.debloat_gpu:
        gpu_res = KernelLocator(costs).locate(
            lib, used_kernels, device_arch, clock=clock
        )
    cpu_res = None
    if options.debloat_cpu:
        cpu_res = FunctionLocator(costs).locate(lib, used_fn, clock=clock)
    locate_mark = clock.now
    debloated = Compactor(costs).compact(lib, cpu_res, gpu_res, clock=clock)
    return gpu_res, debloated, locate_mark, clock.now - locate_mark


@dataclass
class MultiWorkloadReport:
    """Result of debloating against a workload set (union of usage)."""

    workload_ids: list[str]
    libraries: list[LibraryReduction]
    verifications: list[VerificationResult]
    marginal_new_kernels: list[int]

    @property
    def all_verified(self) -> bool:
        return all(v.ok for v in self.verifications)

    @property
    def total_file_size(self) -> int:
        return sum(lib.file_size for lib in self.libraries)

    @property
    def total_file_size_after(self) -> int:
        return sum(lib.file_size_after for lib in self.libraries)

    @property
    def file_reduction_pct(self) -> float:
        from repro.utils.units import pct_reduction

        return pct_reduction(self.total_file_size, self.total_file_size_after)

    def saturation_series(self) -> list[tuple[str, int]]:
        """(workload, new kernels it added) - how fast usage saturates."""
        return list(zip(self.workload_ids, self.marginal_new_kernels))
