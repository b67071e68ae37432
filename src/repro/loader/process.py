"""Process image: loaded libraries, host memory, CPU-function execution.

The memory semantics implement the paper's runtime findings mechanistically:

* **eager** library loading keeps every retained file byte host-resident, so
  debloating (which turns removed ranges into holes) directly shrinks peak
  CPU memory (Table 5);
* **lazy** loading keeps only structural bytes plus code actually touched,
  so debloating barely moves CPU memory (Table 7, lazy rows);
* dlopen I/O time always covers the retained file bytes (prefetch), so
  execution-time savings are proportional to removed bytes in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cuda.clock import VirtualClock
from repro.cuda.costs import DEFAULT_COSTS, CostModel
from repro.cuda.driver import LoadingMode
from repro.cuda.memory import MemoryMeter
from repro.elf.image import SharedLibrary
from repro.errors import LibraryNotFoundError, MissingFunctionError
from repro.loader.profiler import FunctionProfiler


@dataclass
class LoadedLibrary:
    """Per-library loader state."""

    lib: SharedLibrary
    resident_bytes: int
    used_mask: np.ndarray  # bool per function symbol
    #: Functions first executed before steady state (imports/initialization).
    startup_mask: np.ndarray | None = None
    touched_code_bytes: int = 0

    @property
    def soname(self) -> str:
        return self.lib.soname


@dataclass
class ProcessImage:
    """A simulated process: the loader's view of an ML workload."""

    clock: VirtualClock = field(default_factory=VirtualClock)
    costs: CostModel = DEFAULT_COSTS
    loading_mode: LoadingMode = LoadingMode.EAGER

    def __post_init__(self) -> None:
        self.host_memory = MemoryMeter("host")
        self.host_memory.allocate("interpreter", self.costs.interpreter_host_bytes)
        self.libraries: dict[str, LoadedLibrary] = {}
        self.profiler: FunctionProfiler | None = None
        #: False until the workload enters its iteration loop; functions
        #: first used before then are startup/initialization code - the
        #: "used bloat" candidates of paper SS5.
        self.steady_state = False

    # -- profiling ------------------------------------------------------------------

    def attach_profiler(self, profiler: FunctionProfiler) -> None:
        self.profiler = profiler
        self.clock.advance(profiler.attach_cost)

    def detach_profiler(self) -> None:
        self.profiler = None

    # -- library loading -----------------------------------------------------------------

    def load_library(self, lib: SharedLibrary) -> LoadedLibrary:
        """dlopen: charge I/O + link time, account residency by mode."""
        existing = self.libraries.get(lib.soname)
        if existing is not None:
            return existing

        removed = int(lib.tags.get("removed_bytes_total", 0))
        retained_file_bytes = lib.file_size - removed

        io_time = retained_file_bytes / self.costs.disk_bandwidth
        link_time = self.costs.link_per_symbol * len(lib.symtab)
        self.clock.advance(self.costs.dlopen_fixed + io_time + link_time)

        if self.loading_mode is LoadingMode.EAGER:
            resident = retained_file_bytes
        else:
            resident = min(lib.data.materialized_size, retained_file_bytes)
        self.host_memory.allocate(f"lib:{lib.soname}", resident)

        loaded = LoadedLibrary(
            lib=lib,
            resident_bytes=resident,
            used_mask=np.zeros(len(lib.symtab), dtype=bool),
            startup_mask=np.zeros(len(lib.symtab), dtype=bool),
        )
        self.libraries[lib.soname] = loaded
        return loaded

    def require(self, soname: str) -> LoadedLibrary:
        loaded = self.libraries.get(soname)
        if loaded is None:
            raise LibraryNotFoundError(f"{soname} is not loaded in this process")
        return loaded

    # -- CPU execution ----------------------------------------------------------------------

    def call_functions(
        self,
        soname: str,
        indices: np.ndarray,
        cpu_seconds: float = 0.0,
        calls: int = 1,
    ) -> None:
        """Execute the functions at ``indices`` in ``soname``.

        ``indices`` are symbol-table indices; ``cpu_seconds`` is the total
        host compute charged (scaled by the profiler slowdown when attached,
        modelling binary-instrumentation overhead).  Raises
        :class:`MissingFunctionError` if any target was removed by
        debloating - the CPU-side verification signal.
        """
        loaded = self.require(soname)
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size:
            if indices.min() < 0 or indices.max() >= len(loaded.used_mask):
                raise MissingFunctionError(
                    f"{soname}: call to out-of-range function index"
                )
            removed_mask = loaded.lib.tags.get("removed_function_mask")
            if removed_mask is not None:
                hit = removed_mask[indices]
                if hit.any():
                    bad = int(indices[hit][0])
                    name = loaded.lib.symtab.name(bad)
                    raise MissingFunctionError(
                        f"{soname}: call into removed function {name!r} "
                        f"(zeroed by debloating)"
                    )
            fresh = indices[~loaded.used_mask[indices]]
            if fresh.size:
                loaded.used_mask[fresh] = True
                if not self.steady_state and loaded.startup_mask is not None:
                    loaded.startup_mask[fresh] = True
                if self.loading_mode is LoadingMode.LAZY:
                    touched = int(
                        loaded.lib.symtab.sizes[fresh].astype(np.int64).sum()
                    )
                    loaded.touched_code_bytes += touched
                    self.host_memory.allocate(f"code:{soname}", touched)
                if self.profiler is not None:
                    self.profiler.record(soname, fresh)

        slowdown = (
            self.costs.cpu_profiler_slowdown if self.profiler is not None else 1.0
        )
        if cpu_seconds:
            self.clock.advance(cpu_seconds * slowdown)

    def mark_steady_state(self) -> None:
        """Called by the runner when the iteration loop begins."""
        self.steady_state = True

    # -- reporting --------------------------------------------------------------------------

    def used_function_indices(self) -> dict[str, np.ndarray]:
        """Per-library indices of functions executed so far."""
        return {
            soname: np.flatnonzero(loaded.used_mask)
            for soname, loaded in self.libraries.items()
        }

    def resident_library_bytes(self) -> int:
        return sum(loaded.resident_bytes for loaded in self.libraries.values())
