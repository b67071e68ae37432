"""Loader/process tests: residency modes, function calls, profiler, linker."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cuda.driver import LoadingMode
from repro.errors import (
    LibraryNotFoundError,
    MissingFunctionError,
    SymbolResolutionError,
)
from repro.loader.linker import resolve_symbol
from repro.loader.process import ProcessImage
from repro.loader.profiler import FunctionProfiler

from tests.conftest import build_small_library


def make_process(mode=LoadingMode.EAGER):
    return ProcessImage(loading_mode=mode)


class TestLoadLibrary:
    def test_eager_residency_is_full_file(self, small_library):
        p = make_process()
        loaded = p.load_library(small_library)
        assert loaded.resident_bytes == small_library.file_size

    def test_lazy_residency_is_structural(self, small_library):
        p = make_process(LoadingMode.LAZY)
        loaded = p.load_library(small_library)
        assert loaded.resident_bytes <= small_library.data.materialized_size
        assert loaded.resident_bytes < small_library.file_size

    def test_debloated_residency_excludes_removed(self, small_library):
        lib = small_library.copy()
        lib.tags["removed_bytes_total"] = 500
        p = make_process()
        loaded = p.load_library(lib)
        assert loaded.resident_bytes == lib.file_size - 500

    def test_load_charges_io_time(self, small_library):
        p = make_process()
        before = p.clock.now
        p.load_library(small_library)
        expected_io = small_library.file_size / p.costs.disk_bandwidth
        assert p.clock.now >= before + expected_io

    def test_load_idempotent(self, small_library):
        p = make_process()
        a = p.load_library(small_library)
        b = p.load_library(small_library)
        assert a is b

    def test_interpreter_baseline_allocated(self):
        p = make_process()
        assert p.host_memory.current >= p.costs.interpreter_host_bytes

    def test_require_unknown(self):
        with pytest.raises(LibraryNotFoundError):
            make_process().require("nope.so")


class TestCallFunctions:
    def test_marks_used(self, small_library):
        p = make_process()
        p.load_library(small_library)
        p.call_functions(small_library.soname, np.array([0, 3, 3]))
        used = p.used_function_indices()[small_library.soname]
        assert list(used) == [0, 3]

    def test_out_of_range_rejected(self, small_library):
        p = make_process()
        p.load_library(small_library)
        with pytest.raises(MissingFunctionError):
            p.call_functions(small_library.soname, np.array([999]))

    def test_removed_function_raises(self, small_library):
        lib = small_library.copy()
        mask = np.zeros(len(lib.symtab), dtype=bool)
        mask[2] = True
        lib.tags["removed_function_mask"] = mask
        p = make_process()
        p.load_library(lib)
        p.call_functions(lib.soname, np.array([0, 1]))  # fine
        with pytest.raises(MissingFunctionError) as err:
            p.call_functions(lib.soname, np.array([2]))
        assert "fn_2" in str(err.value)
        assert lib.symtab._names is None  # named without decoding the table

    def test_lazy_mode_charges_touched_code(self, small_library):
        p = make_process(LoadingMode.LAZY)
        p.load_library(small_library)
        before = p.host_memory.current
        p.call_functions(small_library.soname, np.array([0, 1]))
        assert p.host_memory.current == before + 128  # 2 functions x 64 B

    def test_eager_mode_no_extra_residency(self, small_library):
        p = make_process()
        p.load_library(small_library)
        before = p.host_memory.current
        p.call_functions(small_library.soname, np.array([0, 1]))
        assert p.host_memory.current == before

    def test_cpu_seconds_charged(self, small_library):
        p = make_process()
        p.load_library(small_library)
        before = p.clock.now
        p.call_functions(small_library.soname, np.zeros(0, dtype=np.int64),
                         cpu_seconds=2.5)
        assert p.clock.now == pytest.approx(before + 2.5)

    def test_profiler_slowdown_applied(self, small_library):
        p = make_process()
        p.load_library(small_library)
        p.attach_profiler(FunctionProfiler(attach_cost=0.0))
        before = p.clock.now
        p.call_functions(small_library.soname, np.zeros(0, dtype=np.int64),
                         cpu_seconds=1.0)
        assert p.clock.now == pytest.approx(
            before + p.costs.cpu_profiler_slowdown
        )


class TestProfiler:
    def test_records_only_fresh(self, small_library):
        p = make_process()
        p.load_library(small_library)
        profiler = FunctionProfiler(attach_cost=0.0)
        p.attach_profiler(profiler)
        p.call_functions(small_library.soname, np.array([1, 2]))
        p.call_functions(small_library.soname, np.array([2, 3]))
        used = profiler.used_functions()[small_library.soname]
        assert list(used) == [1, 2, 3]
        assert profiler.used_count() == 3

    def test_misses_pre_attach_usage(self, small_library):
        """Profiling-based detection only sees the profiled run - the
        reason Negativa profiles a dedicated run from process start."""
        p = make_process()
        p.load_library(small_library)
        p.call_functions(small_library.soname, np.array([0]))
        profiler = FunctionProfiler(attach_cost=0.0)
        p.attach_profiler(profiler)
        p.call_functions(small_library.soname, np.array([0, 1]))
        used = profiler.used_functions()[small_library.soname]
        assert list(used) == [1]

    def test_clear(self):
        profiler = FunctionProfiler()
        profiler.record("a.so", np.array([1]))
        profiler.clear()
        assert profiler.used_count() == 0

    def test_detach(self, small_library):
        p = make_process()
        p.load_library(small_library)
        profiler = FunctionProfiler(attach_cost=0.0)
        p.attach_profiler(profiler)
        p.detach_profiler()
        p.call_functions(small_library.soname, np.array([5]))
        assert profiler.used_count() == 0


class TestLinker:
    def test_resolves_global(self, small_library):
        lib, idx = resolve_symbol([small_library], "fn_4")
        assert lib is small_library
        assert idx == 4

    def test_first_definition_wins(self):
        a = build_small_library("a.so")
        b = build_small_library("b.so")
        lib, _ = resolve_symbol([a, b], "fn_0")
        assert lib is a

    def test_undefined_raises(self, small_library):
        with pytest.raises(SymbolResolutionError):
            resolve_symbol([small_library], "missing_symbol")
