"""Compaction (Negativa's third phase, paper §3.2 "Compaction").

Removed ranges are zeroed in place while the library stays structurally
loadable: ELF headers, section headers, symbol tables, and fatbin
region/element headers are never touched, and removed fatbin elements are
flagged ``ELEMENT_FLAG_REMOVED`` in their headers so loaders skip them
instead of parsing zeroed cubins.  File offsets of retained code never
move - the "map file offsets to original memory addresses" property the
paper inherits from Negativa - while the *on-disk* size drops by the
removed bytes (holes), which is the file-size reduction the tables report.

Because compaction never touches a structural byte, the debloated library
reuses the original's parsed structure (:meth:`SharedLibrary.with_data`):
its section list and symbol table are the original's objects, and only the
fatbin is parsed again, lazily, from the compacted bytes.  The compactor
still validates every result.  :func:`reparse_oracle` builds the same
library the slow way, by re-parsing the compacted bytes, and tests hold the
two equal.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.cuda.clock import VirtualClock
from repro.cuda.costs import DEFAULT_COSTS, CostModel
from repro.elf.image import SharedLibrary
from repro.elf.parser import parse_shared_library
from repro.elf.validate import validate_shared_library
from repro.errors import CompactionError
from repro.fatbin import constants as FC
from repro.core.cpu import FunctionLocateResult
from repro.core.locate import LocateResult
from repro.utils.intervals import RangeSet
from repro.utils.sparsefile import SparseFile

#: Byte offset of the ``flags`` field inside an element header
#: (kind/version/header_size/sm_arch: 4 x u16; payload/padded: 2 x u64;
#: compressed: u32 - then flags).
_ELEMENT_FLAGS_OFFSET = 8 + 16 + 4


@dataclass
class DebloatedLibrary:
    """A compacted library plus its removal record."""

    lib: SharedLibrary
    original: SharedLibrary
    removed_cpu_ranges: RangeSet
    removed_gpu_ranges: RangeSet
    removed_elements: int
    removed_functions: int

    @property
    def soname(self) -> str:
        return self.lib.soname

    @property
    def removed_cpu_bytes(self) -> int:
        return self.removed_cpu_ranges.total()

    @property
    def removed_gpu_bytes(self) -> int:
        return self.removed_gpu_ranges.total()

    @property
    def removed_bytes_total(self) -> int:
        return self.removed_cpu_bytes + self.removed_gpu_bytes

    @cached_property
    def compacted_file_size(self) -> int:
        """On-disk size after compaction (holes do not occupy storage)."""
        return self.original.file_size - self.removed_bytes_total


@dataclass
class Compactor:
    """Zeroes removed ranges and marks removed elements."""

    costs: CostModel = DEFAULT_COSTS

    def compact(
        self,
        lib: SharedLibrary,
        cpu: FunctionLocateResult | None = None,
        gpu: LocateResult | None = None,
        clock: VirtualClock | None = None,
        validate: bool = True,
    ) -> DebloatedLibrary:
        """Produce the debloated library.

        ``cpu`` is the CPU-function locate result (None = keep all CPU
        code); ``gpu`` the kernel-locate result (None = keep all GPU code).
        """
        data = lib.data.copy()
        removed_cpu = RangeSet.empty()
        removed_gpu = RangeSet.empty()
        removed_elements = 0
        removed_functions = 0

        structural = lib.structural_ranges()

        if gpu is not None and gpu.remove_ranges:
            image = lib.fatbin
            if image is None:
                raise CompactionError(f"{lib.soname}: GPU result without fatbin")
            removed_gpu = gpu.remove_ranges
            if structural & removed_gpu:
                raise CompactionError(
                    f"{lib.soname}: GPU removal overlaps structural ranges"
                )
            removed_index = set(gpu.removed_element_indices().tolist())
            payload_holes: list[tuple[int, int]] = []
            flag_offsets: list[int] = []
            flag_words: list[bytes] = []
            for element in image.elements():
                if element.index not in removed_index:
                    continue
                # Zero the cubin payload, keep the header walkable, flag it.
                payload_holes.append(
                    (
                        element.payload_offset,
                        element.payload_offset
                        + element.header.padded_payload_size,
                    )
                )
                flag_offsets.append(
                    element.header_offset + _ELEMENT_FLAGS_OFFSET
                )
                flag_words.append(
                    struct.pack(
                        "<I", element.header.flags | FC.ELEMENT_FLAG_REMOVED
                    )
                )
                removed_elements += 1
            if flag_offsets:
                # Flag words land at distinct header offsets and payload
                # ranges never overlap the headers, so batching both - the
                # flag patches through write_batch, the holes through
                # zero_ranges - is order-equivalent to the per-element
                # write/zero interleaving.
                data.write_batch(
                    np.asarray(flag_offsets, dtype=np.int64), flag_words
                )
                holes = np.asarray(payload_holes, dtype=np.int64)
                data.zero_ranges(RangeSet.from_arrays(holes[:, 0], holes[:, 1]))

        if cpu is not None and cpu.remove_ranges:
            removed_cpu = cpu.remove_ranges
            if structural & removed_cpu:
                raise CompactionError(
                    f"{lib.soname}: CPU removal overlaps structural ranges"
                )
            data.zero_ranges(removed_cpu)
            removed_functions = cpu.removed_functions

        if clock is not None:
            processed = removed_cpu.total() + removed_gpu.total()
            clock.advance(processed / self.costs.compact_bandwidth)

        mask = None
        if cpu is not None:
            mask = np.ones(len(lib.symtab), dtype=bool)
            if cpu.used_indices.size:
                mask[cpu.used_indices] = False
            # Non-function symbols (if any) are never removed.
            mask &= lib.symtab.function_mask()
        new_lib = derive_debloated(
            lib, data, removed_cpu.total() + removed_gpu.total(), mask
        )

        if validate:
            findings = validate_shared_library(new_lib)
            errors = [f for f in findings if f.severity == "error"]
            if errors:
                raise CompactionError(
                    f"{lib.soname}: compaction broke the library: "
                    + "; ".join(f.message for f in errors)
                )

        return DebloatedLibrary(
            lib=new_lib,
            original=lib,
            removed_cpu_ranges=removed_cpu,
            removed_gpu_ranges=removed_gpu,
            removed_elements=removed_elements,
            removed_functions=removed_functions,
        )


def derive_debloated(
    original: SharedLibrary,
    data: SparseFile,
    removed_bytes_total: int,
    removed_function_mask: np.ndarray | None = None,
) -> SharedLibrary:
    """The debloated library over compacted ``data``.

    ``data`` must keep every structural byte of ``original`` (what
    :meth:`Compactor.compact` guarantees), so the result shares the
    original's parsed sections and symbol table instead of re-parsing.
    """
    lib = original.with_data(data)
    _record_removal(lib, original, removed_bytes_total, removed_function_mask)
    return lib


def reparse_oracle(debloated: DebloatedLibrary) -> SharedLibrary:
    """Test oracle: ``debloated.lib`` rebuilt by fully re-parsing its bytes.

    The result must equal ``debloated.lib`` in sections, symbols, fatbin
    headers, validation findings and bytes - the proof that sharing the
    original's structure is sound.
    """
    lib = parse_shared_library(
        debloated.lib.data.copy(), debloated.soname, debloated.lib.proprietary
    )
    _record_removal(
        lib,
        debloated.original,
        debloated.removed_bytes_total,
        debloated.lib.tags.get("removed_function_mask"),
    )
    return lib


def _record_removal(
    lib: SharedLibrary,
    original: SharedLibrary,
    removed_bytes_total: int,
    removed_function_mask: np.ndarray | None,
) -> None:
    lib.tags.update(original.tags)
    lib.tags["debloated_from"] = original.soname
    lib.tags["removed_bytes_total"] = removed_bytes_total
    if removed_function_mask is not None:
        lib.tags["removed_function_mask"] = removed_function_mask


def exact_kernel_removal(
    debloated: DebloatedLibrary, used_kernels: frozenset[str]
) -> SharedLibrary:
    """ABLATION: additionally remove unused kernels *inside* retained cubins.

    The paper's locator deliberately retains whole elements so GPU-launching
    kernels (invisible to the detector) survive.  This ablation shows why:
    it removes every kernel whose name the detector did not record -
    including the device-side children of used kernels - and the workload
    then fails at launch with a broken kernel-call graph
    (``bench_ablation_granularity``).
    """
    lib = debloated.lib.copy()
    lib.tags = dict(debloated.lib.tags)
    image = lib.fatbin
    removed: dict[int, set[int]] = {}
    if image is not None:
        for element in image.elements():
            if element.header.flags & FC.ELEMENT_FLAG_REMOVED:
                continue
            try:
                cubin = element.cubin
            except Exception:  # noqa: BLE001 - zeroed payloads are skipped
                continue
            holes = {
                i for i, name in enumerate(cubin.names)
                if name not in used_kernels
            }
            if holes:
                removed[element.index] = holes
    lib.tags["removed_kernels"] = removed
    return lib
