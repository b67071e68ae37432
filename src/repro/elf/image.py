"""Parsed shared-library image: the object the whole pipeline passes around.

A :class:`SharedLibrary` owns its backing :class:`SparseFile` plus decoded
structure: section list, symbol table, and (lazily) the fatbin image.  It
exposes the size accounting the paper's tables use - total file size, CPU
code size (``.text``), GPU code size (``.nv_fatbin``), function count,
element count - and the file-range views the locator/compactor operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.elf import constants as C
from repro.elf.structs import Elf64SectionHeader
from repro.elf.symtab import SymbolTable
from repro.errors import ElfFormatError
from repro.utils.intervals import Range, RangeSet
from repro.utils.sparsefile import SparseFile


@dataclass
class Section:
    """A named section with its header."""

    name: str
    header: Elf64SectionHeader

    @property
    def file_range(self) -> Range:
        return Range(self.header.sh_offset, self.header.sh_offset + self.header.sh_size)

    @property
    def size(self) -> int:
        return self.header.sh_size


@dataclass
class SharedLibrary:
    """A shared library as seen by Negativa-ML.

    Attributes
    ----------
    soname:
        Library file name, e.g. ``"libtorch_cuda.so"``.
    data:
        Backing sparse file (byte-accurate ELF image).
    sections:
        All sections including the NULL entry at index 0.
    symtab:
        Function symbol table (empty for libraries with no symbols).
    proprietary:
        True for closed-source vendor libraries (cuDNN/cuBLAS-like); the
        pipeline must not assume anything beyond binary structure for these.
    """

    soname: str
    data: SparseFile
    sections: list[Section]
    symtab: SymbolTable
    proprietary: bool = False
    tags: dict = field(default_factory=dict)

    # -- section access ---------------------------------------------------------

    def section(self, name: str) -> Section | None:
        for sec in self.sections:
            if sec.name == name:
                return sec
        return None

    def require_section(self, name: str) -> Section:
        sec = self.section(name)
        if sec is None:
            raise ElfFormatError(f"{self.soname}: missing section {name!r}")
        return sec

    @property
    def text(self) -> Section | None:
        return self.section(C.SEC_TEXT)

    @property
    def fatbin_section(self) -> Section | None:
        return self.section(C.SEC_NV_FATBIN)

    @property
    def has_gpu_code(self) -> bool:
        sec = self.fatbin_section
        return sec is not None and sec.size > 0

    # -- size accounting (the paper's metrics) -------------------------------------

    @property
    def file_size(self) -> int:
        return self.data.logical_size

    @property
    def cpu_code_size(self) -> int:
        sec = self.text
        return sec.size if sec is not None else 0

    @property
    def gpu_code_size(self) -> int:
        sec = self.fatbin_section
        return sec.size if sec is not None else 0

    @property
    def function_count(self) -> int:
        return self.symtab.function_count()

    # -- function geometry (CPU locator inputs) -------------------------------------

    def function_file_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """(start_offsets, sizes) of all functions, as file offsets.

        Under the generator's layout ``vaddr == file offset`` for allocated
        sections (position-independent code loaded at base 0), so symbol
        values are usable directly as file offsets.  Mirrors Negativa's
        treatment of PIC shared libraries.
        """
        mask = self.symtab.function_mask()
        return (
            self.symtab.values[mask].astype(np.int64),
            self.symtab.sizes[mask].astype(np.int64),
        )

    def function_names(self) -> list[str]:
        mask = self.symtab.function_mask()
        if mask.all():
            return list(self.symtab.names)
        return [n for n, m in zip(self.symtab.names, mask) if m]

    # -- fatbin --------------------------------------------------------------------

    def fatbin_bytes(self) -> bytes:
        sec = self.fatbin_section
        if sec is None or sec.size == 0:
            return b""
        return self.data.read(sec.header.sh_offset, sec.header.sh_size)

    @cached_property
    def fatbin(self):
        """Parsed fatbin image (lazy; import deferred to avoid a cycle).

        Parses directly from sparse storage: only structural bytes are read,
        never kernel code areas, so paper-scale sections parse in
        milliseconds.
        """
        from repro.fatbin.parser import parse_fatbin

        sec = self.fatbin_section
        if sec is None or sec.size == 0:
            return None
        return parse_fatbin(
            self.data, base_offset=sec.header.sh_offset, size=sec.header.sh_size
        )

    @property
    def element_count(self) -> int:
        img = self.fatbin
        if img is None:
            return 0
        return sum(len(region.elements) for region in img.regions)

    # -- structural ranges -----------------------------------------------------------

    def structural_ranges(self) -> RangeSet:
        """Ranges the compactor must never remove: headers and tables.

        Everything outside ``.text`` and ``.nv_fatbin`` payload ranges is
        structural (ELF header, section headers, symbol/string tables, data
        sections) - removing those would break loadability.
        """
        universe = Range(0, self.file_size)
        payload = RangeSet(
            sec.file_range
            for sec in self.sections
            if sec.name in (C.SEC_TEXT, C.SEC_NV_FATBIN) and sec.size > 0
        )
        return payload.complement(universe)

    def with_data(self, data: SparseFile) -> "SharedLibrary":
        """This library's parsed structure over different bytes.

        For images whose structural bytes equal this one's - compaction's
        output, which only zeroes code and patches fatbin flag words.  The
        section list and the (read-only) symbol table are shared, not
        re-parsed; ``tags`` start empty and the fatbin is parsed lazily
        from ``data``.
        """
        return SharedLibrary(
            soname=self.soname,
            data=data,
            sections=self.sections,
            symtab=self.symtab,
            proprietary=self.proprietary,
        )

    def copy(self) -> "SharedLibrary":
        return SharedLibrary(
            soname=self.soname,
            data=self.data.copy(),
            sections=[Section(s.name, Elf64SectionHeader(**vars(s.header)))
                      for s in self.sections],
            symtab=self.symtab,
            proprietary=self.proprietary,
            tags=dict(self.tags),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedLibrary({self.soname!r}, size={self.file_size}, "
            f"functions={self.function_count}, gpu={self.gpu_code_size})"
        )
