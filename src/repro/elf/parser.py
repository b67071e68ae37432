"""ELF64 reader: parse a :class:`SparseFile` back into a :class:`SharedLibrary`.

The parser walks the section header table, decodes ``.shstrtab`` for section
names, and wraps ``.symtab``/``.strtab`` in a
:class:`~repro.elf.symtab.SymbolTable` without copying them: the table reads
both through zero-copy views of the file's own bytes and decodes symbol
names only on demand.  It is strict about the invariants the rest of the
pipeline relies on (entry sizes, link indices, bounds, symbol-name offsets
and encoding), so a library that parses never fails later on its names.
"""

from __future__ import annotations

from repro.elf import constants as C
from repro.elf.image import Section, SharedLibrary
from repro.elf.structs import Elf64Header, Elf64SectionHeader
from repro.elf.strtab import StringTable
from repro.elf.symtab import SymbolTable
from repro.errors import ElfFormatError
from repro.utils.intervals import Range
from repro.utils.sparsefile import SparseFile


def parse_shared_library(
    data: SparseFile | bytes,
    soname: str = "unknown.so",
    proprietary: bool = False,
) -> SharedLibrary:
    """Parse an ELF64 image into a :class:`SharedLibrary`."""
    if isinstance(data, (bytes, bytearray)):
        data = SparseFile.from_bytes(bytes(data))

    if data.logical_size < C.EHDR_SIZE:
        raise ElfFormatError(f"{soname}: file too small for an ELF header")
    header = Elf64Header.unpack(data.read(0, C.EHDR_SIZE))

    if header.e_shoff == 0 or header.e_shnum == 0:
        raise ElfFormatError(f"{soname}: no section header table")
    table_size = header.e_shnum * C.SHDR_SIZE
    if header.e_shoff + table_size > data.logical_size:
        raise ElfFormatError(f"{soname}: section header table out of bounds")
    raw_table = data.read(header.e_shoff, table_size)
    raw_headers = [
        Elf64SectionHeader.unpack(raw_table[i * C.SHDR_SIZE : (i + 1) * C.SHDR_SIZE])
        for i in range(header.e_shnum)
    ]

    if header.e_shstrndx >= header.e_shnum:
        raise ElfFormatError(f"{soname}: e_shstrndx out of range")
    shstr_hdr = raw_headers[header.e_shstrndx]
    if shstr_hdr.sh_type != C.SHT_STRTAB:
        raise ElfFormatError(f"{soname}: shstrtab section is not SHT_STRTAB")
    shstrtab = StringTable(data.read(shstr_hdr.sh_offset, shstr_hdr.sh_size))

    sections: list[Section] = []
    for shdr in raw_headers:
        name = "" if shdr.sh_type == C.SHT_NULL and shdr.sh_name == 0 else shstrtab.get(
            shdr.sh_name
        )
        if shdr.sh_type != C.SHT_NOBITS and shdr.sh_size > 0:
            if shdr.sh_offset + shdr.sh_size > data.logical_size:
                raise ElfFormatError(
                    f"{soname}: section {name!r} extends past end of file"
                )
        sections.append(Section(name, shdr))

    symtab = _parse_symtab(data, sections, soname)
    return SharedLibrary(
        soname=soname,
        data=data,
        sections=sections,
        symtab=symtab,
        proprietary=proprietary,
    )


def parsed_ranges(lib: SharedLibrary) -> list[Range]:
    """The byte ranges :func:`parse_shared_library` decodes ``lib`` from.

    The ELF header, the section header table, ``.shstrtab``, and the symbol
    table with its string table.  An image of the same logical size that
    is byte-equal to ``lib.data`` on these ranges parses to ``lib``'s
    sections and symbol table.
    """
    header = Elf64Header.unpack(lib.data.read(0, C.EHDR_SIZE))
    ranges = [
        Range(0, C.EHDR_SIZE),
        Range(header.e_shoff, header.e_shoff + header.e_shnum * C.SHDR_SIZE),
        lib.sections[header.e_shstrndx].file_range,
    ]
    tables = _symtab_sections(lib.sections, lib.soname)
    if tables is not None:
        ranges.extend(sec.file_range for sec in tables)
    return ranges


def _symtab_sections(
    sections: list[Section], soname: str
) -> tuple[Section, Section] | None:
    """The first symbol table section and the string table it links to."""
    for sec in sections:
        if sec.header.sh_type in (C.SHT_SYMTAB, C.SHT_DYNSYM):
            if sec.header.sh_entsize not in (0, C.SYM_SIZE):
                raise ElfFormatError(
                    f"{soname}: symbol entry size {sec.header.sh_entsize}"
                )
            link = sec.header.sh_link
            if link >= len(sections):
                raise ElfFormatError(f"{soname}: symtab sh_link out of range")
            str_sec = sections[link]
            if str_sec.header.sh_type != C.SHT_STRTAB:
                raise ElfFormatError(
                    f"{soname}: symtab links to non-STRTAB section {str_sec.name!r}"
                )
            return sec, str_sec
    return None


def _parse_symtab(
    data: SparseFile, sections: list[Section], soname: str
) -> SymbolTable:
    tables = _symtab_sections(sections, soname)
    if tables is None:
        return SymbolTable.empty()
    sym_sec, str_sec = tables
    sym_view = data.view(sym_sec.header.sh_offset, sym_sec.header.sh_size)
    str_view = data.view(str_sec.header.sh_offset, str_sec.header.sh_size)
    try:
        return SymbolTable.parse(sym_view, str_view)
    except ElfFormatError as exc:
        raise ElfFormatError(f"{soname}: {sym_sec.name}: {exc}") from None
