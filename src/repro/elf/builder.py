"""ELF64 writer producing byte-accurate shared objects over sparse storage.

The builder lays out: ELF header | section payloads (in insertion order,
aligned) | ``.symtab`` | ``.strtab`` | ``.shstrtab`` | section header table.
Payloads can be *sparse* (a declared size with no materialized bytes), which
is how generated libraries carry paper-scale ``.text``/``.nv_fatbin``
payloads cheaply; structural bytes (headers, tables) are always materialized
so a parser - ours or ``readelf`` - can walk the image.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.elf import constants as C
from repro.elf.structs import Elf64Header, Elf64SectionHeader
from repro.elf.strtab import StringTableBuilder
from repro.elf.symtab import SymbolTable
from repro.errors import ConfigurationError
from repro.utils.sparsefile import SparseFile


def _align(offset: int, alignment: int) -> int:
    if alignment <= 1:
        return offset
    return (offset + alignment - 1) // alignment * alignment


@dataclass
class _SectionSpec:
    name: str
    sh_type: int
    flags: int
    data: bytes | None
    sparse: SparseFile | None
    logical_size: int
    addralign: int
    entsize: int
    link: int
    info: int
    # Assigned during build():
    offset: int = 0
    index: int = 0


class ElfBuilder:
    """Accumulates sections and symbols, then emits a :class:`SparseFile`."""

    def __init__(self, soname: str) -> None:
        self.soname = soname
        self._sections: list[_SectionSpec] = []
        self._symtab: SymbolTable | None = None
        self._symtab_text_section: str | None = None

    # -- section API -------------------------------------------------------------

    def add_section(
        self,
        name: str,
        sh_type: int = C.SHT_PROGBITS,
        *,
        flags: int = 0,
        data: bytes | None = None,
        sparse: SparseFile | None = None,
        logical_size: int | None = None,
        addralign: int = 16,
        entsize: int = 0,
        link: int = 0,
        info: int = 0,
    ) -> str:
        """Declare a section; returns ``name`` for chaining.

        Exactly one of ``data`` (materialized payload), ``sparse`` (a payload
        with holes, e.g. a fatbin), or ``logical_size`` (an all-hole payload)
        must be given.
        """
        provided = sum(x is not None for x in (data, sparse, logical_size))
        if provided != 1:
            raise ConfigurationError(
                f"section {name!r}: provide exactly one of data/sparse/logical_size"
            )
        if any(s.name == name for s in self._sections):
            raise ConfigurationError(f"duplicate section {name!r}")
        if data is not None:
            size = len(data)
        elif sparse is not None:
            size = sparse.logical_size
        else:
            size = int(logical_size or 0)
        self._sections.append(
            _SectionSpec(
                name=name,
                sh_type=sh_type,
                flags=flags,
                data=data,
                sparse=sparse,
                logical_size=size,
                addralign=addralign,
                entsize=entsize,
                link=link,
                info=info,
            )
        )
        return name

    def add_text(self, logical_size: int, data: bytes | None = None) -> str:
        """Convenience: declare ``.text`` (sparse unless ``data`` given)."""
        if data is not None:
            return self.add_section(
                C.SEC_TEXT, flags=C.SHF_ALLOC | C.SHF_EXECINSTR, data=data
            )
        return self.add_section(
            C.SEC_TEXT,
            flags=C.SHF_ALLOC | C.SHF_EXECINSTR,
            logical_size=logical_size,
        )

    def add_fatbin(self, payload: SparseFile) -> str:
        """Declare ``.nv_fatbin`` holding the GPU code container."""
        return self.add_section(
            C.SEC_NV_FATBIN,
            flags=C.SHF_ALLOC,
            sparse=payload,
            addralign=8,
        )

    def set_function_symbols(self, symtab: SymbolTable,
                             text_section: str = C.SEC_TEXT) -> None:
        """Attach the function symbol table.

        Symbol values are interpreted as offsets *relative to the start of*
        ``text_section`` and relocated to absolute addresses during build.
        """
        self._symtab = symtab
        self._symtab_text_section = text_section

    # -- build ------------------------------------------------------------------------

    def build(self) -> SparseFile:
        """Lay out and serialize the image."""
        specs = list(self._sections)
        shstrtab = StringTableBuilder()

        # Section 0 is the mandatory SHT_NULL entry; real sections follow in
        # insertion order, then .symtab/.strtab/.shstrtab.
        for i, spec in enumerate(specs):
            spec.index = i + 1

        offset = C.EHDR_SIZE
        for spec in specs:
            offset = _align(offset, spec.addralign)
            spec.offset = offset
            offset += spec.logical_size

        # Serialize the symbol table now that section offsets are fixed.
        symtab_bytes = b""
        strtab_bytes = b""
        symtab_offset = strtab_offset = 0
        text_index = 0
        if self._symtab is not None:
            text_spec = next(
                (s for s in specs if s.name == self._symtab_text_section), None
            )
            if text_spec is None:
                raise ConfigurationError(
                    f"symbol table references missing section "
                    f"{self._symtab_text_section!r}"
                )
            text_index = text_spec.index
            entries = self._symtab.entries.copy()
            entries["st_value"] += text_spec.offset + C.DEFAULT_BASE_VADDR
            entries["st_shndx"] = text_index
            reloc = SymbolTable(entries, self._symtab.names)
            strtab_builder = StringTableBuilder()
            symtab_bytes = reloc.to_bytes(strtab_builder)
            strtab_bytes = strtab_builder.finish()

            offset = _align(offset, 8)
            symtab_offset = offset
            offset += len(symtab_bytes)
            strtab_offset = offset
            offset += len(strtab_bytes)

        # Section header names.
        name_offsets = {spec.name: shstrtab.add(spec.name) for spec in specs}
        n_extra = 0
        if self._symtab is not None:
            name_offsets[C.SEC_SYMTAB] = shstrtab.add(C.SEC_SYMTAB)
            name_offsets[C.SEC_STRTAB] = shstrtab.add(C.SEC_STRTAB)
            n_extra = 2
        name_offsets[C.SEC_SHSTRTAB] = shstrtab.add(C.SEC_SHSTRTAB)
        shstrtab_bytes = shstrtab.finish()
        shstrtab_offset = offset
        offset += len(shstrtab_bytes)

        shoff = _align(offset, 8)
        n_sections = 1 + len(specs) + n_extra + 1  # NULL + payloads + (symtabs) + shstrtab
        shstrndx = n_sections - 1

        out = SparseFile(shoff + n_sections * C.SHDR_SIZE)

        header = Elf64Header(
            e_shoff=shoff,
            e_shnum=n_sections,
            e_shstrndx=shstrndx,
        )
        out.write(0, header.pack())

        headers: list[Elf64SectionHeader] = [Elf64SectionHeader()]  # SHT_NULL
        for spec in specs:
            if spec.data is not None:
                out.write(spec.offset, spec.data)
            elif spec.sparse is not None:
                for extent in spec.sparse.extents():
                    out.write(
                        spec.offset + extent.start,
                        spec.sparse.read(extent.start, len(extent)),
                    )
            headers.append(
                Elf64SectionHeader(
                    sh_name=name_offsets[spec.name],
                    sh_type=spec.sh_type,
                    sh_flags=spec.flags,
                    sh_addr=(spec.offset + C.DEFAULT_BASE_VADDR)
                    if spec.flags & C.SHF_ALLOC
                    else 0,
                    sh_offset=spec.offset,
                    sh_size=spec.logical_size,
                    sh_link=spec.link,
                    sh_info=spec.info,
                    sh_addralign=spec.addralign,
                    sh_entsize=spec.entsize,
                )
            )

        if self._symtab is not None:
            strtab_index = 1 + len(specs) + 1
            out.write(symtab_offset, symtab_bytes)
            headers.append(
                Elf64SectionHeader(
                    sh_name=name_offsets[C.SEC_SYMTAB],
                    sh_type=C.SHT_SYMTAB,
                    sh_offset=symtab_offset,
                    sh_size=len(symtab_bytes),
                    sh_link=strtab_index,
                    sh_addralign=8,
                    sh_entsize=C.SYM_SIZE,
                )
            )
            out.write(strtab_offset, strtab_bytes)
            headers.append(
                Elf64SectionHeader(
                    sh_name=name_offsets[C.SEC_STRTAB],
                    sh_type=C.SHT_STRTAB,
                    sh_offset=strtab_offset,
                    sh_size=len(strtab_bytes),
                    sh_addralign=1,
                )
            )

        out.write(shstrtab_offset, shstrtab_bytes)
        headers.append(
            Elf64SectionHeader(
                sh_name=name_offsets[C.SEC_SHSTRTAB],
                sh_type=C.SHT_STRTAB,
                sh_offset=shstrtab_offset,
                sh_size=len(shstrtab_bytes),
                sh_addralign=1,
            )
        )

        assert len(headers) == n_sections
        table = b"".join(h.pack() for h in headers)
        out.write(shoff, table)
        return out
