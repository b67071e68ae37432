"""ELF64 container tests: structs, string/symbol tables, builder/parser
round trips, and the validator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.elf import constants as C
from repro.elf.builder import ElfBuilder
from repro.elf.image import Section
from repro.elf.parser import parse_shared_library
from repro.elf.structs import Elf64Header, Elf64SectionHeader, Elf64Sym
from repro.elf.strtab import StringTable, StringTableBuilder
from repro.elf.symtab import SymbolTable
from repro.elf.validate import validate_shared_library
from repro.errors import ConfigurationError, ElfFormatError
from repro.utils.sparsefile import SparseFile

from tests.conftest import build_small_library


class TestStructs:
    def test_header_roundtrip(self):
        hdr = Elf64Header(e_shoff=0x1234, e_shnum=7, e_shstrndx=6)
        assert Elf64Header.unpack(hdr.pack()) == hdr

    def test_header_size(self):
        assert len(Elf64Header().pack()) == C.EHDR_SIZE

    def test_bad_magic_rejected(self):
        raw = bytearray(Elf64Header().pack())
        raw[0] = 0x7E
        with pytest.raises(ElfFormatError):
            Elf64Header.unpack(bytes(raw))

    def test_elf32_rejected(self):
        raw = bytearray(Elf64Header().pack())
        raw[4] = 1  # ELFCLASS32
        with pytest.raises(ElfFormatError):
            Elf64Header.unpack(bytes(raw))

    def test_big_endian_rejected(self):
        raw = bytearray(Elf64Header().pack())
        raw[5] = 2
        with pytest.raises(ElfFormatError):
            Elf64Header.unpack(bytes(raw))

    def test_truncated_header(self):
        with pytest.raises(ElfFormatError):
            Elf64Header.unpack(b"\x7fELF")

    def test_shdr_roundtrip(self):
        shdr = Elf64SectionHeader(
            sh_name=5, sh_type=C.SHT_PROGBITS, sh_offset=64, sh_size=100
        )
        assert Elf64SectionHeader.unpack(shdr.pack()) == shdr

    def test_sym_roundtrip(self):
        sym = Elf64Sym(
            st_name=9,
            st_info=C.st_info(C.STB_GLOBAL, C.STT_FUNC),
            st_shndx=1,
            st_value=0x40,
            st_size=32,
        )
        parsed = Elf64Sym.unpack(sym.pack())
        assert parsed == sym
        assert parsed.bind == C.STB_GLOBAL
        assert parsed.type == C.STT_FUNC

    def test_st_info_packing(self):
        info = C.st_info(C.STB_WEAK, C.STT_OBJECT)
        assert C.st_bind(info) == C.STB_WEAK
        assert C.st_type(info) == C.STT_OBJECT


class TestStringTable:
    def test_empty_string_at_zero(self):
        b = StringTableBuilder()
        assert b.add("") == 0

    def test_dedup(self):
        b = StringTableBuilder()
        assert b.add("foo") == b.add("foo")

    def test_nul_rejected(self):
        with pytest.raises(ValueError):
            StringTableBuilder().add("a\x00b")

    def test_roundtrip(self):
        b = StringTableBuilder()
        off = b.add("hello")
        table = StringTable(b.finish())
        assert table.get(off) == "hello"

    def test_add_many_offsets(self):
        b = StringTableBuilder()
        names = [f"n{i}" for i in range(100)]
        offsets = b.add_many(names)
        table = StringTable(b.finish())
        assert table.get_many(offsets) == names

    def test_must_start_with_nul(self):
        with pytest.raises(ElfFormatError):
            StringTable(b"abc\x00")

    def test_must_end_with_nul(self):
        with pytest.raises(ElfFormatError):
            StringTable(b"\x00abc")

    def test_offset_out_of_range(self):
        table = StringTable(b"\x00ab\x00")
        with pytest.raises(ElfFormatError):
            table.get(99)

    @given(st.lists(st.text(
        alphabet=st.characters(blacklist_characters="\x00",
                               blacklist_categories=("Cs",)),
        min_size=1, max_size=12), min_size=1, max_size=20, unique=True))
    def test_roundtrip_property(self, names):
        b = StringTableBuilder()
        offsets = b.add_many(names)
        table = StringTable(b.finish())
        assert table.get_many(offsets) == names


class TestSymbolTable:
    def _table(self, n=10):
        names = [f"fn{i}" for i in range(n)]
        values = np.arange(n, dtype=np.int64) * 100
        sizes = np.full(n, 100, dtype=np.int64)
        return SymbolTable.for_functions(names, values, sizes, section_index=1)

    def test_counts(self):
        t = self._table(7)
        assert len(t) == 7
        assert t.function_count() == 7
        assert t.function_bytes() == 700

    def test_serialization_roundtrip(self):
        t = self._table()
        strtab = StringTableBuilder()
        raw = t.to_bytes(strtab)
        parsed = SymbolTable.parse(raw, strtab.finish())
        assert parsed.names == t.names
        assert np.array_equal(parsed.values, t.values)
        assert np.array_equal(parsed.sizes, t.sizes)

    def test_index_of(self):
        t = self._table()
        assert t.index_of("fn3") == 3
        with pytest.raises(KeyError):
            t.index_of("nope")

    def test_name_index(self):
        assert self._table(4).name_index()["fn2"] == 2

    def test_misaligned_size_rejected(self):
        with pytest.raises(ElfFormatError):
            SymbolTable.parse(b"\x00" * 25, b"\x00")

    def test_entries_are_read_only(self):
        t = self._table()
        with pytest.raises(ValueError):
            t.entries["st_value"][0] = 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            SymbolTable(np.zeros(2, dtype=self._table().entries.dtype), ["a"])


class TestBuilderParser:
    def test_roundtrip_counts(self, small_library):
        assert small_library.function_count == 12
        assert small_library.element_count == 4
        assert small_library.cpu_code_size == 12 * 64

    def test_vaddr_equals_offset(self, small_library):
        values, sizes = small_library.function_file_ranges()
        text = small_library.text
        assert values[0] == text.header.sh_offset
        data = small_library.data.read(int(values[0]), int(sizes[0]))
        assert len(data) == 64

    def test_full_byte_roundtrip(self, small_library):
        raw = small_library.data.to_bytes()
        reparsed = parse_shared_library(raw, small_library.soname)
        assert reparsed.function_count == small_library.function_count
        assert reparsed.element_count == small_library.element_count
        assert [s.name for s in reparsed.sections] == [
            s.name for s in small_library.sections
        ]

    def test_sparse_section_has_logical_size(self):
        b = ElfBuilder("lib.so")
        b.add_section(".blob", logical_size=1 << 20)
        lib = parse_shared_library(b.build(), "lib.so")
        sec = lib.section(".blob")
        assert sec is not None and sec.size == 1 << 20
        assert lib.data.materialized_size < 4096

    def test_duplicate_section_rejected(self):
        b = ElfBuilder("x.so")
        b.add_text(10)
        with pytest.raises(ConfigurationError):
            b.add_text(10)

    def test_exactly_one_payload_source(self):
        b = ElfBuilder("x.so")
        with pytest.raises(ConfigurationError):
            b.add_section(".a", data=b"x", logical_size=4)
        with pytest.raises(ConfigurationError):
            b.add_section(".b")

    def test_symbols_require_text_section(self):
        b = ElfBuilder("x.so")
        b.set_function_symbols(
            SymbolTable.for_functions(["f"], np.array([0]), np.array([4]), 1)
        )
        with pytest.raises(ConfigurationError):
            b.build()

    def test_sparse_payload_section(self):
        payload = SparseFile(1000)
        payload.write(10, b"marker")
        b = ElfBuilder("x.so")
        b.add_section(".payload", sparse=payload)
        lib = parse_shared_library(b.build(), "x.so")
        sec = lib.section(".payload")
        assert lib.data.read(sec.header.sh_offset + 10, 6) == b"marker"

    def test_no_section_table_rejected(self):
        with pytest.raises(ElfFormatError):
            parse_shared_library(Elf64Header().pack() + b"\x00" * 64)

    def test_truncated_file_rejected(self):
        with pytest.raises(ElfFormatError):
            parse_shared_library(b"\x7fELF")


def _with_symbol_moved(lib, index: int, value: int):
    """``lib`` with a corrupted copy of its symbol table (tables are shared
    and read-only, so corruption builds a new one)."""
    entries = lib.symtab.entries.copy()
    entries["st_value"][index] = value
    lib.symtab = SymbolTable(entries, lib.symtab.names)
    return lib


class TestValidator:
    def test_clean_library_has_no_errors(self, small_library):
        findings = validate_shared_library(small_library)
        assert not [f for f in findings if f.severity == "error"]

    def test_symbol_outside_text_detected(self, small_library):
        lib = _with_symbol_moved(small_library.copy(), 0, 10**9)
        findings = validate_shared_library(lib)
        assert any("outside .text" in f.message for f in findings)

    def test_overlapping_sections_detected(self, small_library):
        lib = small_library.copy()
        # Force .nv_fatbin to overlap .text.
        fat = lib.fatbin_section
        fat.header.sh_offset = lib.text.header.sh_offset
        findings = validate_shared_library(lib)
        assert any("overlap" in f.message for f in findings)

    def test_strict_mode_raises(self, small_library):
        lib = _with_symbol_moved(small_library.copy(), 0, 10**9)
        with pytest.raises(ElfFormatError):
            validate_shared_library(lib, strict=True)

    def test_structural_ranges_exclude_code(self, small_library):
        structural = small_library.structural_ranges()
        text = small_library.text
        assert not structural.contains_offset(text.header.sh_offset)
        assert structural.contains_offset(0)  # ELF header


class TestSectionHelpers:
    def test_section_lookup(self, small_library):
        assert small_library.section(".text") is not None
        assert small_library.section(".missing") is None

    def test_require_section(self, small_library):
        with pytest.raises(ElfFormatError):
            small_library.require_section(".missing")

    def test_file_range(self, small_library):
        sec = small_library.text
        assert len(sec.file_range) == sec.size

    def test_copy_is_deep_for_data(self, small_library):
        dup = small_library.copy()
        dup.data.write(0, b"\x00")
        assert small_library.data.read(0, 4) == C.ELF_MAGIC

    def test_repr(self, small_library):
        assert "libsmall.so" in repr(small_library)

    def test_function_names(self):
        lib = build_small_library(n_functions=3)
        assert lib.function_names() == ["fn_0", "fn_1", "fn_2"]
