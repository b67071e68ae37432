"""Lazy, zero-copy symbol tables.

A parsed :class:`SymbolTable` reads ``.symtab`` through a view of the
library's own bytes and decodes names only on demand.  These tests hold it
equal to an eager oracle - the per-name decode every table used to go
through at parse time - and check that the serving path never decodes a
name nor copies a table.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import AdmitRequest, DebloatEngine, EngineConfig
from repro.core.debloat import DebloatOptions
from repro.elf import constants as C
from repro.elf.parser import parse_shared_library
from repro.elf.strtab import StringTableBuilder
from repro.elf.symtab import SYM_DTYPE, SymbolTable
from repro.errors import ElfFormatError
from repro.utils.sparsefile import SparseFile

from tests.conftest import TEST_SCALE, build_small_library


def oracle_names(data: bytes, strtab_blob: bytes) -> list[str]:
    """The eager decode: every name, one ``index``/``decode`` at a time.

    Raises (``ElfFormatError``, ``ValueError`` or ``UnicodeDecodeError``)
    for any table that must not parse.
    """
    if len(data) % C.SYM_SIZE != 0:
        raise ElfFormatError("symbol table size not a multiple of entry size")
    entries = np.frombuffer(data, dtype=SYM_DTYPE)
    if not strtab_blob:
        return [""] * len(entries)
    if strtab_blob[0] != 0 or strtab_blob[-1] != 0:
        raise ElfFormatError("string table must start and end with NUL")
    out = []
    for off in entries["st_name"].tolist():
        end = strtab_blob.index(b"\x00", off)
        out.append(strtab_blob[off:end].decode("utf-8"))
    return out


def symtab_bytes(offsets: list[int]) -> bytes:
    entries = np.zeros(len(offsets), dtype=SYM_DTYPE)
    entries["st_name"] = offsets
    entries["st_info"] = C.st_info(C.STB_GLOBAL, C.STT_FUNC)
    return entries.tobytes()


def assert_matches_oracle(data: bytes, strtab_blob: bytes) -> None:
    """Parse agrees with the oracle: same names, or both reject."""
    try:
        expected = oracle_names(data, strtab_blob)
    except (ValueError, ElfFormatError):  # UnicodeDecodeError is a ValueError
        with pytest.raises(ElfFormatError):
            SymbolTable.parse(data, strtab_blob)
        with pytest.raises(ElfFormatError):
            SymbolTable.parse(memoryview(data), memoryview(strtab_blob))
        return
    for wrap in (bytes, memoryview):
        by_name = SymbolTable.parse(wrap(data), wrap(strtab_blob))
        assert [by_name.name(i) for i in range(len(by_name))] == expected
        assert by_name.names == expected
        table = SymbolTable.parse(wrap(data), wrap(strtab_blob))
        assert table.name_index() == {n: i for i, n in enumerate(expected)}
        for name in set(expected):
            assert table.index_of(name) == expected.index(name)
        with pytest.raises(KeyError):
            table.index_of("\x00absent")


names_strategy = st.lists(
    st.text(
        alphabet=st.characters(
            blacklist_characters="\x00", blacklist_categories=("Cs",)
        ),
        max_size=8,
    ),
    max_size=12,
)


class TestEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(names=names_strategy, data=st.data())
    def test_generated_tables(self, names, data):
        """Built tables, with offsets at string starts, inside strings
        (suffix-shared, or mid-character) and past the end."""
        builder = StringTableBuilder()
        starts = [builder.add(n) for n in names]
        blob = builder.finish()
        pick = st.one_of(
            st.sampled_from(starts or [0]),
            st.integers(0, len(blob) - 1),
            st.integers(0, len(blob) + 4),
        )
        offsets = data.draw(st.lists(pick, max_size=16))
        assert_matches_oracle(symtab_bytes(offsets), blob)

    @settings(max_examples=150, deadline=None)
    @given(
        blob=st.binary(max_size=24),
        raw_offsets=st.lists(st.integers(0, 30), max_size=10),
    )
    def test_raw_string_tables(self, blob, raw_offsets):
        """Arbitrary bytes: missing NULs, invalid UTF-8, offsets anywhere."""
        assert_matches_oracle(symtab_bytes(raw_offsets), blob)
        assert_matches_oracle(symtab_bytes(raw_offsets), b"\x00" + blob + b"\x00")

    @pytest.mark.parametrize(
        "blob, offsets",
        [
            (b"", [0, 5, 9]),  # empty .strtab: every name is ""
            (b"\x00", [0, 0]),
            (b"\x00", [1]),  # past the end
            (b"\x00foo\x00", [1, 1, 0, 1]),  # repeated offsets
            (b"\x00foobar\x00", [1, 4, 6, 7]),  # suffix-shared offsets
            (b"\x00caf\xc3\xa9\x00", [1, 4, 5]),  # multibyte; 5 is mid-char
            (b"\x00caf\xc3\xa9\x00", [1, 4]),
            (b"\x00\xff\x00", [0]),  # undecodable, but never referenced
            (b"\x00\xff\x00", [1]),
        ],
    )
    def test_hand_built_tables(self, blob, offsets):
        assert_matches_oracle(symtab_bytes(offsets), blob)

    def test_misaligned_size_rejected(self):
        assert_matches_oracle(symtab_bytes([0])[:-1], b"\x00")

    def test_constructor_with_names(self):
        names = ["a", "b", "a"]
        table = SymbolTable(np.zeros(3, dtype=SYM_DTYPE), names)
        assert table.names is names
        assert table.name(2) == "a"
        assert table.index_of("a") == 0


class TestLaziness:
    def test_names_decode_on_first_access_only(self):
        table = SymbolTable.parse(symtab_bytes([1, 5]), b"\x00abc\x00de\x00")
        assert table._names is None
        assert table.name(1) == "de"
        assert table._names is None  # one name does not decode the table
        assert table.names is table.names == ["abc", "de"]

    def test_non_ascii_tables_decode_at_parse(self):
        table = SymbolTable.parse(symtab_bytes([1]), "\x00é\x00".encode())
        assert table._names == ["é"]

    def test_entries_are_a_read_only_view(self):
        data = symtab_bytes([0, 0])
        table = SymbolTable.parse(data, b"\x00")
        assert not table.entries.flags.writeable
        assert np.shares_memory(table.entries, np.frombuffer(data, np.uint8))


def _corrupt_symtab(lib, patch) -> SparseFile:
    """``lib``'s image with ``patch(entries, strtab)`` applied in place."""
    image = bytearray(lib.data.to_bytes())
    sym = lib.section(C.SEC_SYMTAB).header
    strtab = lib.section(C.SEC_STRTAB).header
    entries = np.frombuffer(
        image, dtype=SYM_DTYPE, count=sym.sh_size // C.SYM_SIZE,
        offset=sym.sh_offset,
    )
    end = strtab.sh_offset + strtab.sh_size
    patch(entries, memoryview(image)[strtab.sh_offset : end])
    return SparseFile.from_bytes(bytes(image))


class TestMalformedStringTables:
    def test_name_offset_past_end(self):
        lib = build_small_library("libbad.so")
        size = lib.section(C.SEC_STRTAB).header.sh_size

        def patch(entries, _strtab):
            entries["st_name"][3] = size

        with pytest.raises(ElfFormatError, match=r"libbad\.so: .*symbol 3"):
            parse_shared_library(_corrupt_symtab(lib, patch), "libbad.so")

    def test_name_not_utf8(self):
        lib = build_small_library("libbad.so")
        st_name = int(lib.symtab.entries["st_name"][5])

        def patch(_entries, strtab):
            strtab[st_name] = 0xFF

        with pytest.raises(
            ElfFormatError, match=r"libbad\.so: .*symbol 5.*UTF-8"
        ):
            parse_shared_library(_corrupt_symtab(lib, patch), "libbad.so")

    def test_valid_non_ascii_name_parses(self):
        lib = build_small_library("libok.so")
        st_name = int(lib.symtab.entries["st_name"][2])

        def patch(_entries, strtab):  # "fn_2" -> "fé2", same length
            strtab[st_name + 1 : st_name + 3] = "é".encode()

        parsed = parse_shared_library(_corrupt_symtab(lib, patch), "libok.so")
        assert parsed.symtab.name(2) == "fé2"


class TestServingPathStaysLazy:
    def test_admissions_decode_no_names_and_copy_no_tables(self, monkeypatch):
        """Regression guard for the memory win: after two admissions no
        original or debloated library has decoded its symbol names, and
        every original's entries are a view into its own bytes."""
        import repro.experiments.common as excommon
        from repro.frameworks import catalog, genlib

        monkeypatch.setattr(catalog, "_FRAMEWORK_CACHE", {})
        monkeypatch.setattr(genlib, "_LIBRARY_CACHE", {})
        monkeypatch.setattr(
            excommon, "PIPELINE_CACHE", excommon.PipelineCache(enabled=True)
        )
        config = EngineConfig(
            scale=TEST_SCALE, options=DebloatOptions(runtime_comparison_top_n=0)
        )
        with DebloatEngine(config) as engine:
            for wid in (
                "pytorch/train/mobilenetv2",
                "pytorch/inference/mobilenetv2",
            ):
                engine.admit(AdmitRequest(workload_id=wid))
            (shard,) = engine.federation.shards()
            originals = list(shard.store.framework.libraries.values())
            debloated = list(shard.store.debloated_libraries().values())

        assert debloated
        for lib in originals:
            assert len(lib.symtab) > 0
            assert lib.symtab._names is None, lib.soname
            chunks = [np.frombuffer(c, np.uint8) for c in lib.data._chunks]
            assert any(
                np.shares_memory(lib.symtab.entries, c) for c in chunks
            ), lib.soname
        for deb in debloated:
            assert deb.lib.symtab is deb.original.symtab
            assert deb.lib.symtab._names is None, deb.soname
