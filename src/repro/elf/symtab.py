"""Bulk symbol tables backed by numpy structured arrays.

ML shared libraries carry hundreds of thousands of function symbols (the
paper reports 616K-1,043K per framework).  Representing each as a Python
object would dominate experiment runtime, so :class:`SymbolTable` keeps the
six ``Elf64_Sym`` fields in a structured array and serializes/parses the
whole table with two numpy calls.  The CPU-side detector and locator operate
directly on these arrays (boolean "used" masks over symbol indices).

A parsed table is zero-copy: ``entries`` is a read-only array over the
library's own ``.symtab`` bytes and the names stay encoded in its
``.strtab``.  Nothing on the debloat or serving path reads names, so they
are decoded only on first use of :attr:`SymbolTable.names` (one name:
:meth:`SymbolTable.name`).  Parsing still checks every name up front, so a
table that parses always decodes.
"""

from __future__ import annotations

import numpy as np

from repro.elf import constants as C
from repro.elf.strtab import StringTable, StringTableBuilder
from repro.errors import ElfFormatError

SYM_DTYPE = np.dtype(
    [
        ("st_name", "<u4"),
        ("st_info", "u1"),
        ("st_other", "u1"),
        ("st_shndx", "<u2"),
        ("st_value", "<u8"),
        ("st_size", "<u8"),
    ]
)

assert SYM_DTYPE.itemsize == C.SYM_SIZE


class SymbolTable:
    """A symbol table: parallel numpy fields plus names, decoded on demand.

    Built either from decoded ``names`` (the generator, tests) or, by
    :meth:`parse`, over a string table whose names it decodes lazily.
    """

    def __init__(
        self,
        entries: np.ndarray,
        names: list[str] | None = None,
        strtab: StringTable | None = None,
    ) -> None:
        if entries.dtype != SYM_DTYPE:
            raise ValueError("entries must use SYM_DTYPE")
        if (names is None) == (strtab is None):
            raise ValueError("give exactly one of names and strtab")
        if names is not None and len(entries) != len(names):
            raise ValueError("entries/names length mismatch")
        # Tables are shared between a library, its copies and every library
        # debloated from it, so a table is never mutated in place.
        entries.flags.writeable = False
        self.entries = entries
        self._names = names
        self._strtab = strtab

    @property
    def names(self) -> list[str]:
        """Every symbol's name (decoded and cached on first access)."""
        if self._names is None:
            self._names = self._strtab.get_many(self.entries["st_name"])
        return self._names

    def name(self, i: int) -> str:
        """Symbol ``i``'s name, without decoding the whole table."""
        if self._names is not None:
            return self._names[i]
        return self._strtab.get(int(self.entries["st_name"][i]))

    # -- constructors -----------------------------------------------------------

    @classmethod
    def empty(cls) -> "SymbolTable":
        return cls(np.zeros(0, dtype=SYM_DTYPE), [])

    @classmethod
    def for_functions(
        cls,
        names: list[str],
        values: np.ndarray,
        sizes: np.ndarray,
        section_index: int,
        bind: int = C.STB_GLOBAL,
    ) -> "SymbolTable":
        """Build a function symbol table (the generator's bulk path).

        ``values`` are virtual addresses (== file offsets under our layout),
        ``sizes`` are function byte sizes.
        """
        n = len(names)
        entries = np.zeros(n, dtype=SYM_DTYPE)
        entries["st_info"] = C.st_info(bind, C.STT_FUNC)
        entries["st_shndx"] = section_index
        entries["st_value"] = np.asarray(values, dtype=np.uint64)
        entries["st_size"] = np.asarray(sizes, dtype=np.uint64)
        return cls(entries, list(names))

    # -- accessors ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def values(self) -> np.ndarray:
        return self.entries["st_value"]

    @property
    def sizes(self) -> np.ndarray:
        return self.entries["st_size"]

    def function_mask(self) -> np.ndarray:
        return (self.entries["st_info"] & 0xF) == C.STT_FUNC

    def function_count(self) -> int:
        return int(self.function_mask().sum())

    def function_bytes(self) -> int:
        mask = self.function_mask()
        return int(self.entries["st_size"][mask].sum())

    def index_of(self, name: str) -> int:
        """Linear-scan lookup (use :meth:`name_index` for bulk lookups)."""
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(name) from None

    def name_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    # -- serialization ----------------------------------------------------------------

    def to_bytes(self, strtab: StringTableBuilder) -> bytes:
        """Serialize, registering all names in ``strtab``."""
        entries = self.entries.copy()
        entries["st_name"] = strtab.add_many(self.names)
        return entries.tobytes()

    @classmethod
    def parse(
        cls, data: bytes | memoryview, strtab_blob: bytes | memoryview
    ) -> "SymbolTable":
        """A table over ``data`` (no copy) and names in ``strtab_blob``.

        Rejects a name offset past the end of the string table and a name
        that is not valid UTF-8.  An all-ASCII string table cannot hold the
        latter, so its names stay encoded until asked for; any other table
        is decoded here.
        """
        if len(data) % C.SYM_SIZE != 0:
            raise ElfFormatError("symbol table size not a multiple of entry size")
        entries = np.frombuffer(data, dtype=SYM_DTYPE)
        if not strtab_blob:
            return cls(entries, [""] * len(entries))
        table = StringTable(strtab_blob)
        offsets = entries["st_name"]
        past_end = np.flatnonzero(offsets >= len(table))
        if past_end.size:
            i = int(past_end[0])
            raise ElfFormatError(
                f"symbol {i}: st_name {int(offsets[i])} is past the end of "
                f"the {len(table)}-byte string table"
            )
        if table.is_ascii():
            return cls(entries, strtab=table)
        return cls(entries, table.get_many(offsets))
