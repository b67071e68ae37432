"""ELF string tables (``.strtab`` / ``.dynstr`` / ``.shstrtab``).

String tables start with a NUL byte (so offset 0 is the empty string) and
store NUL-terminated strings back to back.  The builder deduplicates exact
repeats.  The reader works over the table's bytes in place - a ``bytes``
blob or a read-only view into the library's own storage - and decodes a
string only when asked: one name by offset (:meth:`StringTable.get`), or a
whole symbol table's names in one pass (:meth:`StringTable.get_many`).
"""

from __future__ import annotations

import re

import numpy as np

from repro.errors import ElfFormatError

_NUL = re.compile(b"\x00")


class StringTableBuilder:
    """Accumulates strings and assigns stable offsets."""

    def __init__(self) -> None:
        self._blob = bytearray(b"\x00")
        self._offsets: dict[bytes, int] = {b"": 0}

    def add(self, name: str | bytes) -> int:
        """Insert ``name`` (deduplicated) and return its table offset."""
        raw = name.encode("utf-8") if isinstance(name, str) else bytes(name)
        if b"\x00" in raw:
            raise ValueError("strings may not contain NUL")
        off = self._offsets.get(raw)
        if off is None:
            off = len(self._blob)
            self._blob += raw + b"\x00"
            self._offsets[raw] = off
        return off

    def add_many(self, names: list[str]) -> np.ndarray:
        """Bulk-append unique names (vectorized fast path, no dedup check).

        Generated symbol names are unique by construction; skipping the dict
        probe makes building a 600k-name table ~5x faster.
        """
        if not names:
            return np.zeros(0, dtype=np.int64)
        encoded = [n.encode("utf-8") for n in names]
        lengths = np.fromiter((len(e) + 1 for e in encoded), dtype=np.int64,
                              count=len(encoded))
        base = len(self._blob)
        offsets = base + np.concatenate(([0], np.cumsum(lengths[:-1])))
        self._blob += b"\x00".join(encoded) + b"\x00"
        return offsets

    def finish(self) -> bytes:
        return bytes(self._blob)

    def __len__(self) -> int:
        return len(self._blob)


class StringTable:
    """A parsed string table: offset -> string lookups over its bytes.

    ``blob`` may be ``bytes`` or a read-only ``memoryview`` into the
    library's own bytes (:meth:`SparseFile.view`); the table never copies
    it except transiently, to decode a whole symbol table at once.
    """

    def __init__(self, blob: bytes | memoryview) -> None:
        if not blob or blob[0] != 0:
            raise ElfFormatError("string table must start with NUL")
        if blob[-1] != 0:
            raise ElfFormatError("string table must end with NUL")
        self._blob = blob

    def get(self, offset: int) -> str:
        if offset < 0 or offset >= len(self._blob):
            raise ElfFormatError(f"string offset {offset} out of range")
        end = _NUL.search(self._blob, offset).start()
        try:
            return str(self._blob[offset:end], "utf-8")
        except UnicodeDecodeError as exc:
            raise ElfFormatError(
                f"string at offset {offset} is not valid UTF-8: {exc.reason}"
            ) from None

    def get_many(self, offsets: np.ndarray) -> list[str]:
        """Decode the names of symbols ``0..n-1`` from their ``st_name``s.

        Offsets must be in range (the caller bounds-checks them in bulk);
        a name that is not valid UTF-8 raises :class:`ElfFormatError`
        naming its symbol index.
        """
        blob = bytes(self._blob)
        find = blob.index
        out: list[str] = []
        try:
            for off in offsets.tolist():
                end = find(b"\x00", off)
                out.append(blob[off:end].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ElfFormatError(
                f"symbol {len(out)}: name at string offset {off} is not "
                f"valid UTF-8: {exc.reason}"
            ) from None
        return out

    def is_ascii(self) -> bool:
        """True if every byte is ASCII: then every NUL-terminated string
        in the table decodes as UTF-8, wherever it starts."""
        return int(np.frombuffer(self._blob, dtype=np.uint8).max()) < 0x80

    def __len__(self) -> int:
        return len(self._blob)
