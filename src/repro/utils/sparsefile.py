"""Sparse byte container with paper-scale logical sizes.

Generated shared libraries are hundreds of megabytes; materializing their
payload bytes would make experiments slow and memory-hungry for no analytical
gain (Negativa-ML only reads *structural* bytes: ELF headers, symbol tables,
fatbin headers, kernel name tables).  :class:`SparseFile` stores written
extents over an all-zero backdrop and reads holes back as zero bytes, exactly
like a sparse file on a POSIX filesystem.  ``logical_size`` is the file size
used in all accounting; ``materialized_size`` is the number of bytes actually
stored.  :meth:`SparseFile.view` hands out zero-copy read-only views of
stored bytes, so parsed tables can live in the file's own chunks.

Extent bookkeeping is array-backed: chunk starts/ends live in two sorted
``int64`` arrays (the same normalized form as
:class:`~repro.utils.intervals.RangeSet`, whose vectorized algebra
:meth:`zero_ranges` reuses), so hole-punching a locate result's thousands of
removal ranges is one batched difference instead of a per-range Python merge
over the whole chunk list.  Only the chunk *payloads* stay Python ``bytes``.
"""

from __future__ import annotations

import io

import numpy as np

from repro.utils.intervals import RangeSet

_EMPTY = np.empty(0, dtype=np.int64)


class SparseFile:
    """An in-memory sparse file: written extents over an all-zero backdrop.

    Invariant: ``_starts``/``_ends`` are sorted, pairwise disjoint and
    non-adjacent (writes merge touching extents), i.e. exactly a normalized
    :class:`RangeSet`; ``_chunks[i]`` holds the bytes of extent ``i``.
    """

    def __init__(self, size: int = 0) -> None:
        if size < 0:
            raise ValueError("size must be non-negative")
        self._size = size
        self._starts: np.ndarray = _EMPTY
        self._ends: np.ndarray = _EMPTY
        self._chunks: list[bytes] = []

    # -- size accounting -------------------------------------------------------

    @property
    def logical_size(self) -> int:
        """The file size as seen by ``stat()`` (includes holes)."""
        return self._size

    @property
    def materialized_size(self) -> int:
        """Bytes actually stored (written extents only)."""
        return int((self._ends - self._starts).sum())

    def extents(self) -> RangeSet:
        """The written (non-hole) extents."""
        return RangeSet.from_arrays(self._starts, self._ends)

    def truncate(self, size: int) -> None:
        """Grow or shrink the logical size, dropping extents past the end."""
        if size < 0:
            raise ValueError("size must be non-negative")
        self._size = size
        keep = int(np.searchsorted(self._starts, size, side="left"))
        if keep < len(self._chunks):
            self._starts = self._starts[:keep]
            self._ends = self._ends[:keep]
            del self._chunks[keep:]
        if self._chunks and self._ends[-1] > size:
            start = int(self._starts[-1])
            self._chunks[-1] = self._chunks[-1][: size - start]
            self._ends = self._ends.copy()
            self._ends[-1] = size

    # -- I/O ---------------------------------------------------------------------

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``, extending the logical size if needed."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        if not data:
            return
        end = offset + len(data)
        self._size = max(self._size, end)
        # Overlapping/adjacent extents: the first whose end reaches offset
        # through the last whose start does not pass end.
        lo = int(np.searchsorted(self._ends, offset, side="left"))
        hi = int(np.searchsorted(self._starts, end, side="right"))
        if lo == hi:
            self._starts = np.insert(self._starts, lo, offset)
            self._ends = np.insert(self._ends, lo, end)
            self._chunks.insert(lo, bytes(data))
            return
        new_start = min(offset, int(self._starts[lo]))
        new_end = max(end, int(self._ends[hi - 1]))
        buf = bytearray(new_end - new_start)
        for s, c in zip(self._starts[lo:hi].tolist(), self._chunks[lo:hi]):
            buf[s - new_start : s - new_start + len(c)] = c
        buf[offset - new_start : offset - new_start + len(data)] = data
        self._starts = np.concatenate(
            (self._starts[:lo], [new_start], self._starts[hi:])
        )
        self._ends = np.concatenate(
            (self._ends[:lo], [new_end], self._ends[hi:])
        )
        self._chunks[lo:hi] = [bytes(buf)]

    def write_batch(self, offsets, blobs: list[bytes]) -> None:
        """Apply many small writes in one vectorized bookkeeping pass.

        Equivalent to ``for o, b in zip(offsets, blobs): self.write(o, b)``
        (in order, later writes win on overlap).  The fast path covers
        writes that each land inside one already-written extent - the
        compactor's per-element header-flag patches - mapping every write
        to its containing chunk with one ``searchsorted`` and re-slicing
        each affected chunk exactly once, the same way ``zero_ranges``
        batches payload holes.  Batches that extend the file or bridge
        extents fall back to sequential :meth:`write` calls.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size != len(blobs):
            raise ValueError("write_batch needs one offset per blob")
        if not blobs:
            return
        if offsets.size and int(offsets.min()) < 0:
            raise ValueError("offset must be non-negative")
        lengths = np.fromiter(
            (len(b) for b in blobs), dtype=np.int64, count=len(blobs)
        )
        ends = offsets + lengths
        n = len(self._chunks)
        if n:
            # Containing extent: the first whose end reaches past the
            # write's start must also start at-or-before it and cover the
            # write's end.
            pos = np.searchsorted(self._ends, offsets, side="right")
            pos_c = np.minimum(pos, n - 1)
            inside = (
                (pos < n)
                & (self._starts[pos_c] <= offsets)
                & (self._ends[pos_c] >= ends)
            )
        else:
            inside = np.zeros(offsets.size, dtype=bool)
        if not inside.all():
            for offset, blob in zip(offsets.tolist(), blobs):
                self.write(offset, blob)
            return
        order = np.argsort(pos_c, kind="stable")
        row = 0
        while row < order.size:
            chunk_i = int(pos_c[order[row]])
            start = int(self._starts[chunk_i])
            buf = bytearray(self._chunks[chunk_i])
            while row < order.size and int(pos_c[order[row]]) == chunk_i:
                write = int(order[row])
                at = int(offsets[write]) - start
                buf[at : at + len(blobs[write])] = blobs[write]
                row += 1
            self._chunks[chunk_i] = bytes(buf)

    def _check_range(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0:
            raise ValueError("offset and size must be non-negative")
        if offset + size > self._size:
            raise ValueError(
                f"read past end of file: [{offset}, {offset + size}) > {self._size}"
            )

    def read(self, offset: int, size: int) -> bytes:
        """Read ``size`` bytes at ``offset``; holes read back as zeros."""
        self._check_range(offset, size)
        out = bytearray(size)
        end = offset + size
        lo = int(np.searchsorted(self._ends, offset, side="right"))
        hi = int(np.searchsorted(self._starts, end, side="left"))
        for s, c in zip(self._starts[lo:hi].tolist(), self._chunks[lo:hi]):
            c_end = s + len(c)
            a = max(s, offset)
            b = min(c_end, end)
            if a < b:
                out[a - offset : b - offset] = c[a - s : b - s]
        return bytes(out)

    def view(self, offset: int, size: int) -> memoryview:
        """Read-only ``memoryview`` of ``size`` bytes at ``offset``.

        Zero-copy when the range lies inside one stored extent; otherwise
        (it touches a hole or spans extents) a view over :meth:`read`.
        Chunks are immutable ``bytes`` - writes and hole punches replace
        them - so a view keeps the bytes it was taken from and never goes
        stale.
        """
        self._check_range(offset, size)
        i = int(np.searchsorted(self._starts, offset, side="right")) - 1
        if size and i >= 0 and int(self._ends[i]) >= offset + size:
            at = offset - int(self._starts[i])
            return memoryview(self._chunks[i])[at : at + size]
        return memoryview(self.read(offset, size))

    def zero(self, offset: int, size: int) -> None:
        """Punch a hole: bytes in ``[offset, offset+size)`` read back as zero."""
        if size <= 0:
            return
        start = max(offset, 0)  # clamp like the end: out-of-file is a no-op
        end = min(offset + size, self._size)
        if start >= end:
            return
        self._punch(
            np.asarray([start], dtype=np.int64),
            np.asarray([end], dtype=np.int64),
        )

    def zero_ranges(self, ranges: RangeSet) -> None:
        """Punch every range in one batched pass (vectorized bookkeeping)."""
        if not ranges or not self._chunks:
            return
        starts = np.minimum(ranges.starts, self._size)
        stops = np.minimum(ranges.stops, self._size)
        keep = stops > starts
        if not keep.all():
            starts, stops = starts[keep], stops[keep]
        if starts.size:
            self._punch(starts, stops)

    def _punch(self, r_starts: np.ndarray, r_stops: np.ndarray) -> None:
        """Remove normalized ``[r_starts, r_stops)`` ranges from the extents.

        Extent bookkeeping is pure :class:`RangeSet` array algebra; only the
        surviving sub-extents of *affected* chunks are re-sliced, untouched
        chunk payloads keep their identity.
        """
        if not self._chunks:
            return
        # A chunk is affected iff some range starts before its end and the
        # furthest-reaching such range stops past its start (ranges are
        # sorted and disjoint, so stops are sorted too).
        n_before = np.searchsorted(r_starts, self._ends, side="left")
        affected = (n_before > 0) & (
            r_stops[np.maximum(n_before - 1, 0)] > self._starts
        )
        if not affected.any():
            return
        aff = np.flatnonzero(affected)
        survivors = RangeSet.from_arrays(
            self._starts[aff], self._ends[aff]
        ) - RangeSet.from_arrays(r_starts, r_stops)
        keep_starts = np.asarray(survivors.starts)
        keep_stops = np.asarray(survivors.stops)
        # Each surviving extent lies inside exactly one affected chunk
        # (difference never bridges disjoint extents).
        src = aff[
            np.searchsorted(self._starts[aff], keep_starts, side="right") - 1
        ]
        pieces = [
            self._chunks[j][s - int(self._starts[j]) : e - int(self._starts[j])]
            for s, e, j in zip(
                keep_starts.tolist(), keep_stops.tolist(), src.tolist()
            )
        ]
        una = np.flatnonzero(~affected)
        all_starts = np.concatenate((self._starts[una], keep_starts))
        all_ends = np.concatenate((self._ends[una], keep_stops))
        order = np.argsort(all_starts, kind="stable")
        chunks = [self._chunks[j] for j in una.tolist()] + pieces
        self._starts = all_starts[order]
        self._ends = all_ends[order]
        self._chunks = [chunks[i] for i in order.tolist()]

    # -- conversions ----------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Fully materialize the file (use only at small scales/tests)."""
        return self.read(0, self._size)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SparseFile":
        f = cls(len(data))
        f.write(0, data)
        return f

    def dump(self, fileobj: io.BufferedIOBase) -> None:
        """Write the file to a real (sparse-friendly) file object."""
        fileobj.truncate(self._size)
        for s, c in zip(self._starts.tolist(), self._chunks):
            fileobj.seek(s)
            fileobj.write(c)

    def copy(self) -> "SparseFile":
        dup = SparseFile(self._size)
        dup._starts = self._starts.copy()
        dup._ends = self._ends.copy()
        dup._chunks = list(self._chunks)
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseFile):
            return NotImplemented
        if self._size != other._size:
            return False
        return (
            np.array_equal(self._starts, other._starts)
            and self._chunks == other._chunks
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparseFile(logical={self._size}, materialized={self.materialized_size},"
            f" extents={len(self._chunks)})"
        )
