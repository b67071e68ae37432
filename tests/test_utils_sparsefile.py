"""Unit + model-based property tests for the sparse file container."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.intervals import Range, RangeSet
from repro.utils.sparsefile import SparseFile


class TestBasics:
    def test_empty(self):
        f = SparseFile()
        assert f.logical_size == 0
        assert f.materialized_size == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SparseFile(-1)

    def test_holes_read_zero(self):
        f = SparseFile(10)
        assert f.read(0, 10) == b"\x00" * 10

    def test_write_extends_logical_size(self):
        f = SparseFile(0)
        f.write(100, b"ab")
        assert f.logical_size == 102

    def test_write_then_read(self):
        f = SparseFile(20)
        f.write(5, b"hello")
        assert f.read(5, 5) == b"hello"
        assert f.read(0, 20) == b"\x00" * 5 + b"hello" + b"\x00" * 10

    def test_read_past_end_rejected(self):
        f = SparseFile(10)
        with pytest.raises(ValueError):
            f.read(5, 6)

    def test_read_negative_rejected(self):
        f = SparseFile(10)
        with pytest.raises(ValueError):
            f.read(-1, 2)

    def test_empty_write_is_noop(self):
        f = SparseFile(10)
        f.write(5, b"")
        assert f.materialized_size == 0


class TestExtentMerging:
    def test_adjacent_writes_merge(self):
        f = SparseFile(20)
        f.write(0, b"aa")
        f.write(2, b"bb")
        assert len(f.extents()) == 1
        assert f.read(0, 4) == b"aabb"

    def test_overlapping_write_wins(self):
        f = SparseFile(20)
        f.write(0, b"aaaa")
        f.write(2, b"bb")
        assert f.read(0, 4) == b"aabb"

    def test_disjoint_writes_stay_separate(self):
        f = SparseFile(20)
        f.write(0, b"a")
        f.write(10, b"b")
        assert len(f.extents()) == 2

    def test_bridging_write_merges_three(self):
        f = SparseFile(30)
        f.write(0, b"aa")
        f.write(10, b"cc")
        f.write(2, b"b" * 8)
        assert len(f.extents()) == 1
        assert f.read(0, 12) == b"aa" + b"b" * 8 + b"cc"


class TestZero:
    def test_zero_punches_hole(self):
        f = SparseFile(10)
        f.write(0, b"x" * 10)
        f.zero(3, 4)
        assert f.read(0, 10) == b"xxx\x00\x00\x00\x00xxx"
        assert f.materialized_size == 6

    def test_zero_whole_extent_removes_it(self):
        f = SparseFile(10)
        f.write(2, b"ab")
        f.zero(0, 10)
        assert f.materialized_size == 0

    def test_zero_beyond_end_clamped(self):
        f = SparseFile(5)
        f.write(0, b"abcde")
        f.zero(3, 100)
        assert f.read(0, 5) == b"abc\x00\x00"

    def test_zero_ranges(self):
        f = SparseFile(10)
        f.write(0, b"y" * 10)
        f.zero_ranges(RangeSet([(0, 2), (8, 10)]))
        assert f.read(0, 10) == b"\x00\x00yyyyyy\x00\x00"

    def test_zero_noop_on_hole(self):
        f = SparseFile(10)
        f.zero(0, 5)
        assert f.materialized_size == 0


class TestTruncate:
    def test_shrink_drops_extents(self):
        f = SparseFile(20)
        f.write(15, b"abc")
        f.truncate(10)
        assert f.logical_size == 10
        assert f.materialized_size == 0

    def test_shrink_trims_partial_extent(self):
        f = SparseFile(10)
        f.write(4, b"abcd")
        f.truncate(6)
        assert f.read(4, 2) == b"ab"
        assert f.materialized_size == 2

    def test_grow(self):
        f = SparseFile(5)
        f.truncate(50)
        assert f.read(40, 10) == b"\x00" * 10


class TestConversions:
    def test_bytes_roundtrip(self):
        data = b"\x00abc\x00\x00def"
        f = SparseFile.from_bytes(data)
        assert f.to_bytes() == data

    def test_copy_independent(self):
        f = SparseFile(10)
        f.write(0, b"abc")
        g = f.copy()
        g.write(0, b"xyz")
        assert f.read(0, 3) == b"abc"

    def test_equality(self):
        a = SparseFile(10)
        b = SparseFile(10)
        a.write(1, b"q")
        assert a != b
        b.write(1, b"q")
        assert a == b

    def test_dump_to_real_file(self):
        f = SparseFile(16)
        f.write(4, b"data")
        buf = io.BytesIO()
        f.dump(buf)
        assert buf.getvalue()[4:8] == b"data"

    def test_extents_reported(self):
        f = SparseFile(100)
        f.write(10, b"ab")
        f.write(50, b"cd")
        assert f.extents() == RangeSet([Range(10, 12), Range(50, 52)])


class TestView:
    def test_inside_one_extent_is_zero_copy(self):
        f = SparseFile(100)
        f.write(10, b"hello world")
        v = f.view(12, 5)
        assert v.readonly
        assert bytes(v) == b"llo w"
        assert v.obj is f._chunks[0]

    def test_spanning_holes_or_extents_falls_back_to_read(self):
        f = SparseFile(100)
        f.write(10, b"ab")
        f.write(20, b"cd")
        assert bytes(f.view(9, 14)) == f.read(9, 14)
        assert bytes(f.view(40, 4)) == bytes(4)
        assert bytes(f.view(5, 0)) == b""

    def test_out_of_bounds_rejected(self):
        f = SparseFile(10)
        with pytest.raises(ValueError):
            f.view(8, 4)
        with pytest.raises(ValueError):
            f.view(-1, 2)

    @settings(max_examples=150)
    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 60), st.binary(min_size=1, max_size=16)),
            max_size=6,
        ),
        at=st.integers(0, 63),
        size=st.integers(0, 16),
        later=st.lists(
            st.tuples(st.integers(0, 60), st.binary(min_size=1, max_size=16)),
            max_size=4,
        ),
    )
    def test_view_equals_read_and_never_goes_stale(self, writes, at, size, later):
        f = SparseFile(80)
        for offset, data in writes:
            f.write(offset, data)
        size = min(size, f.logical_size - at)
        v = f.view(at, size)
        before = f.read(at, size)
        assert bytes(v) == before
        for offset, data in later:
            f.write(offset, data)
        f.zero(at, size)
        assert bytes(v) == before


# -- model-based property test ------------------------------------------------

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 60),
                  st.binary(min_size=1, max_size=16)),
        st.tuples(st.just("zero"), st.integers(0, 60), st.integers(0, 30)),
        # Batched multi-range punch: the vectorized _punch path (affected-
        # chunk masking + survivor slicing) interleaved with everything else.
        st.tuples(
            st.just("zero_ranges"),
            st.lists(
                st.tuples(st.integers(0, 90), st.integers(0, 25)),
                min_size=1, max_size=5,
            ),
        ),
        st.tuples(st.just("truncate"), st.integers(0, 96)),
    ),
    max_size=14,
)


class TestAgainstReferenceModel:
    @settings(max_examples=200)
    @given(_ops)
    def test_matches_bytearray_model(self, ops):
        """SparseFile behaves exactly like a zero-initialized bytearray."""
        size = 96
        sparse = SparseFile(size)
        model = bytearray(size)
        for op in ops:
            if op[0] == "write":
                _, offset, data = op
                sparse.write(offset, data)
                if offset + len(data) > len(model):
                    model.extend(bytes(offset + len(data) - len(model)))
                    size = len(model)
                model[offset : offset + len(data)] = data
            elif op[0] == "zero":
                _, offset, length = op
                sparse.zero(offset, length)
                end = min(offset + length, size)
                if offset < end:
                    model[offset:end] = b"\x00" * (end - offset)
            elif op[0] == "zero_ranges":
                ranges = RangeSet(
                    [(a, a + ln) for a, ln in op[1]]
                )
                sparse.zero_ranges(ranges)
                for rng in ranges:
                    end = min(rng.stop, size)
                    if rng.start < end:
                        model[rng.start:end] = b"\x00" * (end - rng.start)
            else:
                _, new_size = op
                sparse.truncate(new_size)
                model = model[:new_size] + bytearray(
                    max(0, new_size - len(model))
                )
                size = new_size
            self._check_invariants(sparse)
        assert sparse.logical_size == len(model)
        assert sparse.to_bytes() == bytes(model)
        # Materialized bytes never exceed the number of nonzero-ish bytes
        # plus overwritten runs; at minimum, all nonzero bytes are stored.
        nonzero = sum(1 for b in model if b)
        assert sparse.materialized_size >= nonzero

    @staticmethod
    def _check_invariants(sparse: SparseFile) -> None:
        """Extents stay sorted, disjoint, non-adjacent, chunk-aligned."""
        starts = sparse._starts
        ends = sparse._ends
        assert len(starts) == len(ends) == len(sparse._chunks)
        for i, chunk in enumerate(sparse._chunks):
            assert ends[i] - starts[i] == len(chunk)
        if len(starts) > 1:
            # Strictly increasing with a gap: no touching extents survive.
            assert (starts[1:] > ends[:-1]).all()


class TestWriteBatch:
    """``write_batch`` == sequential ``write`` calls, structurally."""

    def _assert_structurally_equal(self, a: SparseFile, b: SparseFile):
        assert a == b  # extent starts + chunk payloads
        assert a.logical_size == b.logical_size
        assert (a._ends == b._ends).all()

    def test_interior_patches_match_sequential(self):
        base = bytes(range(256)) * 4
        batched = SparseFile.from_bytes(base)
        sequential = SparseFile.from_bytes(base)
        offsets = [0, 17, 500, 1020]
        blobs = [b"AAAA", b"bb", b"cccccc", b"dddd"]
        batched.write_batch(offsets, blobs)
        for offset, blob in zip(offsets, blobs):
            sequential.write(offset, blob)
        self._assert_structurally_equal(batched, sequential)

    def test_multiple_patches_in_one_chunk_apply_in_order(self):
        batched = SparseFile.from_bytes(b"\xff" * 64)
        sequential = SparseFile.from_bytes(b"\xff" * 64)
        offsets = [10, 8, 12]  # overlapping: later writes win
        blobs = [b"XXXX", b"yyyy", b"zz"]
        batched.write_batch(offsets, blobs)
        for offset, blob in zip(offsets, blobs):
            sequential.write(offset, blob)
        self._assert_structurally_equal(batched, sequential)

    def test_fallback_for_extending_or_bridging_writes(self):
        for offsets, blobs in (
            ([100], [b"grow"]),          # past the last extent
            ([30], [b"bridge" * 4]),     # spans a hole between extents
        ):
            batched = SparseFile(64)
            batched.write(0, b"a" * 32)
            batched.write(40, b"b" * 8)
            sequential = batched.copy()
            batched.write_batch(offsets, blobs)
            for offset, blob in zip(offsets, blobs):
                sequential.write(offset, blob)
            self._assert_structurally_equal(batched, sequential)

    def test_empty_batch_and_empty_blobs(self):
        sparse = SparseFile.from_bytes(b"abcdef")
        before = sparse.copy()
        sparse.write_batch([], [])
        sparse.write_batch([2], [b""])
        self._assert_structurally_equal(sparse, before)

    def test_mismatched_lengths_rejected(self):
        sparse = SparseFile.from_bytes(b"abcdef")
        with pytest.raises(ValueError):
            sparse.write_batch([1, 2], [b"x"])
        with pytest.raises(ValueError):
            sparse.write_batch([-1], [b"x"])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=600),
                st.binary(min_size=0, max_size=40),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_fuzz_equivalence(self, writes):
        base = SparseFile(640)
        base.write(50, b"\x11" * 100)
        base.write(300, b"\x22" * 200)
        batched = base.copy()
        sequential = base.copy()
        offsets = [o for o, _ in writes]
        blobs = [b for _, b in writes]
        batched.write_batch(offsets, blobs)
        for offset, blob in writes:
            sequential.write(offset, blob)
        assert batched == sequential
        assert batched.to_bytes() == sequential.to_bytes()
