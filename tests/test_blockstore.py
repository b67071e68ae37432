"""Tests for the content-addressed block store and byte-budget eviction.

The block layer's contract is exactness: refcounts are *recomputed* from
registered manifests by ``validate_invariants``, so every test here ends
by proving the store can still account for every physical byte - after
dedupe, copy-on-write replacement, racing admits/evicts across shards,
mid-admission rollback, and WAL crash recovery.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import AdmitRequest, DebloatEngine, EngineConfig
from repro.api.config import DurabilityConfig, EvictionPolicy
from repro.api.federation import StoreFederation
from repro.core.debloat import DebloatOptions
from repro.core.serialize import (
    block_digest,
    deflate_store_payload,
    inflate_store_payload,
    iter_block_pieces,
    payload_dumps,
)
from repro.errors import BlockStoreError, ConfigurationError, UsageError
from repro.storage import (
    BlockStore,
    CostAwareEvictor,
    EvictionCandidate,
)
from repro.utils.sparsefile import SparseFile
from repro.workloads.spec import workload_by_id

from tests.conftest import TEST_SCALE

OPTS = DebloatOptions(runtime_comparison_top_n=0)

PT_IDS = [
    "pytorch/train/mobilenetv2",
    "pytorch/inference/mobilenetv2",
    "pytorch/train/transformer",
]
HF_ID = "transformers/inference/llama2-7b"


# -- chunking ----------------------------------------------------------------


class TestChunking:
    def test_pieces_split_at_absolute_offsets(self):
        # An extent spanning a block boundary splits *at* the boundary,
        # not at relative offsets - the property cross-file dedupe needs.
        assert list(iter_block_pieces(10, 20, 16)) == [(10, 16), (16, 20)]
        assert list(iter_block_pieces(0, 32, 16)) == [(0, 16), (16, 32)]
        assert list(iter_block_pieces(5, 9, 16)) == [(5, 9)]

    def test_pieces_partition_the_extent(self):
        pieces = list(iter_block_pieces(3, 1000, 64))
        assert pieces[0][0] == 3
        assert pieces[-1][1] == 1000
        for (_, e1), (s2, _) in zip(pieces, pieces[1:]):
            assert e1 == s2
        assert all(s < e for s, e in pieces)


# -- store unit behaviour ----------------------------------------------------


def make_sf(extents: list[tuple[int, bytes]], size: int = 0) -> SparseFile:
    sf = SparseFile(size)
    for offset, data in extents:
        sf.write(offset, data)
    return sf


class TestBlockStoreUnit:
    def test_roundtrip_view(self):
        store = BlockStore(block_size=8)
        owner = store.new_owner("t")
        sf = make_sf([(3, b"abcdefgh"), (40, b"xy")], size=64)
        manifest = store.ingest(owner, "f", sf)
        view = store.view(manifest)
        assert view.logical_size == 64
        assert view.read(0, 64) == sf.read(0, 64)
        clone = view.to_sparsefile()
        assert clone == sf
        store.validate_invariants()

    def test_identical_content_dedupes(self):
        store = BlockStore(block_size=8)
        owner_a = store.new_owner("a")
        owner_b = store.new_owner("b")
        sf = make_sf([(0, b"0123456789abcdef")])
        store.ingest(owner_a, "f", sf)
        before = store.stats()["bytes_physical"]
        store.ingest(owner_b, "f", sf)
        after = store.stats()
        assert after["bytes_physical"] == before
        assert after["bytes_logical"] == 2 * before
        assert after["dedupe_ratio"] == pytest.approx(2.0)
        assert all(c == 2 for c in store.snapshot_refcounts().values())
        store.validate_invariants()

    def test_cow_replacement_reuses_unchanged_blocks(self):
        store = BlockStore(block_size=8)
        owner = store.new_owner("t")
        sf1 = make_sf([(0, bytes(range(32)))])
        m1 = store.ingest(owner, "f", sf1)
        sf2 = make_sf([(0, bytes(range(32)))])
        sf2.write(8, b"CHANGED!")  # exactly the second block
        m2 = store.ingest(owner, "f", sf2)
        shared = {r.digest for r in m1.refs} & {r.digest for r in m2.refs}
        assert len(shared) == 3  # blocks 0, 2, 3 survive the replacement
        assert store.stats()["blocks_total"] == 4
        store.validate_invariants()

    def test_release_frees_only_unshared_blocks(self):
        store = BlockStore(block_size=8)
        owner = store.new_owner("t")
        sf = make_sf([(0, bytes(range(16)))])
        store.ingest(owner, "f", sf)
        store.ingest(owner, "g", sf)
        assert store.release(owner, "f") == 0  # still referenced by "g"
        assert store.release(owner, "g") == 16
        assert store.stats()["blocks_total"] == 0
        assert store.stats()["evicted_bytes_total"] == 16
        store.validate_invariants()

    def test_double_release_raises(self):
        store = BlockStore(block_size=8)
        owner = store.new_owner("t")
        store.ingest(owner, "f", make_sf([(0, b"hi")]))
        store.release(owner, "f")
        with pytest.raises(BlockStoreError):
            store.release(owner, "f")

    def test_drop_owner_releases_everything(self):
        store = BlockStore(block_size=8)
        owner = store.new_owner("t")
        store.ingest(owner, "f", make_sf([(0, b"0123456789")]))
        store.ingest(owner, "g", make_sf([(0, b"0123456789")]))
        assert store.drop_owner(owner) == 10
        assert store.stats() == {
            "blocks_total": 0,
            "bytes_physical": 0,
            "bytes_logical": 0,
            "dedupe_ratio": 1.0,
            "evicted_bytes_total": 10,
            "ingested_bytes_total": 20,
            "deduped_bytes_total": 10,
            "owners": 0,
        }

    def test_validate_catches_drifted_refcount(self):
        store = BlockStore(block_size=8)
        owner = store.new_owner("t")
        m = store.ingest(owner, "f", make_sf([(0, b"payload")]))
        store._refs[m.refs[0].digest] += 1  # simulate drift
        with pytest.raises(BlockStoreError, match="refcount drift"):
            store.validate_invariants()

    def test_validate_catches_leaked_block(self):
        store = BlockStore(block_size=8)
        store._blocks["deadbeef"] = b"leak"
        store._bytes_physical += 4
        with pytest.raises(BlockStoreError, match="leaked"):
            store.validate_invariants()


# -- hypothesis fuzz: chunk/dedupe round-trips -------------------------------


@st.composite
def sparse_files(draw):
    """Random small SparseFiles with 0-5 disjoint extents."""
    n = draw(st.integers(min_value=0, max_value=5))
    writes = []
    cursor = 0
    for _ in range(n):
        gap = draw(st.integers(min_value=1, max_value=40))
        length = draw(st.integers(min_value=1, max_value=70))
        data = draw(st.binary(min_size=length, max_size=length))
        writes.append((cursor + gap, data))
        cursor += gap + length
    size = cursor + draw(st.integers(min_value=0, max_value=20))
    return make_sf(writes, size=size)


class TestFuzzRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(sf=sparse_files(), block_size=st.sampled_from([1, 7, 16, 64]))
    def test_ingest_view_roundtrip(self, sf, block_size):
        store = BlockStore(block_size=block_size)
        owner = store.new_owner("fuzz")
        manifest = store.ingest(owner, "f", sf)
        view = store.view(manifest)
        assert view.to_sparsefile() == sf
        assert view.read(0, sf.logical_size) == sf.read(0, sf.logical_size)
        assert view.extents() == sf.extents()
        store.validate_invariants()
        # Ingesting the same content twice never grows physical bytes.
        physical = store.stats()["bytes_physical"]
        store.ingest(owner, "g", sf)
        assert store.stats()["bytes_physical"] == physical
        store.validate_invariants()

    @settings(max_examples=60, deadline=None)
    @given(sf=sparse_files(), block_size=st.sampled_from([1, 7, 16, 64]))
    def test_pieces_digests_reconstruct(self, sf, block_size):
        extents = sf.extents()
        pool: dict[str, bytes] = {}
        refs = []
        for s, e in zip(extents.starts.tolist(), extents.stops.tolist()):
            for ps, pe in iter_block_pieces(s, e, block_size):
                piece = sf.read(ps, pe - ps)
                pool[block_digest(piece)] = piece
                refs.append((ps, block_digest(piece)))
        rebuilt = SparseFile(sf.logical_size)
        for offset, digest in refs:
            rebuilt.write(offset, pool[digest])
        assert rebuilt == sf


# -- deflate/inflate store payloads ------------------------------------------


class TestPayloadDeflation:
    @pytest.fixture(scope="class")
    def payload(self, pytorch):
        from repro.serving.store import DebloatStore

        store = DebloatStore(pytorch, OPTS)
        store.admit(workload_by_id(PT_IDS[0]))
        return store.export_state()

    def test_inflate_inverts_deflate_byte_exactly(self, payload):
        pool: dict[str, bytes] = {}
        deflated = deflate_store_payload(payload, pool)
        assert pool
        restored = inflate_store_payload(deflated, pool)
        assert payload_dumps(restored) == payload_dumps(payload)

    def test_shared_pool_across_payloads_dedupes(self, payload):
        pool: dict[str, bytes] = {}
        deflate_store_payload(payload, pool)
        first = sum(len(b) for b in pool.values())
        deflate_store_payload(payload, pool)  # same content again
        assert sum(len(b) for b in pool.values()) == first


# -- federation: shared blocks, racing, rollback, recovery -------------------


def fed(**kwargs) -> StoreFederation:
    cfg = EngineConfig(scale=TEST_SCALE, options=OPTS, **kwargs)
    return StoreFederation(cfg)


class TestFederationSharing:
    def test_two_shards_share_physical_blocks(self):
        federation = fed()
        solo = fed()
        solo.admit(workload_by_id(PT_IDS[0]))
        solo_physical = solo.blockstore.stats()["bytes_physical"]
        federation.admit(workload_by_id(PT_IDS[0]))
        federation.admit(workload_by_id(HF_ID))
        stats = federation.blockstore.stats()
        # The transformers shard rides on the same torch-family build:
        # two shards occupy less than 2x one shard's physical bytes.
        assert stats["bytes_physical"] < 2 * solo_physical
        assert stats["dedupe_ratio"] > 1.0
        federation.blockstore.validate_invariants()
        for name in federation.frameworks():
            federation.shard(name).store.validate_invariants()

    def test_racing_admits_and_evicts_stay_consistent(self):
        federation = fed()
        errors: list[BaseException] = []

        def admit_loop(wids):
            try:
                for _ in range(3):
                    for wid in wids:
                        federation.admit(workload_by_id(wid))
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        def evict_loop():
            try:
                for _ in range(6):
                    for wid in PT_IDS + [HF_ID]:
                        try:
                            federation.evict(wid)
                        except UsageError:
                            pass  # not admitted right now; keep hammering
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=admit_loop, args=(PT_IDS,)),
            threading.Thread(target=admit_loop, args=([HF_ID],)),
            threading.Thread(target=evict_loop),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        federation.blockstore.validate_invariants()
        for name in federation.frameworks():
            federation.shard(name).store.validate_invariants()

    def test_evicting_every_workload_frees_every_block(self):
        federation = fed()
        for wid in PT_IDS:
            federation.admit(workload_by_id(wid))
        for wid in PT_IDS:
            federation.evict(wid)
        stats = federation.blockstore.stats()
        assert stats["blocks_total"] == 0
        assert stats["bytes_physical"] == 0
        federation.blockstore.validate_invariants()


class TestRollbackRestoresRefcounts:
    def test_mid_admission_failure_leaves_refcounts_untouched(self, pytorch):
        from repro.serving.store import DebloatStore

        store = DebloatStore(pytorch, OPTS)
        store.admit(workload_by_id(PT_IDS[0]))
        before = store.blockstore.snapshot_refcounts()
        stats_before = store.blockstore.stats()

        real = store._compactor.compact

        def boom(*args, **kwargs):
            raise RuntimeError("injected mid-admission failure")

        store._compactor.compact = boom
        try:
            with pytest.raises(RuntimeError, match="injected"):
                store.admit(workload_by_id(PT_IDS[2]))
        finally:
            store._compactor.compact = real

        assert store.blockstore.snapshot_refcounts() == before
        assert store.blockstore.stats() == stats_before
        store.validate_invariants()
        # The store still works: the failed admission can be retried.
        store.admit(workload_by_id(PT_IDS[2]))
        store.validate_invariants()


class TestCrashRecoveryRebuildsRefcounts:
    def test_wal_replay_reconstructs_exact_refcounts(self, tmp_path):
        cfg = EngineConfig(
            scale=TEST_SCALE,
            options=OPTS,
            use_cache=True,
            durability=DurabilityConfig(
                enabled=True,
                directory=str(tmp_path / "durability"),
                fsync="off",
            ),
        )
        with DebloatEngine(cfg) as engine:
            for wid in PT_IDS[:2]:
                engine.admit(AdmitRequest(workload_id=wid))
            committed = engine.federation.blockstore.snapshot_refcounts()
            committed_stats = engine.federation.blockstore.stats()
        # A fresh engine recovers purely from the WAL + snapshot on disk.
        with DebloatEngine(cfg) as engine:
            assert engine.recovery is not None
            recovered = engine.federation.blockstore
            refs = recovered.snapshot_refcounts()
            assert refs == committed
            stats = recovered.stats()
            for key in ("blocks_total", "bytes_physical", "bytes_logical"):
                assert stats[key] == committed_stats[key]
            recovered.validate_invariants()
            for shard in engine.federation.shards():
                shard.store.validate_invariants()


# -- byte-budget eviction ----------------------------------------------------


class TestCostAwareEvictor:
    def test_pick_prefers_cheapest_rebuild_per_byte(self):
        cheap = EvictionCandidate("pt", "a", rebuild_cost_s=1.0,
                                  bytes_estimate=1000)
        costly = EvictionCandidate("pt", "b", rebuild_cost_s=50.0,
                                   bytes_estimate=1000)
        ev = CostAwareEvictor(budget_bytes=1)
        assert ev.pick([costly, cheap]) is cheap

    def test_tie_breaks_prefer_bigger_then_idler(self):
        small = EvictionCandidate("pt", "a", rebuild_cost_s=2.0,
                                  bytes_estimate=1000)
        big = EvictionCandidate("pt", "b", rebuild_cost_s=4.0,
                                bytes_estimate=2000)  # same score, more bytes
        ev = CostAwareEvictor(budget_bytes=1)
        assert ev.pick([small, big]) is big

    def test_over_budget(self):
        ev = CostAwareEvictor(budget_bytes=100)
        assert not ev.over_budget(100)
        assert ev.over_budget(101)

    def test_federation_bytes_sweep_respects_budget_and_pins(self):
        federation = fed(
            eviction=EvictionPolicy(mode="bytes", budget_bytes=1)
        )
        federation.admit(workload_by_id(PT_IDS[0]), pinned=True)
        federation.admit(workload_by_id(PT_IDS[1]))
        federation.admit(workload_by_id(PT_IDS[2]))
        swept = federation.sweep()
        assert swept, "over-budget federation must evict something"
        assert all(s.reason == "bytes" for s in swept)
        swept_ids = {s.workload_id for s in swept}
        assert PT_IDS[0] not in swept_ids, "pinned workloads are immune"
        assert swept_ids == {PT_IDS[1], PT_IDS[2]}
        federation.blockstore.validate_invariants()

    def test_sweep_stops_once_under_budget(self):
        federation = fed(
            eviction=EvictionPolicy(mode="bytes", budget_bytes=10**12)
        )
        for wid in PT_IDS:
            federation.admit(workload_by_id(wid))
        assert federation.sweep() == []
        assert federation.stats()["sweeps"] == 1


# -- EvictionPolicy validation -----------------------------------------------


class TestEvictionPolicyValidation:
    def test_bytes_mode_requires_budget(self):
        with pytest.raises(ConfigurationError, match="budget_bytes"):
            EvictionPolicy(mode="bytes")

    def test_budget_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="budget_bytes"):
            EvictionPolicy(mode="bytes", budget_bytes=0)

    def test_contradictory_knobs_rejected(self):
        with pytest.raises(ConfigurationError, match="ttl_s"):
            EvictionPolicy(mode="bytes", budget_bytes=1, ttl_s=5.0)
        with pytest.raises(ConfigurationError, match="budget_bytes"):
            EvictionPolicy(mode="ttl", ttl_s=5.0, budget_bytes=1)
        with pytest.raises(ConfigurationError, match="max_workloads"):
            EvictionPolicy(mode="bytes", budget_bytes=1, max_workloads=3)

    def test_error_names_the_offending_field(self):
        with pytest.raises(ConfigurationError, match="field 'budget_bytes'"):
            EvictionPolicy(mode="bytes", budget_bytes=-4)

    def test_valid_bytes_policy(self):
        policy = EvictionPolicy(mode="bytes", budget_bytes=123)
        assert policy.budget_bytes == 123
