"""Tests for warm snapshots: store images, the on-disk snapshot
directory, and federation/engine export and import.

The contract under test: a replica built from a snapshot serves
byte-identical reports and libraries with **zero** workload runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.api import DebloatEngine, EngineConfig
from repro.api.federation import StoreFederation
from repro.core.compact import Compactor
from repro.core.cpu import FunctionLocator
from repro.core.debloat import DebloatOptions
from repro.core.locate import KernelLocator
from repro.core.serialize import (
    STORE_KIND,
    debloated_from_payload,
    debloated_to_payload,
    multi_report_to_payload,
    payload_dumps,
    payload_equal,
    sparsefile_from_payload,
    sparsefile_to_payload,
    store_from_payload,
    value_dumps,
    value_loads,
)
from repro.elf import constants as C
from repro.elf.parser import parse_shared_library
from repro.errors import (
    CacheDecodeError,
    FaultError,
    SnapshotError,
    SnapshotSchemaError,
    TransientError,
    UsageError,
)
from repro.serving import snapshot as snapshots
from repro.serving.store import DebloatStore
from repro.testing import faults
from repro.workloads.spec import workload_by_id

from tests.conftest import TEST_SCALE, build_small_library

OPTS = DebloatOptions(runtime_comparison_top_n=0)

PT_IDS = [
    "pytorch/train/mobilenetv2",
    "pytorch/inference/mobilenetv2",
    "pytorch/train/transformer",
]
TF_ID = "tensorflow/train/mobilenetv2"


def multi_reports_equal(a, b) -> bool:
    return payload_equal(multi_report_to_payload(a), multi_report_to_payload(b))


def pt_specs():
    return [workload_by_id(wid) for wid in PT_IDS]


@pytest.fixture(autouse=True)
def _clean_fault_state():
    faults.deactivate()
    yield
    faults.deactivate()


def fed_config(**kwargs) -> EngineConfig:
    defaults = dict(scale=TEST_SCALE, options=OPTS)
    defaults.update(kwargs)
    return EngineConfig(**defaults)


# -- library payload round-trip ------------------------------------------------


class TestLibraryPayloadRoundTrip:
    """The per-library payloads every store image is built from."""

    def _compacted(self):
        lib = build_small_library()
        gpu = KernelLocator().locate(lib, frozenset({"k_0_0"}), 75)
        cpu = FunctionLocator().locate(lib, np.array([0, 1, 5]))
        return lib, Compactor().compact(lib, cpu, gpu)

    def test_sparsefile_roundtrip_exact(self):
        lib, debloated = self._compacted()
        payload = sparsefile_to_payload(debloated.lib.data)
        rebuilt = sparsefile_from_payload(payload)
        assert rebuilt == debloated.lib.data  # extents AND chunks
        assert rebuilt.logical_size == debloated.lib.data.logical_size

    def test_debloated_roundtrip(self):
        lib, debloated = self._compacted()
        payload = debloated_to_payload(debloated)
        # The payload survives the binary container snapshots are written in.
        payload = value_loads(value_dumps(payload, STORE_KIND), STORE_KIND)
        rebuilt = debloated_from_payload(payload, lib)
        assert rebuilt.lib.data == debloated.lib.data
        assert rebuilt.original is lib
        assert rebuilt.removed_cpu_ranges == debloated.removed_cpu_ranges
        assert rebuilt.removed_gpu_ranges == debloated.removed_gpu_ranges
        assert rebuilt.removed_elements == debloated.removed_elements
        assert rebuilt.removed_functions == debloated.removed_functions
        assert rebuilt.compacted_file_size == debloated.compacted_file_size
        assert rebuilt.lib.tags.keys() == debloated.lib.tags.keys()
        assert np.array_equal(
            rebuilt.lib.tags["removed_function_mask"],
            debloated.lib.tags["removed_function_mask"],
        )

    def test_mismatched_original_rejected(self):
        lib, debloated = self._compacted()
        other = build_small_library(soname="libother.so")
        payload = debloated_to_payload(debloated)
        with pytest.raises(CacheDecodeError, match="paired with"):
            debloated_from_payload(payload, other)


# -- store image round-trip ----------------------------------------------------


class TestStoreImage:
    def test_export_import_byte_identical(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        for spec in pt_specs():
            store.admit(spec)
        image = store.export_state()
        blob = payload_dumps(image)
        assert image["kind"] == STORE_KIND
        assert image["generation"] == store.generation

        fresh = DebloatStore(pytorch, OPTS)
        fresh.import_state(image)
        assert fresh.generation == store.generation
        assert payload_dumps(fresh.export_state()) == blob
        assert multi_reports_equal(fresh.report(), store.report())
        fresh.validate_invariants()

    def test_store_from_payload_rebuilds_framework(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        store.admit(pt_specs()[0])
        image = store.export_state()
        replica = store_from_payload(image)
        assert payload_dumps(replica.export_state()) == payload_dumps(image)
        # The replica keeps serving: a further admission works and lands
        # on the next generation.
        result = replica.admit(pt_specs()[1])
        assert result.generation == store.generation + 1

    def test_import_rejects_framework_mismatch(self, pytorch, tensorflow):
        store = DebloatStore(pytorch, OPTS)
        store.admit(pt_specs()[0])
        other = DebloatStore(tensorflow, OPTS)
        with pytest.raises(SnapshotError, match="this store serves"):
            other.import_state(store.export_state())

    def test_import_rejects_wrong_kind_and_schema(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        store.admit(pt_specs()[0])
        image = store.export_state()
        with pytest.raises(SnapshotError):
            store.import_state({**image, "kind": "not_a_store"})
        with pytest.raises(SnapshotSchemaError):
            store.import_state({**image, "schema": 999})

    def test_tampered_strtab_byte_rejected(self, pytorch):
        store = DebloatStore(pytorch, OPTS)
        store.admit(pt_specs()[0])
        image = store.export_state()
        soname = "libtorch_cuda.so"
        original = pytorch.libraries[soname]
        payload = _flip_byte(
            image["debloated"][soname],
            original.require_section(C.SEC_STRTAB).header.sh_offset + 1,
        )
        # The tables still parse: a re-parse alone would accept the image.
        parse_shared_library(sparsefile_from_payload(payload["data"]))
        with pytest.raises(CacheDecodeError, match="ELF structure bytes"):
            debloated_from_payload(payload, original)
        tampered = {
            **image, "debloated": {**image["debloated"], soname: payload}
        }
        with pytest.raises(SnapshotError) as info:
            DebloatStore(pytorch, OPTS).import_state(tampered)
        assert isinstance(info.value.__cause__, CacheDecodeError)


def _flip_byte(payload: dict, offset: int) -> dict:
    """A debloated-library payload with the byte at file ``offset`` flipped."""
    data = payload["data"]
    position = 0
    for start, stop in zip(data["starts"].tolist(), data["stops"].tolist()):
        if start <= offset < stop:
            position += offset - start
            break
        position += stop - start
    else:
        raise AssertionError(f"offset {offset} is not materialized")
    blob = data["blob"].copy()
    blob[position] ^= 0x01
    return {**payload, "data": {**data, "blob": blob}}


# -- snapshot directory --------------------------------------------------------


class TestSnapshotDirectory:
    def _snapshot(self, pytorch, directory):
        store = DebloatStore(pytorch, OPTS)
        for spec in pt_specs()[:2]:
            store.admit(spec)
        manifest = snapshots.write_snapshot(
            str(directory), {"pytorch": store.export_state()}
        )
        return store, manifest

    def test_round_trip_and_reexport_identical(self, pytorch, tmp_path):
        store, manifest = self._snapshot(pytorch, tmp_path)
        assert [e["framework"] for e in manifest["shards"]] == ["pytorch"]
        payloads = snapshots.load_snapshot(str(tmp_path))
        assert payload_dumps(payloads["pytorch"]) == payload_dumps(
            store.export_state()
        )
        # Re-exporting an unchanged store rewrites byte-identical files.
        before = (tmp_path / "shard--pytorch.rdbc").read_bytes()
        snapshots.write_snapshot(
            str(tmp_path), {"pytorch": store.export_state()}
        )
        assert (tmp_path / "shard--pytorch.rdbc").read_bytes() == before

    def test_missing_snapshot_raises(self, tmp_path):
        assert not snapshots.snapshot_exists(str(tmp_path))
        with pytest.raises(SnapshotError, match="manifest"):
            snapshots.read_manifest(str(tmp_path))

    def test_manifest_schema_skew(self, pytorch, tmp_path):
        self._snapshot(pytorch, tmp_path)
        path = tmp_path / snapshots.MANIFEST_NAME
        manifest = json.loads(path.read_text())
        manifest["schema"] = 999
        path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotSchemaError):
            snapshots.load_snapshot(str(tmp_path))

    def test_tampered_shard_fails_digest(self, pytorch, tmp_path):
        self._snapshot(pytorch, tmp_path)
        path = tmp_path / "shard--pytorch.rdbc"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="digest"):
            snapshots.load_snapshot(str(tmp_path))

    def test_snapshot_read_fault_site(self, pytorch, tmp_path):
        self._snapshot(pytorch, tmp_path)
        plan = faults.FaultPlan(
            (faults.FaultRule("snapshot.read", ordinals=(1,),
                              kind="corrupt"),),
            seed=7,
        )
        with faults.fault_plan(plan):
            with pytest.raises(FaultError):
                snapshots.load_snapshot(str(tmp_path))
            # The injected corrupt read is transient: the retry succeeds.
            assert "pytorch" in snapshots.load_snapshot(str(tmp_path))


# -- fresh-replica import: zero workload runs ----------------------------------


_REPLICA_SCRIPT = """
import sys

import repro.workloads.runner as runner

def _refuse(self):
    raise AssertionError("workload ran during snapshot import")

runner.WorkloadRunner.run = _refuse

from repro.api import DebloatEngine, EngineConfig
from repro.core.debloat import DebloatOptions
from repro.core.serialize import payload_dumps

snapdir, outdir, scale = sys.argv[1], sys.argv[2], float(sys.argv[3])
config = EngineConfig(
    scale=scale, options=DebloatOptions(runtime_comparison_top_n=0)
)
with DebloatEngine(config) as engine:
    generations = engine.import_snapshot(snapdir).value["generations"]
    engine.export_snapshot(outdir)
print(len(generations))
"""


class TestFreshReplicaImport:
    def test_subprocess_import_is_byte_identical_with_zero_runs(
        self, pytorch, tmp_path
    ):
        fed = StoreFederation(fed_config())
        for spec in pt_specs():
            fed.admit(spec)
        fed.admit(workload_by_id(TF_ID))
        snapdir = tmp_path / "snap"
        manifest = fed.export_snapshot(str(snapdir))
        assert {e["framework"] for e in manifest["shards"]} == {
            "pytorch", "tensorflow",
        }
        outdir = tmp_path / "reexport"
        proc = subprocess.run(
            [sys.executable, "-c", _REPLICA_SCRIPT, str(snapdir),
             str(outdir), str(TEST_SCALE)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "2"
        # Byte-identity file by file: library bytes, extents, generations
        # all live inside the store image containers.
        for entry in manifest["shards"]:
            original = (snapdir / entry["file"]).read_bytes()
            replica = (outdir / entry["file"]).read_bytes()
            assert replica == original, entry["framework"]


# -- typed errors --------------------------------------------------------------


class TestSnapshotErrors:
    def test_snapshot_schema_error_is_not_transient(self):
        err = SnapshotSchemaError("schema 999")
        assert isinstance(err, SnapshotError)
        assert not isinstance(err, TransientError)


# -- federation snapshot + engine integration ----------------------------------


class TestFederationSnapshots:
    def test_import_matches_export(self, tmp_path):
        source = StoreFederation(fed_config())
        for spec in pt_specs()[:2]:
            source.admit(spec)
        snapdir = str(tmp_path / "fed-snap")
        source.export_snapshot(snapdir)

        target = StoreFederation(fed_config())
        generations = target.import_snapshot(snapdir)
        assert generations == {"pytorch": 2}
        assert payload_dumps(
            target.shard("pytorch").store.export_state()
        ) == payload_dumps(source.shard("pytorch").store.export_state())
        # Imported workloads are live traffic for the eviction clock.
        assert set(target.shard("pytorch").last_served) == set(
            source.shard("pytorch").store.snapshot().workload_ids
        )

    def test_engine_export_import_and_default_dirs(self, tmp_path):
        snapdir = str(tmp_path / "engine-snap")
        config = fed_config(snapshot_dir=snapdir)
        with DebloatEngine(config) as engine:
            from repro.api import AdmitRequest

            engine.admit(AdmitRequest(spec=pt_specs()[0]))
            result = engine.export_snapshot()
            assert result.value["directory"] == os.path.join(
                snapdir, "federation"
            )
        with DebloatEngine(config) as replica:
            imported = replica.import_snapshot()
            assert imported.value["generations"] == {"pytorch": 1}
        with DebloatEngine(fed_config()) as bare:
            with pytest.raises(UsageError, match="snapshot directory"):
                bare.export_snapshot()
