"""Versioned on-disk snapshots: a federation's store images in a directory.

Snapshot export is how a replica (or an engine recovering from its WAL
checkpoint) comes up warm with **zero** workload runs: every shard's
committed epoch is written as one RDBC container
(:data:`~repro.core.serialize.STORE_KIND`, CRC-checked by the container
itself) next to a ``MANIFEST.json`` that records the
snapshot schema, each shard's framework/fingerprint/generation, and a
process-stable digest of each container's bytes.  Import verifies the
digest before decoding, so a torn or tampered file surfaces as
:class:`~repro.errors.SnapshotError` rather than a half-imported store.

Since schema 2 a snapshot is **block-deflated**: every shard's payload
blobs are chunked into offset-aligned content-addressed pieces
(:func:`~repro.core.serialize.deflate_store_payload`), the deduped pieces
land once in a shared ``blocks.rdbc`` pool file, and each shard container
stores digest lists instead of bytes.  Import inflates back to the
original self-contained payload tree byte-exactly, so the durability
byte-identity contract is untouched while cross-shard duplicate content
is written to disk exactly once.

Write ordering makes export crash-safe without locks: the block pool is
written first, then the shard containers that reference it (each through
the durable atomic-write helper - temp file, ``fsync``, ``os.replace``,
parent-directory ``fsync``), the manifest last, also atomically.  A
reader therefore either sees the previous complete snapshot or the new
one - never a manifest pointing at missing or partial files - and (with
fsync enabled) what it sees survives power loss.
Readers call the ``snapshot.read`` fault site, so the fault harness can
rehearse corrupt/missing snapshots deterministically.

When a shard has a write-ahead log (:mod:`repro.serving.wal`), its
manifest entry also records the ``wal_seq`` watermark: the last WAL
record reflected in the image.  Recovery replays only records past the
watermark, which is what makes checkpoint-then-truncate crash-safe.
"""

from __future__ import annotations

import json
import os
from typing import Mapping

from repro.core.serialize import (
    SCHEMA_VERSION,
    _check_store_payload,
    block_pool_from_payload,
    block_pool_to_payload,
    deflate_store_payload,
    inflate_store_payload,
    payload_dumps,
    payload_is_deflated,
    payload_loads,
    stable_digest,
)
from repro.errors import (
    CacheDecodeError,
    CacheSchemaError,
    SnapshotError,
    SnapshotSchemaError,
)
from repro.testing import faults
from repro.utils.atomicio import atomic_write_bytes

#: Bump on any change to the manifest layout or file naming.
SNAPSHOT_SCHEMA = 2

#: Schemas this reader accepts.  v1 snapshots carry self-contained shard
#: containers; v2 shard containers are block-deflated and reference the
#: shared pool file, so the two inflate to identical payload trees.
SUPPORTED_SNAPSHOT_SCHEMAS = (1, SNAPSHOT_SCHEMA)

MANIFEST_NAME = "MANIFEST.json"

#: The shared content-addressed block pool: every deduped piece of every
#: shard's store image, written once per snapshot.
BLOCKS_NAME = "blocks.rdbc"


def shard_filename(framework: str) -> str:
    return f"shard--{framework}.rdbc"


def _atomic_write(path: str, data: bytes) -> None:
    atomic_write_bytes(path, data)


def write_snapshot(
    directory: str,
    payloads: Mapping[str, dict],
    wal_seqs: Mapping[str, int] | None = None,
) -> dict:
    """Write one store image per framework + the manifest; returns it.

    ``payloads`` maps framework name -> a store-image payload tree
    (:meth:`~repro.serving.store.DebloatStore.export_state` output).
    Re-exporting an unchanged federation rewrites byte-identical files.
    ``wal_seqs`` optionally maps framework name -> the WAL watermark
    reflected in the image, recorded as the shard entry's ``wal_seq``
    (readers without a WAL ignore the extra key).
    """
    os.makedirs(directory, exist_ok=True)
    pool: dict[str, bytes] = {}
    deflated = {}
    for framework in sorted(payloads):
        payload = payloads[framework]
        _check_store_payload(payload)
        deflated[framework] = deflate_store_payload(payload, pool)
    # The pool is written before any shard container that references it:
    # a reader that sees a shard file always finds its blocks.
    pool_blob = payload_dumps(block_pool_to_payload(pool))
    _atomic_write(os.path.join(directory, BLOCKS_NAME), pool_blob)
    blocks_ref = {"file": BLOCKS_NAME, "digest": stable_digest(pool_blob)}
    shards = []
    for framework in sorted(payloads):
        blob = payload_dumps(deflated[framework])
        filename = shard_filename(framework)
        _atomic_write(os.path.join(directory, filename), blob)
        entry = {
            "framework": framework,
            "fingerprint": payloads[framework].get("fingerprint"),
            "generation": int(payloads[framework].get("generation", 0)),
            "file": filename,
            "bytes": len(blob),
            "digest": stable_digest(blob),
            "blocks": dict(blocks_ref),
        }
        if wal_seqs is not None and framework in wal_seqs:
            entry["wal_seq"] = int(wal_seqs[framework])
        shards.append(entry)
    manifest = {
        "schema": SNAPSHOT_SCHEMA,
        "container_schema": SCHEMA_VERSION,
        "shards": shards,
    }
    _atomic_write(
        os.path.join(directory, MANIFEST_NAME),
        json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
    )
    return manifest


def snapshot_exists(directory: str) -> bool:
    return os.path.isfile(os.path.join(directory, MANIFEST_NAME))


def read_manifest(directory: str) -> dict:
    """The snapshot's manifest; every failure is a :class:`SnapshotError`."""
    faults.check("snapshot.read")
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, "rb") as fh:
            manifest = json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise SnapshotError(f"no snapshot manifest at {path}: {exc}") from exc
    except ValueError as exc:
        raise SnapshotError(f"snapshot manifest is not JSON: {exc}") from exc
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema not in SUPPORTED_SNAPSHOT_SCHEMAS:
        raise SnapshotSchemaError(
            f"snapshot schema {schema!r} not in supported "
            f"{SUPPORTED_SNAPSHOT_SCHEMAS}"
        )
    if manifest.get("container_schema") != SCHEMA_VERSION:
        raise SnapshotSchemaError(
            f"snapshot containers use schema "
            f"{manifest.get('container_schema')!r} != supported "
            f"{SCHEMA_VERSION}"
        )
    if not isinstance(manifest.get("shards"), list):
        raise SnapshotError("snapshot manifest has no shard list")
    return manifest


def read_block_pool(directory: str, ref: dict) -> dict[str, bytes]:
    """The shared block pool a shard entry references, digest-verified.

    ``ref`` is a shard entry's ``blocks`` mapping (``file`` + ``digest``).
    Every block's content digest is re-verified during decode, so a
    corrupt pool surfaces here rather than as a garbled store image.
    """
    faults.check("snapshot.read")
    path = os.path.join(directory, ref["file"])
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise SnapshotError(
            f"snapshot block pool {path} unreadable: {exc}"
        ) from exc
    if stable_digest(blob) != ref.get("digest"):
        raise SnapshotError(
            f"snapshot block pool {ref['file']} digest mismatch (torn "
            f"write or tampering)"
        )
    try:
        payload = payload_loads(blob)
    except CacheSchemaError as exc:
        raise SnapshotSchemaError(str(exc)) from exc
    except CacheDecodeError as exc:
        raise SnapshotError(
            f"snapshot block pool {ref['file']} is corrupt: {exc}"
        ) from exc
    return block_pool_from_payload(payload)


def read_shard_payload(
    directory: str, entry: dict, pool: dict[str, bytes] | None = None
) -> dict:
    """One manifest entry's store image, digest-verified then decoded.

    A v2 entry's container is block-deflated; its blobs are rebuilt from
    the shared pool (loaded from the entry's ``blocks`` reference unless
    a caller that iterates many shards passes ``pool`` in), so the return
    value is always the original self-contained payload tree.
    """
    faults.check("snapshot.read")
    path = os.path.join(directory, entry["file"])
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise SnapshotError(
            f"snapshot shard file {path} unreadable: {exc}"
        ) from exc
    if stable_digest(blob) != entry.get("digest"):
        raise SnapshotError(
            f"snapshot shard {entry['file']} digest mismatch (torn write "
            f"or tampering)"
        )
    try:
        payload = payload_loads(blob)
    except CacheSchemaError as exc:
        raise SnapshotSchemaError(str(exc)) from exc
    except CacheDecodeError as exc:
        raise SnapshotError(
            f"snapshot shard {entry['file']} is corrupt: {exc}"
        ) from exc
    _check_store_payload(payload)
    if payload_is_deflated(payload):
        if pool is None:
            ref = entry.get("blocks")
            if not isinstance(ref, dict):
                raise SnapshotError(
                    f"snapshot shard {entry['file']} is block-deflated "
                    f"but its manifest entry has no blocks reference"
                )
            pool = read_block_pool(directory, ref)
        payload = inflate_store_payload(payload, pool)
    if payload.get("framework") != entry.get("framework"):
        raise SnapshotError(
            f"snapshot shard {entry['file']} holds "
            f"{payload.get('framework')!r}, manifest says "
            f"{entry.get('framework')!r}"
        )
    return payload


def load_snapshot(directory: str) -> dict[str, dict]:
    """Every shard image in the snapshot, keyed by framework name."""
    manifest = read_manifest(directory)
    pool: dict[str, bytes] | None = None
    out = {}
    for entry in manifest["shards"]:
        ref = entry.get("blocks")
        if pool is None and isinstance(ref, dict):
            pool = read_block_pool(directory, ref)
        out[entry["framework"]] = read_shard_payload(directory, entry, pool)
    return out
