"""Per-layer metrics of a traced run, computed from its spans.

Layers are named by module.  Time metrics are milliseconds summed over
the timed phase (nested calls of one layer counted once), except
``frameworks.build_ms`` and ``kindex.*``, which cover set-up and the
timed phase (the layers' work lands in set-up), and ``wal.recover_ms``,
which covers the recovery after the timed phase.  ``share.*`` is each
layer's self time over the total time of the ops in the timed phase.
"""

from __future__ import annotations

from common import median
from tracing import in_window, outermost, self_times, total_ms

#: Span name -> layer, for self-time shares.  ``fsync`` belongs to the
#: layer that called it.
LAYER_OF = {
    "frameworks.build": "frameworks",
    "capture": "capture",
    "kindex": "kindex",
    "locate.gpu": "locate",
    "locate.cpu": "locate",
    "compact": "compact",
    "compact.reparse": "compact",
    "compact.validate": "compact",
    "blocks.ingest": "blocks",
    "blocks.release": "blocks",
    "wal.append": "wal",
    "wal.sync": "wal",
    "wal.recover": "wal",
    "store": "store",
    "federation": "federation",
    "federation.sweep": "federation",
}
SHARE_LAYERS = ("capture", "kindex", "locate", "compact", "blocks", "wal",
                "store", "federation", "other")

#: Per-layer metric name -> unit, in report order.
PER_LAYER_UNITS = {
    "frameworks.build_ms": "ms",
    "capture.calls": "count",
    "capture.ms": "ms",
    "capture.hit_ratio": "ratio",
    "kindex.calls": "count",
    "kindex.ms": "ms",
    "locate.calls": "count",
    "locate.gpu_ms": "ms",
    "locate.cpu_ms": "ms",
    "compact.calls": "count",
    "compact.ms": "ms",
    "compact.reparse_ms": "ms",
    "compact.validate_ms": "ms",
    "blocks.ingest_calls": "count",
    "blocks.ingest_ms": "ms",
    "blocks.release_ms": "ms",
    "blocks.physical_mb": "MiB",
    "blocks.logical_mb": "MiB",
    "wal.appends": "count",
    "wal.append_ms": "ms",
    "wal.syncs": "count",
    "wal.recover_ms": "ms",
    "store.self_ms": "ms",
    "store.recompacted_per_op": "count",
    "store.untouched_ratio": "ratio",
    "federation.self_ms": "ms",
    "federation.sweep_ms": "ms",
    "federation.swept": "count",
    "server.queue_wait_ms.p50": "ms",
    "server.queue_wait_ms.p90": "ms",
    "server.batch_size": "count",
    "http.self_ms.p50": "ms",
    "http.shed": "count",
    "http.deadline": "count",
    "traced.admit_ms.p50": "ms",
    **{f"share.{layer}": "ratio" for layer in SHARE_LAYERS},
}


def _layer(span, by_id) -> str:
    if span.name == "fsync":
        span = by_id.get(span.parent, span)
    return LAYER_OF.get(span.name, "other")


def _count(spans, name: str) -> int:
    return len(outermost(spans, name))


def layer_metrics(spans, windows: dict, extra: dict) -> dict[str, float]:
    """Every per-layer metric; ``extra`` supplies what spans cannot see
    (block gauges, server/http figures, traced admission latencies)."""
    setup_start = windows["setup"][0]
    t0, t1 = windows["timed"]
    timed = in_window(spans, t0, t1)
    early = in_window(spans, setup_start, t1)
    recover = in_window(spans, *windows["recover"]) \
        if windows.get("recover") else []
    by_id = {s.id: s for s in timed}
    selfs = self_times(timed)

    captures = outermost(timed, "capture")
    hits = sum(1 for s in captures if s.info and s.info.get("hit"))
    admissions = [
        s.info for s in timed
        if s.name == "store" and s.info and s.info.get("kind") == "admit"
    ]
    recompacted = [n for info in admissions for n in info["recompacted"]]
    untouched = [n for info in admissions for n in info["untouched"]]
    if "recompacted" in extra:
        recompacted, untouched = extra["recompacted"], extra["untouched"]

    out: dict[str, float] = {
        "frameworks.build_ms": total_ms(early, "frameworks.build"),
        "capture.calls": len(captures),
        "capture.ms": total_ms(timed, "capture"),
        "capture.hit_ratio": hits / len(captures) if captures else 0.0,
        "kindex.calls": _count(early, "kindex"),
        "kindex.ms": total_ms(early, "kindex"),
        "locate.calls": _count(timed, "locate.gpu")
        + _count(timed, "locate.cpu"),
        "locate.gpu_ms": total_ms(timed, "locate.gpu"),
        "locate.cpu_ms": total_ms(timed, "locate.cpu"),
        "compact.calls": _count(timed, "compact"),
        "compact.ms": total_ms(timed, "compact"),
        "compact.reparse_ms": total_ms(timed, "compact.reparse"),
        "compact.validate_ms": total_ms(timed, "compact.validate"),
        "blocks.ingest_calls": _count(timed, "blocks.ingest"),
        "blocks.ingest_ms": total_ms(timed, "blocks.ingest"),
        "blocks.release_ms": total_ms(timed, "blocks.release"),
        "blocks.physical_mb": extra.get("blocks.physical_mb", 0.0),
        "blocks.logical_mb": extra.get("blocks.logical_mb", 0.0),
        "wal.appends": _count(timed, "wal.append"),
        "wal.append_ms": total_ms(timed, "wal.append"),
        "wal.syncs": sum(
            1 for s in timed if s.name == "fsync"
            and by_id.get(s.parent) is not None
            and by_id[s.parent].name in ("wal.append", "wal.sync")
        ),
        "wal.recover_ms": total_ms(recover, "wal.recover"),
        "store.self_ms": 1000 * sum(
            selfs[s.id] for s in timed if s.name == "store"),
        "store.recompacted_per_op": median(recompacted) if recompacted
        else 0.0,
        "store.untouched_ratio": (
            sum(untouched) / (sum(untouched) + sum(recompacted))
            if sum(untouched) + sum(recompacted) else 0.0
        ),
        "federation.self_ms": 1000 * sum(
            selfs[s.id] for s in timed
            if s.name in ("federation", "federation.sweep")),
        "federation.sweep_ms": total_ms(timed, "federation.sweep"),
        "federation.swept": sum(
            s.info.get("swept", 0) for s in timed
            if s.name == "federation.sweep" and s.info),
        "server.queue_wait_ms.p50": extra.get("server.queue_wait_ms.p50", 0.0),
        "server.queue_wait_ms.p90": extra.get("server.queue_wait_ms.p90", 0.0),
        "server.batch_size": extra.get("server.batch_size", 0.0),
        "http.self_ms.p50": extra.get("http.self_ms.p50", 0.0),
        "http.shed": extra.get("http.shed", 0.0),
        "http.deadline": extra.get("http.deadline", 0.0),
        "traced.admit_ms.p50": extra.get("traced.admit_ms.p50", 0.0),
    }
    roots = [s for s in timed if s.parent is None]
    root_s = sum(s.end - s.start for s in roots)
    shares = dict.fromkeys(SHARE_LAYERS, 0.0)
    for span in timed:
        shares[_layer(span, by_id)] += selfs[span.id]
    for layer in SHARE_LAYERS:
        out[f"share.{layer}"] = shares[layer] / root_s if root_s else 0.0
    return out


def admit_breakdown(spans, window) -> dict[str, float]:
    """Milliseconds per layer inside the benchmark's ``op.admit`` spans."""
    timed = in_window(spans, *window)
    roots = {s.id for s in timed if s.name == "op.admit"}
    inside = [s for s in timed if s.op in roots]
    return {
        "admit_ms": total_ms(inside, "op.admit"),
        "compact_ms": total_ms(inside, "compact"),
        "blocks_ingest_ms": total_ms(inside, "blocks.ingest"),
        "capture_ms": total_ms(inside, "capture"),
    }
