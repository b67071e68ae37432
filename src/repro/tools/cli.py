"""``negativa-ml``: the tool's command-line interface.

Subcommands:

* ``inspect <framework> <soname>`` - describe a generated library
  (sections, code sizes, fatbin architectures, kernels);
* ``debloat <workload-id>`` - run the full pipeline for a Table-1 workload
  and print the per-library reduction report;
* ``serve`` - run the federated debloat server: admit workloads (of one or
  several frameworks) through a worker pool into per-framework
  :class:`~repro.serving.store.DebloatStore` shards, delta-compacting only
  the libraries each admission actually grew, with optional traffic-driven
  TTL/LRU/pinned eviction and optional WAL durability (``--durable``);
* ``snapshot export|import`` - write a federation's warm store images to
  a directory / bring a fresh process up warm from one, with zero
  workload runs;
* ``workloads`` - list the available workload ids.

Every subcommand is a thin adapter over the :class:`repro.api.DebloatEngine`
facade: the CLI flags build one :class:`~repro.api.EngineConfig`, requests
go through typed :mod:`repro.api.requests` objects, and the engine routes
reports, admission usage, and kernel indexes through the shared two-tier
pipeline cache - so a workload already debloated by an earlier invocation
(or by the experiment CLI) renders from the persisted report, and a warm
store admits from cached usage, without re-running anything.  ``--no-cache``,
``--no-disk-cache``, and ``--cache-dir`` mirror the experiment CLI's cache
flags; printed reports are byte-identical either way.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from repro.api import (
    AdmitRequest,
    DebloatEngine,
    DebloatRequest,
    EngineConfig,
    EvictionPolicy,
    InspectRequest,
)
from repro.errors import AdmissionError, ConfigurationError, UsageError
from repro.experiments.common import DEFAULT_SCALE
from repro.frameworks.catalog import FRAMEWORK_NAMES
from repro.utils.tables import Table
from repro.utils.units import fmt_mb
from repro.workloads.spec import TABLE1_WORKLOADS, workload_by_id


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negativa-ml",
        description="Identify and remove bloat in ML framework shared libraries.",
    )
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="entity-count scale (1.0 = paper magnitude)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the pipeline cache entirely (both tiers)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="keep the in-memory pipeline cache but never "
                        "read or write the persisted disk tier")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="disk-tier cache directory (default: "
                        "$REPRO_PIPELINE_CACHE_DIR or ~/.cache/repro-debloat)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inspect = sub.add_parser("inspect", help="describe a shared library")
    p_inspect.add_argument("framework", choices=FRAMEWORK_NAMES)
    p_inspect.add_argument("soname", nargs="?", default="")
    p_inspect.add_argument("--sections", action="store_true")
    p_inspect.add_argument("--kernels", action="store_true")
    p_inspect.add_argument("--blocks", action="store_true",
                           help="show the content-addressed block store "
                           "(admits the framework's catalog workloads first)")

    p_debloat = sub.add_parser("debloat", help="debloat a workload's libraries")
    p_debloat.add_argument("workload_id", help="e.g. pytorch/train/mobilenetv2")
    p_debloat.add_argument("--top", type=int, default=12,
                           help="show the top-N libraries by reduction")
    p_debloat.add_argument("--locate-workers", type=int, default=0,
                           help="fan the per-library locate/compact loop "
                           "out over N workers (0 = serial; output is "
                           "byte-identical for any worker count)")

    p_serve = sub.add_parser(
        "serve",
        help="admit workloads into the federated debloated-library store",
    )
    p_serve.add_argument(
        "workload_ids", nargs="*",
        help="workload ids to admit in order, any mix of frameworks "
        "(default: every catalog workload of --framework)")
    p_serve.add_argument("--framework", default="pytorch",
                         choices=FRAMEWORK_NAMES,
                         help="framework whose catalog workloads to serve "
                         "when no ids are given")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="admission worker threads (detections overlap; "
                         "union merges serialize)")
    p_serve.add_argument("--verify", action="store_true",
                         help="re-run each workload against the store after "
                         "its admission")
    p_serve.add_argument("--batch-max", type=int, default=1,
                         help="let a worker drain up to N queued admissions "
                         "into one union merge + delta pass per library "
                         "(1 = admit one at a time)")
    p_serve.add_argument("--evict", default="none",
                         choices=("none", "ttl", "lru", "pinned", "bytes"),
                         help="traffic-driven eviction policy applied on "
                         "sweeps (default: none)")
    p_serve.add_argument("--ttl-s", type=float, default=None,
                         help="ttl mode: seconds a workload may sit idle "
                         "before a sweep evicts it")
    p_serve.add_argument("--max-workloads", type=int, default=None,
                         help="lru mode: per-framework cap on admitted "
                         "workloads")
    p_serve.add_argument("--budget-bytes", type=int, default=None,
                         metavar="N",
                         help="bytes mode: cap on the shared block store's "
                         "physical bytes; sweeps evict the cheapest-to-"
                         "rebuild per byte freed until the store fits")
    p_serve.add_argument("--pin", action="append", default=[],
                         metavar="WORKLOAD_ID",
                         help="workload id a sweep must never evict "
                         "(repeatable)")
    p_serve.add_argument("--sweep-interval", type=float, default=None,
                         metavar="SECONDS",
                         help="run the policy sweep periodically in the "
                         "background while serving (default: one final "
                         "sweep after all admissions)")
    p_serve.add_argument("--max-attempts", type=int, default=None,
                         metavar="N",
                         help="retry each admission up to N times on "
                         "transient faults with exponential backoff "
                         "(default: 3)")
    p_serve.add_argument("--http", default=None, metavar="HOST:PORT",
                         help="serve the asyncio HTTP/JSON front-end "
                         "instead of admitting a workload list (':8000' "
                         "binds loopback, ':0' picks an ephemeral port); "
                         "runs until SIGTERM/SIGINT, then drains")
    p_serve.add_argument("--http-queue-bound", type=int, default=64,
                         metavar="N",
                         help="max admissions in flight behind HTTP before "
                         "load-shedding with 503 + Retry-After")
    p_serve.add_argument("--coalesce-window-ms", type=float, default=5.0,
                         metavar="MS",
                         help="window for coalescing concurrent admits "
                         "into one admit_many batch (0 = no coalescing)")
    p_serve.add_argument("--request-deadline-s", type=float, default=30.0,
                         metavar="SECONDS",
                         help="default per-request deadline; expiry "
                         "answers 504 (body deadline_s overrides)")
    p_serve.add_argument("--fault-plan", default=None, metavar="PLAN",
                         help="activate a deterministic fault-injection "
                         "plan while serving: a named plan "
                         "('ci-standard[:seed]') or a spec like "
                         "'seed=7;store.merge@2;diskcache.read%%0.05:corrupt' "
                         "(default: $REPRO_FAULT_PLAN if set)")
    p_serve.add_argument("--snapshot-dir", default=None, metavar="DIR",
                         help="root for warm store snapshots: POST "
                         "/v1/snapshot/export defaults to DIR/federation "
                         "and --durable to DIR/durability")
    p_serve.add_argument("--durable", action="store_true",
                         help="crash-consistent durability: journal every "
                         "admission/eviction to a per-shard write-ahead "
                         "log and auto-recover the store on startup")
    p_serve.add_argument("--durability-dir", default=None, metavar="DIR",
                         help="root for the WAL + checkpoint files "
                         "(default: SNAPSHOT_DIR/durability; required "
                         "with --durable if --snapshot-dir is unset)")
    p_serve.add_argument("--wal-fsync", default="batch",
                         choices=("always", "batch", "off"),
                         help="WAL fsync policy: 'always' syncs every "
                         "append, 'batch' every few appends plus on "
                         "checkpoint, 'off' flushes without syncing "
                         "(default: batch)")
    p_serve.add_argument("--checkpoint-interval", type=float, default=None,
                         metavar="SECONDS",
                         help="export a store snapshot and truncate the "
                         "WAL every SECONDS in the background (default: "
                         "checkpoint only on demand)")

    p_snapshot = sub.add_parser(
        "snapshot",
        help="export or import a federation's warm store snapshot",
    )
    snap_sub = p_snapshot.add_subparsers(
        dest="snapshot_command", required=True
    )
    p_export = snap_sub.add_parser(
        "export",
        help="admit workloads, then write their warm store images",
    )
    p_export.add_argument("directory")
    p_export.add_argument(
        "--workloads", nargs="*", default=[], metavar="WORKLOAD_ID",
        help="workload ids to admit before exporting (default: every "
        "catalog workload of --framework)")
    p_export.add_argument("--framework", default="pytorch",
                          choices=FRAMEWORK_NAMES,
                          help="framework whose catalog workloads to "
                          "export when no ids are given")
    p_import = snap_sub.add_parser(
        "import",
        help="warm a fresh federation from a snapshot (zero workload runs)",
    )
    p_import.add_argument("directory")

    sub.add_parser("workloads", help="list workload ids")
    return parser


def engine_config(args: argparse.Namespace, **serving) -> EngineConfig:
    """One EngineConfig from the CLI's shared + per-subcommand flags."""
    return EngineConfig(
        scale=args.scale,
        use_cache=not args.no_cache,
        disk_cache=False if args.no_disk_cache else None,
        cache_dir=args.cache_dir,
        **serving,
    )


def cmd_inspect(args: argparse.Namespace) -> int:
    with DebloatEngine(engine_config(args)) as engine:
        if args.blocks:
            for spec in TABLE1_WORKLOADS:
                if spec.framework == args.framework:
                    engine.admit(AdmitRequest(spec=spec))
        try:
            result = engine.inspect(InspectRequest(
                framework=args.framework,
                soname=args.soname,
                sections=args.sections,
                kernels=args.kernels,
                blocks=args.blocks,
            ))
        except UsageError as err:
            available = getattr(err, "available", [])
            if available:
                print(f"no library {args.soname!r} in {args.framework}; "
                      "available:", file=sys.stderr)
                for soname in available:
                    print(f"  {soname}", file=sys.stderr)
            else:
                print(err, file=sys.stderr)
            return 1
    print(result.text)
    return 0


def cmd_debloat(args: argparse.Namespace) -> int:
    from repro.core.debloat import DebloatOptions

    spec = workload_by_id(args.workload_id)
    options = None
    if args.locate_workers:
        options = DebloatOptions(locate_workers=args.locate_workers)
    with DebloatEngine(engine_config(args)) as engine:
        report = engine.debloat(
            DebloatRequest(spec=spec, options=options)
        ).report

    table = Table(
        ["Library", "File MB (red%)", "CPU MB (red%)", "GPU MB (red%)",
         "Elements (red%)"],
        title=f"Debloating report: {spec.workload_id}",
    )
    for lib in report.top_by_file_reduction(args.top):
        table.add_row(
            lib.soname,
            f"{fmt_mb(lib.file_size)} ({lib.file_reduction_pct:.0f})",
            f"{fmt_mb(lib.cpu_size)} ({lib.cpu_reduction_pct:.0f})",
            f"{fmt_mb(lib.gpu_size)} ({lib.gpu_reduction_pct:.0f})"
            if lib.has_gpu_code else "-",
            f"{lib.n_elements} ({lib.element_reduction_pct:.0f})"
            if lib.has_gpu_code else "-",
        )
    print(table.render())
    print()
    print(
        f"totals: file {fmt_mb(report.total_file_size)} MB -> "
        f"{fmt_mb(report.total_file_size_after)} MB "
        f"({report.file_reduction_pct:.0f}% reduction) across "
        f"{report.n_libraries} libraries"
    )
    assert report.verification is not None
    print(f"verification: {report.verification}")
    print(f"end-to-end pipeline time: {report.timing.total_s:,.0f} virtual s")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    if args.workload_ids:
        specs = [workload_by_id(wid) for wid in args.workload_ids]
    else:
        specs = [
            spec for spec in TABLE1_WORKLOADS
            if spec.framework == args.framework
        ]
    frameworks = sorted({spec.framework for spec in specs})

    from repro.testing import faults
    from repro.utils.retry import RetryPolicy

    try:
        policy = EvictionPolicy(
            mode=args.evict,
            ttl_s=args.ttl_s,
            max_workloads=args.max_workloads,
            budget_bytes=args.budget_bytes,
            pinned=frozenset(args.pin),
            sweep_interval_s=args.sweep_interval,
        )
        retry = RetryPolicy()
        if args.max_attempts is not None:
            retry = RetryPolicy(max_attempts=args.max_attempts)
        serving: dict = dict(
            verify_admissions=args.verify,
            workers=args.workers,
            batch_max=args.batch_max,
            eviction=policy,
            retry=retry,
            snapshot_dir=args.snapshot_dir,
        )
        if args.durable or args.durability_dir:
            from repro.api.config import DurabilityConfig

            serving["durability"] = DurabilityConfig(
                enabled=True,
                directory=args.durability_dir,
                fsync=args.wal_fsync,
                checkpoint_interval_s=args.checkpoint_interval,
            )
        if args.http is not None:
            from repro.api import HttpConfig
            from repro.serving.http import parse_http_address

            host, port = parse_http_address(args.http)
            http = HttpConfig(
                host=host,
                port=port,
                queue_bound=args.http_queue_bound,
                coalesce_window_s=args.coalesce_window_ms / 1000.0,
                request_deadline_s=args.request_deadline_s,
            )
            serving["http"] = http
            # Coalesced admits only merge if a worker may drain them as
            # one batch; lift batch_max to the window cap.
            serving["batch_max"] = max(args.batch_max, http.coalesce_max)
        config = engine_config(args, **serving)
        plan = (
            faults.parse_plan(args.fault_plan) if args.fault_plan
            else faults.plan_from_env()
        )
    except ConfigurationError as err:
        print(str(err), file=sys.stderr)
        return 1

    if args.http is not None:
        return _serve_http(config, plan)

    table = Table(
        ["Workload", "Latency ms", "New kernels", "Libs redone",
         "Libs served", "Union MB after", "Source"],
        title=f"Serving admissions: {'+'.join(frameworks)} @ scale "
        f"{args.scale}",
    )
    failed: list[tuple[str, AdmissionError]] = []
    with faults.fault_plan(plan) if plan is not None else nullcontext():
        with DebloatEngine(config) as engine:
            server = engine.server()
            tickets = [server.submit(spec) for spec in specs]
            for spec, ticket in zip(specs, tickets):
                try:
                    res = ticket.result()
                except AdmissionError as err:
                    failed.append((spec.workload_id, err))
                    continue
                # Row values come from the AdmissionResult, pinned to that
                # admission's epoch - a live snapshot here could already
                # include later admissions when --workers > 1.
                table.add_row(
                    res.workload_id,
                    f"{ticket.latency_s * 1e3:,.0f}",
                    f"{res.new_kernels:,}",
                    f"{len(res.recompacted)}",
                    f"{len(res.untouched)}",
                    fmt_mb(res.union_file_size_after),
                    "cache" if res.detection_cached else "run",
                )
            swept = engine.sweep().swept if policy.enabled else []
            stats = engine.stats()
            snapshot = engine.snapshot()
            health = engine.health()
    print(table.render())
    print()
    for name in snapshot.frameworks:
        snap = snapshot.shards[name].store
        print(
            f"{name} store generation {snap.generation}: "
            f"{len(snap.reductions)} libraries, union "
            f"{snap.union_kernels:,} kernels / "
            f"{snap.union_functions:,} functions, "
            f"{fmt_mb(snap.total_file_size)} MB -> "
            f"{fmt_mb(snap.total_file_size_after)} MB "
            f"({snap.file_reduction_pct:.0f}% reduction)"
        )
    print(
        f"served {stats['served']} admissions with {stats['workers']} "
        f"workers ({stats['batches_merged']} drained batches); "
        f"{stats['untouched_served']} library servings skipped "
        f"re-compaction, {stats['usage_cache_hits']} detections from cache"
    )
    print(
        f"health: {health['state']} - {stats['retries']} retried "
        f"admission attempt(s), {len(failed)} failed, "
        f"{stats['sweeps_failed']} failed sweep(s), "
        f"{health['quarantined_entries']} quarantined cache entries"
    )
    for workload_id, err in failed:
        print(f"  FAILED {workload_id}: {err}", file=sys.stderr)
    if policy.enabled:
        print(
            f"eviction policy {policy.mode}: final sweep evicted "
            f"{len(swept)} workload(s)"
            + (
                " - " + ", ".join(
                    f"{s.workload_id} [{s.framework}] "
                    f"({s.reason}, {len(s.result.recompacted)} libs "
                    f"recompacted, {len(s.result.dropped_libraries)} dropped)"
                    for s in swept
                )
                if swept else ""
            )
        )
    return 1 if failed else 0


def _serve_http(config: EngineConfig, plan) -> int:
    """``serve --http``: run the asyncio front-end until SIGTERM/SIGINT.

    Prints the bound address on stdout (flushed) so harnesses that start
    the server on an ephemeral port (``--http :0``) can parse it.
    """
    import asyncio

    from repro.testing import faults

    engine = DebloatEngine(config)
    server = engine.http_server()

    def announce(host: str, port: int) -> None:
        print(f"serving HTTP on http://{host}:{port}", flush=True)

    with faults.fault_plan(plan) if plan is not None else nullcontext():
        asyncio.run(server.serve_forever(announce=announce))
    stats = server.metrics
    print(
        f"drained cleanly: {stats.counter_total('admissions_served_total')} "
        f"admissions served, "
        f"{stats.counter_total('admissions_shed_total')} shed, "
        f"{stats.counter_total('admissions_deadline_total')} past "
        f"deadline, {len(server.audit)} requests audited"
    )
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.errors import SnapshotError

    if args.snapshot_command == "export":
        if args.workloads:
            specs = [workload_by_id(wid) for wid in args.workloads]
        else:
            specs = [
                spec for spec in TABLE1_WORKLOADS
                if spec.framework == args.framework
            ]
        with DebloatEngine(engine_config(args)) as engine:
            for spec in specs:
                engine.admit(AdmitRequest(spec=spec))
            result = engine.export_snapshot(args.directory)
        for entry in result.value["manifest"]["shards"]:
            print(
                f"{entry['framework']}: generation {entry['generation']}, "
                f"{entry['bytes']:,} bytes -> {entry['file']}"
            )
        print(
            f"exported {len(result.value['manifest']['shards'])} shard(s) "
            f"to {result.value['directory']}"
        )
        return 0

    with DebloatEngine(engine_config(args)) as engine:
        try:
            result = engine.import_snapshot(args.directory)
        except SnapshotError as err:
            print(str(err), file=sys.stderr)
            return 1
        snapshot = engine.snapshot()
    for name, generation in sorted(result.value["generations"].items()):
        snap = snapshot.shards[name].store
        print(
            f"{name}: generation {generation}, "
            f"{len(snap.workload_ids)} workload(s), "
            f"{len(snap.reductions)} libraries, "
            f"{fmt_mb(snap.total_file_size)} MB -> "
            f"{fmt_mb(snap.total_file_size_after)} MB"
        )
    print(
        f"imported {len(result.value['generations'])} shard(s) from "
        f"{result.value['directory']} with zero workload runs"
    )
    return 0


def cmd_workloads(_: argparse.Namespace) -> int:
    for spec in TABLE1_WORKLOADS:
        print(spec.workload_id)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "inspect": cmd_inspect,
        "debloat": cmd_debloat,
        "serve": cmd_serve,
        "snapshot": cmd_snapshot,
        "workloads": cmd_workloads,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
