"""The two in-process closed-loop workloads: ``churn`` and ``fresh``.

One caller drives :class:`repro.api.DebloatEngine` directly and times each
operation with ``perf_counter``.  Both loops run a fixed number of
operations drawn from the seed, so every run of one seed does the same
work and the store reaches the same size whatever the speed of the code.
"""

from __future__ import annotations

import os
import random
import time
from contextlib import nullcontext

from common import (
    SCALE,
    RoundRobin,
    apportion,
    batch_variants,
    federation_fingerprints,
    median,
    percentile,
    rss_peak_mb,
    shuffle_blocks,
    table1,
    zipf_draws,
)

CHURN_FRAMEWORKS = ("pytorch", "tensorflow", "transformers")
#: Closed-loop operations per second of ``--seconds``.
CHURN_OPS_PER_S = 5
#: Every k-th churn op is a byte-budget sweep.
CHURN_SWEEP_EVERY = 10
CHURN_EVICT_SHARE = 0.03
#: Byte budget of the churn sweeps, below the warmed pool's physical size
#: (checked at set-up).  Evicting one workload frees almost nothing while
#: another still needs its libraries, so a sweep over a full store evicts
#: until a whole library set drops.
CHURN_BUDGET_BYTES = 10 * 1024 * 1024

FRESH_FRAMEWORKS = ("pytorch", "tensorflow")
FRESH_ADMITS_PER_S = 4.4
#: The seed reorders fresh arrivals within blocks of this many.
FRESH_BLOCK = 10


def engine_options():
    from repro.core.debloat import DebloatOptions

    return DebloatOptions(verify=False, runtime_comparison_top_n=0)


class LogicalClock:
    """The engine's traffic clock: one tick per operation, so byte-budget
    victim selection (which breaks ties on idle time) repeats exactly."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- churn ----------------------------------------------------------------------


def churn_pool():
    pool = []
    for spec in table1(CHURN_FRAMEWORKS):
        pool.extend(batch_variants(spec, (1, 2)))
    return pool


def churn_ops(seed: int, n_ops: int, pool) -> list[tuple]:
    """The op stream: ("admit", spec) / ("evict",) / ("sweep",).

    A fixed template: every CHURN_SWEEP_EVERY-th op is a sweep; of the
    rest, CHURN_EVICT_SHARE are evicts and the admits follow exact Zipf
    proportions.  The seed shuffles the ops between two sweeps.  Evict
    targets are picked when the op runs (``RoundRobin``).
    """
    template = random.Random("churn")
    slots = [i for i in range(1, n_ops + 1) if i % CHURN_SWEEP_EVERY]
    evicts = set(template.sample(slots, round(len(slots) * CHURN_EVICT_SHARE)))
    admits = iter(zipf_draws(pool, len(slots) - len(evicts), template))
    ops = []
    for i in range(1, n_ops + 1):
        if i % CHURN_SWEEP_EVERY == 0:
            ops.append(("sweep",))
        elif i in evicts:
            ops.append(("evict",))
        else:
            ops.append(("admit", next(admits)))
    rng = random.Random(seed)
    out = []
    for start in range(0, n_ops, CHURN_SWEEP_EVERY):
        block = ops[start:start + CHURN_SWEEP_EVERY]
        body = [op for op in block if op[0] != "sweep"]
        rng.shuffle(body)
        out += body + [op for op in block if op[0] == "sweep"]
    return out


def _churn_config(work: str, durable: bool):
    from repro.api import EngineConfig, EvictionPolicy
    from repro.api.config import DurabilityConfig

    return EngineConfig(
        scale=SCALE,
        options=engine_options(),
        eviction=EvictionPolicy(mode="bytes", budget_bytes=CHURN_BUDGET_BYTES),
        durability=DurabilityConfig(
            enabled=durable,
            directory=os.path.join(work, "durability") if durable else None,
            fsync="batch",
        ),
    )


def churn_setup(work: str):
    """Builds, then one warm-up ``admit_many`` of the whole pool (captures
    every usage into the cache, builds kernel indexes, first compactions).
    Returns (engine, clock, pool)."""
    from repro.api import DebloatEngine

    clock = LogicalClock()
    engine = DebloatEngine(_churn_config(work, durable=True), clock=clock)
    engine.open()
    pool = churn_pool()
    engine.federation.admit_many(pool)
    physical = engine.storage_stats()["storage_bytes_physical"]
    if physical <= CHURN_BUDGET_BYTES:
        raise RuntimeError(
            f"churn pool occupies {physical} physical bytes, not above the "
            f"{CHURN_BUDGET_BYTES}-byte sweep budget"
        )
    return engine, clock, pool


def _live_ids(engine) -> list[str]:
    snapshot = engine.snapshot()
    return sorted({
        wid
        for name in snapshot.frameworks
        for wid in snapshot.shards[name].store.workload_ids
    })


def _live_specs(engine) -> list:
    federation = engine.federation
    specs = []
    for name in federation.frameworks():
        specs.extend(federation.shard(name).store.admitted_specs())
    return specs


def reference_fingerprints(specs, make_config) -> tuple[dict, float]:
    """One ``admit_many`` of ``specs`` into a fresh engine: the expected
    final state.  Returns (fingerprints, wall seconds of the admit_many)."""
    from repro.api import DebloatEngine

    with DebloatEngine(make_config()) as engine:
        start = time.perf_counter()
        if specs:
            engine.federation.admit_many(specs)
        wall = time.perf_counter() - start
        return federation_fingerprints(engine), wall


def _op(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _block_gauges(engine) -> dict:
    stats = engine.storage_stats()
    return {
        "blocks.physical_mb": stats["storage_bytes_physical"] / 2**20,
        "blocks.logical_mb": stats["storage_bytes_logical"] / 2**20,
    }


def run_churn(seed: int, seconds: int, work: str, phases: dict,
              tracer=None) -> dict:
    from repro.api import AdmitRequest, DebloatEngine, EvictRequest

    engine, clock, pool = churn_setup(work)
    ops = churn_ops(seed, max(1, CHURN_OPS_PER_S * seconds), pool)
    targets = RoundRobin({s.workload_id for s in pool})
    admit_ms, evict_ms, sweep_ms = [], [], []
    recompacted = []
    swept = 0
    failed = 0
    phases["timed"] = [time.monotonic(), None]
    started = time.perf_counter()
    counts = {kind: dict(sent=0, succeeded=0, failed=0)
              for kind in ("admit", "evict", "sweep")}
    skipped = 0
    for op in ops:
        clock.now += 1.0
        if op[0] == "evict":
            target = targets.next(_live_ids(engine))
            if target is None:  # a sweep just emptied the store
                skipped += 1
                continue
        counts[op[0]]["sent"] += 1
        try:
            if op[0] == "admit":
                t = time.perf_counter()
                with _op(tracer, "op.admit"):
                    result = engine.admit(AdmitRequest(spec=op[1]))
                admit_ms.append(1000 * (time.perf_counter() - t))
                recompacted.append(len(result.value.recompacted))
            elif op[0] == "evict":
                t = time.perf_counter()
                with _op(tracer, "op.evict"):
                    engine.evict(EvictRequest(workload_id=target))
                evict_ms.append(1000 * (time.perf_counter() - t))
            else:
                t = time.perf_counter()
                with _op(tracer, "op.sweep"):
                    result = engine.sweep()
                sweep_ms.append(1000 * (time.perf_counter() - t))
                swept += len(result.value)
        except Exception as exc:  # noqa: BLE001 - counted, run still reports
            failed += 1
            counts[op[0]]["failed"] += 1
            print(f"churn op {op[0]} failed: {exc!r}")
        else:
            counts[op[0]]["succeeded"] += 1
    elapsed = time.perf_counter() - started
    phases["timed"][1] = time.monotonic()
    rss = rss_peak_mb()
    gauges = _block_gauges(engine)
    live = federation_fingerprints(engine)
    specs = _live_specs(engine)
    engine.close()

    phases["recover"] = [time.monotonic(), None]
    t = time.perf_counter()
    recovered_engine = DebloatEngine(
        _churn_config(work, durable=True), clock=clock
    ).open()
    recover_s = time.perf_counter() - t
    phases["recover"][1] = time.monotonic()
    recovered = federation_fingerprints(recovered_engine)
    replayed = recovered_engine.recovery["replayed"]
    recovered_engine.close()

    phases["check"] = [time.monotonic(), None]
    reference, _ = reference_fingerprints(
        specs, lambda: _churn_config(work, durable=False)
    )
    phases["check"][1] = time.monotonic()
    mismatches = _compare(live, reference, "live vs reference")
    mismatches += _compare(recovered, live, "recovered vs live")
    if failed:
        mismatches.append(f"{failed} operations raised")
    return {
        "attempted": len(ops) - skipped,
        "failed": failed,
        "mismatches": mismatches,
        "metrics": {
            "admit_ms.p50": percentile(admit_ms, 50),
            "admit_ms.p90": percentile(admit_ms, 90),
            "ops_per_s": (len(ops) - skipped) / elapsed,
            "rss_peak_mb": rss,
            "recover_s": recover_s,
        },
        "reported": {
            "evict_ms.p50": percentile(evict_ms, 50) if evict_ms else None,
        },
        "samples": {
            "admit_ms": admit_ms, "evict_ms": evict_ms, "sweep_ms": sweep_ms,
        },
        "detail": {
            "phases": {"timed": counts},
            "evicts_skipped_on_empty_store": skipped,
            "swept_workloads": swept,
            "recompacted_per_admit.median": median(recompacted),
            "wal_records_replayed": replayed,
            "live_specs": len(specs),
        },
        "gauges": gauges,
    }


def _compare(got: dict, want: dict, label: str) -> list[str]:
    problems = []
    if set(got) != set(want):
        problems.append(f"{label}: shards {sorted(got)} != {sorted(want)}")
    for name in sorted(set(got) & set(want)):
        for key in ("digest", "file_reduction_pct", "libraries"):
            if got[name][key] != want[name][key]:
                problems.append(
                    f"{label}: {name} {key} {got[name][key]!r} != "
                    f"{want[name][key]!r}"
                )
    return problems


# -- fresh ----------------------------------------------------------------------


def fresh_setup_specs():
    """One catalog workload per framework, admitted during set-up."""
    seen, out = set(), []
    for spec in table1(FRESH_FRAMEWORKS):
        if spec.framework not in seen:
            seen.add(spec.framework)
            out.append(spec)
    return out


def fresh_arrivals(seed: int, n: int) -> list:
    """``n`` never-seen variants at batch sizes 1..catalog of the Table-1
    pytorch/tensorflow workloads.  A fixed template gives each workload a
    share of the arrivals in proportion to its number of variants and
    picks the batch sizes; the seed shuffles blocks of FRESH_BLOCK."""
    template = random.Random("fresh")
    setup = set(fresh_setup_specs())
    families = [
        [spec if b == spec.batch_size else spec.variant(batch_size=b)
         for b in range(1, spec.batch_size + 1)]
        for spec in table1(FRESH_FRAMEWORKS)
    ]
    families = [[v for v in f if v not in setup] for f in families]
    counts = apportion([len(f) for f in families], n)
    if any(c > len(f) for c, f in zip(counts, families)):
        raise ValueError(f"fresh needs {n} arrivals, pool has "
                         f"{sum(len(f) for f in families)}")
    arrivals = [v for f, c in zip(families, counts)
                for v in template.sample(f, c)]
    template.shuffle(arrivals)
    return shuffle_blocks(arrivals, FRESH_BLOCK, random.Random(seed))


def _fresh_config():
    from repro.api import EngineConfig

    return EngineConfig(scale=SCALE, options=engine_options())


def fresh_setup():
    from repro.api import AdmitRequest, DebloatEngine

    engine = DebloatEngine(_fresh_config()).open()
    for spec in fresh_setup_specs():
        engine.admit(AdmitRequest(spec=spec))
    return engine


def run_fresh(seed: int, seconds: int, work: str, phases: dict,
              tracer=None) -> dict:
    from repro.api import AdmitRequest

    engine = fresh_setup()
    arrivals = fresh_arrivals(seed, max(1, round(FRESH_ADMITS_PER_S * seconds)))
    admit_ms, recompacted, runs = [], [], 0
    failed = 0
    phases["timed"] = [time.monotonic(), None]
    started = time.perf_counter()
    for spec in arrivals:
        try:
            t = time.perf_counter()
            with _op(tracer, "op.admit"):
                result = engine.admit(AdmitRequest(spec=spec))
            admit_ms.append(1000 * (time.perf_counter() - t))
            recompacted.append(len(result.value.recompacted))
            runs += result.cache_source == "run"
        except Exception as exc:  # noqa: BLE001 - counted, run still reports
            failed += 1
            print(f"fresh admit {spec.workload_id} failed: {exc!r}")
    elapsed = time.perf_counter() - started
    phases["timed"][1] = time.monotonic()
    rss = rss_peak_mb()
    gauges = _block_gauges(engine)
    live = federation_fingerprints(engine)
    specs = _live_specs(engine)

    # Restart without a WAL: rebuild the live set in a new engine from the
    # (now warm) usage cache.  The rebuilt state is also the reference.
    phases["recover"] = [time.monotonic(), None]
    reference, rebuild_s = reference_fingerprints(specs, _fresh_config)
    phases["recover"][1] = time.monotonic()
    mismatches = _compare(live, reference, "live vs reference")

    engine.close()
    if failed:
        mismatches.append(f"{failed} operations raised")
    return {
        "attempted": len(arrivals),
        "failed": failed,
        "mismatches": mismatches,
        "metrics": {
            "admit_ms.p50": percentile(admit_ms, 50),
            "admit_ms.p90": percentile(admit_ms, 90),
            "ops_per_s": len(arrivals) / elapsed,
            "rss_peak_mb": rss,
            "recover_s": rebuild_s,
        },
        "samples": {"admit_ms": admit_ms},
        "detail": {
            "phases": {
                "timed": dict(sent=len(arrivals), failed=failed,
                              succeeded=len(arrivals) - failed),
            },
            "workload_runs": runs,
            "recompacted_per_admit.median": median(recompacted),
            "live_specs": len(specs),
        },
        "gauges": gauges,
    }
