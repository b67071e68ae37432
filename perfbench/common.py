"""Shared pieces of the serving benchmark: environment, pools, statistics."""

from __future__ import annotations

import hashlib
import math
import os
import random
import resource
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Private working directories inside the checkout (listed in .gitignore).
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SCALE = 0.125
#: Zipf exponent of workload popularity (churn and http-zipf).
ZIPF_S = 1.1

#: The switches a run pins; everything else about the engine comes from
#: the EngineConfig the benchmark builds.  Recorded in every result.
PINNED_ENV_SET = {
    "REPRO_PIPELINE_CACHE": "1",
    "REPRO_PIPELINE_DISK_CACHE": "1",
    "REPRO_LOCATE_WORKERS_MODE": "thread",
}
PINNED_ENV_UNSET = ("REPRO_NO_FSYNC", "REPRO_FAULT_PLAN")


def pin_environment(cache_dir: str) -> dict[str, str]:
    """Pin the six cache/fan-out/fault switches for this process and its
    children; returns the pinned values for the report."""
    for name in PINNED_ENV_UNSET:
        os.environ.pop(name, None)
    os.environ.update(PINNED_ENV_SET)
    os.environ["REPRO_PIPELINE_CACHE_DIR"] = cache_dir
    pinned = dict(PINNED_ENV_SET)
    pinned["REPRO_PIPELINE_CACHE_DIR"] = os.path.relpath(cache_dir, ROOT)
    pinned.update({name: "<unset>" for name in PINNED_ENV_UNSET})
    return pinned


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def require_sources() -> None:
    """Fail fast (non-zero, no result) when the program is not there."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no program sources under {SRC}; run from the root "
            f"of a checkout", file=sys.stderr,
        )
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# -- workload pools -------------------------------------------------------------


def table1(frameworks: tuple[str, ...]):
    from repro.workloads.spec import TABLE1_WORKLOADS

    return [s for s in TABLE1_WORKLOADS if s.framework in frameworks]


def batch_variants(spec, divisors: tuple[int, ...]):
    """``spec`` at batch sizes catalog//d for each divisor (deduped, >=1)."""
    sizes = []
    for d in divisors:
        b = max(1, spec.batch_size // d)
        if b not in sizes:
            sizes.append(b)
    return [spec if b == spec.batch_size else spec.variant(batch_size=b)
            for b in sizes]


def popularity_order(items: list) -> list:
    """``items`` in a fixed popularity order (rank 0 = most popular).

    The order does not depend on the run's seed: every seed sends the same
    mix, and the seed decides only the order and timing of the requests.
    """
    ranked = list(items)
    random.Random("popularity").shuffle(ranked)
    return ranked


def apportion(weights: list[float], total: int) -> list[int]:
    """``total`` split in proportion to ``weights`` (largest remainder)."""
    scale = total / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(len(weights)),
                          key=lambda i: counts[i] - weights[i] * scale)
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def zipf_draws(items: list, total: int, rng: random.Random,
               s: float = ZIPF_S) -> list:
    """``total`` requests over ``items`` in exact Zipf(s) proportions by
    popularity rank, in an order drawn from ``rng``."""
    ranked = popularity_order(items)
    weights = [1.0 / (rank + 1) ** s for rank in range(len(ranked))]
    draws = [item for item, n in zip(ranked, apportion(weights, total))
             for _ in range(n)]
    rng.shuffle(draws)
    return draws


def shuffle_blocks(items: list, size: int, rng: random.Random) -> list:
    """``items`` with each run of ``size`` consecutive items shuffled.

    The seed reorders requests only within a block, so every seed sends
    the same requests in the same stretch of the run: the state the
    program is in (which libraries are live, how large the unions are)
    follows the same course, and runs differ in order, not in mix.
    """
    out = []
    for start in range(0, len(items), size):
        block = items[start:start + size]
        rng.shuffle(block)
        out.extend(block)
    return out


class RoundRobin:
    """Eviction targets: the next id, in sorted order, that is live when
    asked (so an evict never names an absent workload)."""

    def __init__(self, ids: list[str]) -> None:
        self.ids = sorted(ids)
        self.pos = 0

    def next(self, live) -> str | None:
        for step in range(len(self.ids)):
            wid = self.ids[(self.pos + step) % len(self.ids)]
            if wid in live:
                self.pos = (self.pos + step + 1) % len(self.ids)
                return wid
        return None


# -- statistics -----------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(values: list[float], q: float) -> int:
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def median(values: list[float]) -> float:
    return statistics.median(values)


def rss_peak_mb(who: int = resource.RUSAGE_SELF) -> float:
    """``ru_maxrss`` (KiB on Linux) in MiB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- output checks ---------------------------------------------------------------


class _DigestSink:
    """A write-only file object that hashes what ``SparseFile.dump`` writes
    (its extents and their offsets), so holes are never materialized."""

    def __init__(self, digest) -> None:
        self.digest = digest

    def truncate(self, size: int) -> None:
        self.digest.update(b"size%d" % size)

    def seek(self, offset: int) -> None:
        self.digest.update(b"at%d" % offset)

    def write(self, data: bytes) -> None:
        self.digest.update(data)


def shard_fingerprint(store_snapshot) -> dict:
    """Digest of a shard's final library bytes plus its reduction."""
    digest = hashlib.sha256()
    sink = _DigestSink(digest)
    for soname in sorted(store_snapshot.libraries):
        digest.update(soname.encode())
        store_snapshot.libraries[soname].lib.data.dump(sink)
    return {
        "libraries": len(store_snapshot.libraries),
        "digest": digest.hexdigest(),
        "file_reduction_pct": store_snapshot.file_reduction_pct,
        "total_file_size_after": store_snapshot.total_file_size_after,
    }


def federation_fingerprints(engine) -> dict[str, dict]:
    """Fingerprints of every shard that holds libraries (an emptied shard
    and a never-created one are the same state)."""
    snapshot = engine.snapshot()
    return {
        name: shard_fingerprint(snapshot.shards[name].store)
        for name in snapshot.frameworks
        if snapshot.shards[name].store.libraries
    }
