"""The ``http-zipf`` workload: open-loop Poisson traffic against
``negativa-ml serve --http`` in a child process.

One asyncio thread sends over two keep-alive connections.  A generator
task releases each request at its scheduled time into a queue the two
connections drain, so a slow server makes requests wait client-side and
that wait counts: latency runs from the scheduled send time to the full
response.  The generator's own lateness is recorded, and a run whose
generator fell behind schedule is invalid.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import time

from common import (
    ROOT,
    SCALE,
    RoundRobin,
    batch_variants,
    child_env,
    percentile,
    rss_peak_mb,
    shuffle_blocks,
    table1,
    zipf_draws,
)

FRAMEWORKS = ("pytorch", "tensorflow", "transformers")
BASE_RATE = 4.0
#: Evictions ride on top of the admissions, as a share of them.
EVICT_SHARE = 0.1
#: Admission rates (1/s) of the rungs above the base rate; each lasts
#: LADDER_RUNG_FRACTION of ``--seconds``.
LADDER = (6.0, 8.0, 11.0, 16.0)
LADDER_RUNG_FRACTION = 0.06
P90_LIMIT_MS = 500.0
#: A rung's backlog "grows" when more than this many requests are due but
#: unsent at its last scheduled arrival.
BACKLOG_LIMIT = 4
#: Generator lateness beyond which a run is invalid.
MAX_LAG_MS = 100.0
P90_LAG_MS = 20.0
CONNECTIONS = 2
#: The seed reorders the request template within blocks of this many.
BLOCK = 10
START_TIMEOUT_S = 60.0


def pool():
    out = []
    for spec in table1(FRAMEWORKS):
        out.extend(batch_variants(spec, (1, 2, 4)))
    return out


def admit_body(spec) -> dict:
    return {"workload_id": spec.workload_id, "batch_size": spec.batch_size}


def schedule(seed: int, seconds: int) -> list[dict]:
    """Every request of the run: phase, rate, due offset, kind, spec.

    A fixed template gives each phase its admissions in exact Zipf
    proportions plus evictions at EVICT_SHARE of them, and its arrival
    times: a Poisson process conditioned on the phase's count (sorted
    uniform offsets).  The seed shuffles the requests within blocks of
    BLOCK arrivals, so bursts fall at the same moments in every run.
    """
    rng = random.Random(seed)
    template = random.Random("http-zipf")
    items: list[dict] = []
    offset = 0.0
    phases = [("base", BASE_RATE, float(seconds))]
    phases += [
        (f"rung{rate:g}", rate, seconds * LADDER_RUNG_FRACTION)
        for rate in LADDER
    ]
    for phase, rate, length in phases:
        admits = zipf_draws(pool(), round(rate * length), template)
        requests = admits + [None] * round(len(admits) * EVICT_SHARE)
        template.shuffle(requests)
        requests = shuffle_blocks(requests, BLOCK, rng)
        times = sorted(template.uniform(0.0, length) for _ in requests)
        for spec, t in zip(requests, times):
            items.append({
                "phase": phase, "rate": rate, "due": offset + t,
                "kind": "evict" if spec is None else "admit", "spec": spec,
            })
        offset += length
    return items


# -- a minimal HTTP/1.1 keep-alive client ----------------------------------------


class Connection:
    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def request(self, method: str, path: str, payload=None):
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nConnection: keep-alive\r\n\r\n"
        )
        self.writer.write(head.encode() + body)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode().partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        data = await self.reader.readexactly(length) if length else b""
        return status, data

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


# -- the server child -------------------------------------------------------------


def start_server(work: str, traced: bool, spans_path: str | None):
    cache = os.path.join(work, "cache")
    durability = os.path.join(work, "durability")
    cli = [
        "--scale", str(SCALE), "--cache-dir", cache,
        "serve", "--http", "127.0.0.1:0",
        "--durable", "--durability-dir", durability,
    ]
    if traced:
        argv = [sys.executable,
                os.path.join(ROOT, "perfbench", "launcher.py"),
                spans_path, "--", *cli]
    else:
        argv = [sys.executable, "-m", "repro.tools.cli", *cli]
    stderr = open(os.path.join(work, "server.stderr"), "wb")
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=stderr,
    )
    stderr.close()
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        line = proc.stdout.readline().decode()
        if not line:
            break
        match = re.search(r"serving HTTP on http://([^:]+):(\d+)", line)
        if match:
            return proc, match.group(1), int(match.group(2))
    stop_server(proc)
    raise RuntimeError(
        f"server did not announce its port; see "
        f"{os.path.join(work, 'server.stderr')}"
    )


def stop_server(proc, timeout: float = 60.0) -> int:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        rest = proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        proc.kill()
        rest = proc.communicate()[0]
    if rest:
        sys.stdout.write(rest.decode(errors="replace"))
    return proc.returncode


def parse_metrics(text: str) -> dict[str, float]:
    """Prometheus text -> {name{labels}: value} (comments dropped)."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        out[name] = float(value)
    return out


def counter(metrics: dict[str, float], name: str) -> float:
    return sum(v for k, v in metrics.items()
               if k == name or k.startswith(name + "{"))


# -- the run ----------------------------------------------------------------------


class Client:
    """Open-loop client; keeps per-shard op logs ordered by generation."""

    def __init__(self, host: str, port: int) -> None:
        self.conns = [Connection(host, port) for _ in range(CONNECTIONS)]
        self.targets = RoundRobin({s.workload_id for s in pool()})
        self.records: list[dict] = []
        #: shard -> [(generation, "admit", spec) | (generation, "evict", id)]
        self.log: dict[str, list] = {}
        self.evicting: set[str] = set()
        self.queue: asyncio.Queue = asyncio.Queue()
        self.lags: list[float] = []
        self.backlog_at: dict[str, int] = {}

    async def open(self) -> None:
        for conn in self.conns:
            await conn.open()

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()

    def live_ids(self) -> list[str]:
        live: dict[str, int] = {}
        for entries in self.log.values():
            for _, kind, what in sorted(entries, key=lambda e: e[0]):
                if kind == "admit":
                    live[what.workload_id] = 1
                else:
                    live.pop(what, None)
        return sorted(w for w in live if w not in self.evicting)

    def live_specs(self, shard: str) -> list:
        specs: list = []
        for _, kind, what in sorted(self.log.get(shard, ()),
                                    key=lambda e: e[0]):
            if kind == "admit":
                specs.append(what)
            else:
                specs = [s for s in specs if s.workload_id != what]
        return specs

    async def admit(self, conn: Connection, spec, record: dict) -> None:
        status, data = await conn.request("POST", "/v1/admit",
                                          admit_body(spec))
        record["status"] = status
        if status == 200:
            payload = json.loads(data)
            record["latency_s"] = payload.get("latency_s", 0.0)
            record["queue_wait_s"] = payload.get("queue_wait_s", 0.0)
            record["recompacted"] = len(payload["recompacted"])
            record["untouched"] = len(payload["untouched"])
            self.log.setdefault(spec.framework, []).append(
                (payload["generation"], "admit", spec)
            )

    async def admit_batch(self, conn: Connection, specs) -> None:
        status, data = await conn.request(
            "POST", "/v1/admit_batch",
            {"workloads": [admit_body(spec) for spec in specs]},
        )
        payload = json.loads(data)
        if status != 200 or payload["failed"]:
            raise RuntimeError(f"set-up admit_batch answered {status}: "
                               f"{payload.get('failed')}")
        for spec, result in zip(specs, payload["results"]):
            self.log.setdefault(spec.framework, []).append(
                (result["generation"], "admit", spec)
            )

    async def evict(self, conn: Connection, record: dict) -> None:
        target = self.targets.next(set(self.live_ids()))
        if target is None:
            record["status"] = "skipped"
            return
        record["target"] = target
        self.evicting.add(target)
        try:
            status, data = await conn.request(
                "POST", "/v1/evict", {"workload_id": target}
            )
        finally:
            self.evicting.discard(target)
        record["status"] = status
        if status == 200:
            for shard, res in json.loads(data)["evicted"].items():
                self.log.setdefault(shard, []).append(
                    (res["generation"], "evict", target)
                )

    async def worker(self, conn: Connection) -> None:
        while True:
            item = await self.queue.get()
            if item is None:
                return
            record = {"phase": item["phase"], "kind": item["kind"],
                      "due": item["due_abs"]}
            record["sent"] = time.monotonic()
            try:
                if item["kind"] == "admit":
                    await self.admit(conn, item["spec"], record)
                else:
                    await self.evict(conn, record)
            except (ConnectionError, OSError, ValueError) as exc:
                record["status"] = f"error: {exc!r}"
            record["done"] = time.monotonic()
            if record["status"] != "skipped":
                self.records.append(record)

    async def generate(self, items: list[dict], t0: float) -> None:
        for pos, item in enumerate(items):
            item["due_abs"] = t0 + item["due"]
            delay = item["due_abs"] - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lags.append(time.monotonic() - item["due_abs"])
            self.queue.put_nowait(item)
            nxt = items[pos + 1] if pos + 1 < len(items) else None
            if nxt is None or nxt["phase"] != item["phase"]:
                self.backlog_at[item["phase"]] = self.queue.qsize()
        for _ in self.conns:
            self.queue.put_nowait(None)

    async def drive(self, items: list[dict]) -> float:
        """Send ``items`` on schedule; returns the schedule's start time."""
        t0 = time.monotonic() + 0.05
        workers = [asyncio.create_task(self.worker(c)) for c in self.conns]
        await self.generate(items, t0)
        await asyncio.gather(*workers)
        return t0


async def _get(conn: Connection, path: str):
    status, data = await conn.request("GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return data


def _rung_verdict(records: list[dict], backlog: int) -> dict:
    admits = [r for r in records if r["kind"] == "admit"]
    ok = [r for r in admits if r["status"] == 200]
    lat = [1000 * (r["done"] - r["due"]) for r in ok]
    failed = sum(1 for r in records if r["status"] != 200)
    p90 = percentile(lat, 90) if lat else float("inf")
    return {
        "sent": len(records),
        "succeeded": len(records) - failed,
        "failed": failed,
        "shed": sum(1 for r in records if r["status"] == 503),
        "deadline": sum(1 for r in records if r["status"] == 504),
        "admit_ms.p50": percentile(lat, 50) if lat else None,
        "admit_ms.p90": p90,
        "backlog_at_end": backlog,
        "passed": failed == 0 and p90 <= P90_LIMIT_MS
        and backlog <= BACKLOG_LIMIT,
    }


async def _session(host: str, port: int, items: list[dict],
                   phases: dict, started_at: float) -> dict:
    client = Client(host, port)
    await client.open()
    control = client.conns[0]
    # Set-up: one admit_batch of the whole pool, so the timed phase serves
    # duplicate refreshes and evict-driven re-admissions, not first sights.
    await client.admit_batch(control, pool())
    before = parse_metrics((await _get(control, "/metrics")).decode())
    setup_s = time.monotonic() - started_at
    t0 = await client.drive(items)
    # Spans are only recorded by traced runs, which send the base phase
    # alone, so this window is the base phase plus its last responses.
    phases["timed"] = [t0, time.monotonic()]
    after = parse_metrics((await _get(control, "/metrics")).decode())
    snapshot = json.loads(await _get(control, "/v1/snapshot"))
    await client.close()
    return {
        "client": client, "setup_s": setup_s, "before": before,
        "after": after, "snapshot": snapshot,
    }


def run_setup_probe(work: str, started_at: float) -> float:
    proc, host, port = start_server(work, traced=False, spans_path=None)
    try:
        result = asyncio.run(_session(host, port, [], {}, started_at))
    finally:
        stop_server(proc)
    return result["setup_s"]


def run_http(seed: int, seconds: int, work: str, phases: dict,
             started_at: float, traced: bool) -> dict:
    spans_path = os.path.join(work, "server-spans.jsonl")
    items = schedule(seed, seconds)
    if traced:
        # The traced run measures the layers at the base rate only.
        items = [i for i in items if i["phase"] == "base"]
    proc, host, port = start_server(work, traced, spans_path)
    try:
        session = asyncio.run(
            _session(host, port, items, phases, started_at)
        )
    finally:
        code = stop_server(proc)
    rss_mb = rss_peak_mb(resource.RUSAGE_CHILDREN)
    client: Client = session["client"]
    records = client.records

    mismatches, invalid = [], []
    if code != 0:
        mismatches.append(f"server exited with {code}")
    lag_ms = [1000 * x for x in client.lags]
    lag = {"max_ms": max(lag_ms), "p90_ms": percentile(lag_ms, 90)}
    if lag["max_ms"] > MAX_LAG_MS or lag["p90_ms"] > P90_LAG_MS:
        invalid.append(
            f"generator fell behind schedule "
            f"(max {lag['max_ms']:.1f} ms, p90 {lag['p90_ms']:.1f} ms)"
        )
    # After a 504 the admission may still commit in the background, and
    # after a transport error nobody knows: the live specs can no longer be
    # replayed from the responses, so the output cannot be checked.
    unknown = [r for r in records
               if r["status"] == 504 or str(r["status"]).startswith("error")]
    if unknown:
        invalid.append(
            f"{len(unknown)} requests ended without a known outcome "
            f"(504 or transport error); the output check cannot replay them"
        )

    # Output check: the served snapshot against one admit_many of the
    # live specs (replayed from the responses in generation order).
    from inproc import engine_options, reference_fingerprints
    from repro.api import EngineConfig

    live = {shard: client.live_specs(shard) for shard in client.log}
    all_live = [s for shard in sorted(live) for s in live[shard]]
    phases["recover"] = [time.monotonic(), None]
    reference, rebuild_s = reference_fingerprints(
        all_live, lambda: EngineConfig(scale=SCALE, options=engine_options())
    )
    phases["recover"][1] = time.monotonic()
    # An emptied shard and a never-created one are the same state.
    served = {name: shard
              for name, shard in session["snapshot"]["shards"].items()
              if shard["workload_ids"]}
    checked = () if unknown else sorted(set(served) | set(reference))
    for shard in checked:
        got, want = served.get(shard), reference.get(shard)
        if got is None or want is None:
            mismatches.append(f"shard {shard} served={got is not None} "
                              f"reference={want is not None}")
            continue
        want_ids = [s.workload_id for s in live[shard]]
        if got["workload_ids"] != want_ids:
            mismatches.append(f"{shard}: workload ids differ")
        if got["total_file_size_after"] != want["total_file_size_after"]:
            mismatches.append(
                f"{shard}: total_file_size_after "
                f"{got['total_file_size_after']} != "
                f"{want['total_file_size_after']}"
            )

    by_phase: dict[str, list] = {}
    for r in records:
        by_phase.setdefault(r["phase"], []).append(r)
    rungs = {
        phase: _rung_verdict(rs, client.backlog_at.get(phase, 0))
        for phase, rs in by_phase.items()
    }
    rates = {"base": BASE_RATE, **{f"rung{r:g}": r for r in LADDER}}
    passed = [rates[p] for p, v in rungs.items() if v["passed"]]
    max_rate = 0.0
    for phase in ["base"] + [f"rung{r:g}" for r in LADDER]:
        if phase not in rungs or not rungs[phase]["passed"]:
            break
        max_rate = rates[phase]

    base = by_phase.get("base", [])
    base_ok = [r for r in base if r["kind"] == "admit" and r["status"] == 200]
    admit_ms = [1000 * (r["done"] - r["due"]) for r in base_ok]
    evicts = [r for r in records if r["kind"] == "evict"
              and r["status"] == 200]
    evict_ms = [1000 * (r["done"] - r["sent"]) for r in evicts]
    failed = sum(1 for r in records if r["status"] != 200)
    before, after = session["before"], session["after"]

    def delta(name: str) -> float:
        return counter(after, "negativa_" + name) - counter(
            before, "negativa_" + name)

    http_self_ms = [
        1000 * ((r["done"] - r["sent"]) - r["latency_s"] - r["queue_wait_s"])
        for r in base_ok
    ]
    queue_wait_ms = [1000 * r["queue_wait_s"] for r in base_ok]
    metrics = {
        "admit_ms.p50": percentile(admit_ms, 50),
        "admit_ms.p90": percentile(admit_ms, 90),
        "rss_peak_mb": rss_mb,
        "recover_s": rebuild_s,
    }
    # Open-loop goodput over the whole schedule: the offered rate while
    # the server keeps up; a backlog at the top rungs stretches the end.
    span = max(r["done"] for r in records) - min(r["due"] for r in records)
    metrics["ops_per_s"] = (len(records) - failed) / span
    return {
        "attempted": len(records),
        "failed": failed,
        "mismatches": mismatches,
        "invalid": invalid,
        "setup_s": session["setup_s"],
        "metrics": metrics,
        "reported": {
            "evict_ms.p50": percentile(evict_ms, 50) if evict_ms else None,
            "max_rate_rps": max_rate,
        },
        "samples": {"admit_ms": admit_ms, "evict_ms": evict_ms},
        "server_layers": {
            "server.queue_wait_ms.p50": percentile(queue_wait_ms, 50),
            "server.queue_wait_ms.p90": percentile(queue_wait_ms, 90),
            "server.queue_wait_count": delta(
                "admission_queue_wait_seconds_count"),
            "server.batch_size": (
                delta("coalesced_admissions_total")
                / max(1.0, delta("coalesce_batches_total"))
            ),
            "http.self_ms.p50": percentile(http_self_ms, 50),
            "http.self_ms.total": sum(http_self_ms),
            "queue_wait_ms.total": sum(queue_wait_ms),
            "http.shed": delta("admissions_shed_total"),
            "http.deadline": delta("admissions_deadline_total"),
            "recompacted": [r["recompacted"] for r in base_ok],
            "untouched": [r["untouched"] for r in base_ok],
        },
        "spans_path": spans_path if traced else None,
        "gauges": {
            "blocks.physical_mb": counter(
                after, "negativa_storage_bytes_physical") / 2**20,
            "blocks.logical_mb": counter(
                after, "negativa_storage_bytes_logical") / 2**20,
        },
        "detail": {
            "rates_passed": passed,
            "phases": rungs,
            "generator_lag": lag,
            "live_specs": len(all_live),
        },
    }
