"""Span recording around the public calls of each layer.

A :class:`Tracer` replaces a named function or method with a wrapper that
records one span per call: name, start, end, parent span and op id.  The
wrappers are installed from the benchmark's own files, at the name the
caller looks up (``repro.serving.store.cached_usage``, not
``repro.serving.usage.cached_usage``), because a module that imported a
function by name keeps its own reference.  A renamed or moved function
makes :meth:`Tracer.install` raise instead of silently recording nothing.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    #: Small numeric facts the wrapper read off the call's result
    #: (cache hit, libraries recompacted, workloads swept).
    info: dict | None = None

    def to_json(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "op": self.op,
            "name": self.name, "start": self.start, "end": self.end,
            "info": self.info,
        }

    @classmethod
    def from_json(cls, row: dict) -> "Span":
        return cls(**row)


def _admit_info(results) -> dict:
    if not isinstance(results, list):
        results = [results]
    return {
        "kind": "admit",
        "recompacted": [len(r.recompacted) for r in results],
        "untouched": [len(r.untouched) for r in results],
    }


def _evict_info(result) -> dict:
    return {"kind": "evict", "recompacted": [len(result.recompacted)]}


def _capture_info(result) -> dict:
    # cached_usage returns (usage, from_cache); capture_usage always runs.
    return {"hit": bool(result[1]) if isinstance(result, tuple) else False}


def _sweep_info(result) -> dict:
    return {"swept": len(result)}


#: (module, attribute path, span name, result reader).  Every public call
#: the per-layer metrics are computed from; wrapped where callers look the
#: name up.
TRACE_POINTS: tuple[tuple[str, str, str, object], ...] = (
    ("repro.frameworks.catalog", "get_framework", "frameworks.build", None),
    ("repro.api.federation", "get_framework", "frameworks.build", None),
    ("repro.serving.store", "cached_usage", "capture", _capture_info),
    ("repro.serving.store", "capture_usage", "capture", _capture_info),
    ("repro.experiments.common", "PipelineCache.library_index", "kindex",
     None),
    ("repro.serving.store", "index_for", "kindex", None),
    ("repro.core.locate", "KernelLocator.locate", "locate.gpu", None),
    ("repro.core.locate", "KernelLocator.locate_delta", "locate.gpu", None),
    ("repro.core.cpu", "FunctionLocator.locate", "locate.cpu", None),
    ("repro.core.compact", "Compactor.compact", "compact", None),
    ("repro.core.compact", "parse_shared_library", "compact.reparse", None),
    ("repro.core.compact", "validate_shared_library", "compact.validate",
     None),
    ("repro.storage.blockstore", "BlockStore.ingest", "blocks.ingest", None),
    ("repro.storage.blockstore", "BlockStore.release", "blocks.release",
     None),
    ("repro.serving.wal", "WriteAheadLog.append", "wal.append", None),
    ("repro.serving.wal", "WriteAheadLog.sync", "wal.sync", None),
    ("repro.utils.atomicio", "fsync_file", "fsync", None),
    ("repro.serving.wal", "DurabilityController.recover", "wal.recover",
     None),
    ("repro.serving.store", "DebloatStore.admit", "store", _admit_info),
    ("repro.serving.store", "DebloatStore.admit_many", "store", _admit_info),
    ("repro.serving.store", "DebloatStore.evict", "store", _evict_info),
    ("repro.api.federation", "StoreFederation.admit", "federation", None),
    ("repro.api.federation", "StoreFederation.admit_many", "federation",
     None),
    ("repro.api.federation", "StoreFederation.evict", "federation", None),
    ("repro.api.federation", "StoreFederation.sweep", "federation.sweep",
     _sweep_info),
)


class Tracer:
    """In-memory span recorder; each thread keeps its own span stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            id=next(self._ids),
            parent=parent.id if parent else None,
            op=None,
            name=name,
            start=time.monotonic(),
        )
        # A root span is its own op; every descendant inherits its id.
        span.op = parent.op if parent else span.id
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str):
        """A span around a block: the benchmark's own op boundaries."""
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def wrap(self, fn, name: str, reader=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                if reader is not None:
                    span.info = reader(result)
                return result
            finally:
                tracer.end(span)

        return traced

    def install(self) -> None:
        """Wrap every trace point; raises if one no longer exists."""
        for module_name, path, name, reader in TRACE_POINTS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            # A method must be defined on the class itself, not inherited:
            # wrapping an inherited one would shadow it for this class only.
            original = vars(owner).get(attr)
            if not callable(original):
                raise AttributeError(
                    f"trace point {module_name}.{path} no longer exists; "
                    f"update TRACE_POINTS"
                )
            setattr(owner, attr, self.wrap(original, name, reader))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        with self._lock:
            rows = [span.to_json() for span in self.spans]
        with open(path, "w") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")


def load_spans(path: str) -> list[Span]:
    with open(path) as fh:
        return [Span.from_json(json.loads(line)) for line in fh if line]


# -- per-layer aggregation ------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover (seconds)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = max(0.0, (span.end - span.start) - covered)
    return out


def in_window(spans: list[Span], start: float, end: float) -> list[Span]:
    return [s for s in spans if start <= s.start < end]


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans named ``name`` with no ancestor of the same name."""
    by_id = {s.id: s for s in spans}
    out = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent) if span.parent else None
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent) if parent.parent else None
        if parent is None:
            out.append(span)
    return out


def total_ms(spans: list[Span], name: str) -> float:
    return 1000.0 * sum(s.end - s.start for s in outermost(spans, name))
