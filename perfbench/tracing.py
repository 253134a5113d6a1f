"""Per-layer timing of the service, recorded from the benchmark's files.

:func:`install` wraps the public entry points of each layer (the table
:data:`SPANS`) with a timer that keeps a per-thread stack, so each call
yields a *span*: its duration, and its *self time* -- the duration minus
the time spent in wrapped calls it made.  Spans are aggregated in memory
per ``(name, thread kind)`` and written as one JSON file per process
when the process exits (or on ``SIGUSR1``, for a server about to be
killed).  Counters recorded alongside (bytes framed, effective trust
flushes) come from the same wrappers.

The program under test carries no tracing code: server and cluster
worker processes pick this module up through ``hook/sitecustomize.py``
when ``PERFBENCH_TRACE_DIR`` is set in their environment.
"""

from __future__ import annotations

import atexit
import importlib
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name[, parent span it is recorded under]).
#: A span with a parent is timed only when called directly inside that
#: parent (a ``Queue.put`` is backpressure only inside a cluster submit).
SPANS: Tuple[tuple, ...] = (
    ("repro.service.http", "_Handler.handle", "http.conn"),
    ("repro.service.http", "_Handler.do_POST", "http.post"),
    ("repro.service.http", "_Handler.do_GET", "http.get"),
    ("repro.service.engine", "RatingEngine.submit", "engine.submit"),
    ("repro.service.engine", "RatingEngine.score", "engine.score"),
    ("repro.service.engine", "RatingEngine.trust", "engine.trust"),
    ("repro.service.engine", "RatingEngine._flush_shard", "engine.trust_flush"),
    ("repro.service.engine", "RatingEngine.snapshot", "wal.snapshot"),
    ("repro.service.engine", "RatingEngine.recover", "wal.recover"),
    ("repro.service.wal", "WriteAheadLog.append", "wal.append"),
    ("repro.service.wal", "WriteAheadLog._sync_locked", "wal.sync"),
    ("repro.ratings.tiered", "TieredRatingBackend.add", "store.add"),
    ("repro.ratings.tiered", "TieredRatingBackend._commit_locked", "store.commit"),
    ("repro.service.ensemble.ar_source", "ARSuspicionSource.observe", "ensemble.ar.observe"),
    ("repro.service.ensemble.ar_source", "ARSuspicionSource.flush", "ensemble.ar.flush"),
    ("repro.service.ensemble.cograph", "CoRatingGraphSource.observe", "ensemble.cograph.observe"),
    ("repro.service.ensemble.cograph", "CoRatingGraphSource.flush", "ensemble.cograph.flush"),
    ("repro.service.ensemble.iterfilter", "IterativeFilterSource.observe", "ensemble.iterfilter.observe"),
    ("repro.service.ensemble.iterfilter", "IterativeFilterSource.flush", "ensemble.iterfilter.flush"),
    ("repro.signal.sliding", "SlidingCovarianceFitter.fit", "ar.fit"),
    ("repro.trust.manager", "TrustManager.update", "trust.update"),
    ("repro.service.metrics", "Histogram.observe", "metrics.observe"),
    ("repro.service.cluster.coordinator", "ClusterCoordinator.submit", "cluster.submit"),
    ("repro.service.cluster.coordinator", "ClusterCoordinator.flush", "cluster.flush"),
    ("repro.service.cluster.coordinator", "send_msg", "cluster.frame_send"),
    ("queue", "Queue.put", "cluster.enqueue", "cluster.submit"),
    ("repro.service.cluster.worker", "_WorkerRuntime.handle_ingest", "cluster.worker_ingest"),
    ("repro.service.cluster.worker", "_WorkerRuntime.trust_delegate", "cluster.digest_rtt"),
)

#: Counters derived from a wrapped call's arguments: span name ->
#: function(args) returning {counter: increment}.
COUNTERS: Dict[str, Callable[[tuple], Dict[str, float]]] = {
    # _flush_shard(self, shard): a shard with nothing pending is a no-op.
    "engine.trust_flush": lambda a: {"engine.flushes": float(a[1].since_flush > 0)},
    # send_msg(conn, msg): bytes as framed, and ratings carried.
    "cluster.frame_send": lambda a: {
        "cluster.frame_bytes": float(
            len(json.dumps(a[1], separators=(",", ":")).encode("utf-8"))
        ),
        "cluster.frame_ratings": float(
            len(a[1].get("entries", ())) if a[1].get("type") == "ingest" else 0
        ),
    },
}


class Tracer:
    """Span and counter aggregates of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        # One aggregate dict per thread, merged at dump time, so the
        # hot path never takes a lock.
        self._per_thread: List[Tuple[bool, Dict[str, List[float]]]] = []
        self._counters: List[Dict[str, float]] = []
        self.engines: list = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            is_main = threading.current_thread() is threading.main_thread()
            state = ([], {}, {})
            with self._lock:
                self._per_thread.append((is_main, state[1]))
                self._counters.append(state[2])
            self._local.state = state
        return state

    def wrap(
        self, fn: Callable, name: str, parent: Optional[str] = None
    ) -> Callable:
        counter = COUNTERS.get(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack, spans, counters = self._state()
            if parent is not None and (not stack or stack[-1][0] != parent):
                return fn(*args, **kwargs)
            if counter is not None:
                for key, inc in counter(args).items():
                    counters[key] = counters.get(key, 0.0) + inc
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                agg = spans.get(name)
                if agg is None:
                    agg = spans[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def snapshot(self) -> dict:
        """Aggregates as a JSON-ready dict (``spans[name][kind]``)."""
        spans: Dict[str, Dict[str, List[float]]] = {}
        with self._lock:
            per_thread = list(self._per_thread)
            counter_dicts = list(self._counters)
        for is_main, aggs in per_thread:
            kind = "main" if is_main else "bg"
            for name, (count, total, own) in list(aggs.items()):
                slot = spans.setdefault(name, {}).setdefault(kind, [0, 0.0, 0.0])
                slot[0] += count
                slot[1] += total
                slot[2] += own
        counters: Dict[str, float] = {}
        for counter in counter_dicts:
            for key, value in list(counter.items()):
                counters[key] = counters.get(key, 0.0) + value
        hits = misses = 0.0
        for engine in self.engines:
            h, m = _score_cache_counts(engine.metrics.render())
            hits, misses = hits + h, misses + m
        counters["engine.score_cache_hits"] = hits
        counters["engine.score_cache_misses"] = misses
        return {"spans": spans, "counters": counters}


def _score_cache_counts(exposition: str) -> Tuple[float, float]:
    """Score-cache hit/miss counters from a Prometheus exposition."""
    hits = misses = 0.0
    for line in exposition.splitlines():
        if line.startswith("repro_score_cache_hits_total"):
            hits += float(line.split()[-1])
        elif line.startswith("repro_score_cache_misses_total"):
            misses += float(line.split()[-1])
    return hits, misses


def _resolve(owner, path: str):
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> None:
    """Wrap every entry in :data:`SPANS` (modules are imported here)."""
    for entry in SPANS:
        module_name, path, name = entry[:3]
        parent = entry[3] if len(entry) > 3 else None
        owner, attr = _resolve(importlib.import_module(module_name), path)
        raw = getattr(owner, attr)
        if isinstance(owner, type):
            # The class's own descriptor (a classmethod stays one); an
            # inherited method is wrapped onto the subclass.
            raw = owner.__dict__.get(attr, raw)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, parent)))
        else:
            setattr(owner, attr, tracer.wrap(raw, name, parent))
    # Remember every engine so the dump can read its score-cache counters.
    engine_cls = importlib.import_module("repro.service.engine").RatingEngine
    original_init = engine_cls.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        tracer.engines.append(self)

    engine_cls.__init__ = init


def install_from_env() -> Optional[Tracer]:
    """Start tracing this process when ``PERFBENCH_TRACE_DIR`` is set.

    The dump goes to ``<dir>/<role>-<pid>.json``; the role is
    ``PERFBENCH_ROLE`` or ``worker`` for a multiprocessing child.
    """
    out_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if not out_dir:
        return None
    if "--multiprocessing-fork" in sys.argv:
        role = "worker"
    else:
        role = os.environ.get("PERFBENCH_ROLE", "proc")
    tracer = Tracer()
    install(tracer)
    path = Path(out_dir) / f"{role}-{os.getpid()}.json"

    def dump(*_args) -> None:
        data = tracer.snapshot()
        if not data["spans"]:
            return
        data["role"] = role
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data), encoding="utf-8")
        os.replace(tmp, path)

    atexit.register(dump)
    if role == "server":
        signal.signal(signal.SIGUSR1, dump)
    return tracer


def load_dumps(out_dir: Path) -> List[dict]:
    """Every process dump written under ``out_dir``."""
    return [
        json.loads(p.read_text(encoding="utf-8"))
        for p in sorted(out_dir.glob("*.json"))
    ]


def merge(dumps: List[dict]) -> dict:
    """Sum dumps into ``spans[role][name][kind] = [count, total, self]``."""
    spans: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    counters: Dict[str, float] = {}
    for dump in dumps:
        role = dump["role"]
        for name, kinds in dump["spans"].items():
            for kind, (count, total, own) in kinds.items():
                slot = (
                    spans.setdefault(role, {})
                    .setdefault(name, {})
                    .setdefault(kind, [0, 0.0, 0.0])
                )
                slot[0] += count
                slot[1] += total
                slot[2] += own
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    return {"spans": spans, "counters": counters}
