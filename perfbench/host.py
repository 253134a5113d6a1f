"""One round of an in-process workload, in a process of its own.

Usage: ``python3 perfbench/host.py SPEC.json`` (``PYTHONPATH`` must
reach ``src``).  The spec names the service (``engine``: a
``RatingEngine``; ``cluster``: a ``ClusterCoordinator``), its
``ServiceConfig`` fields, the trace file and where to write results.
The round:

1. builds the service -- the moment it is ready is reported, so the
   parent can time set-up from launch;
2. loads the trace (untimed) and submits every rating from one thread
   in a closed loop, timing each call, then ``flush()``;
3. times score() reads: for an engine, one of the product just rated
   after every ``read_every`` submits (read time is left out of the
   ingest rate); for a cluster, ``read_repeats`` rounds over the first
   ``check_products`` products after the flush.  Then reads those
   products' scores and every rater's trust for the checks;
4. for a cluster, runs the stale-mirror probe (``inputs.probe_rows``)
   after the backfill's flush;
5. records peak resident memory (this process plus cluster workers),
   closes the service and writes everything as JSON for the parent to
   check.

Cluster workers are started with ``spawn``: they re-import this file as
``__mp_main__``, so all work stays under the ``__main__`` guard.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

from inputs import PROBE_ID_BASE, Trace, probe_rows
from procs import dir_bytes, vm_hwm_kib


def _probe_products(n_workers: int) -> tuple:
    """One product owned by worker 0 and three by the last worker."""
    from repro.service.cluster.ring import ConsistentHashRing

    ring = ConsistentHashRing(n_workers)
    first, others = None, []
    pid = PROBE_ID_BASE
    while first is None or len(others) < 3:
        pid += 1
        owner = ring.owner(pid)
        if owner == 0 and first is None:
            first = pid
        elif owner == n_workers - 1 and len(others) < 3:
            others.append(pid)
    return first, others


def run(spec: dict) -> dict:
    from repro.ratings.models import Rating
    from repro.service import RatingEngine, ServiceConfig

    config = ServiceConfig(**spec["config"])
    if spec["mode"] == "cluster":
        from repro.service.cluster import ClusterCoordinator

        service = ClusterCoordinator(config)
    else:
        service = RatingEngine(config)
    out: dict = {"ready": time.monotonic()}
    try:
        trace = Trace.load(Path(spec["trace"]))
        ratings = [
            Rating(rating_id=i, rater_id=r, product_id=p, value=v, time=t)
            for i, (r, p, v, t) in enumerate(trace.rows)
        ]
        # The trace is input, not service state: keep the collector
        # from re-scanning it during the timed loop.
        gc.collect()
        gc.freeze()
        perf = time.perf_counter
        ack = [0.0] * len(ratings)
        reads = []
        read_every = spec["read_every"]
        refused = 0
        start = perf()
        for i, rating in enumerate(ratings):
            t0 = perf()
            result = service.submit(rating)
            t1 = perf()
            ack[i] = t1 - t0
            refused += not result.accepted
            if read_every and i % read_every == read_every - 1:
                # A live read of the product just acknowledged; trust
                # flushes in between make most of these cache misses.
                service.score(rating.product_id)
                reads.append(perf() - t1)
        last_ack = perf()
        service.flush()
        applied = perf()

        products = list(range(spec["check_products"]))
        if not read_every:
            # A cluster read waits for the owner to apply what is queued,
            # so reads come after the flush: one worker RPC each.
            for _ in range(spec["read_repeats"]):
                for pid in products:
                    t0 = perf()
                    service.score(pid)
                    reads.append(perf() - t0)
        scores = {pid: service.score(pid) for pid in products}
        trusts = {rid: service.trust(rid) for rid in sorted(trace.classes)}
        stats = service.snapshot_stats()
        if spec["mode"] == "cluster":
            applied_count = sum(w.get("n_accepted", 0) for w in stats["workers"])
        else:
            applied_count = stats["n_accepted"]
        out.update(
            submit_s=last_ack - start - (sum(reads) if read_every else 0.0),
            flush_s=applied - last_ack,
            ack_s=ack,
            read_s=reads,
            scores=[[pid, s] for pid, s in scores.items()],
            trusts=[[rid, t] for rid, t in trusts.items()],
            refused=refused + int(stats["n_rejected"]),
            applied_count=applied_count,
        )
        if spec["mode"] == "cluster":
            first, others = _probe_products(config.cluster_workers)
            rows = probe_rows(trace.rows[-1][3] + 1.0, first, others)
            for i, (r, p, v, t) in enumerate(rows):
                service.submit(
                    Rating(
                        rating_id=len(ratings) + i,
                        rater_id=r,
                        product_id=p,
                        value=v,
                        time=t,
                    )
                )
            service.flush()
            out["probe_rows"] = rows
            out["probe_scores"] = [
                [pid, service.score(pid)] for pid in [first, *others]
            ]
            out["probe_trusts"] = [
                [rid, service.trust(rid)] for rid in sorted({row[0] for row in rows})
            ]
        out["work_s"] = perf() - start
        pids = [os.getpid()] + [c.pid for c in multiprocessing.active_children()]
        out["peak_rss_kib"] = sum(vm_hwm_kib(pid) for pid in pids)
    finally:
        service.close()
    if config.wal_dir is not None:
        out["disk_bytes"] = dir_bytes(Path(config.wal_dir))
        out["snapshot_bytes"] = dir_bytes(Path(config.wal_dir), "snapshot-*")
    return out


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    out = run(spec)
    tmp = Path(spec["out"] + ".tmp")
    tmp.write_text(json.dumps(out), encoding="utf-8")
    os.replace(tmp, spec["out"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
