"""Benchmark of the rating service: four workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (README.md says why each exists):

* ``portal`` -- ``repro serve`` over HTTP: cycles of an open loop at a
  fixed offered rate and a closed loop, then SIGKILL + recovery and
  SIGTERM (see ``portal.py``);
* ``backfill-cluster`` -- bulk import through ``ClusterCoordinator``
  with ``nproc`` workers, then ``flush()``;
* ``replay`` -- an in-process ``RatingEngine`` (AR only, no WAL) fed a
  three-year marketplace trace;
* ``replay-ensemble`` -- the same engine with ``ar,cograph,iterfilter``
  over one marketplace year (run on demand; not in BENCHMARK.json, see
  README.md "Steadiness").

The trace is generated from ``--seed`` before anything is timed and its
digest is printed.  A run repeats whole rounds of the workload until
``--seconds`` have passed, so every run attempts the same operations in
the same proportions.  With ``--trace 0`` the result line carries the
end-to-end metrics; with ``--trace 1`` one untraced round is followed by
traced rounds, and the result carries the per-layer metrics.  The last
line of standard output is the JSON result; everything before it is
for people.  Exit status is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import checks
import portal
import tracing
from inputs import Trace, marketplace_trace
from procs import stop_all

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HOOK = HERE / "hook"

#: Hard wall-clock limit of one run, seconds; every process is stopped.
TIME_LIMIT_S = 170


@dataclass(frozen=True)
class EngineSpec:
    """An in-process workload: service, trace size, reads."""

    mode: str  # "engine" (RatingEngine) or "cluster" (ClusterCoordinator)
    months: int
    n_ratings: int
    #: Products 0..n-1 are checked (their months are complete in the trace).
    check_products: int
    #: Engine: a timed read after every ``read_every`` submits.  Cluster
    #: (0): ``read_repeats`` timed reads of each checked product after
    #: the flush.
    read_every: int
    read_repeats: int = 0
    sources: Tuple[str, ...] = ("ar",)

    def timed_reads(self) -> int:
        if self.read_every:
            return self.n_ratings // self.read_every
        return self.check_products * self.read_repeats


WORKLOADS: Dict[str, object] = {
    "portal": portal.FULL,
    "backfill-cluster": EngineSpec("cluster", 12, 20_000, 55, 0, 20),
    "replay": EngineSpec("engine", 36, 60_000, 165, 20),
    "replay-ensemble": EngineSpec(
        "engine", 12, 20_000, 55, 20, sources=("ar", "cograph", "iterfilter")
    ),
}

#: Sizes for the benchmark's own tests: every code path, in seconds.
TINY: Dict[str, object] = {
    "portal": portal.TINY,
    "backfill-cluster": EngineSpec("cluster", 2, 1500, 5, 0, 2),
    "replay": EngineSpec("engine", 2, 1500, 5, 20),
    "replay-ensemble": EngineSpec(
        "engine", 2, 1500, 5, 20, sources=("ar", "cograph", "iterfilter")
    ),
}

#: End-to-end metrics (``--trace 0``), in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("ingest_rps", "ratings/s"),
    ("applied_rps", "ratings/s"),
    ("peak_rss_mb", "MiB"),
)

#: Per-layer metrics (``--trace 1``), in BENCHMARK.json order.
PER_LAYER = (
    ("engine.submit_self_us", "us"),
    ("engine.score_us", "us"),
    ("engine.score_cache_hit_ratio", "ratio"),
    ("engine.flush_count", "count"),
    ("ar.fit_us", "us"),
    ("ar.fit_count", "count"),
    ("trust.update_ms", "ms"),
    ("trust.update_count", "count"),
    ("metrics.observe_us", "us"),
    ("metrics.calls_per_rating", "count"),
    ("ensemble.ar.observe_us", "us"),
    ("ensemble.ar.flush_ms", "ms"),
    ("wal.fsyncs_per_rating", "count"),
    ("cluster.frame_bytes_per_rating", "bytes"),
    ("ensemble.detect_auc", "ratio"),
)


class RunTimeout(Exception):
    """The run's wall-clock limit passed."""


class Run:
    """State of one benchmark invocation: scratch space and children."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.children: List[subprocess.Popen] = []
        scratch = ROOT / ".perfbench-tmp"
        scratch.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=scratch))
        self.trace_dir: Optional[Path] = None
        self.n_clients = len(os.sched_getaffinity(0))

    def env(self, role: str, traced: bool) -> Dict[str, str]:
        env = dict(os.environ)
        path = [str(SRC)]
        if traced:
            path.insert(0, str(HOOK))
            env["PERFBENCH_TRACE_DIR"] = str(self.trace_dir)
            env["PERFBENCH_ROLE"] = role
        else:
            env.pop("PERFBENCH_TRACE_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(path)
        # The cluster's rendezvous socket lives under TMPDIR; keep it in
        # the checkout when the AF_UNIX path limit (107 bytes) allows.
        if len(str(self.workdir)) + 48 < 107:
            env["TMPDIR"] = str(self.workdir)
        return env

    def round_dir(self, index: int) -> Path:
        path = self.workdir / f"round-{index}"
        path.mkdir()
        return path

    def close(self) -> None:
        stop_all(self.children)
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- rounds -------------------------------------------------------------------


def engine_round(
    run: Run, spec: EngineSpec, trace_path: Path, index: int, traced: bool
) -> dict:
    """Run host.py once; returns its output plus set-up time."""
    workdir = run.round_dir(index)
    config: dict = {"ensemble_sources": list(spec.sources)}
    if spec.mode == "cluster":
        config.update(cluster_workers=run.n_clients, wal_dir=str(workdir / "wal"))
    out_path = workdir / "out.json"
    spec_path = workdir / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "mode": spec.mode,
                "config": config,
                "trace": str(trace_path),
                "check_products": spec.check_products,
                "read_every": spec.read_every,
                "read_repeats": spec.read_repeats,
                "out": str(out_path),
            }
        ),
        encoding="utf-8",
    )
    log_path = workdir / "host.log"
    launch = time.monotonic()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "host.py"), str(spec_path)],
            env=run.env("host", traced),
            stdout=log,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            start_new_session=True,
        )
    run.children.append(proc)
    code = proc.wait()
    stop_all([proc])
    if code != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-3000:]
        raise RuntimeError(f"host.py exited {code}:\n{tail}")
    out = json.loads(out_path.read_text(encoding="utf-8"))
    out["setups"] = [out["ready"] - launch]
    return out


def check_engine_round(out: dict, trace: Trace, spec: EngineSpec) -> dict:
    """Failed operations and problems of one in-process round."""
    problems: List[str] = []
    n = len(trace.rows)
    if out["refused"] or out["applied_count"] != n:
        problems.append(
            f"{out['refused']} ratings refused, {out['applied_count']}/{n} applied"
        )
    trusts = {int(r): t for r, t in out["trusts"]}
    scores = {int(p): s for p, s in out["scores"]}
    bad_trust = checks.trusts_out_of_range(trusts)
    if bad_trust:
        problems.append(f"trust outside (0, 1) for raters {bad_trust[:5]}")
    auc = checks.detect_auc(trusts, trace.classes)
    if spec.sources == ("ar",) and not auc > 0.5:
        problems.append(f"detect_auc {auc:.4f} <= 0.5 with AR alone")
    mismatched = checks.score_mismatches(
        checks.ratings_by_product(trace.rows), scores, trusts
    )
    failed = len(bad_trust)
    attempted = n + spec.timed_reads() + spec.check_products + len(trace.classes)
    result = {"auc": auc, "stale_reads": 0}
    if spec.mode == "engine":
        failed += len(mismatched)
        if mismatched:
            problems.append(f"score != Method 3 for products {mismatched[:5]}")
    else:
        # Each worker weights scores by the trust table from its own last
        # digest, so products away from the last-flushed worker may be
        # stale by an amount that depends on the seed.  They are counted
        # here but not failed; the fixed probe below fails every time.
        result["stale_reads"] = len(mismatched)
        rows = [tuple(r) for r in out["probe_rows"]]
        probe_scores = {int(p): s for p, s in out["probe_scores"]}
        probe_trusts = {int(r): t for r, t in out["probe_trusts"]}
        bad_probe = checks.score_mismatches(
            checks.ratings_by_product(rows), probe_scores, probe_trusts
        )
        attempted += len(rows) + len(probe_scores) + len(probe_trusts)
        failed += len(bad_probe)
        first = out["probe_scores"][0][0]
        unexpected = [p for p in bad_probe if p != first]
        if unexpected:
            problems.append(f"probe score != Method 3 for {unexpected}")
    result.update(attempted=attempted, failed=failed, problems=problems)
    return result


def check_portal_round(out: dict, trace: Trace) -> dict:
    problems: List[str] = []
    rows = out["rows"]
    if out["http_failures"]:
        problems.append(f"{out['http_failures']} requests without the expected status")
    if out["acked"] != len(rows):
        problems.append(f"/healthz n_accepted {out['acked']} != {len(rows)} posted")
    trusts, scores = out["trusts"], out["scores"]
    bad_trust = checks.trusts_out_of_range(trusts)
    if bad_trust:
        problems.append(f"trust outside (0, 1) for raters {bad_trust[:5]}")
    mismatched = checks.score_mismatches(checks.ratings_by_product(rows), scores, trusts)
    if mismatched:
        problems.append(f"score != Method 3 for products {mismatched[:5]}")
    auc = checks.detect_auc(trusts, trace.classes)
    if not auc > 0.5:
        problems.append(f"detect_auc {auc:.4f} <= 0.5 with AR alone")
    # Recovery must reproduce the pre-crash reads bit for bit.
    changed = [p for p in scores if scores[p] != out["scores_after"][p]]
    changed += [r for r in trusts if trusts[r] != out["trusts_after"][r]]
    if changed:
        problems.append(f"reads changed across SIGKILL recovery: ids {changed[:5]}")
    if out["acked_after"] != out["acked"]:
        problems.append(
            f"recovered n_accepted {out['acked_after']} != acked {out['acked']}"
        )
    if any(out["exit_codes"]):
        problems.append(f"SIGTERM exit codes {out['exit_codes']}")
    failed = out["http_failures"] + len(bad_trust) + len(mismatched) + len(changed)
    failed += sum(code != 0 for code in out["exit_codes"])
    return {
        "auc": auc,
        "attempted": out["attempted"],
        "failed": failed,
        "problems": problems,
    }


# -- metrics -------------------------------------------------------------------


def _ms(samples: List[float], q: float) -> float:
    return checks.percentile(samples, q) * 1e3


def end_to_end(workload: str, rounds: List[dict], n: int) -> Tuple[dict, dict]:
    """(end-to-end metrics, extra workload-specific figures)."""
    med = statistics.median

    def pool(key: str) -> List[float]:
        return [x for r in rounds for x in r[key]]

    metrics = {
        "setup_s": med(pool("setups")),
        "peak_rss_mb": med([r["peak_rss_kib"] / 1024.0 for r in rounds]),
    }
    extra: dict = {"detect_auc": med([r["check"]["auc"] for r in rounds])}
    if workload == "portal":
        rate = med(pool("closed_rates"))
        acks, reads = pool("post_lat"), pool("read_lat")
        metrics.update(ingest_rps=rate, applied_rps=rate)
        extra.update(
            recover_s=med([r["recover_s"] for r in rounds]),
            disk_bytes_per_rating=med([r["disk_bytes"] / r["acked"] for r in rounds]),
            snapshot_bytes=med([r["snapshot_bytes"] for r in rounds]),
            generator_late_ms=max(r["late_s"] for r in rounds) * 1e3,
        )
    else:
        metrics.update(
            ingest_rps=med([n / r["submit_s"] for r in rounds]),
            applied_rps=med([n / (r["submit_s"] + r["flush_s"]) for r in rounds]),
        )
        acks, reads = pool("ack_s"), pool("read_s")
        if "disk_bytes" in rounds[0]:
            extra.update(
                disk_bytes_per_rating=med([r["disk_bytes"] / n for r in rounds]),
                snapshot_bytes=med([r["snapshot_bytes"] for r in rounds]),
                drain_s=med([r["flush_s"] for r in rounds]),
                stale_mirror_reads=max(r["check"]["stale_reads"] for r in rounds),
            )
    # Latencies are printed, not gated: see README "Steadiness".
    extra.update(
        ack_p50_ms=_ms(acks, 50),
        read_p50_ms=_ms(reads, 50),
        ack_p95_ms=_ms(acks, 95),
        ack_p99_ms=_ms(acks, 99),
        read_p95_ms=_ms(reads, 95),
        read_p99_ms=_ms(reads, 99),
        ack_samples=len(acks),
        read_samples=len(reads),
    )
    return metrics, extra


def _span(merged: dict, name: str, roles=None) -> Tuple[float, float, float]:
    """(calls, total seconds, self seconds) of a span, over roles."""
    count = total = own = 0.0
    for role, names in merged["spans"].items():
        if roles is not None and role not in roles:
            continue
        for c, t, s in names.get(name, {}).values():
            count, total, own = count + c, total + t, own + s
    return count, total, own


def _per_call(merged: dict, name: str, scale: float, field: int = 1, roles=None) -> float:
    """A span's total (``field=1``) or self (``field=2``) time per call."""
    stats = _span(merged, name, roles)
    return stats[field] / stats[0] * scale if stats[0] else 0.0


def layer_metrics(merged: dict, n_ratings: int, rounds: List[dict]) -> dict:
    """Per-layer metrics from merged trace dumps (0 for an idle layer)."""
    counters = merged["counters"]
    hits = counters.get("engine.score_cache_hits", 0.0)
    misses = counters.get("engine.score_cache_misses", 0.0)
    frame_ratings = counters.get("cluster.frame_ratings", 0.0)
    n_rounds = len(rounds)
    return {
        "engine.submit_self_us": _per_call(merged, "engine.submit", 1e6, 2),
        "engine.score_us": _per_call(merged, "engine.score", 1e6),
        "engine.score_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "engine.flush_count": counters.get("engine.flushes", 0.0) / n_rounds,
        "ar.fit_us": _per_call(merged, "ar.fit", 1e6),
        "ar.fit_count": _span(merged, "ar.fit")[0] / n_rounds,
        "trust.update_ms": _per_call(merged, "trust.update", 1e3),
        "trust.update_count": _span(merged, "trust.update")[0] / n_rounds,
        "metrics.observe_us": _per_call(merged, "metrics.observe", 1e6),
        "metrics.calls_per_rating": _span(merged, "metrics.observe")[0] / n_ratings,
        "ensemble.ar.observe_us": _per_call(merged, "ensemble.ar.observe", 1e6),
        "ensemble.ar.flush_ms": _per_call(merged, "ensemble.ar.flush", 1e3),
        "wal.fsyncs_per_rating": _span(merged, "wal.sync")[0] / n_ratings,
        "cluster.frame_bytes_per_rating": (
            counters.get("cluster.frame_bytes", 0.0) / frame_ratings
            if frame_ratings
            else 0.0
        ),
        "ensemble.detect_auc": statistics.median([r["check"]["auc"] for r in rounds]),
    }


def layer_detail(merged: dict, n_rounds: int) -> dict:
    """Layer figures of the layers only some workloads exercise."""
    detail = {
        name: _per_call(merged, span, scale, field)
        for name, span, scale, field in (
            ("http.post_self_us", "http.post", 1e6, 2),
            ("http.get_self_us", "http.get", 1e6, 2),
            ("http.conn_self_us", "http.conn", 1e6, 2),
            ("wal.append_us", "wal.append", 1e6, 1),
            ("wal.sync_us", "wal.sync", 1e6, 1),
            ("wal.snapshot_ms", "wal.snapshot", 1e3, 1),
            ("wal.recover_ms", "wal.recover", 1e3, 1),
            ("store.add_us", "store.add", 1e6, 1),
            ("store.commit_ms", "store.commit", 1e3, 1),
            ("ensemble.cograph.observe_us", "ensemble.cograph.observe", 1e6, 1),
            ("ensemble.cograph.flush_ms", "ensemble.cograph.flush", 1e3, 1),
            ("ensemble.iterfilter.observe_us", "ensemble.iterfilter.observe", 1e6, 1),
            ("ensemble.iterfilter.flush_ms", "ensemble.iterfilter.flush", 1e3, 1),
            ("cluster.submit_us", "cluster.submit", 1e6, 1),
            ("cluster.frame_send_us", "cluster.frame_send", 1e6, 1),
            ("cluster.digest_rtt_ms", "cluster.digest_rtt", 1e3, 1),
        )
    }
    detail.update(
        {
            "wal.fsync_count": _span(merged, "wal.sync")[0] / n_rounds,
            "wal.snapshot_count": _span(merged, "wal.snapshot")[0] / n_rounds,
            "cluster.backpressure_s": _span(merged, "cluster.enqueue")[1] / n_rounds,
            "cluster.worker_submit_us": _per_call(
                merged, "engine.submit", 1e6, roles=("worker",)
            ),
        }
    )
    return detail


def layer_table(merged: dict, walls: Dict[str, float], lines: List[str]) -> None:
    """Per-role table of span self-times against the role's wall time.

    ``walls[role]`` is the end-to-end time the role's spans sit inside:
    the host's measured work, or for the server the summed client-side
    time of every request.  The gap is what no span covers.
    """
    lines.append(
        f"{'role':<7} {'thread':<5} {'span':<30} {'calls':>9} {'total_s':>9} "
        f"{'self_s':>9} {'self_us':>10}"
    )
    for role in sorted(merged["spans"]):
        names = merged["spans"][role]
        kind_self: Dict[str, float] = {}
        for name in sorted(names):
            for kind, (count, total, own) in sorted(names[name].items()):
                kind_self[kind] = kind_self.get(kind, 0.0) + own
                lines.append(
                    f"{role:<7} {kind:<5} {name:<30} {int(count):>9} {total:>9.3f} "
                    f"{own:>9.3f} {own / count * 1e6:>10.2f}"
                )
        wall = walls.get(role)
        if wall:
            # The host's main thread carries the blocking path; a
            # server's handler threads together serve the requests.
            kind = "main" if role == "host" else "bg"
            busy = kind_self.get(kind, 0.0)
            lines.append(
                f"{role}: layers' self-times ({kind} threads) {busy:.3f} s against "
                f"wall {wall:.3f} s -> gap {wall - busy:.3f} s "
                f"({(wall - busy) / wall:.1%})"
            )
        else:
            for kind, busy in sorted(kind_self.items()):
                lines.append(f"{role}: busy in layers ({kind} threads) {busy:.3f} s")


# -- command -------------------------------------------------------------------


def make_trace(spec, seed: int) -> Trace:
    if isinstance(spec, EngineSpec):
        return marketplace_trace(seed, spec.months).head(spec.n_ratings)
    return marketplace_trace(seed, 12).head(spec.posts)


def one_round(
    run: Run, spec, trace: Trace, trace_path: Path, index: int, traced: bool
) -> dict:
    if isinstance(spec, EngineSpec):
        out = engine_round(run, spec, trace_path, index, traced)
        out["check"] = check_engine_round(out, trace, spec)
    else:
        out = portal.run_round(
            trace,
            spec,
            run.seed,
            run.round_dir(index),
            run.env("server", traced),
            run.children,
            run.n_clients,
            run.trace_dir if traced else None,
        )
        out["check"] = check_portal_round(out, trace)
    return out


def headline_rate(workload: str, rnd: dict, n: int) -> float:
    """The rate a traced round is compared on to price tracing."""
    if workload == "portal":
        return statistics.median(rnd["closed_rates"])
    return n / (rnd["submit_s"] + rnd["flush_s"])


def execute(args: argparse.Namespace) -> Tuple[dict, List[str]]:
    sizes = TINY if args.tiny else WORKLOADS
    spec = sizes[args.workload]
    if args.trace and spec is portal.FULL:
        spec = portal.TRACED
    lines: List[str] = []
    trace = make_trace(spec, args.seed)
    n = len(trace.rows)
    lines.append(
        f"workload {args.workload}  seed {args.seed}  trace {trace.digest()} "
        f"({n} ratings, {len(trace.classes)} raters)"
    )
    lines.append(
        f"python {platform.python_version()}  cpu_count {os.cpu_count()}  "
        f"nproc {len(os.sched_getaffinity(0))}  seconds {args.seconds}  "
        f"trace {args.trace}"
    )
    run = Run(args.seed)
    try:
        trace_path = run.workdir / "trace.json"
        trace.save(trace_path)
        reference: List[dict] = []
        if args.trace:
            run.trace_dir = run.workdir / "spans"
            run.trace_dir.mkdir()
            reference.append(one_round(run, spec, trace, trace_path, 0, False))
        rounds: List[dict] = []
        start = time.monotonic()
        # Whole rounds only; stop when another would overrun the budget.
        while not rounds or (time.monotonic() - start) * (len(rounds) + 1) / len(
            rounds
        ) <= args.seconds:
            index = len(rounds) + len(reference)
            rounds.append(one_round(run, spec, trace, trace_path, index, bool(args.trace)))
        merged = None
        if args.trace:
            merged = tracing.merge(tracing.load_dumps(run.trace_dir))
            if not merged["spans"]:
                raise RuntimeError("traced rounds recorded no spans")
    finally:
        signal.alarm(0)  # the clean-up below must not be interrupted
        run.close()

    every = reference + rounds
    attempted = sum(r["check"]["attempted"] for r in every)
    failed = sum(r["check"]["failed"] for r in every)
    problems = [p for r in every for p in r["check"]["problems"]]
    lines.append(f"rounds {len(rounds)}  attempted {attempted}  failed {failed}")
    for problem in dict.fromkeys(problems):
        lines.append(f"CHECK FAILED: {problem}")

    metrics, extra = end_to_end(args.workload, rounds, n)
    units = dict(END_TO_END)
    for name, unit in END_TO_END:
        lines.append(f"  {name:<24} {metrics[name]:>14.6g} {unit}")
    for name, value in extra.items():
        lines.append(f"  {name:<24} {value:>14.6g}")
    if args.trace:
        walls = {}
        if args.workload == "portal":
            walls["server"] = sum(r["client_s"] for r in rounds)
        else:
            walls["host"] = sum(r["work_s"] for r in rounds)
        layers = layer_metrics(merged, n * len(rounds), rounds)
        detail = layer_detail(merged, len(rounds))
        lines.append("per-layer (traced rounds):")
        for name, unit in PER_LAYER:
            lines.append(f"  {name:<32} {layers[name]:>14.6g} {unit}")
        for name, value in detail.items():
            lines.append(f"  {name:<32} {value:>14.6g}")
        layer_table(merged, walls, lines)
        untraced = headline_rate(args.workload, reference[0], n)
        traced = statistics.median([headline_rate(args.workload, r, n) for r in rounds])
        lines.append(
            f"tracing overhead: {untraced:.1f} ratings/s untraced vs {traced:.1f} "
            f"traced ({untraced / traced - 1.0:+.1%})"
        )
        chosen, units = layers, dict(PER_LAYER)
    else:
        chosen = metrics
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": chosen[name], "unit": units[name]} for name in units
        },
    }
    return result, lines


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small inputs (the benchmark's own tests)"
    )
    return parser.parse_args(argv)


def _on_alarm(signum, frame):  # noqa: ARG001 - signal signature
    raise RunTimeout(f"run exceeded {TIME_LIMIT_S}s")


def _on_term(signum, frame):  # noqa: ARG001 - signal signature
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    signal.alarm(TIME_LIMIT_S)
    try:
        result, lines = execute(args)
    except Exception as exc:  # noqa: BLE001 - report and fail without a result
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
