"""The ``portal`` workload: ``repro serve`` driven over HTTP.

One round:

1. time ``setups - 1`` bare launches of ``python3 -m repro serve`` on
   empty WAL directories (each stopped with SIGTERM, which must exit 0),
   then launch the server under test with a WAL directory, the tiered
   store and periodic snapshots; each set-up ends at the first healthy
   ``/healthz``;
2. ``cycles`` times, on the next ratings of the trace:

   a. **open loop** -- one Poisson schedule at a fixed offered rate
      mixing ``POST /ratings`` (trace order) with about as many
      ``GET /products/{id}/score`` and ``GET /raters/{id}/trust`` reads
      of ids already acknowledged.  Each request is timed from when it
      was due, so a stall also charges the requests queued behind it;
   b. **closed loop** -- ``nproc`` clients post the next ratings as
      fast as acks come back; the phase's rate is one sample;

3. check reads: every rater's trust and the first months' product
   scores, checked against Method 3 recomputed from the ratings sent;
4. SIGKILL, restart on the same WAL directory (recovery time), re-read
   the same ids -- they must match bit for bit -- then SIGTERM, which
   must exit 0.

Alternating the two loops spreads both kinds of sample over the whole
round, so a slow spell of the machine touches a few samples of each
rather than all of one.

Client ``k`` of ``nproc`` owns the products with ``id % nproc == k``, so
each product's ratings still arrive in time order and none is refused.
"""

from __future__ import annotations

import gc
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from inputs import Row, Trace
from procs import dir_bytes, vm_hwm_kib


@dataclass(frozen=True)
class PortalSize:
    """Operation counts of one portal round."""

    #: Open-loop + closed-loop cycles, each on the next trace ratings.
    cycles: int = 11
    #: Ratings posted in each open-loop phase, and reads mixed in.
    open_posts: int = 300
    open_reads: int = 300
    #: Offered rate of the open loop, requests per second (both kinds).
    offered_rps: float = 300.0
    #: Ratings posted by the closed-loop clients in each cycle.
    closed_posts: int = 1200
    #: ``--snapshot-every`` of the server.
    snapshot_every: int = 1000
    #: Products read in the checks: ids 0..n-1, the first two months'
    #: products, all rated within the posted prefix.
    check_products: int = 10
    #: Launches timed for ``setup_s``: bare ones, then the server used.
    setups: int = 3

    @property
    def posts(self) -> int:
        return self.cycles * (self.open_posts + self.closed_posts)


FULL = PortalSize()
#: A traced run first makes an untraced round to price tracing; shorter
#: rounds keep both within the run's time limit.
TRACED = PortalSize(cycles=5)
TINY = PortalSize(
    cycles=2,
    open_posts=50,
    open_reads=50,
    closed_posts=100,
    snapshot_every=100,
    check_products=5,
    setups=2,
)

HEALTH_TIMEOUT_S = 60.0


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def http(port: int, raw: bytes) -> Tuple[int, bytes]:
    """One HTTP/1.0 exchange on a fresh connection: (status, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30.0) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks)
    head, _, body = response.partition(b"\r\n\r\n")
    return int(head[9:12]), body


def get_request(path: str) -> bytes:
    return f"GET {path} HTTP/1.0\r\nHost: bench\r\n\r\n".encode("ascii")


def post_request(index: int, row: Row) -> bytes:
    rater_id, product_id, value, when = row
    body = json.dumps(
        {
            "rating_id": index,
            "rater_id": rater_id,
            "product_id": product_id,
            "value": value,
            "time": when,
        }
    ).encode("ascii")
    head = (
        "POST /ratings HTTP/1.0\r\nHost: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    return head + body


class Server:
    """A ``repro serve`` process in its own session (killed as a group)."""

    def __init__(
        self,
        wal_dir: Path,
        snapshot_every: int,
        log: Path,
        env: Dict[str, str],
        children: list,
    ):
        self.wal_dir = wal_dir
        self.snapshot_every = snapshot_every
        self.log = log
        self.env = env
        self.children = children
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Launch and wait for ``/healthz``; returns seconds taken."""
        for _ in range(3):
            self.port = free_port()
            args = [
                sys.executable, "-m", "repro", "serve",
                "--port", str(self.port),
                "--wal-dir", str(self.wal_dir),
                "--store", "tiered",
                "--snapshot-every", str(self.snapshot_every),
            ]
            start = time.monotonic()
            with open(self.log, "ab") as log:
                self.proc = subprocess.Popen(
                    args, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    stdin=subprocess.DEVNULL, start_new_session=True,
                )
            self.children.append(self.proc)
            if self._wait_healthy(start):
                return time.monotonic() - start
            # The port was taken between probe and bind: try another.
            self.proc.wait(timeout=10)
        raise RuntimeError(f"repro serve did not come up; see {self.log}")

    def _wait_healthy(self, start: float) -> bool:
        while time.monotonic() - start < HEALTH_TIMEOUT_S:
            if self.proc.poll() is not None:
                return False
            try:
                status, _ = http(self.port, get_request("/healthz"))
            except OSError:
                status = None  # not listening yet
            if status == 200:
                return True
            time.sleep(0.005)
        raise RuntimeError(f"repro serve not healthy in {HEALTH_TIMEOUT_S}s")

    def get_json(self, path: str) -> Tuple[int, dict]:
        status, body = http(self.port, get_request(path))
        return status, json.loads(body) if body else {}


def _schedule(
    rows: List[Row], first: int, size: PortalSize, n_clients: int, rng: random.Random
) -> List[List[tuple]]:
    """Per-client lists of (due_s, kind, payload) for one open loop.

    One Poisson process at the offered rate carries the open-loop posts
    (trace ratings ``first``, ``first + 1``, ...) and reads in a seeded
    shuffle; a post goes to the client owning its product, a read to a
    client with posts in this loop, chosen at random.  Each client's
    first event is a post, so every read has an acknowledged id to ask
    for.
    """
    kinds = ["post"] * size.open_posts + ["read"] * size.open_reads
    rng.shuffle(kinds)
    posts = range(first, first + size.open_posts)
    owners = sorted({rows[i][1] % n_clients for i in posts})
    per_client: List[List[tuple]] = [[] for _ in range(n_clients)]
    due = 0.0
    post_index = first
    for kind in kinds:
        due += rng.expovariate(size.offered_rps)
        if kind == "post":
            row = rows[post_index]
            per_client[row[1] % n_clients].append((due, "post", post_index))
            post_index += 1
        else:
            per_client[rng.choice(owners)].append((due, "read", None))
    for events in per_client:
        lead = next((i for i, e in enumerate(events) if e[1] == "post"), 0)
        if lead:
            # Swap kinds with the leading read; post order is unchanged.
            events[0], events[lead] = (
                (events[0][0], "post", events[lead][2]),
                (events[lead][0], "read", None),
            )
    return per_client


@dataclass
class Client:
    """One load-generator client's acknowledged ids and samples."""

    rng: random.Random
    products: List[int] = field(default_factory=list)
    raters: List[int] = field(default_factory=list)
    post_lat: List[float] = field(default_factory=list)
    read_lat: List[float] = field(default_factory=list)
    #: Send-to-reply time of every request, for the traced layer table.
    service: List[float] = field(default_factory=list)
    late: float = 0.0
    failures: int = 0
    done: float = 0.0

    def post(self, port: int, index: int, row: Row) -> None:
        status, _ = http(port, post_request(index, row))
        if status == 201:
            self.products.append(row[1])
            self.raters.append(row[0])
        else:
            self.failures += 1


def _open_loop_client(
    client: Client, port: int, rows: List[Row], events: List[tuple], t0: float
) -> None:
    rng = client.rng
    for due, kind, payload in events:
        wait = t0 + due - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        sent = time.monotonic()
        client.late = max(client.late, sent - (t0 + due))
        if kind == "post":
            client.post(port, payload, rows[payload])
        else:
            if rng.random() < 0.5:
                path = f"/products/{rng.choice(client.products)}/score"
            else:
                path = f"/raters/{rng.choice(client.raters)}/trust"
            status, _ = http(port, get_request(path))
            client.failures += status != 200
        done = time.monotonic()
        (client.post_lat if kind == "post" else client.read_lat).append(done - (t0 + due))
        client.service.append(done - sent)


def _closed_loop_client(client: Client, port: int, rows: List[Row], indexes: List[int]) -> None:
    for index in indexes:
        sent = time.monotonic()
        client.post(port, index, rows[index])
        client.service.append(time.monotonic() - sent)
    client.done = time.monotonic()


def _read_state(server: Server, products: List[int], raters: List[int]) -> Tuple[dict, dict, int]:
    """Every listed score and trust as served (raw JSON floats)."""
    failures = 0
    scores: Dict[int, Optional[float]] = {}
    trusts: Dict[int, float] = {}
    for pid in products:
        status, body = server.get_json(f"/products/{pid}/score")
        failures += status != 200
        scores[pid] = body.get("score")
    for rid in raters:
        status, body = server.get_json(f"/raters/{rid}/trust")
        failures += status != 200
        trusts[rid] = body.get("trust")
    return scores, trusts, failures


def run_round(
    trace: Trace,
    size: PortalSize,
    seed: int,
    workdir: Path,
    env: Dict[str, str],
    children: list,
    n_clients: int,
    trace_dir: Optional[Path] = None,
) -> dict:
    """One portal round; returns raw samples, counts and what was read."""
    rows = list(trace.rows[: size.posts])
    log = workdir / "serve.log"
    setups: List[float] = []
    bare_exit_codes: List[int] = []
    # Bare launches are never traced: their spans are start-up only.
    bare_env = {k: v for k, v in env.items() if k != "PERFBENCH_TRACE_DIR"}
    for index in range(size.setups - 1):
        bare = Server(workdir / f"bare-{index}", size.snapshot_every, log, bare_env, children)
        setups.append(bare.start())
        bare.proc.send_signal(signal.SIGTERM)
        bare_exit_codes.append(bare.proc.wait(timeout=60))
    wal_dir = workdir / "wal"
    server = Server(wal_dir, size.snapshot_every, log, env, children)
    setups.append(server.start())
    port = server.port

    clients = [Client(random.Random(seed * 1000 + k)) for k in range(n_clients)]
    closed_rates = _load(port, rows, size, random.Random(seed), clients)

    # State before the crash.
    products = list(range(size.check_products))
    raters = sorted(trace.classes)
    started = time.monotonic()
    scores, trusts, read_failures = _read_state(server, products, raters)
    check_s = time.monotonic() - started
    _, health = server.get_json("/healthz")
    _, metrics_text = http(port, get_request("/metrics"))
    peak_rss_kib = vm_hwm_kib(server.proc.pid)
    if trace_dir is not None:
        # A process about to be SIGKILLed writes its trace on SIGUSR1.
        dump = trace_dir / f"server-{server.proc.pid}.json"
        os.kill(server.proc.pid, signal.SIGUSR1)
        deadline = time.monotonic() + 10.0
        while not dump.exists() and time.monotonic() < deadline:
            time.sleep(0.01)

    # Crash, recover on the same WAL directory, read the same ids.
    killed = time.monotonic()
    os.killpg(server.proc.pid, signal.SIGKILL)
    server.proc.wait(timeout=30)
    server.start()
    recover_s = time.monotonic() - killed
    started = time.monotonic()
    scores_after, trusts_after, reread_failures = _read_state(server, products, raters)
    check_s += time.monotonic() - started
    _, health_after = server.get_json("/healthz")
    server.proc.send_signal(signal.SIGTERM)
    exit_code = server.proc.wait(timeout=60)

    return {
        "setups": setups,
        "post_lat": [x for c in clients for x in c.post_lat],
        "read_lat": [x for c in clients for x in c.read_lat],
        "closed_rates": closed_rates,
        # Client-side time of every request, for the traced layer table.
        "client_s": sum(x for c in clients for x in c.service) + check_s,
        "late_s": max(c.late for c in clients),
        "http_failures": sum(c.failures for c in clients) + read_failures + reread_failures,
        "attempted": size.posts
        + size.cycles * size.open_reads
        + 2 * (len(products) + len(raters))
        + size.setups,  # every launch ends with a SIGTERM that must exit 0
        "rows": rows,
        "scores": scores,
        "trusts": trusts,
        "scores_after": scores_after,
        "trusts_after": trusts_after,
        "acked": health["n_accepted"],
        "acked_after": health_after["n_accepted"],
        "recover_s": recover_s,
        "exit_codes": bare_exit_codes + [exit_code],
        "disk_bytes": dir_bytes(wal_dir),
        "snapshot_bytes": dir_bytes(wal_dir, "snapshot-*"),
        "peak_rss_kib": peak_rss_kib,
        "metrics_text": metrics_text.decode("utf-8"),
    }


def _load(
    port: int, rows: List[Row], size: PortalSize, rng: random.Random, clients: List[Client]
) -> List[float]:
    """Every cycle's open loop then closed loop; returns the closed
    loops' rates (ratings/s)."""
    n_clients = len(clients)
    schedules = [
        _schedule(rows, c * (size.open_posts + size.closed_posts), size, n_clients, rng)
        for c in range(size.cycles)
    ]
    rates: List[float] = []
    # The load generator must not pause for garbage collection while it
    # times requests: collect now, then hold the collector off.
    gc.collect()
    gc.disable()
    try:
        for cycle, schedule in enumerate(schedules):
            first = cycle * (size.open_posts + size.closed_posts) + size.open_posts
            t0 = time.monotonic() + 0.05
            _run_clients(
                [
                    (_open_loop_client, (clients[k], port, rows, schedule[k], t0))
                    for k in range(n_clients)
                ]
            )
            closed = range(first, first + size.closed_posts)
            start = time.monotonic()
            _run_clients(
                [
                    (
                        _closed_loop_client,
                        (
                            clients[k],
                            port,
                            rows,
                            [i for i in closed if rows[i][1] % n_clients == k],
                        ),
                    )
                    for k in range(n_clients)
                ]
            )
            rates.append(size.closed_posts / (max(c.done for c in clients) - start))
    finally:
        gc.enable()
    return rates


def _run_clients(targets: list) -> None:
    threads = [threading.Thread(target=fn, args=args) for fn, args in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
