"""The ``serve-mix`` workload: a ``repro serve`` daemon under a closed
loop of seeded clients.

The daemon runs with one pool worker and its default memory cache.
``CLIENTS`` threads each open one connection per request and send their
next submit only after the previous stream's ``end`` event.  Each
request is one spec, drawn by the client's seeded generator from:

- ``hit``: one of ``WARM_SPECS`` packet specs submitted during warm-up,
  so a cache read;
- ``analytic``: the next Fig. 14 grid point at analytic fidelity with a
  fresh ``SystemConfig.seed`` (a distinct cache key), run inline in the
  daemon;
- ``packet``: a small packet spec with a fresh seed, run on the pool and
  written to the cache;
- ``dup``: the spec another client has in flight, which the daemon
  dedups onto the running job (or, if it landed first, serves from cache).

Round trip is measured from sending the submit until its ``completed``
event arrives.  Checks: every request completes, hits return the
warm-up rows, all requests for one spec return one row, and a seeded
sample of packet and analytic rows equals an in-process run of the spec.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

import pb_common as pc
from pb_sweeps import SHAPES

CLIENTS = min(2, os.cpu_count() or 1)
#: Request classes and their cards per deck.  The shares are equal: an
#: assumption (the repository has no record of real serve traffic), the
#: neutral reading of "hit, analytic and packet requests under a few
#: concurrent clients".
MIX = (("hit", 1), ("analytic", 1), ("packet", 1), ("dup", 1))
#: Packet specs run at the ``small-pool`` scale, analytic specs at the
#: ``fig14-packet`` scale.
PACKET_SCALE = SHAPES["small-pool"].scale
ANALYTIC_SCALE = SHAPES["fig14-packet"].scale
#: Specs computed during warm-up, from which the hit class draws.  Also
#: an assumption; a memory-cache read costs the same whichever spec it
#: reads, so the count sets only the warm-up's length.
WARM_SPECS = 8
#: Requests per traced phase (fixed work, split over the clients).
TRACED_REQUESTS = 200
#: Daemon boots per run; setup_s is their median.
SETUPS = 5
#: Served rows per class re-run in-process per run.
SAMPLE_ROWS = 5


class Daemon:
    """One ``repro serve`` process on a Unix socket in ``workdir``."""

    def __init__(self, workdir: str, trace_dir: Optional[str] = None) -> None:
        from repro.serve import ServeAddress
        from repro.serve.client import ServeClient

        # Relative to the checkout root (the cwd of both sides), which
        # keeps the path inside the Unix-socket length limit.
        self.socket = os.path.relpath(os.path.join(workdir, "serve.sock"), pc.ROOT)
        self.client = ServeClient(ServeAddress(socket_path=self.socket), timeout=60)
        head = [sys.executable, "-m", "repro"]
        if trace_dir is not None:
            head = [sys.executable, os.path.join(pc.HERE, "traced_serve.py"), trace_dir]
        self.argv = head + ["serve", "--socket", self.socket, "--jobs", "1"]
        self.log_path = os.path.join(workdir, "serve.log")
        self.proc: Optional[subprocess.Popen] = None

    def start(self, timeout_s: float = 60.0) -> float:
        """Spawn the daemon; seconds until its first successful ping."""
        start = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self.argv, cwd=pc.ROOT, env=pc.program_env(),
                stdout=log, stderr=log,
            )
        while True:
            try:
                if self.client.ping().get("event") == "pong":
                    return time.perf_counter() - start
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited {self.proc.returncode}")
            if time.perf_counter() - start > timeout_s:
                raise RuntimeError("repro serve did not answer a ping")
            time.sleep(0.002)

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            self.client.shutdown()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc = None


class Mix:
    """The seeded request sequence, shared by the client threads.

    Classes come from a per-client shuffled deck (``MIX`` cards per
    deck: each class once), and packet and analytic specs walk the
    Fig. 14 grid in a seeded order, so every run serves the same class
    shares and the same spread of point costs; the seed picks the order
    and the ``SystemConfig.seed`` of every spec.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.grid = pc.fig14_points()
        rng.shuffle(self.grid)
        self._next = {"packet": 0, "analytic": 0}
        self._inflight: Dict[int, Dict[str, Any]] = {}
        self._lock = threading.Lock()
        self.warm = [self.spec("packet", rng) for _ in range(WARM_SPECS)]
        self.warm_rows: Dict[str, Dict[str, Any]] = {}

    def spec(self, kind: str, rng: random.Random) -> Dict[str, Any]:
        """The next grid point of ``kind`` with a fresh seed."""
        with self._lock:
            index = self._next[kind]
            self._next[kind] = index + 1
        workload, arch = self.grid[index % len(self.grid)]
        seed = rng.randrange(1, 2**31)
        if kind == "analytic":
            job = pc.fig14_job(workload, arch, ANALYTIC_SCALE, seed, "analytic")
        else:
            job = pc.fig14_job(workload, arch, PACKET_SCALE, seed)
        return job.system.to_dict()

    def deck(self, rng: random.Random) -> List[str]:
        cards = [kind for kind, count in MIX for _ in range(count)]
        rng.shuffle(cards)
        return cards

    def next_request(self, client: int, kind: str, rng: random.Random):
        if kind == "hit":
            return kind, rng.choice(self.warm)
        if kind == "analytic":
            return kind, self.spec(kind, rng)
        if kind == "dup":
            with self._lock:
                others = [s for c, s in sorted(self._inflight.items()) if c != client]
            if others:
                return kind, rng.choice(others)
            kind = "packet"
        spec = self.spec("packet", rng)
        with self._lock:
            self._inflight[client] = spec
        return kind, spec

    def landed(self, client: int) -> None:
        with self._lock:
            self._inflight.pop(client, None)


def spec_key(spec: Dict[str, Any]) -> str:
    return json.dumps(spec, sort_keys=True)


def submit(client, spec: Dict[str, Any], name: str) -> Dict[str, Any]:
    """One request; returns its record (events with arrival times)."""
    record: Dict[str, Any] = {"spec": spec, "sent": time.perf_counter()}
    for event in client.submit([spec], client=name):
        now = time.perf_counter()
        kind = event.get("event")
        if kind == "accepted":
            record["accepted"] = now
            record["state"] = event["jobs"][0]["state"]
        elif kind == "started":
            record["started"] = now
        elif kind == "completed":
            record["completed"] = now
            record["job_id"] = event.get("job_id")
            record["source"] = event.get("source")
            record["wall_s"] = event.get("wall_s")
            record["row"] = event.get("row")
        elif kind in ("failed", "cancelled", "error"):
            record["error"] = event.get("message") or kind
    return record


def run_clients(
    daemon: Daemon, mix: Mix, seconds: Optional[float] = None,
    requests: Optional[int] = None,
) -> tuple:
    """Closed loop until ``seconds`` pass or each client has sent its
    share of ``requests``; returns (records, wall seconds)."""
    records: List[Dict[str, Any]] = []
    lock = threading.Lock()
    start = time.perf_counter()
    errors: List[BaseException] = []

    def loop(index: int) -> None:
        rng = random.Random(f"{mix.seed}-client-{index}")
        sent = 0
        cards: List[str] = []
        try:
            while True:
                if seconds is not None and time.perf_counter() - start >= seconds:
                    return
                if requests is not None and sent >= requests // CLIENTS:
                    return
                if not cards:
                    cards = mix.deck(rng)
                kind, spec = mix.next_request(index, cards.pop(), rng)
                try:
                    record = submit(daemon.client, spec, f"client-{index}")
                except (OSError, ValueError) as exc:  # refused or garbled
                    record = {"spec": spec, "error": f"{type(exc).__name__}: {exc}"}
                mix.landed(index)
                record["kind"] = kind
                sent += 1
                with lock:
                    records.append(record)
        except BaseException as exc:  # reported by the caller
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return records, time.perf_counter() - start


def warm_up(daemon: Daemon, mix: Mix) -> List[Dict[str, Any]]:
    """Submit the hit set once, so later hits are cache reads; returns
    the warm-up requests' records."""
    records = []
    for spec in mix.warm:
        record = submit(daemon.client, spec, "warm-up")
        if "row" not in record:
            raise RuntimeError(f"warm-up submit failed: {record.get('error')}")
        mix.warm_rows[spec_key(spec)] = record["row"]
        records.append(record)
    return records


def check(out: pc.Outcome, mix: Mix, records: List[Dict[str, Any]]) -> None:
    """Count every request and flag the failed and the wrong ones."""
    rows_by_spec: Dict[str, Dict[str, Any]] = {}
    for record in records:
        out.attempted += 1
        if "row" not in record:
            out.problem(f"{record['kind']}: {record.get('error', 'no completed event')}")
            continue
        key = spec_key(record["spec"])
        if record["kind"] == "hit" and record["row"] != mix.warm_rows[key]:
            out.problem("hit: row differs from the warm-up row")
        elif rows_by_spec.setdefault(key, record["row"]) != record["row"]:
            out.problem(f"{record['kind']}: two rows for one spec")


def check_sample(out: pc.Outcome, mix: Mix, records: List[Dict[str, Any]]) -> None:
    """Re-run a seeded sample of served rows in this process."""
    from repro.system.spec import SystemSpec

    rng = random.Random(mix.seed)
    for kind in ("packet", "analytic"):
        done = [r for r in records if r["kind"] == kind and "row" in r]
        for record in rng.sample(done, min(SAMPLE_ROWS, len(done))):
            out.attempted += 1
            local = pc.wire_row(SystemSpec.from_dict(record["spec"]).run())
            if local != record["row"]:
                out.problem(f"sample: served {kind} row differs from an in-process run")


def complete_grid(daemon: Daemon, mix: Mix, records: List[Dict[str, Any]]) -> list:
    """Analytic rows of the whole Fig. 14 grid, served by the daemon;
    the walk over the grid continues past the timed phase until every
    point has a row."""
    rows = {}
    for record in records:
        if record["kind"] == "analytic" and "row" in record:
            row = record["row"]
            rows[(row["workload"], row["arch"])] = row
    rng = random.Random(mix.seed)
    while len(rows) < len(mix.grid):
        record = submit(daemon.client, mix.spec("analytic", rng), "grid")
        if "row" not in record:
            raise RuntimeError(f"grid submit failed: {record.get('error')}")
        row = record["row"]
        rows[(row["workload"], row["arch"])] = row
    return list(rows.values())


def _ms(records: List[Dict[str, Any]], kind: Optional[str] = None) -> List[float]:
    return [
        (r["completed"] - r["sent"]) * 1e3
        for r in records
        if "completed" in r and (kind is None or r["kind"] == kind)
    ]


def run(seed: int, seconds: float, workdir: str) -> pc.Outcome:
    """The untraced run: every end-to-end metric."""
    out = pc.Outcome()
    mix = Mix(seed)
    setups = []
    daemon = None
    try:
        # Boots before and after the timed phase; the last one before
        # it serves the run.
        for _ in range(SETUPS - SETUPS // 2):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(workdir)
            setups.append(daemon.start())
        warm_up(daemon, mix)
        records, wall = run_clients(daemon, mix, seconds=seconds)
        grid_rows = complete_grid(daemon, mix, records)
        for _ in range(SETUPS // 2):
            daemon.stop()
            daemon = Daemon(workdir)
            setups.append(daemon.start())
    finally:
        if daemon is not None:
            daemon.stop()
    check(out, mix, records)
    check_sample(out, mix, records)

    every = _ms(records)
    for kind in ("hit", "analytic", "packet"):
        values = _ms(records, kind)
        out.put(f"{kind}_p50_ms", pc.median(values), len(values))
    out.put("setup_s", pc.median(setups), len(setups))
    out.put("points_per_s", len(every) / wall, len(every))
    out.put("latency_p90_ms", pc.percentile(every, 0.9), len(every))
    out.put("peak_rss_mb", pc.peak_rss_mb(), 1)
    out.put("paper_err_fig14", pc.paper_err_fig14(grid_rows), len(grid_rows))
    counts = {k: sum(1 for r in records if r["kind"] == k) for k, _ in MIX}
    out.notes.append(
        f"{len(records)} requests from {CLIENTS} closed-loop clients: "
        + ", ".join(f"{k} {n}" for k, n in counts.items())
    )
    return out


def _computed(records: List[Dict[str, Any]], source: str) -> Dict[Any, float]:
    """Reported wall seconds per computed job; a deduplicated job's one
    completion reaches every subscriber, so it is counted once."""
    return {
        r["job_id"]: r["wall_s"] for r in records if r.get("source") == source
    }


def _serve_layers(out: pc.Outcome, records: List[Dict[str, Any]]) -> None:
    """serve.* and analytic.* from stream events (no tracing needed)."""
    waits = [
        (r["started"] - r["accepted"]) * 1e3
        for r in records
        if "started" in r and "accepted" in r
    ]
    overhead = [
        (r["completed"] - r["sent"] - r["wall_s"]) * 1e3
        for r in records
        if "completed" in r and r.get("wall_s") is not None
    ]
    computed = list(_computed(records, "run").values())
    analytic = list(_computed(records, "analytic").values())
    done = [r for r in records if "completed" in r]
    n = len(records)
    out.put("serve.queue_wait_ms", pc.median(waits) if waits else 0.0, len(waits))
    out.put("serve.overhead_ms", pc.median(overhead), len(overhead))
    out.put(
        "serve.dedup_ratio", sum(1 for r in records if r.get("state") == "dedup") / n, n
    )
    out.put(
        "serve.cache_hit_ratio",
        sum(1 for r in done if r.get("source") == "cache") / len(done),
        len(done),
    )
    out.put(
        "serve.job_ms",
        pc.median([wall * 1e3 for wall in computed]) if computed else 0.0,
        len(computed),
    )
    out.put(
        "analytic.run_ms",
        pc.median([wall * 1e3 for wall in analytic]) if analytic else 0.0,
        len(analytic),
    )


def _phase(workdir: str, seed: int, trace_dir: Optional[str] = None) -> tuple:
    """One daemon, warm-up, and ``TRACED_REQUESTS`` requests; returns the
    mix, the requests' records, their wall, the pool spawns, the warm-up
    records and the daemon's pid."""
    mix = Mix(seed)
    daemon = Daemon(workdir, trace_dir)
    try:
        daemon.start()
        pid = daemon.proc.pid
        warm = warm_up(daemon, mix)
        records, wall = run_clients(daemon, mix, requests=TRACED_REQUESTS)
        spawns = daemon.client.status()["flight"].get("pool_spawns", 0)
    finally:
        daemon.stop()
    return mix, records, wall, spawns, warm, pid


def run_traced(seed: int, workdir: str) -> pc.Outcome:
    """The traced run: every per-layer metric.

    The same request sequence runs against a plain daemon, then against
    one started under the benchmark's span wrappers; the wall ratio is
    the tracing overhead.  serve.* come from the plain daemon's streams.
    """
    import pb_trace

    out = pc.Outcome()
    import_cli = pc.median(pc.import_cli_probe(3))
    mix, plain, plain_wall, _, _, _ = _phase(workdir, seed)
    check(out, mix, plain)
    _serve_layers(out, plain)

    trace_dir = os.path.join(workdir, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    mix, traced, traced_wall, spawns, warm, daemon = _phase(workdir, seed, trace_dir)
    check(out, mix, traced)

    # The daemon idles between requests, so each process's spans are
    # held against the wall_s its jobs reported: inline analytic jobs in
    # the daemon, packet jobs in the pool worker.
    trace = pb_trace.load(trace_dir)
    served = warm + traced
    walls = [
        (
            "daemon's inline jobs",
            lambda s: s["point"] is not None and pb_trace.pid_of(s["id"]) == daemon,
            sum(_computed(served, "analytic").values()),
        ),
        (
            "pool worker's jobs",
            lambda s: s["point"] is not None and pb_trace.pid_of(s["id"]) != daemon,
            sum(_computed(served, "run").values()),
        ),
    ]
    pb_trace.put_layers(out, trace, pb_trace.layer_times(trace), walls)
    # The daemon's one pool worker: its jobs, and the wall it sat idle.
    job_s = sum(_computed(traced, "run").values())
    out.put("exec.job_s", job_s, len(traced))
    out.put("exec.worker_busy_frac", job_s / traced_wall, len(traced))
    out.put("exec.parent_overhead_s", traced_wall - job_s, len(traced))
    out.put("exec.pool_spawns", spawns, 1)
    out.put("import.cli_s", import_cli, 3)
    out.put("trace.wall_s", traced_wall, 1)
    out.put("trace.overhead_ratio", traced_wall / plain_wall, len(traced))
    return out
