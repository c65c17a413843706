"""Shared pieces of the benchmark: metric tables, statistics, process
hygiene, the hardware fingerprint, row digests and the paper-error score.

The benchmark drives the program only through its public API, so this
module imports nothing from ``repro`` at import time; callers import the
program after :func:`program_on_path` has put ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for one checkout's runs (sockets, caches, span files,
#: result records); listed in the root ``.gitignore``.
WORK = os.path.join(ROOT, ".perfbench")

#: The seed whose rows are pinned by ``digests.json``; it is
#: ``SystemConfig.seed``'s default, so the pinned rows are the ones every
#: figure command produces.
DEFAULT_SEED = 1

#: End-to-end metrics: name -> (unit, better).  Every workload reports
#: every one of them (see README.md for what each means per workload).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "points_per_s": ("1/s", "higher"),
    "packet_p50_ms": ("ms", "lower"),
    "hit_p50_ms": ("ms", "lower"),
    "analytic_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "paper_err_fig14": ("1", "lower"),
}

#: Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    "sim.loop_s": ("s", "lower"),
    "sim.self_s": ("s", "lower"),
    "sim.events": ("count", "lower"),
    "sim.events_per_request": ("count", "lower"),
    "sim.peak_pending": ("count", "lower"),
    "network.self_s": ("s", "lower"),
    "hmc.self_s": ("s", "lower"),
    "gpu.self_s": ("s", "lower"),
    "core.self_s": ("s", "lower"),
    "cpu.self_s": ("s", "lower"),
    "pcie.self_s": ("s", "lower"),
    "other.self_s": ("s", "lower"),
    "exec.self_s": ("s", "lower"),
    "network.packets": ("count", "lower"),
    "network.avg_hops": ("count", "lower"),
    "hmc.row_hit_rate": ("1", "higher"),
    "hmc.queue_wait_us": ("us", "lower"),
    "gpu.memory_requests": ("count", "lower"),
    "gpu.l2_hit_rate": ("1", "higher"),
    "system.build_s": ("s", "lower"),
    "system.page_table_s": ("s", "lower"),
    "system.collect_s": ("s", "lower"),
    "system.self_s": ("s", "lower"),
    "workloads.build_s": ("s", "lower"),
    "exec.plan_s": ("s", "lower"),
    "exec.cache_get_s": ("s", "lower"),
    "exec.cache_put_s": ("s", "lower"),
    "exec.cache_hit_ratio": ("1", "higher"),
    "exec.job_s": ("s", "lower"),
    "exec.worker_busy_frac": ("1", "higher"),
    "exec.parent_overhead_s": ("s", "lower"),
    "exec.pool_spawns": ("count", "lower"),
    "analytic.run_ms": ("ms", "lower"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.overhead_ms": ("ms", "lower"),
    "serve.dedup_ratio": ("1", "higher"),
    "serve.cache_hit_ratio": ("1", "higher"),
    "serve.job_ms": ("ms", "lower"),
    "import.cli_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
    "trace.reconcile_err": ("1", "lower"),
}


def program_on_path() -> bool:
    """Put the checkout's ``src/`` first on ``sys.path``; False when the
    checkout holds no program to benchmark."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


def program_env() -> Dict[str, str]:
    """Environment for child interpreters that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    #: Operations that failed, were refused, or returned a wrong row.
    failed: int = 0
    #: One line per wrong row or failed operation (printed, capped).
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Metric] = field(default_factory=dict)
    #: Extra lines for the human-readable report (not metrics).
    notes: List[str] = field(default_factory=list)

    def problem(self, text: str) -> None:
        self.failed += 1
        self.problems.append(text)

    def put(self, name: str, value: float, samples: int) -> None:
        table = END_TO_END if name in END_TO_END else PER_LAYER
        self.metrics[name] = Metric(float(value), table[name][0], samples)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------
def reap_pool_workers(timeout_s: float = 30.0) -> None:
    """Wait until every worker process this interpreter started has
    exited and been reaped (so ``RUSAGE_CHILDREN`` covers it)."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5)
            return
        time.sleep(0.01)


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest reaped descendant's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def time_to_ready(argv: List[str], timeout_s: float = 60.0) -> float:
    """Spawn ``argv`` and return seconds until it prints ``ready``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=program_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if line.strip() != "ready":
            raise RuntimeError(f"set-up probe {argv[1:]} printed {line!r}")
    finally:
        try:
            proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe {argv[1:]} exited {proc.returncode}")
    return elapsed


# ---------------------------------------------------------------------------
# Fingerprint
# ---------------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _digest_files(paths: Iterable[str]) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        h.update(b"\0")
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()[:16]


def bench_digest() -> str:
    """Digest of the benchmark's own code.  ``digests.json`` is left out:
    a change that is meant to change rows regenerates it, and must still
    compare like for like with its parent."""
    return _digest_files(
        os.path.join(HERE, name)
        for name in os.listdir(HERE)
        if name.endswith(".py")
    )


def fingerprint() -> Dict[str, Any]:
    """Hardware and code identity stamped into every result record.

    ``nproc``/``cpu_model``/``python`` and ``bench_digest`` must match for
    two records to compare like for like; ``code_digest`` is the program
    under test and is expected to differ between a parent and a change.
    """
    from repro.exec import code_version

    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "code_digest": code_version(),
        "bench_digest": bench_digest(),
    }


#: Fingerprint fields that must agree for a like-for-like comparison.
LIKE_FOR_LIKE = ("nproc", "cpu_model", "python", "bench_digest")


# ---------------------------------------------------------------------------
# Rows
# ---------------------------------------------------------------------------
#: :class:`RunResult` fields that are engine telemetry, not program
#: output: they are never part of a reported row or a cache identity, and
#: a change such as event fusion lowers them while every row stays equal.
TELEMETRY_FIELDS = ("events_executed", "peak_pending_events")


def row_digest(result: Any) -> str:
    """Digest of a :class:`RunResult`'s simulated output: every field but
    :data:`TELEMETRY_FIELDS`, exact floats."""
    fields = dataclasses.asdict(result)
    for name in TELEMETRY_FIELDS:
        del fields[name]
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def wire_row(result: Any) -> Dict[str, Any]:
    """A result's row as it reads after a JSON round trip (the form the
    sweep server sends)."""
    return json.loads(json.dumps(result.as_row()))


#: The Fig. 14 headline ratios: (arch, quantity, paper value).  Each is
#: a geomean over the Table II workloads of quantity(PCIe) /
#: quantity(arch), as the Fig. 14 runner computes it.
PAPER_FIG14 = (
    ("UMN", "total", 8.5),
    ("CMN", "total", 1.8),
    ("GMN", "kernel", 3.5),
)


def paper_err_fig14(rows: Iterable[Dict[str, Any]]) -> float:
    """Mean |ln(measured / paper)| over the Fig. 14 headline ratios,
    from rows carrying ``workload``/``arch``/``kernel_us``/``memcpy_us``."""
    table: Dict[tuple, Dict[str, Any]] = {}
    for row in rows:
        table[(row["workload"], row["arch"])] = row
    workloads = sorted({w for w, _ in table})

    def quantity(row: Dict[str, Any], kind: str) -> float:
        if kind == "kernel":
            return row["kernel_us"]
        return row["kernel_us"] + row["memcpy_us"]

    errors = []
    for arch, kind, paper in PAPER_FIG14:
        logs = [
            math.log(
                quantity(table[(w, "PCIe")], kind) / quantity(table[(w, arch)], kind)
            )
            for w in workloads
        ]
        measured = math.exp(sum(logs) / len(logs))
        errors.append(abs(math.log(measured / paper)))
    return sum(errors) / len(errors)


def load_digests() -> Dict[str, Any]:
    with open(os.path.join(HERE, "digests.json")) as handle:
        return json.load(handle)


def fig14_points() -> List[tuple]:
    """The Fig. 14 grid as (Table II workload, Table III organization)
    pairs, in the figure runner's order."""
    from repro.system.configs import TABLE_III
    from repro.workloads.suite import WORKLOAD_NAMES

    return [(name, arch) for name in WORKLOAD_NAMES for arch in TABLE_III]


def fig14_job(
    workload: str, arch: str, scale: float, seed: int, network_model: str = "packet"
) -> Any:
    """One Fig. 14 grid point as a sweep job."""
    from repro.config import SystemConfig
    from repro.experiments.common import job_for

    cfg = SystemConfig(seed=seed, network_model=network_model)
    return job_for(arch, workload, cfg, scale=scale)


def fig14_grid(scale: float, seed: int, network_model: str = "packet") -> list:
    """The Fig. 14 grid as sweep jobs, in the figure runner's order."""
    return [
        fig14_job(workload, arch, scale, seed, network_model)
        for workload, arch in fig14_points()
    ]


def import_cli_probe(times: int) -> List[float]:
    """Seconds a fresh interpreter spends on ``import repro.cli``."""
    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    values = []
    for _ in range(times):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=program_env(),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        values.append(float(done.stdout.strip()))
    return values
