"""The sweep workloads: ``fig14-packet`` and ``small-pool``.

Both run the Fig. 14 grid (14 Table II workloads x 7 Table III
organizations = 98 points) through :class:`repro.exec.SweepExecutor`,
one pass after another until ``--seconds`` have passed.  A pass walks
the grid slice by slice; each slice gets three phases:

1. *main* (timed): the slice at packet fidelity.  ``fig14-packet`` runs
   serially in-process with no cache; ``small-pool`` runs on a 2-worker
   pool with a fresh on-disk :class:`~repro.exec.ResultCache` per pass,
   so every point is a cold miss followed by a cache write.
2. *hit*: the slice again against a cache holding its main rows (in
   memory for ``fig14-packet``, the pass's directory for
   ``small-pool``), so every point is a cache read.
3. *analytic*: the slice at analytic fidelity (inline in this process).

Phases 2 and 3 repeat (``HIT_READS``, ``ANALYTIC_RUNS``) and report each
point's best time.

Interleaving the phases samples all three point classes evenly through
the run, so they see the same host-speed drift.

Every row is checked: each pass must repeat the first pass's rows, cache
reads must return the computed rows, and at the default seed every
packet and analytic row must match ``digests.json``.  ``small-pool``
also re-runs a seeded sample of pooled points in-process.
"""

from __future__ import annotations

import os
import random
import shutil
import sys
import time
from dataclasses import dataclass
from typing import Dict, List

import pb_common as pc


@dataclass(frozen=True)
class Shape:
    scale: float
    jobs: int
    disk_cache: bool
    #: Grid slices per pass: 14 (one per Table II workload) for the
    #: serial sweep; 1 for the pool, whose pass is one whole sweep.
    slices: int
    #: Passes in a traced run (fixed work, so two traced runs sum the
    #: same number of points).
    traced_passes: int


SHAPES = {
    "fig14-packet": Shape(
        scale=0.1, jobs=1, disk_cache=False, slices=14, traced_passes=1
    ),
    "small-pool": Shape(
        scale=0.02, jobs=min(2, os.cpu_count() or 1), disk_cache=True,
        slices=1, traced_passes=2,
    ),
}

#: Set-up measurements per run, spread through it; setup_s is their median.
SETUPS = 7
#: Cache reads and analytic runs of each slice per pass.  They take a
#: millisecond or less, and such small steps swing with this host's
#: speed (and with each process's memory layout) far more than whole
#: simulations do; each point's best time over its repeats and passes
#: filters that before the median over points.
HIT_READS = 8
ANALYTIC_RUNS = 5
#: Pooled points re-run in-process per ``small-pool`` run.
SAMPLE_POINTS = 4


@dataclass
class Pass:
    outcomes: list
    wall: float
    hit_ms: List[float]
    analytic_ms: List[float]


class Sweep:
    """One workload run: its grid, its scratch directory, its checks."""

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.name = name
        self.shape = SHAPES[name]
        self.seed = seed
        self.workdir = workdir
        self.jobs = pc.fig14_grid(self.shape.scale, seed)
        self.analytic_jobs = pc.fig14_grid(self.shape.scale, seed, "analytic")
        size = len(self.jobs) // self.shape.slices
        self.slices = [
            range(start, min(start + size, len(self.jobs)))
            for start in range(0, len(self.jobs), size)
        ]
        self.out = pc.Outcome()
        self.reference: Dict[str, str] = {}
        self.pinned = pc.load_digests()[name] if seed == pc.DEFAULT_SEED else None
        self.passes = 0

    def _executor(self, cache=None):
        from repro.exec import SweepExecutor

        return SweepExecutor(jobs=self.shape.jobs, cache=cache, keep_going=True)

    def run_pass(self, analytic: bool = True, after_slice=None) -> Pass:
        """One pass over the grid; ``after_slice`` is called between slices."""
        from repro.exec import ResultCache

        self.passes += 1
        cache_dir = None
        if self.shape.disk_cache:
            cache_dir = os.path.join(self.workdir, f"cache-{self.passes}")
        result = Pass([], 0.0, [], [])
        for indices in self.slices:
            jobs = [self.jobs[i] for i in indices]
            executor = self._executor(ResultCache(cache_dir) if cache_dir else None)
            start = time.perf_counter()
            outcomes = executor.map_outcomes(jobs)
            result.wall += time.perf_counter() - start
            self.check(jobs, outcomes, "packet", "main")
            result.outcomes += outcomes

            if cache_dir is None:
                cache = ResultCache()
                for job, outcome in zip(jobs, outcomes):
                    if outcome.ok:
                        cache.put(job, outcome.result)
            else:
                cache = ResultCache(cache_dir)
            reads = []
            for _ in range(HIT_READS):
                hits = self._executor(cache).map_outcomes(jobs)
                self.check(jobs, hits, "packet", "hit")
                for job, outcome in zip(jobs, hits):
                    source = outcome.telemetry.source if outcome.telemetry else None
                    if outcome.ok and source != "cache":
                        self.out.problem(
                            f"hit: {job.label} was not a cache read ({source})"
                        )
                reads.append(_wall_ms(hits, "cache"))
            result.hit_ms += _best_per_point(reads)

            if analytic:
                jobs = [self.analytic_jobs[i] for i in indices]
                runs = []
                for _ in range(ANALYTIC_RUNS):
                    outcomes = self._executor().map_outcomes(jobs)
                    self.check(jobs, outcomes, "analytic", "analytic")
                    runs.append(_wall_ms(outcomes, "analytic"))
                result.analytic_ms += _best_per_point(runs)
            if after_slice is not None:
                after_slice()
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return result

    def check(self, jobs: list, outcomes: list, model: str, phase: str) -> None:
        """Count the points; flag failures and rows that differ from the
        first pass's (or, at the default seed, from ``digests.json``)."""
        pinned = self.pinned[model] if self.pinned else None
        for job, outcome in zip(jobs, outcomes):
            self.out.attempted += 1
            if not outcome.ok:
                self.out.problem(f"{phase}: {outcome.failure.summary()}")
                continue
            digest = pc.row_digest(outcome.result)
            key = f"{model}:{job.label}"
            if self.reference.setdefault(key, digest) != digest:
                self.out.problem(f"{phase}: {job.label} differs from its first row")
            elif pinned is not None and digest != pinned[job.label]:
                self.out.problem(f"{phase}: {job.label} differs from digests.json")

    def check_sample(self, outcomes: list) -> None:
        """Re-run a seeded sample of pooled points in this process."""
        from repro.exec import execute_job

        if self.shape.jobs == 1:
            return  # every point already ran in this process
        rng = random.Random(self.seed)
        for i in sorted(rng.sample(range(len(self.jobs)), SAMPLE_POINTS)):
            self.out.attempted += 1
            local = execute_job(self.jobs[i])
            pooled = outcomes[i]
            if not (local.ok and pooled.ok) or pc.row_digest(
                local.result
            ) != pc.row_digest(pooled.result):
                self.out.problem(
                    f"sample: {self.jobs[i].label} pooled row differs from "
                    "an in-process run"
                )


def _wall_ms(outcomes: list, source: str) -> List[float]:
    return [
        o.telemetry.wall_s * 1e3
        for o in outcomes
        if o.ok and o.telemetry is not None and o.telemetry.source == source
    ]


def _best_per_point(per_pass: List[List[float]]) -> List[float]:
    """Each point's lowest time over the passes (passes list the points
    in the same order)."""
    return [min(times) for times in zip(*per_pass)]


def _setup_s(name: str, seed: int) -> float:
    probe = os.path.join(pc.HERE, "setup_probe.py")
    return pc.time_to_ready([sys.executable, probe, name, str(seed)])


def run(name: str, seed: int, seconds: float, workdir: str) -> pc.Outcome:
    """The untraced run: every end-to-end metric."""
    from repro.exec import shutdown_pool

    sweep = Sweep(name, seed, workdir)
    out = sweep.out
    setups = [_setup_s(name, seed)]
    last_setup = [time.perf_counter()]

    def after_slice() -> None:
        # Set-up is sampled through the run too, about SETUPS times.
        if time.perf_counter() - last_setup[0] >= seconds / SETUPS:
            setups.append(_setup_s(name, seed))
            last_setup[0] = time.perf_counter()

    passes: List[Pass] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(sweep.run_pass(after_slice=after_slice))
    while len(setups) < SETUPS:
        setups.append(_setup_s(name, seed))
    first = passes[0].outcomes
    sweep.check_sample(first)
    shutdown_pool()
    pc.reap_pool_workers()

    rates = [len(sweep.jobs) / p.wall for p in passes]
    point_ms = [ms for p in passes for ms in _wall_ms(p.outcomes, "run")]
    hit_ms = _best_per_point([p.hit_ms for p in passes])
    analytic_ms = _best_per_point([p.analytic_ms for p in passes])
    out.put("setup_s", pc.median(setups), len(setups))
    out.put("points_per_s", pc.median(rates), len(rates))
    out.put("packet_p50_ms", pc.median(point_ms), len(point_ms))
    out.put("hit_p50_ms", pc.median(hit_ms), len(hit_ms))
    out.put("analytic_p50_ms", pc.median(analytic_ms), len(analytic_ms))
    out.put("latency_p90_ms", pc.percentile(point_ms, 0.9), len(point_ms))
    out.put("peak_rss_mb", pc.peak_rss_mb(), 1)
    out.put(
        "paper_err_fig14",
        pc.paper_err_fig14(pc.wire_row(o.result) for o in first if o.ok),
        len(first),
    )
    out.notes.append(
        f"{len(passes)} pass(es) of {len(sweep.jobs)} points at scale "
        f"{sweep.shape.scale}, {sweep.shape.jobs} worker(s)"
    )
    return out


def run_traced(name: str, seed: int, workdir: str) -> pc.Outcome:
    """The traced run: every per-layer metric.

    The same number of passes runs untraced, then traced; the ratio of
    their summed main walls is the tracing overhead.  The traced phase
    is those passes' main and hit phases; per-layer sums cover exactly
    it.  ``analytic.run_ms`` comes from the untraced passes.
    """
    import pb_trace
    from repro.exec import pool_spawns, shutdown_pool

    import_cli = pc.median(pc.import_cli_probe(3))
    sweep = Sweep(name, seed, workdir)
    out = sweep.out
    count = sweep.shape.traced_passes
    untraced = [sweep.run_pass() for _ in range(count)]
    shutdown_pool()
    pc.reap_pool_workers()

    trace_dir = os.path.join(workdir, "trace")
    recorder = pb_trace.install(trace_dir)
    spawns = pool_spawns()
    phase_start = time.perf_counter()
    traced = [sweep.run_pass(analytic=False) for _ in range(count)]
    trace_wall = time.perf_counter() - phase_start
    spawns = pool_spawns() - spawns
    shutdown_pool()
    pc.reap_pool_workers()
    recorder.flush()

    trace = pb_trace.load(trace_dir)
    main_wall = sum(p.wall for p in traced)
    job_s = sum(o.telemetry.wall_s for p in traced for o in p.outcomes if o.telemetry)
    # This process against the timer around the traced phase; pool
    # workers against their points' JobTelemetry.wall_s.
    parent = os.getpid()
    walls = [("this process", lambda s: pb_trace.pid_of(s["id"]) == parent, trace_wall)]
    if any(pb_trace.pid_of(s["id"]) != parent for s in trace["spans"]):
        walls.append(
            ("pool workers", lambda s: pb_trace.pid_of(s["id"]) != parent, job_s)
        )
    pb_trace.put_layers(out, trace, pb_trace.layer_times(trace), walls)
    workers = sweep.shape.jobs
    out.put("exec.job_s", job_s, count * len(sweep.jobs))
    out.put("exec.worker_busy_frac", job_s / (workers * main_wall), count)
    out.put("exec.parent_overhead_s", main_wall - job_s / workers, count)
    out.put("exec.pool_spawns", spawns, count)
    analytic_ms = [ms for p in untraced for ms in p.analytic_ms]
    out.put("analytic.run_ms", pc.median(analytic_ms), len(analytic_ms))
    for metric in (
        "serve.queue_wait_ms", "serve.overhead_ms", "serve.dedup_ratio",
        "serve.cache_hit_ratio", "serve.job_ms",
    ):
        out.put(metric, 0.0, 0)  # no server in a sweep workload
    out.put("import.cli_s", import_cli, 3)
    out.put("trace.wall_s", trace_wall, 1)
    out.put("trace.overhead_ratio", main_wall / sum(p.wall for p in untraced), count)
    return out
