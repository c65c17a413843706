"""The process-pool sweep executor.

Every figure reproduction is an embarrassingly parallel sweep — N
independent ``(spec, workload, cfg)`` simulations whose results are merged
into a table.  :class:`SweepExecutor` fans those points out over a
``concurrent.futures.ProcessPoolExecutor`` and merges results in
**submission order**, so the produced rows are identical to a serial run
regardless of worker scheduling.

Degrees of freedom, in precedence order:

1. an explicit ``jobs=`` argument (the CLI's ``--jobs N``),
2. the ``REPRO_JOBS`` environment variable,
3. serial in-process execution (the default — bit-identical to the
   pre-executor behavior, and the mode under which observability sinks
   keep working, since workers cannot share a tracer).

An attached :class:`~repro.exec.cache.ResultCache` short-circuits any job
whose result is already known; only misses are submitted to the pool —
under the default ``lpt`` schedule in longest-predicted-first order (see
:mod:`repro.exec.planner`), which changes wall clock but never rows.
Worker pools are kept warm in a process-wide :class:`_PoolManager` and
reused across sweeps and experiments.

Failure semantics (docs/robustness.md):

- Workers return structured :class:`~repro.exec.jobs.JobOutcome`\\ s, so a
  crashing point never aborts the merge loop.  Outcomes are consumed with
  ``as_completed`` and every **success is cached the moment it lands** —
  a later failure can no longer throw finished work away (salvage).
- **Fail-fast** (default): the first failed point raises
  :class:`~repro.errors.SweepError` naming the point's label; unstarted
  points are cancelled, running ones are drained into the cache first.
- **Keep-going** (``keep_going=True`` / the CLI's ``--keep-going``): the
  sweep finishes, failed points come back as failures in the outcome
  list, and the caller reports them (nonzero exit at the CLI).
- A ``BrokenProcessPool`` (a worker died: OOM-kill, segfault, ``os._exit``)
  is treated as transient: the pool is respawned with bounded backoff and
  **only the lost jobs** are resubmitted, up to ``pool_retries`` times.
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import sys
import time
from concurrent.futures import BrokenExecutor, CancelledError, ProcessPoolExecutor, as_completed
from typing import Any, Dict, List, Optional, Sequence

from ..errors import ConfigError, SweepError
from ..obs.telemetry import JobTelemetry, ProgressListener
from ..options import current
from ..sim import watchdog
from ..system.metrics import RunResult
from .cache import ResultCache
from .jobs import JobOutcome, SweepJob, _worker_initializer, execute_job
from .planner import SCHEDULES, CostBook, CostPrediction, lpt_order, predict_costs

#: Environment variable consulted when no explicit worker count is given.
JOBS_ENV = "REPRO_JOBS"


def auto_jobs() -> int:
    """The worker count ``--jobs auto`` resolves to: every CPU but one,
    leaving a core for the merging parent (never less than 1)."""
    return max(1, (os.cpu_count() or 1) - 1)


def jobs_from_env(default: int = 1) -> int:
    """Parse ``REPRO_JOBS``; ``auto`` resolves via :func:`auto_jobs`,
    invalid or non-positive values fall back (with a warning naming the
    value and the fallback, so a typo like ``REPRO_JOBS=four`` no longer
    silently serializes the sweep)."""
    raw = os.environ.get(JOBS_ENV, "").strip()
    if not raw:
        return default
    if raw.lower() == "auto":
        return auto_jobs()
    try:
        value = int(raw)
    except ValueError:
        print(
            f"warning: ignoring invalid {JOBS_ENV}={raw!r}; "
            f"falling back to {default} worker(s)",
            file=sys.stderr,
        )
        return default
    if value < 1:
        print(
            f"warning: {JOBS_ENV}={raw!r} clamped to 1 worker (serial)",
            file=sys.stderr,
        )
        return 1
    return value


class _PoolManager:
    """One process-wide worker pool, kept warm across sweeps.

    PR 5 tore the pool down after every sweep, so ``repro all --jobs N``
    paid fork + interpreter-warmup once per experiment.  The manager
    hands the same ``ProcessPoolExecutor`` to every sweep whose shape
    (worker count, watchdog limits) matches; a shape change or a broken
    pool discards it and the next acquire respawns.  ``spawns`` counts
    pool creations so the flight summary can show the warm-pool win.
    """

    def __init__(self) -> None:
        self._pool: Optional[ProcessPoolExecutor] = None
        self._key: Optional[tuple] = None
        self.spawns = 0

    def acquire(self, workers: int, watchdog_limits: tuple) -> ProcessPoolExecutor:
        key = (workers, tuple(watchdog_limits))
        if self._pool is None or self._key != key:
            self.discard()
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_worker_initializer,
                initargs=(watchdog_limits,),
            )
            self._key = key
            self.spawns += 1
        return self._pool

    def discard(self, kill: bool = False) -> None:
        """Shut the pool down (broken pool, shape change, or process exit).

        With ``kill=True`` the worker processes are terminated outright
        instead of being left to finish their current jobs.  A plain
        ``shutdown(wait=False)`` only stops *new* work: a worker deep in
        a long simulation keeps burning CPU — and keeps the interpreter's
        exit hooks waiting — long after a ``KeyboardInterrupt`` told the
        user everything stopped.  The interrupt path wants the workers
        gone *now*.
        """
        if self._pool is not None:
            pool = self._pool
            self._pool = None
            self._key = None
            workers = list(getattr(pool, "_processes", {}).values()) if kill else []
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in workers:
                try:
                    proc.terminate()
                except Exception:
                    pass  # already gone


_POOL = _PoolManager()


def pool_spawns() -> int:
    """How many worker pools this process has spawned so far."""
    return _POOL.spawns


def shutdown_pool(kill: bool = False) -> None:
    """Tear down the shared warm pool (end of a CLI run, or tests).

    ``kill=True`` terminates mid-job workers immediately — the
    ``KeyboardInterrupt`` path, where waiting for a long simulation to
    finish would leave the terminal apparently hung and the workers
    apparently leaked.
    """
    _POOL.discard(kill=kill)


# Fallback for exit paths that never reach the CLI's ``try/finally``
# (an exception between sweeps, a library caller forgetting to clean
# up): discard the warm pool at interpreter exit so its workers are not
# left running against a dead parent.  Idempotent — a pool already shut
# down by the CLI makes this a no-op.
atexit.register(shutdown_pool)


class SweepExecutor:
    """Runs sweep jobs serially or across worker processes."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        keep_going: bool = False,
        pool_retries: int = 2,
        pool_backoff_s: float = 0.25,
        progress: Optional[ProgressListener] = None,
        trace_dir: Optional[str] = None,
        schedule: str = "lpt",
        costbook: Optional[CostBook] = None,
    ) -> None:
        if jobs is None:
            jobs = jobs_from_env()
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        if pool_retries < 0:
            raise ConfigError(f"pool_retries must be >= 0, got {pool_retries}")
        if schedule not in SCHEDULES:
            raise ConfigError(
                f"schedule must be one of {'/'.join(SCHEDULES)}, got {schedule!r}"
            )
        self.jobs = jobs
        self.cache = cache
        self.keep_going = keep_going
        self.pool_retries = pool_retries
        self.pool_backoff_s = pool_backoff_s
        #: Pool submission order for cache misses: ``"lpt"`` (default)
        #: submits longest-predicted-first, ``"fifo"`` in declaration
        #: order.  Merged rows are identical either way.
        self.schedule = schedule
        #: Cost predictions for LPT ordering; built lazily next to the
        #: attached cache when not given (in-memory without one).
        self.costbook = costbook
        #: Per-sweep predictions, stamped onto landed telemetry.
        self._predictions: Optional[Dict[int, CostPrediction]] = None
        #: Optional :class:`~repro.obs.telemetry.ProgressListener`
        #: narrating job state transitions (see docs/observability.md).
        self.progress = progress
        #: When set, every executed job records a per-job Chrome trace
        #: into this directory (the caller merges them with
        #: :func:`~repro.obs.telemetry.merge_trace_dir`).
        self.trace_dir = trace_dir

    # ------------------------------------------------------------------
    def map(self, jobs: Sequence[SweepJob]) -> List[Optional[RunResult]]:
        """Execute ``jobs``; results come back in submission order.

        Cached, parallel, and serial execution all yield identical lists:
        each simulation is a pure function of its job (see
        ``reset_packet_ids``), results are merged by index, and the cache
        returns a fresh unpickled copy per hit.

        Under fail-fast (the default) every entry is a
        :class:`RunResult` — a failed point raises
        :class:`~repro.errors.SweepError` instead.  Under ``keep_going``
        failed points come back as ``None`` (use :meth:`map_outcomes` for
        the structured failures).
        """
        return [o.result for o in self.map_outcomes(jobs)]

    def map_outcomes(self, jobs: Sequence[SweepJob]) -> List[JobOutcome]:
        """Like :meth:`map`, but returns the full per-job outcomes."""
        jobs = list(jobs)
        outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
        pending: List[int] = []
        self._emit({"event": "begin", "total": len(jobs)})
        for i, job in enumerate(jobs):
            lookup_start = time.perf_counter()
            hit = self.cache.get(job) if self.cache is not None else None
            if hit is not None:
                telemetry = JobTelemetry(
                    label=job.label,
                    source="cache",
                    wall_s=time.perf_counter() - lookup_start,
                    events=hit.events_executed,
                    peak_pending=hit.peak_pending_events,
                    worker_pid=os.getpid(),
                )
                outcomes[i] = JobOutcome(result=hit, telemetry=telemetry)
                self._emit(
                    {"event": "cached", "label": job.label, "index": i}
                )
            else:
                pending.append(i)
                self._emit(
                    {"event": "submitted", "label": job.label, "index": i}
                )

        # Analytic-tier points cost milliseconds; shipping them to a pool
        # worker would pay more in pickling and scheduling than the model
        # itself costs, so they always run inline in this process.
        inline = [
            i for i in pending if jobs[i].cfg.network_model == "analytic"
        ]
        pooled = [
            i for i in pending if jobs[i].cfg.network_model != "analytic"
        ]
        if inline:
            self._map_serial(jobs, inline, outcomes)
        if self.jobs > 1 and len(pooled) > 1:
            order = self._plan(jobs, pooled)
            self._map_pool(jobs, order, outcomes)
        else:
            self._map_serial(jobs, pooled, outcomes)

        # Completeness assertion: a dropped future must never leak a None
        # past the return type (it used to hide behind a `type: ignore`).
        lost = [jobs[i].label for i, o in enumerate(outcomes) if o is None]
        if lost:
            raise SweepError(
                f"sweep executor lost {len(lost)} job(s) without an outcome: "
                f"{', '.join(lost[:5])}"
                + (" ..." if len(lost) > 5 else "")
            )
        if self.costbook is not None:
            self.costbook.save()
        self._predictions = None
        done: List[JobOutcome] = outcomes  # type: ignore[assignment]
        self._emit(
            {
                "event": "end",
                "total": len(done),
                "cached": sum(
                    1
                    for o in done
                    if o.telemetry is not None and o.telemetry.source == "cache"
                ),
                "failed": sum(1 for o in done if not o.ok),
            }
        )
        return done

    # ------------------------------------------------------------------
    def _emit(self, event: Dict[str, Any]) -> None:
        """Send one progress event (no-op without a listener).

        Event timestamps (``t``) are seconds since this sweep's ``begin``.
        """
        if self.progress is None:
            return
        if event["event"] == "begin":
            self._t0 = time.monotonic()
        event["t"] = round(
            time.monotonic() - getattr(self, "_t0", time.monotonic()), 4
        )
        self.progress.emit(event)

    def _submittable(self, job: SweepJob) -> SweepJob:
        """Stamp operational knobs (per-job tracing) onto a job copy."""
        if self.trace_dir is None:
            return job
        return dataclasses.replace(job, trace_dir=self.trace_dir)

    def _store(self, job: SweepJob, outcome: JobOutcome) -> None:
        """Cache a success immediately — salvage against later failures."""
        if self.cache is not None and outcome.ok:
            self.cache.put(job, outcome.result)

    def _plan(
        self, jobs: List[SweepJob], pooled: List[int]
    ) -> List[int]:
        """Order the pool submissions per ``self.schedule``.

        Under LPT every pending point is costed through the
        :class:`~repro.exec.planner.CostBook` (observed wall, else
        analytic units x learned rates, else defaults) and submitted
        longest-predicted-first, so the sweep's slowest point cannot land
        on a worker last and stretch the makespan.  Predictions are
        remembered for the sweep: landed telemetry gets its
        ``predicted_wall_s`` stamped and successful runs are fed back
        into the book.
        """
        if self.schedule != "lpt":
            return pooled
        if self.costbook is None:
            self.costbook = CostBook.for_cache(self.cache)
        predictions = predict_costs(jobs, pooled, self.costbook)
        self._predictions = predictions
        order = lpt_order(pooled, predictions)
        self._emit(
            {
                "event": "planned",
                "schedule": self.schedule,
                "pending": len(order),
                "predicted_wall_s": round(
                    sum(p.wall_s for p in predictions.values()), 4
                ),
                "observed": sum(
                    1 for p in predictions.values() if p.source == "observed"
                ),
            }
        )
        return order

    def _landed(self, i: int, job: SweepJob, outcome: JobOutcome) -> None:
        """Shared completion bookkeeping: salvage + progress narration."""
        self._store(job, outcome)
        t = outcome.telemetry
        prediction = (
            self._predictions.get(i) if self._predictions is not None else None
        )
        if t is not None and prediction is not None:
            t.predicted_wall_s = prediction.wall_s
            if outcome.ok and self.costbook is not None:
                self.costbook.observe(job, t, units=prediction.units)
        if outcome.ok:
            self._emit(
                {
                    "event": "completed",
                    "label": job.label,
                    "index": i,
                    "wall_s": round(t.wall_s, 4) if t else None,
                    "events": t.events if t else None,
                    "events_per_sec": round(t.events_per_sec, 1) if t else None,
                    "worker_pid": t.worker_pid if t else None,
                    "retries": t.retries if t else 0,
                }
            )
        else:
            self._emit(
                {
                    "event": "failed",
                    "label": job.label,
                    "index": i,
                    "wall_s": outcome.failure.wall_s,
                    "exc_type": outcome.failure.exc_type,
                    "message": outcome.failure.message,
                }
            )

    def _fail_fast(self, failure) -> None:
        if self.progress is not None:
            self.progress.close()  # finish any partial TTY line first
        raise SweepError(
            f"sweep point {failure.label!r} failed: "
            f"{failure.exc_type}: {failure.message} "
            "(completed results were salvaged into the cache; "
            "use --keep-going to finish the remaining points)",
            failures=[failure],
        )

    def _map_serial(
        self,
        jobs: List[SweepJob],
        pending: List[int],
        outcomes: List[Optional[JobOutcome]],
    ) -> None:
        for i in pending:
            self._emit({"event": "started", "label": jobs[i].label, "index": i})
            outcome = execute_job(self._submittable(jobs[i]))
            outcomes[i] = outcome
            self._landed(i, jobs[i], outcome)
            if not outcome.ok and not self.keep_going:
                self._fail_fast(outcome.failure)

    def _map_pool(
        self,
        jobs: List[SweepJob],
        pending: List[int],
        outcomes: List[Optional[JobOutcome]],
    ) -> None:
        remaining = list(pending)
        retry_counts: Dict[int, int] = {}
        attempts = 0
        while remaining:
            lost = self._pool_round(jobs, remaining, outcomes, retry_counts)
            if not lost:
                return
            attempts += 1
            if attempts > self.pool_retries:
                if self.progress is not None:
                    self.progress.close()
                raise SweepError(
                    f"worker pool died {attempts} time(s); giving up on "
                    f"{len(lost)} unfinished job(s): "
                    + ", ".join(jobs[i].label for i in lost[:5])
                    + (" ..." if len(lost) > 5 else "")
                )
            print(
                f"warning: worker pool died; respawning to retry "
                f"{len(lost)} lost job(s) "
                f"(attempt {attempts}/{self.pool_retries})",
                file=sys.stderr,
            )
            for i in lost:
                retry_counts[i] = retry_counts.get(i, 0) + 1
                self._emit(
                    {
                        "event": "retried",
                        "label": jobs[i].label,
                        "index": i,
                        "attempt": attempts,
                    }
                )
            time.sleep(self.pool_backoff_s * attempts)
            remaining = lost

    def _pool_round(
        self,
        jobs: List[SweepJob],
        indices: List[int],
        outcomes: List[Optional[JobOutcome]],
        retry_counts: Optional[Dict[int, int]] = None,
    ) -> List[int]:
        """One pool lifetime: submit ``indices``, drain with
        ``as_completed`` (caching each success as it lands), and return
        the indices lost to pool breakage, in submission order.

        ``started`` is emitted at pool hand-off (a worker may dequeue the
        job slightly later); the landed outcome's telemetry pins the true
        execution wall time and worker pid.

        The pool itself comes from the process-wide :class:`_PoolManager`
        and is *not* torn down on return — later sweeps (and later
        experiments in ``repro all``) reuse the warm workers.  The pool is
        sized ``self.jobs`` regardless of this round's job count so a
        short sweep never shrinks (and therefore respawns) the pool a
        longer sibling already warmed up.  A round that loses jobs to
        breakage discards the pool, so the PR-5 respawn/backoff retry
        logic in :meth:`_map_pool` is unchanged.
        """
        lost: List[int] = []
        first_failure = None
        pool = _POOL.acquire(self.jobs, watchdog.get_default_limits())
        future_to_index = {}
        for i in indices:
            try:
                future = pool.submit(execute_job, self._submittable(jobs[i]))
            except BrokenExecutor:
                # A warm pool's workers are already executing while we
                # submit, so a worker death can break the pool mid-loop
                # (a cold pool was still forking and could not).  The
                # unsubmittable remainder joins the lost set for the
                # respawn-and-retry pass.
                lost.append(i)
                continue
            future_to_index[future] = i
            self._emit(
                {"event": "started", "label": jobs[i].label, "index": i}
            )
        for future in as_completed(future_to_index):
            i = future_to_index[future]
            try:
                outcome = future.result()
            except CancelledError:
                continue  # fail-fast already cancelled this point
            except BrokenExecutor:
                lost.append(i)
                continue
            if outcome.telemetry is not None and retry_counts:
                outcome.telemetry.retries = retry_counts.get(i, 0)
            outcomes[i] = outcome
            self._landed(i, jobs[i], outcome)
            if not outcome.ok and first_failure is None and not self.keep_going:
                # Fail fast, but salvage first: cancel what hasn't
                # started and keep draining what has, so every finished
                # simulation reaches the cache before the raise.
                first_failure = outcome.failure
                for other in future_to_index:
                    other.cancel()
        if lost:
            _POOL.discard()  # dead workers — force a fresh spawn on retry
        if first_failure is not None:
            self._fail_fast(first_failure)
        return sorted(lost)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cache = "on" if self.cache is not None else "off"
        mode = "keep-going" if self.keep_going else "fail-fast"
        return f"SweepExecutor(jobs={self.jobs}, cache={cache}, {mode})"


def default_executor() -> SweepExecutor:
    """The executor an experiment uses when not handed one: built from
    the scoped :class:`~repro.options.RunOptions`."""
    opts = current()
    return SweepExecutor(
        jobs=opts.jobs,
        cache=opts.cache,
        keep_going=opts.keep_going,
        progress=opts.progress,
        trace_dir=opts.trace_dir,
        schedule=opts.schedule,
        costbook=opts.costbook,
    )
