"""The ``repro serve`` daemon: a long-lived sweep server.

One process owns the warm worker pool and the result cache; any number
of thin clients (``repro submit``/``status``/``cancel``) connect over a
Unix socket or loopback TCP port and speak the JSONL protocol of
:mod:`repro.serve.protocol`.  Layout:

- the **accept loop** (main thread) hands each connection to a short-
  lived handler thread; one connection = one request,
- handler threads translate ``submit`` requests into
  :class:`~repro.serve.queue.JobQueue` entries (dedup, priority, quota
  all live there) and then *stream* events from their per-request event
  queue back to the client,
- one **dispatcher** thread pops dispatchable entries and routes them:
  cache hits answer immediately **without touching the pool**, analytic
  points run inline (pooling them costs more than the model), everything
  else goes to the shared warm pool
  (:class:`repro.exec.executor._PoolManager`) via a future whose done
  callback lands the outcome, caches it (salvage), and fans events out.

Robustness inherits the executor's contracts: a broken pool is respawned
and the lost entry requeued up to ``pool_retries`` times; every success
is cached the moment it lands, so a cancelled or crashed request never
throws finished points away; in-flight keys are pinned so the size-cap
eviction of a capped cache cannot drop a result between its store and
its subscribers' reads.  Shutdown cancels queued entries, grants running
ones a short grace period (their results still land in the cache), then
kills the pool — no orphaned workers.
"""

from __future__ import annotations

import os
import queue as _queue
import signal
import socket
import sys
import threading
import time
from collections import deque
from concurrent.futures import BrokenExecutor
from typing import Any, Dict, List, Optional

from ..errors import ConfigError
from ..exec.cache import ResultCache, cache_max_mb_from_env, job_key
from ..exec.executor import _POOL, jobs_from_env, pool_spawns, shutdown_pool
from ..exec.jobs import JobFailure, JobOutcome, JobTelemetry, SweepJob, execute_job
from ..obs.telemetry import flight_summary
from ..sim import watchdog
from ..system.spec import SystemSpec
from .protocol import (
    PROTOCOL_SCHEMA,
    ProtocolError,
    ServeAddress,
    read_message,
    validate_request,
    write_message,
)
from .queue import Entry, JobQueue

#: Per-client concurrent-running-jobs quota when ``--quota`` is absent.
DEFAULT_QUOTA = 2

#: Cache size cap applied when serving without an explicit
#: ``--cache-max-mb`` and without ``REPRO_CACHE_MAX_MB``: unlike a CLI
#: run, whose lifetime bounds cache growth, a daemon accretes results
#: indefinitely, so the cap defaults *on* (docs/serving.md).
DEFAULT_CACHE_MAX_MB = 512.0

#: How long a clean shutdown waits for running jobs to land (salvage)
#: before the pool's workers are terminated outright.
DEFAULT_DRAIN_S = 5.0


class SweepServer:
    """The daemon: queue + dispatcher + connection handlers."""

    def __init__(
        self,
        address: ServeAddress,
        cache: Optional[ResultCache] = None,
        jobs: Optional[int] = None,
        quota: int = DEFAULT_QUOTA,
        pool_retries: int = 2,
        drain_s: float = DEFAULT_DRAIN_S,
    ) -> None:
        if jobs is None:
            jobs = jobs_from_env()
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {jobs}")
        self.address = address
        self.cache = cache if cache is not None else ResultCache()
        self.jobs = jobs
        self.queue = JobQueue(quota=quota)
        self.pool_retries = pool_retries
        self.drain_s = drain_s
        #: Flight-recorder records of everything this server executed,
        #: bounded so a week-long daemon cannot grow without limit.
        self.telemetry: deque = deque(maxlen=4096)
        self.started_at = time.monotonic()
        self._stop = threading.Event()
        self._stopped = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._serve_thread: Optional[threading.Thread] = None
        self._handlers: List[threading.Thread] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Bind, start the dispatcher, and accept until :meth:`stop`."""
        self._listener = self.address.listen()
        # Warm the worker pool *before* the first connection exists:
        # a pool forked mid-request would duplicate the open connection
        # fds into every worker, keeping client sockets half-alive for
        # the workers' lifetime.  (The JSONL protocol is EOF-independent
        # anyway — streams end with an ``end`` event — but leaking
        # connection fds into long-lived workers is still wrong.)
        try:
            _POOL.acquire(self.jobs, watchdog.get_default_limits())
        except Exception:
            pass  # a broken spawn here surfaces again at first dispatch
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._dispatcher.start()
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = self._listener.accept()
                except OSError:
                    break  # listener closed by stop()
                handler = threading.Thread(
                    target=self._handle_connection,
                    args=(conn,),
                    name="repro-serve-conn",
                    daemon=True,
                )
                with self._lock:
                    self._handlers = [
                        t for t in self._handlers if t.is_alive()
                    ]
                    self._handlers.append(handler)
                handler.start()
        finally:
            self.stop()

    def start(self) -> None:
        """Run :meth:`serve_forever` on a background thread (tests)."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-accept", daemon=True
        )
        self._serve_thread.start()
        # Wait for the listener to bind so a caller can connect at once.
        deadline = time.monotonic() + 5.0
        while self._listener is None and time.monotonic() < deadline:
            time.sleep(0.01)

    def stop(self) -> None:
        """Clean shutdown: drain queued, grace running, kill the pool.

        Idempotent; callable from any thread (including a signal
        handler's main-thread frame and a handler thread serving a
        ``shutdown`` request).
        """
        with self._lock:
            owner = not self._stop.is_set()
            self._stop.set()
        self._close_listener()
        if not owner:
            # Another thread owns the teardown.  Wait for it: a
            # ``shutdown`` request runs stop() on a *daemon* handler
            # thread, and the main thread — popped out of accept() by
            # the listener close — reaches its own stop() and would
            # otherwise exit the process mid-teardown, killing the
            # handler before the drain, the pool kill, and the socket
            # unlink ever ran.
            self._stopped.wait(self.drain_s + 30.0)
            return
        try:
            # Queued entries are cancelled (their waiters get terminal
            # events); running ones get a grace period so their results
            # still land in the cache — the salvage contract.
            self.queue.drain()
            deadline = time.monotonic() + self.drain_s
            while self.queue.running() and time.monotonic() < deadline:
                time.sleep(0.05)
            self.queue.close()
            for entry in self.queue.running():
                entry.notify(
                    {
                        "event": "cancelled",
                        "job_id": entry.job_id,
                        "label": entry.label,
                        "state": entry.state,
                        "reason": "server shutting down",
                    }
                )
            shutdown_pool(kill=True)
            self.address.cleanup()
        finally:
            self._stopped.set()

    def _close_listener(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            # shutdown() before close(): on Linux, closing a listening
            # socket does NOT wake a thread blocked in accept() — the
            # accept loop would sleep until the next (never-coming)
            # connection.  shutdown() forces accept() to return at once.
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            entry = self.queue.acquire_next(timeout=0.2)
            if entry is None:
                continue
            self._dispatch_one(entry)

    def _dispatch_one(self, entry: Entry) -> None:
        # Serve from cache first — a hit never touches the worker pool.
        # The submit handler already answered hits known at submit time;
        # this second look closes the race where an identical running
        # entry finished between that check and this dispatch.
        try:
            hit = self.cache.get(entry.job)
        except Exception:
            hit = None
        if hit is not None:
            outcome = JobOutcome(
                result=hit,
                telemetry=JobTelemetry(
                    label=entry.label,
                    source="cache",
                    events=hit.events_executed,
                    peak_pending=hit.peak_pending_events,
                    worker_pid=os.getpid(),
                ),
            )
            self._land(entry, outcome)
            return
        entry.notify(
            {
                "event": "started",
                "job_id": entry.job_id,
                "label": entry.label,
                "retries": entry.retries,
            }
        )
        # Analytic-tier points cost milliseconds; shipping them to a
        # pool worker would cost more than the model itself (the same
        # rule the batch executor applies).
        if entry.job.cfg.network_model == "analytic":
            self._land(entry, execute_job(entry.job))
            return
        try:
            pool = _POOL.acquire(self.jobs, watchdog.get_default_limits())
            future = pool.submit(execute_job, entry.job)
        except BrokenExecutor:
            self._pool_died(entry)
            return
        entry.future = future
        future.add_done_callback(lambda f, e=entry: self._on_future(e, f))

    def _on_future(self, entry: Entry, future: Any) -> None:
        """Done callback for pooled jobs (runs on an executor thread)."""
        if future.cancelled():
            # Pulled back by a cancel before any worker picked it up;
            # the cancel already detached and unpinned every subscriber.
            self.queue.finish(entry, None)
            self._unpin_entry(entry)
            return
        try:
            outcome = future.result()
        except BrokenExecutor:
            self._pool_died(entry)
            return
        except Exception as exc:  # pragma: no cover - defensive
            failure = JobFailure(
                label=entry.label,
                exc_type=type(exc).__name__,
                message=str(exc),
                traceback="",
            )
            self._land(entry, JobOutcome(failure=failure))
            return
        if outcome.telemetry is not None:
            outcome.telemetry.retries = entry.retries
        self._land(entry, outcome)

    def _pool_died(self, entry: Entry) -> None:
        """A worker died under this entry: respawn-and-retry, bounded."""
        _POOL.discard()
        if entry.retries < self.pool_retries and not self._stop.is_set():
            entry.notify(
                {
                    "event": "retried",
                    "job_id": entry.job_id,
                    "label": entry.label,
                    "attempt": entry.retries + 1,
                }
            )
            self.queue.requeue(entry)
            return
        failure = JobFailure(
            label=entry.label,
            exc_type="BrokenExecutor",
            message=(
                f"worker pool died {entry.retries + 1} time(s) "
                "running this job"
            ),
            traceback="",
        )
        self._land(entry, JobOutcome(failure=failure))

    def _unpin_entry(self, entry: Entry) -> None:
        """Release one cache pin per remaining subscription.

        Submissions pin once per (request, job); cancellation unpins the
        detached subscriptions as it removes them, so at landing time the
        remaining subscriptions account for exactly the outstanding pins.
        """
        for _ in entry.subscriptions:
            self.cache.unpin(entry.key)

    def _land(self, entry: Entry, outcome: JobOutcome) -> None:
        """Terminal bookkeeping for one computed/cached/failed entry."""
        t = outcome.telemetry
        if outcome.ok and (t is None or t.source != "cache"):
            # Salvage: the result is cached even if every subscriber
            # cancelled while it ran.
            try:
                self.cache.put(entry.job, outcome.result)
            except Exception:
                pass  # a full disk must not take the server down
        if t is not None:
            self.telemetry.append(t)
        if outcome.ok:
            event = {
                "event": "completed",
                "job_id": entry.job_id,
                "label": entry.label,
                "source": t.source if t else "run",
                "wall_s": round(t.wall_s, 4) if t else None,
                "events": t.events if t else None,
                "retries": entry.retries,
                "row": outcome.result.as_row(),
            }
        else:
            event = {
                "event": "failed",
                "job_id": entry.job_id,
                "label": entry.label,
                "exc_type": outcome.failure.exc_type,
                "message": outcome.failure.message,
                "wall_s": outcome.failure.wall_s,
            }
        # The terminal event fans out inside finish(), under the queue
        # lock — atomically with retirement from the dedup map, so a
        # racing duplicate submission can never attach after its event.
        self.queue.finish(entry, outcome, event)
        self._unpin_entry(entry)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _handle_connection(self, conn: socket.socket) -> None:
        stream = conn.makefile("rw", encoding="utf-8", newline="\n")
        try:
            try:
                request = read_message(stream)
                if request is None:
                    return
                op = validate_request(request)
            except ProtocolError as exc:
                write_message(stream, {"event": "error", "message": str(exc)})
                return
            handler = getattr(self, f"_op_{op}")
            handler(stream, request)
        except (BrokenPipeError, ConnectionResetError, OSError, ValueError):
            pass  # client went away mid-stream; its subscriptions are
            # cleaned up lazily (events to a dead queue are harmless)
        finally:
            try:
                stream.close()
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass

    # -- submit ---------------------------------------------------------
    def _op_submit(self, stream, request: Dict[str, Any]) -> None:
        client = str(request.get("client") or "anon")
        try:
            priority = int(request.get("priority", 0))
        except (TypeError, ValueError):
            priority = 0
        wait = bool(request.get("wait", True))
        tags = request.get("tags") or []
        jobs: List[SweepJob] = []
        for i, spec_dict in enumerate(request["specs"]):
            try:
                system = SystemSpec.from_dict(spec_dict)
            except Exception as exc:
                write_message(
                    stream,
                    {
                        "event": "error",
                        "message": f"spec {i}: {type(exc).__name__}: {exc}",
                    },
                )
                return
            tag = tags[i] if i < len(tags) and tags[i] else None
            jobs.append(SweepJob(system=system, tag=tag))

        request_id = self.queue.new_request_id()
        events: Optional[_queue.Queue] = _queue.Queue() if wait else None
        accepted: List[Dict[str, Any]] = []
        outstanding = 0
        immediate: List[Dict[str, Any]] = []
        for job in jobs:
            key = job_key(job)
            hit = None
            try:
                hit = self.cache.get(job)
            except Exception:
                hit = None
            if hit is not None:
                accepted.append(
                    {"label": job.label, "key": key, "state": "cached"}
                )
                immediate.append(
                    {
                        "event": "completed",
                        "request_id": request_id,
                        "job_id": None,
                        "label": job.label,
                        "source": "cache",
                        "wall_s": 0.0,
                        "events": hit.events_executed,
                        "retries": 0,
                        "row": hit.as_row(),
                    }
                )
                self.telemetry.append(
                    JobTelemetry(
                        label=job.label,
                        source="cache",
                        events=hit.events_executed,
                        peak_pending=hit.peak_pending_events,
                        worker_pid=os.getpid(),
                    )
                )
                continue
            try:
                entry, dedup = self.queue.submit(
                    job,
                    key,
                    client=client,
                    priority=priority,
                    request_id=request_id,
                    events=events,
                )
            except RuntimeError:
                write_message(
                    stream,
                    {"event": "error", "message": "server is shutting down"},
                )
                return
            # Pin per subscription: the key stays eviction-exempt until
            # every interested request has been answered (or cancelled).
            self.cache.pin(key)
            outstanding += 1
            accepted.append(
                {
                    "label": job.label,
                    "key": key,
                    "job_id": entry.job_id,
                    "state": "dedup" if dedup else "queued",
                }
            )
        write_message(
            stream,
            {
                "event": "accepted",
                "schema": PROTOCOL_SCHEMA,
                "request_id": request_id,
                "client": client,
                "jobs": accepted,
                "pending": outstanding,
            },
        )
        for event in immediate:
            write_message(stream, event)
        if not wait:
            # Streams always terminate with an ``end`` event — a client
            # must never have to wait for EOF (see ServeClient.request).
            write_message(
                stream,
                {
                    "event": "end",
                    "request_id": request_id,
                    "total": len(jobs),
                    "cached": len(immediate),
                    "completed": 0,
                    "failed": 0,
                    "cancelled": 0,
                    "pending": outstanding,
                },
            )
            return
        completed = failed = cancelled = 0
        pending = outstanding
        while pending > 0:
            try:
                event = events.get(timeout=1.0)
            except _queue.Empty:
                if self._stop.is_set():
                    break
                continue
            write_message(stream, event)
            kind = event.get("event")
            if kind == "completed":
                completed += 1
                pending -= 1
            elif kind == "failed":
                failed += 1
                pending -= 1
            elif kind == "cancelled":
                cancelled += 1
                pending -= 1
        write_message(
            stream,
            {
                "event": "end",
                "request_id": request_id,
                "total": len(jobs),
                "cached": len(immediate),
                "completed": completed,
                "failed": failed,
                "cancelled": cancelled,
            },
        )

    # -- status / cancel / ping / shutdown ------------------------------
    def _op_status(self, stream, request: Dict[str, Any]) -> None:
        summary = flight_summary(
            list(self.telemetry),
            cache_stats=self.cache.stats,
            pool_spawns=pool_spawns(),
        )
        write_message(
            stream,
            {
                "event": "status",
                "schema": PROTOCOL_SCHEMA,
                "pid": os.getpid(),
                "address": self.address.describe(),
                "uptime_s": round(time.monotonic() - self.started_at, 1),
                "jobs": self.jobs,
                "queue": self.queue.status(),
                "counts": self.queue.counts(),
                "flight": summary,
                "pinned": len(self.cache.pinned()),
            },
        )

    def _op_cancel(self, stream, request: Dict[str, Any]) -> None:
        request_id = str(request["request_id"])
        dropped, orphaned, shared = self.queue.cancel_request(request_id)
        pulled_back = 0
        # One pin per detached subscription comes back, whatever became
        # of the entry (dropped, left running, or still wanted by others).
        for entry in dropped + orphaned + shared:
            self.cache.unpin(entry.key)
        for entry in orphaned:
            # A running entry nobody wants any more: try to pull it back
            # from the pool; if a worker already has it, let it finish —
            # the result lands in the cache (salvage) on completion.
            future = entry.future
            if future is not None and future.cancel():
                pulled_back += 1
        write_message(
            stream,
            {
                "event": "cancelled",
                "request_id": request_id,
                "dropped": len(dropped),
                "pulled_back": pulled_back,
                "salvaging": len(orphaned) - pulled_back,
            },
        )

    def _op_ping(self, stream, request: Dict[str, Any]) -> None:
        write_message(
            stream,
            {
                "event": "pong",
                "schema": PROTOCOL_SCHEMA,
                "pid": os.getpid(),
                "uptime_s": round(time.monotonic() - self.started_at, 1),
            },
        )

    def _op_shutdown(self, stream, request: Dict[str, Any]) -> None:
        write_message(
            stream, {"event": "stopping", "pid": os.getpid()}
        )
        # stop() closes the listener, which pops serve_forever's accept
        # loop out of accept(); run it here so the requesting client sees
        # the socket close only after shutdown finished.
        self.stop()


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------
def serve_command(args: Any) -> int:
    """Implements ``repro serve`` (dispatched from :mod:`repro.cli`)."""
    try:
        address = ServeAddress.from_args(args)
    except (ProtocolError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    max_mb = getattr(args, "cache_max_mb", None)
    if max_mb is None:
        max_mb = cache_max_mb_from_env()
    if max_mb is None:
        max_mb = DEFAULT_CACHE_MAX_MB
    elif max_mb <= 0:
        max_mb = None  # --cache-max-mb 0 disables the cap explicitly
    cache_dir = getattr(args, "cache", None)
    cache = ResultCache(cache_dir or None, max_mb=max_mb)
    quota = getattr(args, "quota", None)  # validated >= 1 by the CLI
    # --max-events/--wall-limit become the pool's watchdog limits, wired
    # into every worker at spawn (same path the batch CLI uses).
    watchdog.set_default_limits(
        getattr(args, "max_events", None), getattr(args, "wall_limit", None)
    )

    try:
        server = SweepServer(
            address,
            cache=cache,
            jobs=getattr(args, "jobs", None),
            quota=DEFAULT_QUOTA if quota is None else quota,
            drain_s=(
                args.drain_s
                if getattr(args, "drain_s", None) is not None
                else DEFAULT_DRAIN_S
            ),
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # SIGTERM (the polite `kill`) takes the same clean path as Ctrl-C.
    def _terminate(signum, frame):  # pragma: no cover - signal timing
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    cap = f"{max_mb:g} MB cap" if max_mb else "no size cap"
    store = cache_dir or "memory-only"
    print(
        f"repro serve: listening on {address.describe()} "
        f"(pid {os.getpid()}, {server.jobs} worker(s), "
        f"quota {server.queue.quota}/client, cache {store}, {cap})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nrepro serve: shutting down", file=sys.stderr)
    finally:
        server.stop()
        signal.signal(signal.SIGTERM, previous)
    return 0


__all__ = [
    "DEFAULT_CACHE_MAX_MB",
    "DEFAULT_DRAIN_S",
    "DEFAULT_QUOTA",
    "SweepServer",
    "serve_command",
]
