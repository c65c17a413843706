"""Spans and per-package profile folding for the traced benchmark run.

:func:`install` wraps public calls of the program from the outside
(attribute patches on the already-imported modules; nothing under
``src/`` changes).  Each wrapper records a span -- name, start, end,
parent, and the id of the sweep point it belongs to -- kept in memory.
Pool workers forked after :func:`install` inherit the wrappers; a worker
writes its spans out when each point ends, the installing process when
:meth:`Recorder.flush` is called.

Network, HMC, GPU and fabric code run only interleaved inside
``Simulator.run``, so spans cannot separate them.  Around that call the
recorder enables a ``cProfile`` profiler and folds per-function self
time by ``repro.<package>``.  Self time of a function outside ``repro``
(a builtin such as ``heappush``, a stdlib helper) is charged to the
packages of its callers, in proportion to the time each call edge took.
"""

from __future__ import annotations

import cProfile
import functools
import itertools
import json
import os
import pstats
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

#: Span names, one per wrapped public call.
POINT = "exec.job"  # execute_job: one sweep point, the root of its spans
SWEEP = "exec.sweep"  # SweepExecutor.map_outcomes in the sweeping process
LOOP = "sim.loop"  # Simulator.run; its interval is split by the profile


class Recorder:
    """In-memory span store for one process (inherited by forked workers)."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.spans: List[Dict[str, Any]] = []
        self.points: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._owner = os.getpid()

    def forked(self) -> None:
        """In a forked child: drop what the parent recorded, and the
        parent's open spans, so the child records only its own work."""
        self.spans = []
        self.points = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span stack -----------------------------------------------------
    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Dict[str, Any]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "id": f"{os.getpid()}.{next(self._ids)}",
            "name": name,
            "parent": parent["id"] if parent else None,
            "point": parent["point"] if parent else None,
            "start": time.perf_counter(),
        }
        if name == POINT:
            span["point"] = span["id"]
        stack.append(span)
        return span

    def close(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    # -- output ---------------------------------------------------------
    def flush(self) -> None:
        """Append this process's spans and point records to its file."""
        with self._lock:
            spans, self.spans = self.spans, []
            points, self.points = self.points, []
        if not spans and not points:
            return
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            for span in spans:
                handle.write(json.dumps({"span": span}) + "\n")
            for point in points:
                handle.write(json.dumps({"point": point}) + "\n")


_RECORDER: Optional[Recorder] = None


def _spanned(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = _RECORDER
        span = rec.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(span)

    return wrapper


def _point(fn: Callable) -> Callable:
    """execute_job: the point's root span, its profiler, and its counts."""

    @functools.wraps(fn)
    def wrapper(job):
        rec = _RECORDER
        span = rec.open(POINT)
        rec._local.profile = cProfile.Profile()
        try:
            outcome = fn(job)
        finally:
            rec.close(span)
            profile, rec._local.profile = rec._local.profile, None
        point = {"point": span["id"], "fold": fold(profile)}
        if outcome.ok and job.cfg.network_model != "analytic":
            point.update(point_counts(outcome.result))
        with rec._lock:
            rec.points.append(point)
        if os.getpid() != rec._owner:
            rec.flush()  # a pool worker has no end of its own to flush at
        return outcome

    return wrapper


def _loop(fn: Callable) -> Callable:
    """Simulator.run: a span, with the point's profiler enabled inside."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        rec = _RECORDER
        span = rec.open(LOOP)
        profile = getattr(rec._local, "profile", None)
        if profile is not None:
            profile.enable()
        try:
            return fn(self, *args, **kwargs)
        finally:
            if profile is not None:
                profile.disable()
            rec.close(span)

    return wrapper


def _cache_get(fn: Callable) -> Callable:
    """ResultCache.get: a span plus a hit/miss mark on it."""

    @functools.wraps(fn)
    def wrapper(self, job):
        rec = _RECORDER
        span = rec.open("exec.cache_get")
        hit = None
        try:
            hit = fn(self, job)
            return hit
        finally:
            span["hit"] = hit is not None
            rec.close(span)

    return wrapper


def install(out_dir: str) -> Recorder:
    """Wrap the program's public calls; returns the process's recorder."""
    global _RECORDER
    import repro.analytic
    import repro.exec.executor
    import repro.exec.jobs
    import repro.serve.server
    import repro.system.run
    from repro.exec.cache import ResultCache
    from repro.exec.executor import SweepExecutor
    from repro.sim.engine import Simulator
    from repro.system.builder import MultiGPUSystem
    from repro.system.spec import WorkloadRef

    if _RECORDER is not None:
        raise RuntimeError("tracing is already installed")
    os.makedirs(out_dir, exist_ok=True)
    _RECORDER = Recorder(out_dir)
    os.register_at_fork(after_in_child=_RECORDER.forked)
    point = _point(repro.exec.jobs.execute_job)
    # The executor and the server bound their own names at import; the
    # jobs module's name is what pickling resolves for pool submission.
    for module in (repro.exec.jobs, repro.exec.executor, repro.serve.server):
        module.execute_job = point
    repro.exec.executor.predict_costs = _spanned(
        "exec.plan", repro.exec.executor.predict_costs
    )
    repro.system.run.run_workload_detailed = _spanned(
        "system.run", repro.system.run.run_workload_detailed
    )
    repro.analytic.analytic_run = _spanned(
        "analytic.run", repro.analytic.analytic_run
    )
    SweepExecutor.map_outcomes = _spanned(SWEEP, SweepExecutor.map_outcomes)
    ResultCache.get = _cache_get(ResultCache.get)
    ResultCache.put = _spanned("exec.cache_put", ResultCache.put)
    WorkloadRef.build = _spanned("workloads.build", WorkloadRef.build)
    MultiGPUSystem.__init__ = _spanned("system.build", MultiGPUSystem.__init__)
    MultiGPUSystem.install_page_table = _spanned(
        "system.page_table", MultiGPUSystem.install_page_table
    )
    Simulator.run = _loop(Simulator.run)
    return _RECORDER


# ---------------------------------------------------------------------------
# Folding
# ---------------------------------------------------------------------------
def package_of(filename: str) -> Optional[str]:
    """``repro.<package>`` of a source file (top-level modules count as
    their own package); None outside the program."""
    parts = filename.replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro":
            rest = parts[i + 1 :]
            if len(rest) == 1:
                return rest[0][:-3] if rest[0].endswith(".py") else rest[0]
            return rest[0]
    return None


def fold(profile: Optional[cProfile.Profile]) -> Dict[str, float]:
    """Per-package self seconds of everything the profiler saw."""
    out: Dict[str, float] = defaultdict(float)
    if profile is None:
        return dict(out)
    try:
        stats = pstats.Stats(profile).stats
    except TypeError:  # the profiler never ran (no Simulator.run call)
        return dict(out)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        package = package_of(func[0])
        if package is not None:
            out[package] += tt
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        if edge_total <= 0:
            out["other"] += tt
            continue
        for caller, edge in callers.items():
            out[package_of(caller[0]) or "other"] += tt * edge[2] / edge_total
    return dict(out)


def point_counts(result: Any) -> Dict[str, Any]:
    """Simulated counts of one packet-engine point, for the per-layer
    count metrics (analytic points simulate nothing and are left out)."""
    served = sum(result.class_served.values())
    return {
        "events": result.events_executed,
        "peak_pending": result.peak_pending_events,
        "memory_requests": result.memory_requests,
        "packets": result.net_delivered,
        "hops": result.avg_hops * result.net_delivered,
        "l2_hits": result.l2_hit_rate * result.memory_requests,
        "row_hits": result.hmc_row_hit_rate * served,
        "served": served,
        "queue_wait_ps": sum(result.class_queue_wait_ps.values()),
    }


def load(out_dir: str) -> Dict[str, List[Dict[str, Any]]]:
    """Every span and point record written under ``out_dir``."""
    spans: List[Dict[str, Any]] = []
    points: List[Dict[str, Any]] = []
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith("spans-"):
            continue
        with open(os.path.join(out_dir, name)) as handle:
            for line in handle:
                record = json.loads(line)
                if "span" in record:
                    spans.append(record["span"])
                else:
                    points.append(record["point"])
    return {"spans": spans, "points": points}


#: Largest share by which a process group's summed layer self times may
#: miss the wall measured for it independently of the spans.
RECONCILE_TOLERANCE = 0.05

#: Span name -> the per-layer metric its *self* time feeds.
SPAN_LAYER = {
    "system.build": "system.build_s",
    "system.page_table": "system.page_table_s",
    "system.run": "system.collect_s",
    "workloads.build": "workloads.build_s",
    "exec.plan": "exec.plan_s",
    "exec.cache_get": "exec.cache_get_s",
    "exec.cache_put": "exec.cache_put_s",
    SWEEP: "exec.self_s",
    POINT: "exec.self_s",
}

#: Packages folded out of ``Simulator.run`` -> per-layer metric.
FOLD_LAYER = {
    "sim": "sim.self_s",
    "network": "network.self_s",
    "hmc": "hmc.self_s",
    "gpu": "gpu.self_s",
    "core": "core.self_s",
    "cpu": "cpu.self_s",
    "pcie": "pcie.self_s",
    "system": "system.self_s",
}


def pid_of(span_id: str) -> int:
    """The process that recorded a span (ids are ``<pid>.<n>``)."""
    return int(span_id.split(".", 1)[0])


def _self_times(trace: Dict[str, List[Dict[str, Any]]]) -> List[tuple]:
    """(span, layer metric, self seconds) for every piece of layer time:
    each span's duration minus its children's, except that a
    ``Simulator.run`` span is replaced by its point's profile fold."""
    spans = trace["spans"]
    child_time: Dict[str, float] = defaultdict(float)
    by_id = {}
    for span in spans:
        by_id[span["id"]] = span
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    pieces = []
    for span in spans:
        if span["name"] == LOOP:
            continue  # split by the profile fold below
        own = span["end"] - span["start"] - child_time[span["id"]]
        pieces.append((span, SPAN_LAYER.get(span["name"], "other.self_s"), own))
    for point in trace["points"]:
        span = by_id[point["point"]]
        for package, seconds in point["fold"].items():
            pieces.append((span, FOLD_LAYER.get(package, "other.self_s"), seconds))
    return pieces


def layer_times(trace: Dict[str, List[Dict[str, Any]]]) -> Dict[str, float]:
    """Fold spans and profiles into per-layer self seconds, plus
    ``sim.loop_s`` (inclusive ``Simulator.run``) and ``fold_s`` (the part
    of it the profile folds account for)."""
    out: Dict[str, float] = defaultdict(float)
    for _span, metric, seconds in _self_times(trace):
        out[metric] += seconds
    out["sim.loop_s"] = sum(
        s["end"] - s["start"] for s in trace["spans"] if s["name"] == LOOP
    )
    out["fold_s"] = sum(sum(p["fold"].values()) for p in trace["points"])
    return dict(out)


def self_seconds(
    trace: Dict[str, List[Dict[str, Any]]], keep: Callable[[Dict[str, Any]], bool]
) -> float:
    """Summed layer self time of the spans ``keep`` selects (a point's
    profile fold goes with its ``exec.job`` span)."""
    return sum(seconds for span, _metric, seconds in _self_times(trace) if keep(span))


def count_metrics(points: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Sum simulated per-point counts into the per-layer count metrics."""
    total: Dict[str, float] = defaultdict(float)
    peak = 0
    for point in points:
        if "events" not in point:
            continue  # a failed or analytic point
        for key in (
            "events", "memory_requests", "packets", "hops", "l2_hits",
            "row_hits", "served", "queue_wait_ps",
        ):
            total[key] += point[key]
        peak = max(peak, point["peak_pending"])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "sim.events": total["events"],
        "sim.events_per_request": ratio(total["events"], total["memory_requests"]),
        "sim.peak_pending": peak,
        "network.packets": total["packets"],
        "network.avg_hops": ratio(total["hops"], total["packets"]),
        "hmc.row_hit_rate": ratio(total["row_hits"], total["served"]),
        "hmc.queue_wait_us": ratio(total["queue_wait_ps"], total["served"]) / 1e6,
        "gpu.memory_requests": total["memory_requests"],
        "gpu.l2_hit_rate": ratio(total["l2_hits"], total["memory_requests"]),
    }


def cache_hit_ratio(spans: Iterable[Dict[str, Any]]) -> float:
    gets = [s for s in spans if s["name"] == "exec.cache_get"]
    if not gets:
        return 0.0
    return sum(1 for s in gets if s.get("hit")) / len(gets)


def put_layers(
    out, trace: Dict[str, list], layers: Dict[str, float], walls: List[tuple]
) -> None:
    """Put the span- and profile-derived per-layer metrics on ``out``
    (a :class:`pb_common.Outcome`).

    ``walls`` holds ``(label, keep, wall_s)`` per process group: the spans
    ``keep`` selects, and a wall measured for that group without the
    spans (a timer around the traced phase, or the program's own
    ``JobTelemetry.wall_s``).  ``trace.reconcile_err`` is the worst
    group's |summed layer self time - wall| / wall; time outside every
    span, and the profiler's own cost inside ``Simulator.run``, show in it.
    """
    points = len(trace["points"])
    for metric in (
        "sim.loop_s", "sim.self_s", "network.self_s", "hmc.self_s",
        "gpu.self_s", "core.self_s", "cpu.self_s", "pcie.self_s",
        "other.self_s", "exec.self_s", "system.build_s", "system.page_table_s",
        "system.collect_s", "system.self_s", "workloads.build_s",
        "exec.plan_s", "exec.cache_get_s", "exec.cache_put_s",
    ):
        out.put(metric, layers.get(metric, 0.0), points)
    for metric, value in count_metrics(trace["points"]).items():
        out.put(metric, value, points)
    out.put("exec.cache_hit_ratio", cache_hit_ratio(trace["spans"]), points)
    worst = 0.0
    for label, keep, wall in walls:
        summed = self_seconds(trace, keep)
        err = abs(summed - wall) / wall
        worst = max(worst, err)
        verdict = "reconciles" if err <= RECONCILE_TOLERANCE else "WARNING: does not reconcile"
        out.notes.append(
            f"trace: {label}: layer self times {summed:.3f}s vs measured wall "
            f"{wall:.3f}s ({err:.2%} apart; {verdict} within "
            f"{RECONCILE_TOLERANCE:.0%})"
        )
    out.put("trace.reconcile_err", worst, points)
    if layers["sim.loop_s"]:
        out.notes.append(
            f"trace: profile folds cover {layers['fold_s'] / layers['sim.loop_s']:.1%}"
            f" of Simulator.run's {layers['sim.loop_s']:.3f}s (the rest is the"
            " profiler's own cost)"
        )
