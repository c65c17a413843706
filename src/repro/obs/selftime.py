"""Wall-clock profiling: exclusive host self time per ``repro.<package>``.

:class:`SelfTimeProfiler` runs the in-process command under ``cProfile``
and folds each function's ``tottime`` (self time, callees excluded) by
the ``repro.<package>`` that defines it.  Self time of code outside
``repro`` (a builtin such as ``heappush``, a stdlib helper) is charged to
the packages that called it, in proportion to the time each call edge
took.  The engine carries no profiling hook, and ``cProfile``/``pstats``
are imported on first use, so nothing is paid unless ``--profile`` is on.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: Bucket for self time that resolves to no ``repro`` caller.
OTHER = "other"

#: Directory of the ``repro`` package, with a trailing separator.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep

_Func = Tuple[str, int, str]  # pstats key: (filename, line, name)


def package_of(filename: str) -> Optional[str]:
    """``repro.<package>`` of a source file (a top-level module counts as
    its own package); None outside the program."""
    path = os.path.abspath(filename)
    if not path.startswith(_ROOT):
        return None
    head = path[len(_ROOT):].split(os.sep, 1)[0]
    return "repro." + (head[:-3] if head.endswith(".py") else head)


def fold_stats(stats: Dict[_Func, tuple]) -> Dict[str, float]:
    """Fold ``pstats.Stats.stats`` into self seconds per package.

    A function outside ``repro`` inherits the package mix of its callers,
    weighted by the self time each caller edge accounts for; callers
    outside ``repro`` resolve the same way, recursively.  Call cycles and
    uncalled roots fall into :data:`OTHER`.
    """
    mixes: Dict[_Func, Dict[str, float]] = {}

    def mix(func: _Func) -> Dict[str, float]:
        if func in mixes:
            return mixes[func]
        package = package_of(func[0])
        mixes[func] = {package or OTHER: 1.0}  # provisional: breaks cycles
        callers = stats[func][4] if package is None and func in stats else {}
        edge_total = sum(edge[2] for edge in callers.values())
        if edge_total > 0:
            out: Dict[str, float] = defaultdict(float)
            for caller, edge in callers.items():
                for name, frac in mix(caller).items():
                    out[name] += frac * edge[2] / edge_total
            mixes[func] = dict(out)
        return mixes[func]

    folded: Dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for name, frac in mix(func).items():
            folded[name] += tt * frac
    return dict(folded)


class SelfTimeProfiler:
    """``cProfile`` over :meth:`running` blocks, folded per package."""

    def __init__(self) -> None:
        import cProfile

        self._profile = cProfile.Profile()
        #: Wall seconds spent inside :meth:`running` blocks.
        self.wall_s = 0.0
        self._sims: List = []

    def watch(self, sim) -> None:
        """Count ``sim``'s executed events in :attr:`events`."""
        self._sims.append(sim)

    @property
    def events(self) -> int:
        return sum(sim.events_executed for sim in self._sims)

    @contextmanager
    def running(self) -> Iterator["SelfTimeProfiler"]:
        """Profile the enclosed block (blocks accumulate)."""
        start = time.perf_counter()
        self._profile.enable()
        try:
            yield self
        finally:
            self._profile.disable()
            self.wall_s += time.perf_counter() - start

    def self_seconds(self) -> Dict[str, float]:
        """Exclusive self seconds per package, largest first."""
        import pstats

        try:
            folded = fold_stats(pstats.Stats(self._profile).stats)
        except TypeError:  # nothing was profiled
            return {}
        return dict(sorted(folded.items(), key=lambda kv: -kv[1]))

    def report(self) -> Dict:
        """JSON-serializable summary; shares are of the profiled wall."""
        wall, events = self.wall_s, self.events
        folded = self.self_seconds()
        return {
            "events": events,
            "wall_s": round(wall, 6),
            "events_per_sec": round(events / wall, 1) if wall else 0.0,
            "folded_s": round(sum(folded.values()), 6),
            "by_package": {
                name: {
                    "self_s": round(secs, 6),
                    "share": round(secs / wall, 4) if wall else 0.0,
                }
                for name, secs in folded.items()
            },
        }

    def render(self) -> str:
        """Plain-text table for terminal output."""
        report = self.report()
        wall, folded = report["wall_s"], report["folded_s"]
        rows = [
            (stats["share"], stats["self_s"], name)
            for name, stats in report["by_package"].items()
        ]
        rows.append(
            (folded / wall if wall else 0.0, folded,
             "folded total (the rest is profiler overhead)")
        )
        header = [
            f"profile: {report['events']} events in {wall:.3f}s profiled "
            f"wall ({report['events_per_sec']:,.0f} events/s under cProfile)",
            "exclusive self time by package (builtin/stdlib time charged "
            "to its caller):",
        ]
        return "\n".join(
            header + [f"  {s:>6.1%}  {t:>8.3f}s  {name}" for s, t, name in rows]
        )
