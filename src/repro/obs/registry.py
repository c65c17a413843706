"""Hierarchical metric registry: Counter / Gauge / Histogram primitives.

Components register metrics under dotted hierarchical names
(``gpu0.l1.hits``, ``hmc.c3.0.vault2.queue_depth``); the registry then
answers queries over the whole tree (:meth:`MetricRegistry.collect` for
the nested dict, :meth:`MetricRegistry.as_flat` for a flat mapping).
Gauges may wrap a callable so the registry *unifies* the existing
per-component ``stats`` dataclasses without duplicating their
bookkeeping: the value is read live from the component when queried.

Names are namespaced like files in directories: every dotted segment is
non-empty (``a..b``, ``c.`` and ``.d`` are rejected), and a name may not
collide with an existing metric nor with an interior node of another
metric's path (``a.b`` and ``a.b.c`` cannot both exist).
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, Iterator, List, Optional, Union

from ..errors import MetricError

Number = Union[int, float]


class Counter:
    """A monotonically increasing count (events, bytes, hits)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0

    def inc(self, amount: Number = 1) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease ({amount})")
        self._value += amount

    @property
    def value(self) -> Number:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self._value})"


class Gauge:
    """An instantaneous value; either set explicitly or read from ``fn``."""

    __slots__ = ("name", "help", "fn", "_value")

    def __init__(
        self, name: str, fn: Optional[Callable[[], Number]] = None, help: str = ""
    ) -> None:
        self.name = name
        self.help = help
        self.fn = fn
        self._value: Number = 0

    def set(self, value: Number) -> None:
        if self.fn is not None:
            raise MetricError(f"gauge {self.name} is callback-driven; cannot set()")
        self._value = value

    @property
    def value(self) -> Number:
        return self.fn() if self.fn is not None else self._value

    def __repr__(self) -> str:  # pragma: no cover
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A distribution of observed values with exact percentiles.

    Observations are kept sorted, so :meth:`percentile` is O(log n) per
    insert and O(1) per query — fine for the per-run volumes the simulator
    produces (queue waits, packet latencies, service times).
    """

    __slots__ = ("name", "help", "_sorted", "_sum")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._sorted: List[Number] = []
        self._sum: float = 0.0

    def observe(self, value: Number) -> None:
        bisect.insort(self._sorted, value)
        self._sum += value

    @property
    def count(self) -> int:
        return len(self._sorted)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / len(self._sorted) if self._sorted else 0.0

    def percentile(self, p: float) -> Number:
        """Nearest-rank percentile; ``p`` in [0, 100]."""
        if not 0 <= p <= 100:
            raise MetricError(f"percentile {p} outside [0, 100]")
        if not self._sorted:
            raise MetricError(f"histogram {self.name} has no observations")
        rank = max(1, -(-len(self._sorted) * p // 100))  # ceil
        return self._sorted[int(rank) - 1]

    @property
    def value(self) -> Dict[str, Number]:
        """Summary used when the registry tree is collected."""
        if not self._sorted:
            return {"count": 0, "sum": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "sum": self._sum,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "max": self._sorted[-1],
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"Histogram({self.name}, n={self.count})"


Metric = Union[Counter, Gauge, Histogram]


class MetricRegistry:
    """The system-wide tree of named metrics."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._nodes: set = set()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, metric: Metric) -> Metric:
        name = metric.name
        parts = name.split(".")
        if "" in parts:
            raise MetricError(f"metric name {name!r} has an empty segment")
        if name in self._metrics:
            raise MetricError(f"metric {name!r} already registered")
        if name in self._nodes:
            raise MetricError(
                f"metric {name!r} collides with an interior node of another metric"
            )
        for i in range(1, len(parts)):
            prefix = ".".join(parts[:i])
            if prefix in self._metrics:
                raise MetricError(
                    f"metric {name!r} collides with existing metric {prefix!r}"
                )
        for i in range(1, len(parts)):
            self._nodes.add(".".join(parts[:i]))
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self.register(Counter(name, help))  # type: ignore[return-value]

    def gauge(
        self, name: str, fn: Optional[Callable[[], Number]] = None, help: str = ""
    ) -> Gauge:
        return self.register(Gauge(name, fn=fn, help=help))  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self.register(Histogram(name, help))  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise MetricError(f"no metric named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self, prefix: str = "") -> List[str]:
        """All registered names, optionally restricted to a subtree."""
        if not prefix:
            return sorted(self._metrics)
        dotted = prefix + "."
        return sorted(
            n for n in self._metrics if n == prefix or n.startswith(dotted)
        )

    def find(self, prefix: str = "") -> Iterator[Metric]:
        for name in self.names(prefix):
            yield self._metrics[name]

    def as_flat(self, prefix: str = "") -> Dict[str, object]:
        """``{dotted name: current value}`` for a subtree (default: all)."""
        return {n: self._metrics[n].value for n in self.names(prefix)}

    def collect(self, prefix: str = "") -> Dict[str, object]:
        """The metric tree as a nested, JSON-serializable dict."""
        tree: Dict[str, object] = {}
        for name in self.names(prefix):
            node = tree
            parts = name.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})  # type: ignore[assignment]
            node[parts[-1]] = self._metrics[name].value
        return tree
