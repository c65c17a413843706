"""Build-on-first-use containers for a system's many identical components.

A system is built per simulated point, and Table I's 4-GPU system has 256
SMs and 320 vaults of 16 DRAM banks each, of which a point typically uses
a few.  :class:`LazyComponents` holds components ``0 .. count-1`` keyed by
id and builds each one the first time it is looked up, so a point pays
only for the components it touches.

A component that was never built is exactly a component with zero stats,
so aggregates iterate the built ones (``values()``, or ``sorted(items())``
where id order matters) and ``get``/``in`` inspect an id without building
it.
"""

from __future__ import annotations

from typing import Any, Callable


class LazyComponents(dict):
    """Components ``0 .. count-1`` by id; ``self[i]`` builds one on first use."""

    __slots__ = ("count", "_build")

    def __init__(self, count: int, build: Callable[[int], Any]) -> None:
        super().__init__()
        #: How many components the modelled hardware has (built or not).
        self.count = count
        self._build = build

    def __missing__(self, component_id: int) -> Any:
        if not 0 <= component_id < self.count:
            raise KeyError(component_id)
        component = self[component_id] = self._build(component_id)
        return component
