"""Discrete-event simulation core."""

from .engine import Simulator
from .watchdog import (
    DEFAULT_MAX_EVENTS,
    queue_depth_summary,
    resolve_limits,
    run_guarded,
    set_default_limits,
    watchdog_limits,
)

__all__ = [
    "DEFAULT_MAX_EVENTS",
    "Simulator",
    "queue_depth_summary",
    "resolve_limits",
    "run_guarded",
    "set_default_limits",
    "watchdog_limits",
]
