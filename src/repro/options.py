"""The settings of one invocation, scoped to it: :class:`RunOptions`.

Experiment runners build their sweeps and systems several layers below
the CLI; threading worker count, cache, fidelity, observability and the
rest through every ``fig*`` signature would churn them all for
cross-cutting concerns.  Instead the CLI builds one frozen
:class:`RunOptions` per invocation and installs it with :func:`using`
for the whole command.  Each consumer reads :func:`current` in one
place: :func:`~repro.experiments.common.job_for` (fidelity and
scheduler, through :meth:`RunOptions.apply`),
:func:`~repro.exec.executor.default_executor` (the executor knobs),
:func:`~repro.experiments.common.run_jobs` (the prefilter ratio) and
:class:`~repro.system.builder.MultiGPUSystem` (the observability
bundle).  Explicit arguments always win over the scoped value.

The value lives in a :class:`contextvars.ContextVar`, so it ends with
its ``with`` block (exceptions included) and never leaks into the next
invocation in the same process.  Outside any scope :func:`current` is
``RunOptions()``: serial, uncached, per-experiment configs, no
observability.

Environment fallbacks make the settings scriptable without flags:
``REPRO_JOBS=8`` parallelizes every sweep (an executor reads it whenever
``jobs`` is ``None``), and ``REPRO_CACHE_DIR=~/.repro`` persists results
across CLI invocations (the CLI falls back to it when ``--cache`` is not
given, capped by ``REPRO_CACHE_MAX_MB``).
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from .config import NETWORK_MODELS, SystemConfig
from .errors import ConfigError

if TYPE_CHECKING:
    from .exec.cache import ResultCache
    from .exec.planner import CostBook
    from .obs.bind import Observability
    from .obs.telemetry import ProgressListener


@dataclass(frozen=True)
class RunOptions:
    """Everything one invocation sets for the sweeps and systems it builds."""

    #: Worker processes (``None``: ``REPRO_JOBS``, else serial).
    jobs: Optional[int] = None
    #: Result cache (``None`` disables caching).
    cache: Optional["ResultCache"] = None
    #: Finish sweeps past failed points (``--keep-going``).
    keep_going: bool = False
    #: Sweep progress listener (``--progress``; ``None`` is silent).
    progress: Optional["ProgressListener"] = None
    #: Per-job trace directory of a parallel ``--trace`` sweep (workers
    #: dump per-job traces there; the CLI merges them).
    trace_dir: Optional[str] = None
    #: Fidelity tier applied to every job (``--fidelity``); ``None``
    #: keeps each experiment's ``network_model``.
    fidelity: Optional[str] = None
    #: Vault-scheduler policy applied to every job (``--scheduler``);
    #: ``None`` keeps each experiment's policy.
    scheduler: Optional[str] = None
    #: Pool submission order for cache misses (``--schedule``).
    schedule: str = "lpt"
    #: Dominated-point prune ratio (``--prefilter``, exploration sweeps
    #: only — never figure reproductions; see docs/performance.md).
    prefilter: Optional[float] = None
    #: CostBook shared by every sweep of the invocation (``None``: each
    #: executor derives one from its cache).
    costbook: Optional["CostBook"] = None
    #: Observability bundle every system built without ``obs=`` binds.
    obs: Optional["Observability"] = None

    def __post_init__(self) -> None:
        if self.fidelity is not None and self.fidelity not in NETWORK_MODELS:
            raise ConfigError(
                f"unknown network model {self.fidelity!r}; "
                f"valid: {sorted(NETWORK_MODELS)}"
            )
        if self.scheduler is not None:
            from .hmc.sched import SCHEDULERS

            if self.scheduler not in SCHEDULERS:
                raise ConfigError(
                    f"unknown scheduler {self.scheduler!r}; "
                    f"valid: {sorted(SCHEDULERS)}"
                )
        if self.prefilter is not None and self.prefilter <= 1.0:
            raise ConfigError(f"prefilter ratio must be > 1, got {self.prefilter}")

    def apply(self, cfg: Optional[SystemConfig]) -> Optional[SystemConfig]:
        """``cfg`` with the fidelity and scheduler overrides applied.

        Both are part of the spec identity, so runs at different tiers or
        policies get distinct cache keys.  Without an override ``cfg`` is
        returned as given (``None`` included).  A non-default scheduler
        on the analytic tier raises :class:`~repro.errors.ConfigError`
        (the analytic model is FR-FCFS-calibrated only).
        """
        if self.fidelity is None and self.scheduler is None:
            return cfg
        if cfg is None:
            cfg = SystemConfig()
        if self.fidelity is not None and cfg.network_model != self.fidelity:
            cfg = cfg.scaled(network_model=self.fidelity)
        if self.scheduler is not None and cfg.hmc.scheduler != self.scheduler:
            cfg = cfg.scaled(
                hmc=dataclasses.replace(cfg.hmc, scheduler=self.scheduler)
            )
        return cfg


_DEFAULT = RunOptions()
_CURRENT: ContextVar[RunOptions] = ContextVar("repro_run_options", default=_DEFAULT)


def current() -> RunOptions:
    """The options scoped to the running invocation (defaults outside any)."""
    return _CURRENT.get()


@contextmanager
def using(options: RunOptions) -> Iterator[RunOptions]:
    """Install ``options`` for a ``with`` block; the previous value comes
    back on exit, exceptions included."""
    token = _CURRENT.set(options)
    try:
        yield options
    finally:
        _CURRENT.reset(token)


def reset() -> None:
    """Install the defaults for the rest of this context.  A forked pool
    worker inherits its parent's options and calls this once at start:
    the parent's observability bundle would otherwise record events that
    never flow back."""
    _CURRENT.set(_DEFAULT)
