"""Wiring between the observability primitives and a built system.

:func:`register_system_metrics` walks a ``MultiGPUSystem`` (duck-typed, so
this module never imports the system layer) and registers gauges over the
components' existing ``stats`` objects — the one queryable tree promised
by the registry.  Values are read lazily, so the tree adds nothing to a
run, but registering its ~1.2k gauges costs ~9 ms per system; the system
therefore calls it on the first read of ``system.metrics``, not at
construction.  :func:`install_default_probes` arms a
:class:`~repro.obs.sampler.Sampler` with the standard congestion series
(channel utilization, in-flight packets, vault queue depth, SM occupancy).

:class:`Observability` bundles the per-run configuration (trace on/off,
sampling cadence, profiling on/off) and is what flows from the CLI into
``run_workload`` / ``MultiGPUSystem``.  A sweep reuses one bundle across
many system instances: traces land in one file with one trace "process"
per run, each run gets its own sampler, and the profiler covers every
:meth:`Observability.profiled` block.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import ContextManager, List, Optional

from ..errors import MetricError
from .registry import MetricRegistry
from .sampler import Sampler
from .selftime import SelfTimeProfiler
from .tracer import ChromeTracer

#: Default sampling cadence: 0.25 simulated microseconds (the CLI default;
#: short enough that even sub-microsecond microbenchmark runs get samples).
DEFAULT_SAMPLE_INTERVAL_PS = 250_000


def register_system_metrics(registry: MetricRegistry, system) -> None:
    """Expose every component's ad-hoc stats through one registry tree."""
    for gpu in system.gpus:
        g = gpu.name
        stats = gpu.stats
        registry.gauge(f"{g}.kernel_launches", fn=lambda s=stats: s.kernel_launches)
        registry.gauge(f"{g}.memory_requests", fn=lambda s=stats: s.memory_requests)
        registry.gauge(f"{g}.reads", fn=lambda s=stats: s.reads)
        registry.gauge(f"{g}.writes", fn=lambda s=stats: s.writes)
        registry.gauge(f"{g}.atomics", fn=lambda s=stats: s.atomics)
        registry.gauge(f"{g}.merged_misses", fn=lambda s=stats: s.merged_misses)
        registry.gauge(
            f"{g}.l1.hits",
            fn=lambda gg=gpu: sum(sm.l1.stats.hits for sm in gg.sms.values()),
        )
        registry.gauge(
            f"{g}.l1.accesses",
            fn=lambda gg=gpu: sum(sm.l1.stats.accesses for sm in gg.sms.values()),
        )
        registry.gauge(f"{g}.l2.hits", fn=lambda gg=gpu: gg.l2.stats.hits)
        registry.gauge(f"{g}.l2.accesses", fn=lambda gg=gpu: gg.l2.stats.accesses)
        registry.gauge(
            f"{g}.resident_ctas",
            fn=lambda gg=gpu: sum(sm.resident_ctas for sm in gg.sms.values()),
        )

    for (cluster, local), hmc in system.hmcs.items():
        h = f"hmc.c{cluster}.{local}"
        registry.gauge(f"{h}.served", fn=lambda hh=hmc: hh.total_served)
        registry.gauge(f"{h}.bytes_read", fn=lambda hh=hmc: hh.stats.bytes_read)
        registry.gauge(f"{h}.bytes_written", fn=lambda hh=hmc: hh.stats.bytes_written)
        registry.gauge(f"{h}.row_hit_rate", fn=lambda hh=hmc: hh.row_hit_rate)
        # One gauge set per configured vault id; an unbuilt vault reads 0,
        # and reading its gauges does not build it.
        vaults = hmc.vaults
        for v in range(vaults.count):
            registry.gauge(
                f"{h}.vault{v}.queue_depth",
                fn=lambda vs=vaults, i=v: vs[i].occupancy if i in vs else 0,
            )
            registry.gauge(
                f"{h}.vault{v}.overflow_peak",
                fn=lambda vs=vaults, i=v: vs[i].stats.overflow_peak if i in vs else 0,
            )
            registry.gauge(
                f"{h}.vault{v}.queue_wait_ps",
                fn=lambda vs=vaults, i=v: (
                    vs[i].stats.total_queue_wait_ps if i in vs else 0
                ),
            )
        # Per requester class (QoS policies): how much service and queue
        # wait each traffic source class accumulated at this cube.
        for cls in ("cpu", "gpu", "other"):
            registry.gauge(
                f"{h}.class.{cls}.served",
                fn=lambda hh=hmc, c=cls: sum(
                    v.stats.class_served.get(c, 0) for v in hh.vaults.values()
                ),
            )
            registry.gauge(
                f"{h}.class.{cls}.queue_wait_ps",
                fn=lambda hh=hmc, c=cls: sum(
                    v.stats.class_queue_wait_ps.get(c, 0)
                    for v in hh.vaults.values()
                ),
            )

    if system.network is not None:
        stats = system.network.stats
        registry.gauge("net.injected", fn=lambda s=stats: s.injected)
        registry.gauge("net.delivered", fn=lambda s=stats: s.delivered)
        registry.gauge("net.in_flight", fn=lambda s=stats: s.injected - s.delivered)
        registry.gauge("net.avg_latency_ps", fn=lambda s=stats: s.avg_latency_ps)
        registry.gauge("net.avg_hops", fn=lambda s=stats: s.avg_hops)
    if system.pcie is not None:
        stats = system.pcie.stats
        registry.gauge("pcie.transactions", fn=lambda s=stats: s.transactions)
        registry.gauge("pcie.bytes", fn=lambda s=stats: s.bytes)
    if system.pcn is not None:
        stats = system.pcn.stats
        registry.gauge("pcn.transactions", fn=lambda s=stats: s.transactions)
        registry.gauge("pcn.bytes", fn=lambda s=stats: s.bytes)


def install_default_probes(sampler: Sampler, system) -> None:
    """Arm the standard congestion time series on ``sampler``."""
    hmcs = system.hmc_list
    # Vaults and SMs are built on first use, so each probe reads the built
    # ones at sample time; the mean still averages over every configured
    # vault (an unbuilt one has an empty queue).
    num_vaults = sum(hmc.vaults.count for hmc in hmcs)

    def vaults():
        return [v for hmc in hmcs for v in hmc.vaults.values()]

    def sms():
        return [sm for g in system.gpus for sm in g.sms.values()]

    sampler.add(
        "vault.queue_depth.mean",
        lambda: sum(v.occupancy for v in vaults()) / num_vaults
        if num_vaults
        else 0.0,
    )
    sampler.add(
        "vault.queue_depth.max",
        lambda: max((v.occupancy for v in vaults()), default=0),
    )
    sampler.add(
        "vault.overflow_peak.max",
        lambda: max((v.stats.overflow_peak for v in vaults()), default=0),
    )
    sampler.add_delta(
        "vault.queue_wait.ps_per_window",
        lambda: sum(v.stats.total_queue_wait_ps for v in vaults()),
    )
    sampler.add("gpu.resident_ctas", lambda: sum(sm.resident_ctas for sm in sms()))
    sampler.add("gpu.outstanding_mem", lambda: sum(sm.outstanding for sm in sms()))
    if system.network is not None:
        stats = system.network.stats
        sampler.add("net.in_flight", lambda s=stats: s.injected - s.delivered)
        channels = system.network_channels()
        if channels:
            scale = 1.0 / (sampler.interval_ps * len(channels))
            sampler.add_delta(
                "net.channel_utilization",
                lambda chs=channels: sum(ch.stats.busy_ps for ch in chs),
                scale=scale,
            )
    if system.pcie is not None:
        sampler.add_delta("pcie.bytes_per_window", lambda: system.pcie.stats.bytes)


class Observability:
    """One bundle of telemetry sinks, shared across the runs of a sweep."""

    def __init__(
        self,
        trace: bool = False,
        sample_interval_us: Optional[float] = None,
        profile: bool = False,
    ) -> None:
        self.tracer: Optional[ChromeTracer] = ChromeTracer() if trace else None
        self.profiler: Optional[SelfTimeProfiler] = (
            SelfTimeProfiler() if profile else None
        )
        if sample_interval_us is not None and sample_interval_us <= 0:
            raise MetricError(
                f"sample interval must be positive, got {sample_interval_us}"
            )
        self.sample_interval_ps = (
            int(sample_interval_us * 1e6)
            if sample_interval_us is not None
            else 0
        )
        #: One sampler per bound system, in bind order.
        self.samplers: List[Sampler] = []

    def profiled(self) -> ContextManager:
        """Profile the enclosed block when profiling is on (else a no-op)."""
        if self.profiler is None:
            return nullcontext()
        return self.profiler.running()

    # ------------------------------------------------------------------
    def bind(self, system) -> None:
        """Attach the sinks to one freshly built system (pre-run)."""
        sim = system.sim
        pid = 0
        if self.tracer is not None:
            pid = self.tracer.begin_process(f"{system.spec.name}")
            sim.tracer = self.tracer
        if self.profiler is not None:
            self.profiler.watch(sim)
        if self.sample_interval_ps > 0:
            sampler = Sampler(
                sim, self.sample_interval_ps, tracer=self.tracer, pid=pid
            )
            install_default_probes(sampler, system)
            sampler.start()
            self.samplers.append(sampler)
            system.sampler = sampler

    # ------------------------------------------------------------------
    def finish(self, trace_path: Optional[str] = None) -> None:
        """Flush sinks at the end of a CLI invocation."""
        if self.tracer is not None and trace_path:
            self.tracer.dump(trace_path)
