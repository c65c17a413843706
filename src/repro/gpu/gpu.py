"""The GPU chip: SMs + shared L2 + the memory port into the system fabric.

The memory pipeline implements Section III-D:

- global reads allocate in L1/L2 normally (LRU);
- writes are **write-through, no-allocate** in both levels — they update a
  present line but never allocate, and always propagate to the HMC;
- atomics evict the target line from the requesting SM's L1 and from L2 and
  execute at the HMC's logic layer.

The chip-level MSHR table merges concurrent read misses to the same line so
one memory request serves all waiters.  The system builder supplies
``memory_port`` (how a request reaches its HMC: direct link, memory network,
or PCIe), ``translate`` (the shared SKE page table), and ``decode`` (the
physical address mapping).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from ..config import GPUConfig
from ..core.cta_scheduler import KernelSchedule
from ..core.kernel import Access, Kernel
from ..errors import SimulationError
from ..mem import AccessType, MemoryAccess
from ..sim.engine import Simulator
from ..sim.lazy import LazyComponents
from .cache import Cache
from .sm import SM, _CTAContext

MemoryPort = Callable[[MemoryAccess, Callable[[], None]], None]

#: Who waits on one GPU access: the issuing SM, its CTA context (``None``
#: for a write, which does not block its phase) and the kernel context.
_Waiter = Tuple[SM, Optional[_CTAContext], Optional["_KernelContext"]]


@dataclass
class GPUStats:
    reads: int = 0
    writes: int = 0
    atomics: int = 0
    memory_requests: int = 0
    merged_misses: int = 0
    kernel_launches: int = 0
    busy_ps: int = 0


class _KernelContext:
    """Execution state of one kernel launch on one GPU."""

    __slots__ = ("kernel", "schedule", "on_done", "resident", "inflight",
                 "started_ps", "completed")

    def __init__(
        self,
        kernel: Kernel,
        schedule: KernelSchedule,
        on_done: Callable[[], None],
        started_ps: int,
    ) -> None:
        self.kernel = kernel
        self.schedule = schedule
        self.on_done = on_done
        self.resident = 0
        self.inflight = 0
        self.started_ps = started_ps
        self.completed = False


class GPU:
    """One discrete GPU of the multi-GPU system."""

    def __init__(
        self,
        sim: Simulator,
        gpu_id: int,
        cfg: Optional[GPUConfig] = None,
    ) -> None:
        self.sim = sim
        self.gpu_id = gpu_id
        self.cfg = cfg or GPUConfig()
        self.name = f"gpu{gpu_id}"
        #: SM id -> SM, each built when it first receives a CTA.
        self.sms = LazyComponents(
            self.cfg.num_sms, partial(SM, sim, self, cfg=self.cfg)
        )
        self.l2 = Cache(self.cfg.l2, name=f"{self.name}.l2")
        self.stats = GPUStats()

        # Wired by the system builder.
        self.memory_port: Optional[MemoryPort] = None
        self.translate: Callable[[int], int] = lambda vaddr: vaddr
        self.decode = None

        #: Line -> waiters of the read miss in flight for it.
        self._mshr_table: Dict[int, List[_Waiter]] = {}
        # Completion events carry their waiter; bind the callbacks once.
        self._access_done_cb = self._access_done
        self._fill_line_cb = self._fill_line
        self._contexts: List["_KernelContext"] = []
        self._rr_next = 0

    # ------------------------------------------------------------------
    # Kernel execution
    # ------------------------------------------------------------------
    def launch(
        self,
        kernel: Kernel,
        schedule: KernelSchedule,
        on_done: Callable[[], None],
        concurrent: bool = False,
    ) -> None:
        """Begin executing this GPU's share of ``kernel``'s CTAs.

        With ``concurrent=True`` the launch may overlap kernels already
        running on this GPU (the SKE extension to concurrent kernel
        execution, Section III); otherwise overlap is an error, matching
        in-order stream semantics.
        """
        if self._contexts and not concurrent:
            raise SimulationError(f"{self.name}: kernel already running")
        if self.memory_port is None:
            raise SimulationError(f"{self.name}: memory port not wired")
        ctx = _KernelContext(kernel, schedule, on_done, self.sim.now)
        self._contexts.append(ctx)
        self.stats.kernel_launches += 1
        self._fill_all_sms()
        # A GPU may receive zero CTAs (small grids, Section V-A).
        self.sim.after(0, self._check_context, ctx)

    def _next_work(self) -> Optional[Tuple["_KernelContext", int]]:
        """Pull the next CTA, round-robin across active kernel contexts."""
        n = len(self._contexts)
        for i in range(n):
            ctx = self._contexts[(self._rr_next + i) % n]
            cta = ctx.schedule.next_cta(self.gpu_id)
            if cta is not None:
                self._rr_next = (self._rr_next + i + 1) % n
                return ctx, cta
        return None

    def _start_cta(self, sm: SM, ctx: "_KernelContext", cta: int) -> None:
        ctx.resident += 1
        sm.start_cta(cta, ctx.kernel.program(cta), token=ctx)

    def _has_free_slot(self, sm_id: int) -> bool:
        """Whether SM ``sm_id`` can take a CTA; an unbuilt SM is empty."""
        sm = self.sms.get(sm_id)
        return sm is None or sm.has_free_slot

    def _fill_all_sms(self) -> None:
        """CTA placement: breadth-first round-robin over SMs (one CTA per
        SM per pass), as hardware CTA dispatchers do — this keeps all SMs
        busy even when this GPU's share of the grid is small."""
        sms = self.sms
        progress = True
        while progress:
            progress = False
            # Least-loaded SM first, as hardware dispatchers balance load;
            # ties break by SM id for determinism.  An SM not built yet has
            # no resident CTAs.
            resident = {i: sm.resident_ctas for i, sm in sms.items()}
            order = sorted(range(sms.count), key=lambda i: (resident.get(i, 0), i))
            for sm_id in order:
                if not self._has_free_slot(sm_id):
                    continue
                work = self._next_work()
                if work is None:
                    return
                self._start_cta(sms[sm_id], *work)
                progress = True

    def try_refill(self) -> None:
        """Pull more CTAs into free SM slots if kernels are running (used
        when a dynamic schedule gains work after launch, e.g. stealing)."""
        if self._contexts:
            self._fill_all_sms()

    def cta_finished(self, sm: SM, token: "_KernelContext") -> None:
        """Demand-driven refill after a CTA retires."""
        token.resident -= 1
        work = self._next_work()
        if work is not None:
            self._start_cta(sm, *work)
        if token.resident == 0:
            self._check_context(token)

    def _check_context(self, ctx: "_KernelContext") -> None:
        if ctx.completed or ctx.resident > 0 or ctx.inflight > 0:
            return
        if ctx.schedule.has_work(self.gpu_id):
            # Work remains (e.g. stealing armed after an empty initial
            # fill, or slots hogged by a concurrent kernel): start it now
            # if a slot is free, otherwise a later CTA retirement pulls it.
            for sm_id in range(self.sms.count):
                if self._has_free_slot(sm_id):
                    cta = ctx.schedule.next_cta(self.gpu_id)
                    if cta is not None:
                        self._start_cta(self.sms[sm_id], ctx, cta)
                    break
            return
        ctx.completed = True
        self._contexts.remove(ctx)
        self.stats.busy_ps += self.sim.now - ctx.started_ps
        ctx.on_done()

    @property
    def kernel_active(self) -> bool:
        return bool(self._contexts)

    @property
    def active_kernels(self) -> int:
        return len(self._contexts)

    # ------------------------------------------------------------------
    # Memory pipeline
    # ------------------------------------------------------------------
    def access_memory(
        self,
        sm: SM,
        access: Access,
        ctx: Optional[_CTAContext],
        token: Optional["_KernelContext"] = None,
    ) -> None:
        """Serve one SM access; at completion the SM's
        ``_access_done(ctx)`` runs, then the kernel context's bookkeeping."""
        if access.size > self.cfg.l1.line_bytes:
            raise SimulationError(
                f"access of {access.size}B exceeds the {self.cfg.l1.line_bytes}B "
                "line; workloads must emit line-sized coalesced accesses"
            )
        if token is not None:
            token.inflight += 1

        waiter = (sm, ctx, token)
        paddr = self.translate(access.vaddr)
        line = paddr - paddr % self.cfg.l1.line_bytes
        if access.type is AccessType.READ:
            self._read(sm, line, waiter)
        elif access.type is AccessType.WRITE:
            self._write(sm, paddr, line, access.size, waiter)
        else:
            self._atomic(sm, paddr, line, access.size, waiter)

    def _access_done(self, waiter: _Waiter) -> None:
        sm, ctx, token = waiter
        sm._access_done(ctx)
        if token is not None:
            token.inflight -= 1
            if token.inflight == 0:
                self._check_context(token)

    # -- reads ----------------------------------------------------------
    def _read(self, sm: SM, line: int, waiter: _Waiter) -> None:
        self.stats.reads += 1
        if sm.l1.lookup(line):
            self.sim.after(self.cfg.l1.hit_latency_ps, self._access_done_cb, waiter)
            return
        if self.l2.lookup(line):
            sm.l1.fill(line)
            self.sim.after(
                self.cfg.l1.hit_latency_ps + self.cfg.l2.hit_latency_ps,
                self._access_done_cb,
                waiter,
            )
            return
        waiters = self._mshr_table.get(line)
        if waiters is not None:
            # Delayed hit: an earlier miss to the same line is in flight;
            # piggyback on it and reclassify the counted miss as an L2 hit
            # (the request never reaches memory), matching how GPGPU-sim
            # attributes MSHR merges.
            self.stats.merged_misses += 1
            self.l2.stats.misses -= 1
            self.l2.stats.hits += 1
            waiters.append(waiter)
            return
        self._mshr_table[line] = [waiter]
        request = self._make_request(line, self.cfg.l1.line_bytes, AccessType.READ)
        lookup_ps = self.cfg.l1.hit_latency_ps + self.cfg.l2.hit_latency_ps
        self.sim.after(lookup_ps, self._send_miss, request)

    def _send_miss(self, request: MemoryAccess) -> None:
        # A read request's address is its line (see _read).
        self._send(request, partial(self._fill_line_cb, request.paddr))

    def _fill_line(self, line: int) -> None:
        """A read miss returned: fill L2, then release every merged waiter."""
        self.l2.fill(line)
        for waiter in self._mshr_table.pop(line):
            waiter[0].l1.fill(line)
            self._access_done(waiter)

    # -- writes ---------------------------------------------------------
    def _write(
        self, sm: SM, paddr: int, line: int, size: int, waiter: _Waiter
    ) -> None:
        self.stats.writes += 1
        # Write-through: update on hit, never allocate on miss.
        sm.l1.lookup(line)
        self.l2.lookup(line, count=False)
        request = self._make_request(paddr, size, AccessType.WRITE)
        self._send(request, partial(self._access_done_cb, waiter))

    # -- atomics ---------------------------------------------------------
    def _atomic(
        self, sm: SM, paddr: int, line: int, size: int, waiter: _Waiter
    ) -> None:
        self.stats.atomics += 1
        sm.l1.evict(line)
        self.l2.evict(line)
        request = self._make_request(paddr, size, AccessType.ATOMIC)
        self._send(request, partial(self._access_done_cb, waiter))

    # -- plumbing ---------------------------------------------------------
    def _make_request(self, paddr: int, size: int, kind: AccessType) -> MemoryAccess:
        decoded = self.decode(paddr) if self.decode is not None else None
        return MemoryAccess(
            paddr=paddr, size=size, type=kind, requester=self.name, decoded=decoded
        )

    def _send(self, request: MemoryAccess, on_done: Callable[[], None]) -> None:
        self.stats.memory_requests += 1
        assert self.memory_port is not None
        self.memory_port(request, on_done)

    # ------------------------------------------------------------------
    # Aggregate cache statistics (Section III-B hit-rate claims)
    # ------------------------------------------------------------------
    def l1_hit_rate(self) -> float:
        hits = sum(sm.l1.stats.hits for sm in self.sms.values())
        accesses = sum(sm.l1.stats.accesses for sm in self.sms.values())
        return hits / accesses if accesses else 0.0

    def l2_hit_rate(self) -> float:
        return self.l2.stats.hit_rate

    def __repr__(self) -> str:  # pragma: no cover
        return f"GPU({self.name}, {self.cfg.num_sms} SMs)"
