"""Vault controller: pluggable scheduling over the vault's DRAM banks.

Each vault has a bounded request queue (Table I: 16 entries, FR-FCFS
[48]); when the queue is full, arriving requests wait in the logic-layer
overflow buffer and are admitted as entries free up.  *Which* queued
request issues next is delegated to a :class:`~repro.hmc.sched.base.
VaultScheduler` strategy selected by ``HMCConfig.scheduler`` (default
FR-FCFS: row hits first, ties broken by age); the vault itself owns the
overflow buffer, the shared data bus, DRAM timing, and statistics.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional, Tuple

from ..config import HMCConfig
from ..errors import SimulationError
from ..mem import AccessType, MemoryAccess
from ..sim.engine import Simulator
from ..sim.lazy import LazyComponents
from .dram import Bank
from .sched import scheduler_for
from .sched.base import CompletionCallback, QueuedRequest, requester_class

#: Extra latency charged for the logic-layer ALU of an atomic operation.
ATOMIC_ALU_PS = 2_500


@dataclass
class VaultStats:
    served: int = 0
    row_hits: int = 0
    atomics: int = 0
    total_queue_wait_ps: int = 0
    total_service_ps: int = 0
    overflow_peak: int = 0
    #: Per requester class ("cpu"/"gpu"/"other", see
    #: :func:`repro.hmc.sched.requester_class`): served request counts and
    #: summed queue waits, the inputs to per-source latency and fairness
    #: columns in scheduler sweeps.
    class_served: Dict[str, int] = field(default_factory=dict)
    class_queue_wait_ps: Dict[str, int] = field(default_factory=dict)


class Vault:
    """One vault: banks + a shared data bus + a scheduled request queue.

    Like the SMs and vaults of a system, a vault's banks are built on first
    use (:class:`~repro.sim.lazy.LazyComponents`); an unbuilt bank is an
    idle bank with no open row.
    """

    def __init__(
        self,
        sim: Simulator,
        cfg: HMCConfig,
        vault_id: int = 0,
        name: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.cfg = cfg
        self.vault_id = vault_id
        self.name = name or f"vault{vault_id}"
        #: Bank id -> bank, each built when a request to it is first seen.
        self.banks = LazyComponents(cfg.banks_per_vault, lambda _: Bank())
        self.sched = scheduler_for(cfg.scheduler)(cfg)
        self.overflow: Deque[QueuedRequest] = collections.deque()
        self.bus_busy_until: int = 0
        self.stats = VaultStats()
        self._kick_at: Optional[int] = None
        self._next_seq = 0

    # ------------------------------------------------------------------
    def enqueue(
        self, access: MemoryAccess, on_done: CompletionCallback, context: Any = None
    ) -> None:
        """Accept a request; it is queued (or buffered on overflow).

        ``on_done(context)`` fires at data completion; ``context`` defaults
        to the access itself.
        """
        if access.decoded is None:
            raise SimulationError("memory access reached a vault without decode")
        req = QueuedRequest(
            access,
            on_done,
            self.sim.now,
            self._next_seq,
            access if context is None else context,
        )
        self._next_seq += 1
        if len(self.sched) < self.cfg.vault_queue_entries:
            self.sched.admit(req)
        else:
            self.overflow.append(req)
            self.stats.overflow_peak = max(self.stats.overflow_peak, len(self.overflow))
        self._schedule_kick(self.sim.now)

    # ------------------------------------------------------------------
    # Issue loop (policy-agnostic; selection lives in self.sched)
    # ------------------------------------------------------------------
    def _schedule_kick(self, when_ps: int) -> None:
        when_ps = max(when_ps, self.sim.now)
        if self._kick_at is not None and self._kick_at <= when_ps:
            return
        self._kick_at = when_ps
        self.sim.at(when_ps, self._kick)

    def _kick(self) -> None:
        self._kick_at = None
        self._drain_overflow()
        # Per-kick snapshot of bank state: sim.now is constant across the
        # issue loop and a bank's readiness/open row only changes when this
        # loop issues to it, so (ready, open_row) is computed once per bank
        # per kick instead of once per candidate per issue iteration, and
        # refreshed only for the bank that was just issued to (the
        # scheduler drops the issued bank's entry on every pick).
        bank_state: Dict[int, Tuple[bool, Optional[int]]] = {}
        sched = self.sched
        while len(sched):
            req = sched.pick(bank_state, self.sim.now, self.banks)
            if req is None:
                break
            self._service(req)
        self._drain_overflow()
        if len(sched):
            horizon = sched.horizon(self.sim.now, self.banks)
            self._schedule_kick(max(horizon, self.sim.now + 1))

    def _drain_overflow(self) -> None:
        while self.overflow and len(self.sched) < self.cfg.vault_queue_entries:
            self.sched.admit(self.overflow.popleft())

    def _service(self, req: QueuedRequest) -> None:
        access = req.access
        decoded = access.decoded
        now = self.sim.now
        timing = self.cfg.timing
        bank = self.banks[decoded.bank]
        was_hit = bank.open_row == decoded.row
        data_done = bank.access(decoded.row, access.type, now, timing)
        self.sched.on_issue(req, was_hit)
        stats = self.stats
        if access.type is AccessType.ATOMIC:
            data_done += ATOMIC_ALU_PS
            stats.atomics += 1

        transfer_cycles = -(-access.size // self.cfg.vault_bus_bytes_per_cycle)
        if transfer_cycles < 1:
            transfer_cycles = 1
        transfer_ps = transfer_cycles * timing.tCK_ps
        bus_busy = self.bus_busy_until
        bus_start = data_done if data_done > bus_busy else bus_busy
        done = bus_start + transfer_ps
        self.bus_busy_until = done

        stats.served += 1
        if was_hit:
            stats.row_hits += 1
        wait_ps = now - req.arrived_ps
        stats.total_queue_wait_ps += wait_ps
        stats.total_service_ps += done - now
        cls = requester_class(access.requester)
        stats.class_served[cls] = stats.class_served.get(cls, 0) + 1
        stats.class_queue_wait_ps[cls] = (
            stats.class_queue_wait_ps.get(cls, 0) + wait_ps
        )

        tracer = self.sim.tracer
        if tracer is not None:
            tracer.complete(
                "vault",
                access.type.name.lower(),
                self.sim.now,
                done - self.sim.now,
                tid=self.name,
                args={"bank": decoded.bank, "row_hit": was_hit},
            )

        self.sim.at(done, req.on_done, req.context)
        # A completion frees a queue entry; give the overflow a chance.
        if self.overflow:
            self._schedule_kick(self.sim.now)

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self.sched) + len(self.overflow)

    @property
    def row_hit_rate(self) -> float:
        return self.stats.row_hits / self.stats.served if self.stats.served else 0.0
