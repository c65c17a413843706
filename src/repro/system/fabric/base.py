"""The fabric strategy interface and shared transport primitives.

A :class:`Fabric` owns everything that is specific to one interconnect
organization (Fig. 8): how the interconnect is built, how a GPU request
reaches its HMC, how the CPU's memory port is served, which address view
the host sees, and how forwarded requests are handled at the owning
device.  :class:`~repro.system.builder.MultiGPUSystem` constructs the
components (HMCs, GPUs, CPU, address mapping) and delegates every
organization decision to its fabric, looked up in the
:mod:`repro.system.fabric` registry.

The transport primitives live here as shared methods because every
organization composes the same four mechanisms:

- a :class:`DirectLink` point-to-point hop to a local HMC,
- a memory-network request addressed to the destination router,
- a network *forwarded* request addressed to the owning terminal
  (CMN's remote-GPU path), and
- a PCIe/PCN transaction to the owning device, which forwards to its
  local HMC and returns the response the way it came (Fig. 9(a)).
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable, Optional

from ...errors import ConfigError, SimulationError
from ...hmc.hmc import HMC
from ...mem import AccessType, DecodedAddress, MemoryAccess
from ...network.channel import Channel
from ...network.network import MemoryNetwork
from ...network.packet import Packet, PacketKind, response_kind
from ...sim.engine import Simulator
from ..configs import TransferMode

if TYPE_CHECKING:  # pragma: no cover
    from ..builder import MultiGPUSystem

#: Cost of traversing a GPU on the way to its memory (remote access through
#: a peer GPU, Fig. 9(a)): on-chip crossbar + memory-controller traversal.
GPU_FORWARD_PS = 150_000  # 150 ns


def _packet_kind(access_type: AccessType) -> PacketKind:
    # ``is``-chain rather than an enum-keyed dict: Enum.__hash__ is a
    # Python-level call and this runs once per network request.
    if access_type is AccessType.READ:
        return PacketKind.READ_REQ
    if access_type is AccessType.WRITE:
        return PacketKind.WRITE_REQ
    return PacketKind.ATOMIC_REQ


def _request_bytes(access: MemoryAccess, header: int) -> int:
    """Wire size of an access's request: reads carry only the header."""
    return header if access.type is AccessType.READ else header + access.size


def _response_bytes(access: MemoryAccess, header: int) -> int:
    """Wire size of an access's response: write acks carry only the header."""
    return header if access.type is AccessType.WRITE else header + access.size


def _is_response(kind: PacketKind) -> bool:
    return (
        kind is PacketKind.READ_RESP
        or kind is PacketKind.WRITE_ACK
        or kind is PacketKind.ATOMIC_RESP
    )


class DirectLink:
    """A device's point-to-point connection to one local HMC (no network)."""

    def __init__(
        self,
        sim: Simulator,
        terminal: str,
        hmc: HMC,
        gbps: float,
        width: int,
        serdes_ps: int,
        header_bytes: int,
    ) -> None:
        self.sim = sim
        self.hmc = hmc
        self.serdes_ps = serdes_ps
        self.header_bytes = header_bytes
        self.req = Channel(f"{terminal}=>{hmc.name}", terminal, hmc.name, gbps, width)
        self.resp = Channel(f"{hmc.name}=>{terminal}", hmc.name, terminal, gbps, width)

    def access(self, access: MemoryAccess, on_done: Callable[..., None], *arg) -> None:
        """Carry ``access`` to the HMC and its response back; ``on_done(*arg)``
        fires when the response arrives (``arg`` is at most one value)."""
        req_size = _request_bytes(access, self.header_bytes)
        arrive = self.req.transmit(req_size, self.sim.now + self.serdes_ps)
        # One (access, on_done, arg) tuple carries the request through both
        # of its events.
        self.sim.at(arrive, self._at_hmc, (access, on_done, arg))

    def _at_hmc(self, request: tuple) -> None:
        self.hmc.access(request[0], self._served, request)

    def _served(self, request: tuple) -> None:
        access, on_done, arg = request
        resp_size = _response_bytes(access, self.header_bytes)
        done_at = self.resp.transmit(resp_size, self.sim.now + self.serdes_ps)
        self.sim.at(done_at, on_done, *arg)


class Fabric:
    """Strategy for one interconnect organization.

    Subclasses implement :meth:`build` (construct the interconnect on the
    system), :meth:`gpu_request` (route a GPU memory access), and
    :meth:`_cpu_dispatch` (route a CPU memory access after the host view
    was applied).  The shared transport primitives and network packet
    handlers below are available to every implementation.
    """

    def __init__(self, system: "MultiGPUSystem") -> None:
        self.system = system

    # -- the organization-specific surface ------------------------------
    def build(self) -> None:
        """Construct the interconnect (networks, switches, direct links)."""
        raise NotImplementedError

    def gpu_request(
        self, gpu_id: int, access: MemoryAccess, on_done: Callable[[], None]
    ) -> None:
        """Route one GPU memory access to the HMC that owns it."""
        raise NotImplementedError

    def cpu_request(self, access: MemoryAccess, on_done: Callable[[], None]) -> None:
        """Route one CPU memory access (applies :meth:`host_view` first)."""
        self._cpu_dispatch(self.host_view(access), on_done)

    def _cpu_dispatch(
        self, access: MemoryAccess, on_done: Callable[[], None]
    ) -> None:
        raise NotImplementedError

    def host_view(self, access: MemoryAccess) -> MemoryAccess:
        """Under memcpy transfer, the host works on its own copy in CPU
        memory, so host accesses to kernel buffers are served by the CPU
        cluster."""
        system = self.system
        if (
            system.spec.transfer is TransferMode.MEMCPY
            and access.decoded is not None
            and access.decoded.cluster != system.cpu_cluster
        ):
            decoded = DecodedAddress(
                cluster=system.cpu_cluster,
                local_hmc=access.decoded.local_hmc,
                vault=access.decoded.vault,
                bank=access.decoded.bank,
                row=access.decoded.row,
            )
            return MemoryAccess(
                paddr=access.paddr,
                size=access.size,
                type=access.type,
                requester=access.requester,
                decoded=decoded,
                aid=access.aid,
            )
        return access

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _make_network(self, topo, netcfg) -> MemoryNetwork:
        """Instantiate the configured network engine: the fast packet-level
        model (default) or the flit-level wormhole/VC/credit model."""
        system = self.system
        if system.cfg.network_model == "flit":
            from ...network.flitnet import FlitNetwork

            return FlitNetwork(system.sim, topo, netcfg, routing=system.spec.routing)
        if system.cfg.network_model == "analytic":
            # repro.system.run dispatches analytic runs to repro.analytic
            # before any system is built; an analytic config reaching the
            # fabric means someone constructed MultiGPUSystem directly.
            raise ConfigError(
                "network model 'analytic' has no event-driven engine; use "
                "repro.analytic.analytic_run (or run_workload, which "
                "dispatches automatically)"
            )
        if system.cfg.network_model != "packet":
            from ...config import NETWORK_MODELS

            raise ConfigError(
                f"unknown network model {system.cfg.network_model!r}; "
                f"valid: {sorted(NETWORK_MODELS)}"
            )
        return MemoryNetwork(system.sim, topo, netcfg, routing=system.spec.routing)

    def _build_pcie_switch(self) -> None:
        from ...pcie.pcie import PCIeSwitch

        system = self.system
        system.pcie = PCIeSwitch(system.sim, system.cfg.pcie)
        system.pcie.attach("cpu")
        for g in range(system.num_gpus):
            system.pcie.attach(f"gpu{g}")

    def _build_direct_links(self, terminal: str, cluster: int) -> None:
        system = self.system
        channels = (
            system.cfg.cpu.num_channels
            if terminal == "cpu"
            else system.cfg.gpu.num_channels
        )
        width = max(1, channels // system.hmcs_per_cluster)
        for lc in range(system.hmcs_per_cluster):
            system._direct_links[(terminal, cluster, lc)] = DirectLink(
                system.sim,
                terminal,
                system.hmcs[(cluster, lc)],
                system.cfg.network.channel_gbps,
                width,
                system.cfg.network.serdes_ps,
                system.cfg.network.header_bytes,
            )

    def _register_router(self, router: int, hmc: HMC) -> None:
        network = self.system.network
        assert network is not None
        network.set_router_handler(
            router, partial(self._on_router_packet, router, hmc)
        )

    # ------------------------------------------------------------------
    # Transport primitives
    # ------------------------------------------------------------------
    def _direct(
        self, terminal: str, access: MemoryAccess, on_done: Callable[..., None], *arg
    ) -> None:
        decoded = access.decoded
        link = self.system._direct_links[(terminal, decoded.cluster, decoded.local_hmc)]
        link.access(access, on_done, *arg)

    def _router_of(self, decoded: DecodedAddress) -> int:
        return decoded.cluster * self.system.hmcs_per_cluster + decoded.local_hmc

    def _net_request(
        self,
        terminal: str,
        access: MemoryAccess,
        on_done: Callable[[], None],
        router: Optional[int] = None,
        pass_through: bool = False,
    ) -> None:
        system = self.system
        assert system.network is not None
        dst = self._router_of(access.decoded) if router is None else router
        system._pending[access.aid] = on_done
        system.network.send(
            Packet(
                _packet_kind(access.type),
                terminal,
                dst,
                _request_bytes(access, system.cfg.network.header_bytes),
                access,
                pass_through,
            )
        )

    def _net_forwarded(
        self,
        terminal: str,
        owner_terminal: str,
        access: MemoryAccess,
        on_done: Callable[[], None],
    ) -> None:
        """CMN: reach a remote GPU's memory through the network and the
        remote GPU itself (no direct HMC-to-HMC path exists)."""
        system = self.system
        assert system.network is not None
        system._pending[access.aid] = on_done
        system.network.send(
            Packet(
                _packet_kind(access.type),
                terminal,
                owner_terminal,
                _request_bytes(access, system.cfg.network.header_bytes),
                access,
            )
        )

    def _pcie_forwarded(
        self,
        terminal: str,
        owner_terminal: str,
        access: MemoryAccess,
        on_done: Callable[[], None],
    ) -> None:
        """Conventional path: PCIe to the owning device, which forwards the
        request to its local HMC and returns the response over PCIe."""
        system = self.system
        assert system.pcie is not None
        self._forward(system.pcie, terminal, owner_terminal, access, on_done)

    def _pcn_forwarded(
        self,
        terminal: str,
        owner_terminal: str,
        access: MemoryAccess,
        on_done: Callable[[], None],
    ) -> None:
        """NVLink-style path: the dedicated point-to-point link to the
        owning processor, which forwards to its local HMC (extension)."""
        system = self.system
        assert system.pcn is not None
        self._forward(system.pcn, terminal, owner_terminal, access, on_done)

    def _forward(
        self,
        fabric,
        terminal: str,
        owner_terminal: str,
        access: MemoryAccess,
        on_done: Callable[[], None],
    ) -> None:
        """Send the request over ``fabric`` (PCIe or PCN) to the owning
        device.  One ``(fabric, terminal, owner_terminal, access, on_done)``
        tuple is the argument of every event of the forwarding chain."""
        req_bytes = _request_bytes(access, self.system.cfg.network.header_bytes)
        fabric.transaction(
            terminal,
            owner_terminal,
            req_bytes,
            self._fwd_at_owner,
            (fabric, terminal, owner_terminal, access, on_done),
        )

    def _fwd_at_owner(self, fwd: tuple) -> None:
        """The request reached the owning device; forward to its local HMC
        and send the response back over the same fabric."""
        self.system.sim.after(GPU_FORWARD_PS, self._fwd_to_hmc, fwd)

    def _fwd_to_hmc(self, fwd: tuple) -> None:
        _, _, owner_terminal, access, _ = fwd
        self._direct(owner_terminal, access, self._fwd_served, fwd)

    def _fwd_served(self, fwd: tuple) -> None:
        self.system.sim.after(GPU_FORWARD_PS, self._fwd_respond, fwd)

    def _fwd_respond(self, fwd: tuple) -> None:
        fabric, terminal, owner_terminal, access, on_done = fwd
        resp_bytes = _response_bytes(access, self.system.cfg.network.header_bytes)
        fabric.transaction(owner_terminal, terminal, resp_bytes, on_done)

    # ------------------------------------------------------------------
    # Network packet handlers
    # ------------------------------------------------------------------
    # A network packet's payload is its MemoryAccess.  A request packet
    # addressed to a router is served by that router's HMC; one addressed
    # to a terminal is forwarded by that device to its local HMC (CMN).
    # The response goes back to the request's source.
    def _on_router_packet(self, router: int, hmc: HMC, packet: Packet) -> None:
        if _is_response(packet.kind):
            raise SimulationError(f"router {router} received {packet.kind.value} packet")
        hmc.access(packet.payload, self._hmc_served, packet)

    def _hmc_served(self, request: Packet) -> None:
        system = self.system
        assert system.network is not None
        access = request.payload
        system.network.send(
            Packet(
                response_kind(request.kind),
                request.dst,
                request.src,
                _response_bytes(access, system.cfg.network.header_bytes),
                access,
                request.pass_through,
            )
        )

    def _on_terminal_packet(self, packet: Packet) -> None:
        system = self.system
        kind = packet.kind
        if _is_response(kind):
            try:
                on_done = system._pending.pop(packet.payload.aid)
            except KeyError:
                raise SimulationError(
                    f"response for unknown access {packet.payload.aid}"
                ) from None
            on_done()
        elif kind is not PacketKind.DATA:
            system.sim.after(GPU_FORWARD_PS, self._fwd_req_to_hmc, packet)
        else:
            raise SimulationError(f"unexpected envelope kind {kind.value!r}")

    def _fwd_req_to_hmc(self, packet: Packet) -> None:
        self._direct(packet.dst, packet.payload, self._fwd_req_served, packet)

    def _fwd_req_served(self, request: Packet) -> None:
        system = self.system
        assert system.network is not None
        access = request.payload
        response = Packet(
            response_kind(request.kind),
            request.dst,
            request.src,
            _response_bytes(access, system.cfg.network.header_bytes),
            access,
        )
        system.sim.after(GPU_FORWARD_PS, system.network.send, response)
