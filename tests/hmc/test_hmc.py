"""Tests for the HMC device (logic layer + vaults)."""

import pytest

from repro.config import HMCConfig
from repro.errors import SimulationError
from repro.hmc.hmc import HMC
from repro.mem import AccessType, DecodedAddress, MemoryAccess
from repro.sim.engine import Simulator


def make_access(vault=0, bank=0, row=0, kind=AccessType.READ, size=128):
    return MemoryAccess(
        paddr=0,
        size=size,
        type=kind,
        decoded=DecodedAddress(cluster=0, local_hmc=0, vault=vault, bank=bank, row=row),
    )


@pytest.fixture
def hmc():
    sim = Simulator()
    return sim, HMC(sim, HMCConfig(), name="hmc0")


class TestDispatch:
    def test_access_routed_to_decoded_vault(self, hmc):
        sim, dev = hmc
        dev.access(make_access(vault=5), lambda a: None)
        sim.run()
        assert dev.vaults[5].stats.served == 1
        assert set(dev.vaults) == {5}
        assert all(v.stats.served == 0 for i, v in dev.vaults.items() if i != 5)

    def test_vault_out_of_range(self, hmc):
        sim, dev = hmc
        with pytest.raises(SimulationError):
            dev.access(make_access(vault=99), lambda a: None)

    def test_undecoded_rejected(self, hmc):
        sim, dev = hmc
        with pytest.raises(SimulationError):
            dev.access(MemoryAccess(paddr=0, size=64, type=AccessType.READ), print)

    def test_vault_parallelism(self, hmc):
        sim, dev = hmc
        finish = {}
        # 16 reads to one vault vs 16 reads across all vaults.
        for i in range(16):
            dev.access(make_access(vault=0, bank=0, row=i), lambda a: finish.setdefault("same", sim.now))
        sim.run()
        same = sim.now

        sim2 = Simulator()
        dev2 = HMC(sim2, HMCConfig())
        for i in range(16):
            dev2.access(make_access(vault=i), lambda a: None)
        sim2.run()
        assert sim2.now < same


class TestStats:
    def test_read_write_atomic_counts(self, hmc):
        sim, dev = hmc
        dev.access(make_access(kind=AccessType.READ), lambda a: None)
        dev.access(make_access(kind=AccessType.WRITE), lambda a: None)
        dev.access(make_access(kind=AccessType.ATOMIC, size=32), lambda a: None)
        sim.run()
        assert dev.stats.reads == 1
        assert dev.stats.writes == 1
        assert dev.stats.atomics == 1
        assert dev.stats.accesses == 3

    def test_byte_counters(self, hmc):
        sim, dev = hmc
        dev.access(make_access(kind=AccessType.READ, size=128), lambda a: None)
        dev.access(make_access(kind=AccessType.WRITE, size=64), lambda a: None)
        sim.run()
        assert dev.stats.bytes_read == 128
        assert dev.stats.bytes_written == 64

    def test_row_hit_rate_aggregates_vaults(self, hmc):
        sim, dev = hmc
        for _ in range(4):
            dev.access(make_access(vault=0, bank=0, row=7), lambda a: None)
        sim.run()
        assert dev.row_hit_rate == pytest.approx(0.75)
        assert dev.total_served == 4
