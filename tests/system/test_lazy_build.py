"""SMs, vaults and DRAM banks are built on first use (repro.sim.lazy).

A system models Table I's full hardware, but only the components a run
touches exist as objects; an unbuilt one must read exactly like an idle
one everywhere stats are aggregated.
"""

import dataclasses
import re

import pytest

from repro import (
    MultiGPUSystem,
    Observability,
    SystemConfig,
    get_spec,
    get_workload,
    run_workload_detailed,
)
from repro.obs import bind
from repro.sim.lazy import LazyComponents
from repro.sim.watchdog import queue_depth_summary
from repro.system.configs import available_archs


def built_vaults(system):
    return [v for hmc in system.hmc_list for v in hmc.vaults.values()]


class TestLazyComponents:
    def test_builds_each_id_once_on_first_lookup(self):
        calls = []
        parts = LazyComponents(4, lambda i: calls.append(i) or f"part{i}")
        assert len(parts) == 0
        assert parts.get(2) is None and 2 not in parts
        assert parts[2] == "part2" and parts[2] == "part2"
        assert calls == [2]
        parts[0]
        assert sorted(parts.items()) == [(0, "part0"), (2, "part2")]

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_ids_outside_the_count_are_missing(self, bad):
        parts = LazyComponents(4, str)
        with pytest.raises(KeyError):
            parts[bad]
        assert len(parts) == 0


@pytest.mark.parametrize("arch", available_archs())
def test_fresh_system_builds_no_sm_vault_or_bank(arch):
    system = MultiGPUSystem(get_spec(arch))
    assert [len(gpu.sms) for gpu in system.gpus] == [0] * system.num_gpus
    assert built_vaults(system) == []
    # The modelled counts are unchanged.
    assert all(gpu.sms.count == system.cfg.gpu.num_sms for gpu in system.gpus)
    assert all(
        hmc.vaults.count == system.cfg.hmc.num_vaults for hmc in system.hmc_list
    )


def test_a_run_builds_only_what_it_used():
    result, system = run_workload_detailed(get_spec("UMN"), get_workload("BP", 0.02))
    sms = [sm for gpu in system.gpus for sm in gpu.sms.values()]
    vaults = built_vaults(system)
    assert sms and vaults
    assert all(sm.stats.ctas_executed > 0 for sm in sms)
    assert all(v.stats.served > 0 for v in vaults)
    assert all(
        bank.open_row is not None for v in vaults for bank in v.banks.values()
    )
    assert len(sms) < system.num_gpus * system.cfg.gpu.num_sms
    assert len(vaults) < len(system.hmc_list) * system.cfg.hmc.num_vaults
    served = sum(v.stats.served for v in vaults)
    assert served == sum(hmc.stats.accesses for hmc in system.hmc_list)
    assert result.memory_requests > 0


def test_vault_series_average_over_every_configured_vault(monkeypatch):
    occupancy = []
    install = bind.install_default_probes

    def probes(sampler, system):
        install(sampler, system)
        sampler.add(
            "test.occupancy_sum",
            lambda: sum(v.occupancy for v in built_vaults(system)),
        )
        occupancy.append(sampler.series["test.occupancy_sum"])

    monkeypatch.setattr(bind, "install_default_probes", probes)
    base = SystemConfig()
    # A two-entry vault queue makes this short run overflow.
    cfg = dataclasses.replace(
        base, hmc=dataclasses.replace(base.hmc, vault_queue_entries=2)
    )
    _, system = run_workload_detailed(
        get_spec("UMN"),
        get_workload("3DFD", 0.02),
        cfg=cfg,
        obs=Observability(sample_interval_us=0.05),
    )
    series = system.sampler.series
    for name in (
        "vault.queue_depth.mean",
        "vault.queue_depth.max",
        "vault.overflow_peak.max",
        "vault.queue_wait.ps_per_window",
    ):
        assert max(series[name]) > 0, name
    configured = len(system.hmc_list) * cfg.hmc.num_vaults
    assert series["vault.queue_depth.mean"] == [
        total / configured for total in occupancy[0]
    ]


def test_metric_tree_covers_every_configured_vault_without_building_one():
    system = MultiGPUSystem(get_spec("UMN"))
    per_vault = [
        n for n in system.metrics.names("hmc") if re.search(r"\.vault\d+\.", n)
    ]
    assert len(per_vault) == 3 * len(system.hmc_list) * system.cfg.hmc.num_vaults
    flat = system.metrics.as_flat()
    assert all(flat[n] == 0 for n in per_vault)
    assert built_vaults(system) == []


def test_queue_summary_reads_zero_when_nothing_is_built():
    system = MultiGPUSystem(get_spec("GMN"))
    summary = queue_depth_summary(system)
    assert "vault queues sum=0 max=0" in summary
    assert "resident CTAs=0 outstanding mem=0" in summary
    assert built_vaults(system) == []
