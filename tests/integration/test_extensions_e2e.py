"""End-to-end tests for the extension features working together."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.system.configs import TABLE_III, get_spec
from repro.system.run import run_workload
from repro.workloads import WORKLOAD_NAMES, get_workload
from tests.conftest import tiny_system_config


class TestStealingHelpsImbalance:
    def test_stealing_helps_cg_s_but_not_balanced_loads(self):
        """The paper: stealing only pays under significant load imbalance
        (Section III-B); CG.S is the imbalanced workload."""
        cfg = tiny_system_config()

        def kernel_time(policy, workload, scale):
            spec = TABLE_III["UMN"].with_(cta_policy=policy)
            return run_workload(spec, get_workload(workload, scale), cfg=cfg).kernel_ps

        # Balanced workload: stealing is never slower and at most a small
        # tail-trimming win on this scaled-down machine.
        steal = kernel_time("stealing", "KMN", 0.3)
        static = kernel_time("static", "KMN", 0.3)
        assert 0.9 * static <= steal <= 1.02 * static
        # Imbalanced workload: stealing never hurts.
        assert kernel_time("stealing", "CG.S", 1.0) <= 1.02 * kernel_time(
            "static", "CG.S", 1.0
        )


class TestFlitModelEndToEnd:
    @pytest.mark.parametrize("arch", ["GMN", "UMN", "CMN"])
    def test_flit_model_runs_every_network_org(self, arch):
        cfg = dataclasses.replace(tiny_system_config(), network_model="flit")
        r = run_workload(TABLE_III[arch], get_workload("KMN", 0.1), cfg=cfg)
        assert r.kernel_ps > 0
        assert r.net_delivered > 0

    def test_flit_kernel_never_faster_than_packet_under_load(self):
        results = {}
        for model in ("packet", "flit"):
            cfg = dataclasses.replace(tiny_system_config(), network_model=model)
            results[model] = run_workload(
                TABLE_III["GMN"], get_workload("BP", 0.3), cfg=cfg
            ).kernel_ps
        assert results["flit"] >= results["packet"]


class TestInterleaveAblationEndToEnd:
    def test_page_interleave_still_completes(self):
        cfg = dataclasses.replace(
            tiny_system_config(), intra_cluster_interleave="page"
        )
        r = run_workload(TABLE_III["UMN"], get_workload("KMN", 0.2), cfg=cfg)
        assert r.kernel_ps > 0

    def test_page_interleave_concentrates_hmc_traffic(self):
        ratios = {}
        for interleave in ("line", "page"):
            cfg = dataclasses.replace(
                tiny_system_config(), intra_cluster_interleave=interleave
            )
            r = run_workload(
                TABLE_III["GMN"], get_workload("SCAN", 0.3), cfg=cfg,
                collect_traffic=True,
            )
            # Column sums: total traffic into each destination node.
            totals = [sum(column) for column in zip(*r.traffic_matrix)]
            worst = 1.0
            for c in range(4):
                cluster = totals[c * 4 : (c + 1) * 4]
                if min(cluster) > 0:
                    worst = max(worst, max(cluster) / min(cluster))
                else:
                    worst = max(worst, float("inf"))
            ratios[interleave] = worst
        assert ratios["page"] > ratios["line"]


class TestNVLinkEndToEnd:
    def test_nvlink_orders_between_pcie_and_umn_across_workloads(self):
        cfg = tiny_system_config()
        for name in ("BP", "KMN"):
            t = {}
            for arch in ("PCIe", "NVLink", "UMN"):
                r = run_workload(get_spec(arch), get_workload(name, 0.2), cfg=cfg)
                t[arch] = r.kernel_ps + r.memcpy_ps
            assert t["UMN"] < t["NVLink"] < t["PCIe"], name


@settings(max_examples=10, deadline=None)
@given(
    name=st.sampled_from(WORKLOAD_NAMES),
    arch=st.sampled_from(["PCIe", "CMN", "GMN", "UMN", "NVLink"]),
    policy=st.sampled_from(["static", "round_robin", "stealing"]),
)
def test_any_combination_completes(name, arch, policy):
    """Property: every (workload, architecture, CTA policy) combination
    runs to completion with conserved requests at tiny scale."""
    spec = get_spec(arch).with_(cta_policy=policy)
    r = run_workload(spec, get_workload(name, 0.05), cfg=tiny_system_config())
    assert r.kernel_ps > 0
    assert r.total_ps >= r.kernel_ps
