"""Every access that reaches a vault must carry a requester stamp.

The QoS-aware scheduling policies classify requests by
``MemoryAccess.requester`` (see :func:`repro.hmc.sched.requester_class`),
so an unstamped request would silently land in the "other" class and
dodge both the CPU priority and the per-source batching.  This audit
wraps ``Vault.enqueue`` during a full host-participating run and asserts
no request arrives blank — and that both expected source shapes show up.
"""

from repro.hmc.sched import requester_class
from repro.hmc.vault import Vault
from repro.system.configs import TABLE_III
from repro.system.run import run_workload
from repro.workloads import get_workload
from tests.conftest import tiny_system_config


def _audit_run(arch, workload, scale, monkeypatch, **kw):
    seen = []
    original = Vault.enqueue

    def spy(self, access, *rest):
        seen.append(access.requester)
        return original(self, access, *rest)

    monkeypatch.setattr(Vault, "enqueue", spy)
    cfg = kw.pop("cfg", tiny_system_config(num_gpus=2, num_sms=2))
    run_workload(TABLE_III[arch], get_workload(workload, scale), cfg=cfg, **kw)
    return seen


class TestRequesterStamping:
    def test_no_unstamped_request_reaches_a_vault(self, monkeypatch):
        # CG.S on UMN: GPU kernels plus CPU reduction phases, all through
        # the shared memory network — both source classes hit the vaults.
        seen = _audit_run("UMN", "CG.S", 0.2, monkeypatch)
        assert seen, "audit saw no vault traffic"
        assert all(r != "" for r in seen)
        assert all(requester_class(r) in ("cpu", "gpu") for r in set(seen))

    def test_both_source_classes_observed(self, monkeypatch):
        seen = _audit_run("UMN", "CG.S", 0.2, monkeypatch)
        classes = {requester_class(r) for r in seen}
        assert classes == {"cpu", "gpu"}

    def test_gpu_stamps_carry_their_index(self, monkeypatch):
        seen = _audit_run("GMN", "VEC", 0.1, monkeypatch)
        gpu_sources = {r for r in seen if requester_class(r) == "gpu"}
        assert gpu_sources  # at least one GPU reached memory
        assert all(r.startswith("gpu") and r[3:].isdigit() for r in gpu_sources)

    def test_cpu_stamp_is_canonical(self, monkeypatch):
        seen = _audit_run("UMN", "CG.S", 0.2, monkeypatch)
        cpu_sources = {r for r in seen if requester_class(r) == "cpu"}
        assert cpu_sources == {"cpu"}
