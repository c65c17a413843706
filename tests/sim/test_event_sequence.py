"""Pin the event sequence's size: events run and peak heap depth per point.

The committed row digests cover what a run *computes*, not how many events
it took, so a change that adds, drops or fuses events can keep every row
and still go unnoticed.  These literals were recorded before the engine
learnt to carry an event argument; a change that only replaces *what* is
scheduled (never when, or in what order) leaves every one of them as is.
A change that fuses or removes events must update them on purpose and say
so in CHANGES.md.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.system.configs import get_spec
from repro.system.run import run_workload
from repro.workloads.suite import get_workload
from tests.conftest import tiny_system_config

SCALE = 0.05

#: (workload, organization, network model) -> (events_executed,
#: peak_pending_events) at the tiny two-GPU, two-SM test config.
EXPECTED = {
    ("BP", "PCIe", "packet"): (8120, 69),
    ("BP", "PCIe-ZC", "packet"): (11672, 69),
    ("BP", "CMN", "packet"): (8120, 69),
    ("BP", "CMN-ZC", "packet"): (7415, 69),
    ("BP", "GMN", "packet"): (7120, 69),
    ("BP", "GMN-ZC", "packet"): (11672, 69),
    ("BP", "UMN", "packet"): (7720, 69),
    ("VEC", "PCIe", "packet"): (4779, 69),
    ("VEC", "PCIe-ZC", "packet"): (6699, 69),
    ("VEC", "CMN", "packet"): (4203, 69),
    ("VEC", "CMN-ZC", "packet"): (4218, 69),
    ("VEC", "GMN", "packet"): (4059, 69),
    ("VEC", "GMN-ZC", "packet"): (6699, 69),
    ("VEC", "UMN", "packet"): (4379, 69),
    ("BP", "UMN", "flit"): (5202, 64),
}


@pytest.mark.parametrize(
    "workload,arch,model", list(EXPECTED), ids=["-".join(k) for k in EXPECTED]
)
def test_event_counts_unchanged(workload, arch, model):
    cfg = dataclasses.replace(
        tiny_system_config(num_gpus=2, num_sms=2), network_model=model
    )
    result = run_workload(get_spec(arch), get_workload(workload, SCALE), cfg=cfg)
    assert (result.events_executed, result.peak_pending_events) == EXPECTED[
        (workload, arch, model)
    ]
