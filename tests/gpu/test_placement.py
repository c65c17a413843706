"""CTA placement over lazily built SMs equals the eager placement.

The reference GPU builds every SM up front and fills them in a list sorted
by ``(resident CTAs, sm_id)``, the placement the dispatcher had before SMs
were built on first use.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cta_scheduler import (
    StaticChunkSchedule,
    StealingSchedule,
    partition_chunks,
)
from repro.core.kernel import Kernel, Phase
from repro.gpu.gpu import GPU
from repro.sim.engine import Simulator
from tests.conftest import tiny_gpu_config


class RecordingGPU(GPU):
    """Logs every CTA start as ``(time, kernel, cta, sm_id)``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.placements = []

    def _start_cta(self, sm, ctx, cta):
        self.placements.append((self.sim.now, ctx.kernel.name, cta, sm.sm_id))
        super()._start_cta(sm, ctx, cta)


class EagerGPU(RecordingGPU):
    """Every SM built at construction; fills scan them least-loaded first."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.all_sms = [self.sms[i] for i in range(self.cfg.num_sms)]

    def _fill_all_sms(self):
        progress = True
        while progress:
            progress = False
            for sm in sorted(self.all_sms, key=lambda s: (s.resident_ctas, s.sm_id)):
                if not sm.has_free_slot:
                    continue
                work = self._next_work()
                if work is None:
                    return
                self._start_cta(sm, *work)
                progress = True


def kernel(name, ctas, base_ps):
    # Uneven CTA lengths leave SMs unevenly loaded when the second kernel
    # arrives, so its fill exercises the least-loaded ordering.
    return Kernel(name, (ctas,), lambda c: [Phase(base_ps * (1 + c % 3))])


def run(gpu_cls, num_sms, max_ctas, ctas1, ctas2, second_at_ps, steal):
    sim = Simulator()
    cfg = dataclasses.replace(tiny_gpu_config(num_sms), max_ctas_per_sm=max_ctas)
    # GPU 1 of 2.  With stealing, the second kernel's own share may be
    # empty; it then starts through _check_context, not through a fill.
    gpu = gpu_cls(sim, 1, cfg)
    gpu.memory_port = lambda access, on_done: sim.after(1_000, on_done)
    done = []
    finish = lambda: done.append(sim.now)
    gpu.launch(kernel("a", ctas1, 3_000), StaticChunkSchedule(ctas1, 2), finish)

    def second():
        schedule = (StealingSchedule if steal else StaticChunkSchedule)(ctas2, 2)
        gpu.launch(kernel("b", ctas2, 2_000), schedule, finish, concurrent=True)
        if steal:
            schedule.enable_stealing()

    sim.at(second_at_ps, second)
    sim.run()
    assert len(done) == 2, "a kernel did not complete"
    return gpu


@settings(max_examples=200, deadline=None)
@given(
    num_sms=st.integers(1, 12),
    max_ctas=st.integers(1, 4),
    ctas1=st.integers(1, 60),
    ctas2=st.integers(1, 12),
    second_at_ps=st.sampled_from([0, 2_500, 7_000]),
    steal=st.booleans(),
)
# Kernel a fills SMs 0-3 and leaves SM 4 unbuilt; kernel b's share is
# empty, so its stolen CTA must go to SM 4, the lowest id with a slot.
@example(num_sms=5, max_ctas=1, ctas1=8, ctas2=1, second_at_ps=0, steal=True)
# SM 1 has drained when kernel b arrives: a built, empty SM ties with the
# unbuilt SMs 2-3 and wins on its lower id.
@example(num_sms=4, max_ctas=1, ctas1=4, ctas2=2, second_at_ps=7_000, steal=False)
def test_lazy_placement_equals_eager(
    num_sms, max_ctas, ctas1, ctas2, second_at_ps, steal
):
    args = (num_sms, max_ctas, ctas1, ctas2, second_at_ps, steal)
    lazy = run(RecordingGPU, *args)
    eager = run(EagerGPU, *args)
    assert lazy.placements == eager.placements
    share = len(partition_chunks(ctas1, 2)[1])
    share += ctas2 if steal else len(partition_chunks(ctas2, 2)[1])
    assert len(lazy.placements) == share
    # Only SMs that received a CTA were built.
    assert set(lazy.sms) == {sm_id for *_, sm_id in lazy.placements}
