"""Tests for the periodic sampler and the self-time profiler."""

import pytest

from repro.errors import MetricError
from repro.obs import ChromeTracer, Sampler, SelfTimeProfiler
from repro.obs.selftime import OTHER, fold_stats, package_of
from repro.sim.engine import Simulator


def _busy_sim(until_ps: int, step_ps: int = 100) -> Simulator:
    """A simulator with a no-op event every ``step_ps`` until ``until_ps``."""
    sim = Simulator()
    for t in range(step_ps, until_ps + 1, step_ps):
        sim.at(t, lambda: None)
    return sim


class TestSampler:
    def test_cadence_on_toy_simulator(self):
        sim = _busy_sim(10_000)
        sampler = Sampler(sim, interval_ps=1_000)
        ticks = {"n": 0}

        def probe():
            ticks["n"] += 1
            return float(sim.now)

        sampler.add("t", probe)
        sampler.start()
        sim.run()
        # One sample per interval across the busy window.
        assert sampler.num_samples >= 10
        assert sampler.t_ps == sorted(sampler.t_ps)
        deltas = {
            b - a for a, b in zip(sampler.t_ps, sampler.t_ps[1:])
        }
        assert deltas == {1_000}
        assert sampler.series["t"] == [float(t) for t in sampler.t_ps]

    def test_sampler_does_not_keep_queue_alive(self):
        sim = _busy_sim(2_000)
        sampler = Sampler(sim, interval_ps=500)
        sampler.add("zero", lambda: 0.0)
        sampler.start()
        sim.run()
        assert sim.pending_events == 0  # terminated despite periodic probe

    def test_delta_probe_windows_a_monotonic_counter(self):
        sim = _busy_sim(3_000)
        total = {"v": 0.0}

        def bump():
            total["v"] += 10.0

        for t in range(100, 3_001, 100):
            sim.at(t, bump)
        sampler = Sampler(sim, interval_ps=1_000)
        sampler.add_delta("rate", lambda: total["v"])
        sampler.start()
        sim.run()
        # 10 bumps of 10 per 1000 ps window.
        assert sampler.series["rate"][0] == pytest.approx(100.0)

    def test_counter_events_mirrored_to_tracer(self):
        sim = _busy_sim(2_000)
        tracer = ChromeTracer()
        sampler = Sampler(sim, interval_ps=1_000, tracer=tracer)
        sampler.add("depth", lambda: 3.0)
        sampler.start()
        sim.run()
        counters = [e for e in tracer.events if e["ph"] == "C"]
        assert counters
        assert counters[0]["args"] == {"value": 3.0}

    def test_probe_name_collision(self):
        sampler = Sampler(Simulator(), interval_ps=100)
        sampler.add("x", lambda: 0.0)
        with pytest.raises(MetricError):
            sampler.add("x", lambda: 1.0)

    def test_bad_interval(self):
        with pytest.raises(MetricError):
            Sampler(Simulator(), interval_ps=0)

    def test_as_dict_is_json_shaped(self):
        sim = _busy_sim(1_000)
        sampler = Sampler(sim, interval_ps=500)
        sampler.add("x", lambda: 1.0)
        sampler.start()
        sim.run()
        dump = sampler.as_dict()
        assert dump["interval_ps"] == 500
        assert dump["num_samples"] == len(dump["t_ps"])
        assert list(dump["series"]) == ["x"]


class TestDisabledOverhead:
    def test_no_tracer_records_nothing(self):
        """With no tracer attached the engine does pure execution."""
        sim = Simulator()
        assert sim.tracer is None
        hits = {"n": 0}
        for t in range(100, 1_100, 100):
            sim.at(t, lambda: hits.__setitem__("n", hits["n"] + 1))
        sim.run()
        assert hits["n"] == 10

    def test_disabled_tracer_emits_no_events_in_real_run(self):
        from repro import get_spec, get_workload, run_workload_detailed

        result, system = run_workload_detailed(
            get_spec("UMN"), get_workload("VEC", 0.05)
        )
        assert system.sim.tracer is None
        assert system.sampler is None
        assert result.total_ps > 0


class TestSelfTimeProfiler:
    def test_package_of(self):
        import repro.network.network as network
        import repro.cli as cli

        assert package_of(network.__file__) == "repro.network"
        assert package_of(cli.__file__) == "repro.cli"
        assert package_of(pytest.__file__) is None
        assert package_of("~") is None

    def test_fold_charges_outside_time_to_callers(self):
        import repro.hmc.vault as vault
        import repro.network.network as network

        net = (network.__file__, 1, "hop")
        hmc = (vault.__file__, 1, "serve")
        helper = ("/usr/lib/python3/heapq.py", 1, "helper")
        builtin = ("~", 0, "<built-in method _heapq.heappush>")
        root = ("/usr/lib/python3/runpy.py", 1, "main")
        stats = {
            net: (1, 1, 2.0, 2.0, {}),
            hmc: (1, 1, 1.0, 1.0, {}),
            # 3 s inside the builtin: 2 s on the network's edge, 1 s on
            # the stdlib helper's, which hmc called for all its time.
            builtin: (3, 3, 3.0, 3.0, {
                net: (2, 2, 2.0, 2.0), helper: (1, 1, 1.0, 1.0),
            }),
            helper: (1, 1, 0.5, 1.5, {hmc: (1, 1, 0.5, 1.5)}),
            root: (1, 1, 0.25, 0.25, {}),  # nobody in repro called it
        }
        folded = fold_stats(stats)
        assert folded == pytest.approx(
            {"repro.network": 4.0, "repro.hmc": 2.5, OTHER: 0.25}
        )
        assert sum(folded.values()) == pytest.approx(6.75)

    def test_running_accumulates_and_disables_on_exception(self):
        profiler = SelfTimeProfiler()
        sim = _busy_sim(500)
        profiler.watch(sim)
        with profiler.running():
            sim.run()
        first = profiler.wall_s
        assert first > 0 and profiler.events == 5
        with pytest.raises(RuntimeError):
            with profiler.running():
                raise RuntimeError("x")
        assert profiler.wall_s > first
        report = profiler.report()
        assert report["events"] == 5
        assert "repro.sim" in report["by_package"]
        assert 0 < report["folded_s"] <= report["wall_s"] * 1.02
        assert "exclusive self time by package" in profiler.render()

    def test_nothing_profiled_renders_empty(self):
        profiler = SelfTimeProfiler()
        assert profiler.self_seconds() == {}
        assert profiler.report()["events_per_sec"] == 0.0
        assert "0 events" in profiler.render()
