"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        order = []
        sim.at(300, lambda: order.append("c"))
        sim.at(100, lambda: order.append("a"))
        sim.at(200, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self, sim):
        order = []
        sim.at(100, lambda: order.append(1))
        sim.at(100, lambda: order.append(2))
        sim.at(100, lambda: order.append(3))
        sim.run()
        assert order == [1, 2, 3]

    def test_after_is_relative_to_now(self, sim):
        times = []
        sim.at(500, lambda: sim.after(250, lambda: times.append(sim.now)))
        sim.run()
        assert times == [750]

    def test_clock_advances_to_event_time(self, sim):
        sim.at(12345, lambda: None)
        sim.run()
        assert sim.now == 12345

    def test_scheduling_in_the_past_raises(self, sim):
        sim.at(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(50, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.after(-1, lambda: None)

    def test_zero_delay_runs_after_current_event(self, sim):
        order = []

        def first():
            sim.after(0, lambda: order.append("second"))
            order.append("first")

        sim.at(10, first)
        sim.run()
        assert order == ["first", "second"]

    def test_events_scheduled_during_run_execute(self, sim):
        hits = []

        def recurse(depth):
            hits.append(depth)
            if depth < 5:
                sim.after(10, lambda: recurse(depth + 1))

        sim.at(0, lambda: recurse(0))
        sim.run()
        assert hits == list(range(6))
        assert sim.now == 50


class TestRunLimits:
    def test_max_events_limit(self, sim):
        for t in range(10):
            sim.at(t * 10, lambda: None)
        assert sim.run(max_events=4) == 4
        assert sim.pending_events == 6

    def test_events_executed_accumulates(self, sim):
        sim.at(1, lambda: None)
        sim.at(2, lambda: None)
        sim.run()
        assert sim.events_executed == 2


class TestEventArgument:
    """``at``/``after`` carry one optional argument to the callback."""

    def test_argument_reaches_callback(self, sim):
        got = []
        sim.at(10, got.append, "at")
        sim.after(20, got.append, "after")
        sim.run()
        assert got == ["at", "after"]

    @pytest.mark.parametrize("max_events", [None, 1, 2, 1000])
    def test_argument_reaches_callback_in_every_run_loop(self, sim, max_events):
        got = []
        for t in range(5):
            sim.at(t, got.append, t)
        while sim.pending_events:
            sim.run(max_events=max_events)
        assert got == [0, 1, 2, 3, 4]

    def test_argument_reaches_callback_under_the_watchdog(self, sim, monkeypatch):
        from repro.sim import watchdog

        # 3-event slices force several bounded runs.
        monkeypatch.setattr(watchdog, "SLICE_EVENTS", 3)
        got = []
        for t in range(7):
            sim.at(t, got.append, t)
        assert watchdog.run_guarded(sim, max_events=10, wall_s=60.0) == 7
        assert got == list(range(7))

    def test_none_is_delivered_as_an_argument(self, sim):
        got = []
        sim.at(5, got.append, None)
        sim.after(5, got.append, None)
        sim.run()
        assert got == [None, None]

    def test_mixed_events_at_one_time_fire_in_insertion_order(self, sim):
        order = []
        sim.at(100, order.append, "arg-1")
        sim.at(100, lambda: order.append("bare-2"))
        sim.after(100, order.append, "arg-3")
        sim.after(100, lambda: order.append("bare-4"))
        sim.at(100, order.append, None)
        sim.run()
        assert order == ["arg-1", "bare-2", "arg-3", "bare-4", None]

    def test_past_time_with_argument_raises(self, sim):
        sim.at(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="in the past"):
            sim.at(50, print, "x")
        assert sim.pending_events == 0

    def test_negative_delay_with_argument_raises(self, sim):
        with pytest.raises(SimulationError, match="negative delay"):
            sim.after(-1, print, "x")
        assert sim.pending_events == 0
