"""RunOptions: validation, config overrides, and scoping."""

import contextvars

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.obs import Observability
from repro.options import RunOptions, current, using


class TestValidation:
    def test_unknown_fidelity(self):
        with pytest.raises(ConfigError, match="unknown network model 'bogus'"):
            RunOptions(fidelity="bogus")

    def test_unknown_scheduler(self):
        with pytest.raises(ConfigError, match="unknown scheduler 'bogus'"):
            RunOptions(scheduler="bogus")

    @pytest.mark.parametrize("ratio", [1.0, 0.5, -2.0])
    def test_prefilter_must_exceed_one(self, ratio):
        with pytest.raises(ConfigError, match="prefilter ratio must be > 1"):
            RunOptions(prefilter=ratio)

    def test_valid_values_accepted(self):
        opts = RunOptions(fidelity="flit", scheduler="fcfs", prefilter=1.5)
        assert (opts.fidelity, opts.scheduler, opts.prefilter) == ("flit", "fcfs", 1.5)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunOptions().jobs = 2


class TestApply:
    def test_no_override_returns_cfg_unchanged(self):
        cfg = SystemConfig(seed=7)
        assert RunOptions().apply(cfg) is cfg
        assert RunOptions().apply(None) is None

    def test_overrides_fill_a_default_config(self):
        cfg = RunOptions(fidelity="flit", scheduler="fcfs").apply(None)
        assert cfg.network_model == "flit" and cfg.hmc.scheduler == "fcfs"

    def test_matching_override_keeps_the_object(self):
        cfg = SystemConfig(network_model="flit")
        assert RunOptions(fidelity="flit").apply(cfg) is cfg

    def test_analytic_with_non_default_scheduler_is_rejected(self):
        with pytest.raises(ConfigError, match="analytic tier"):
            RunOptions(fidelity="analytic", scheduler="fcfs").apply(None)


class TestScoping:
    def test_defaults_outside_any_scope(self):
        assert current() == RunOptions()

    def test_nested_scopes_restore_in_order(self):
        outer, inner = RunOptions(jobs=2), RunOptions(keep_going=True)
        with using(outer) as got:
            assert got is outer and current() is outer
            with using(inner):
                # Unnamed fields take their defaults, not the outer scope's.
                assert current() is inner and current().jobs is None
            assert current() is outer
        assert current() == RunOptions()

    def test_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with using(RunOptions(scheduler="fcfs")):
                raise RuntimeError("boom")
        assert current() == RunOptions()

    def test_worker_initializer_drops_inherited_options(self):
        from repro.exec.jobs import _worker_initializer

        with using(RunOptions(jobs=2, obs=Observability(trace=True))):
            inherited = contextvars.copy_context()

        def start_worker():
            _worker_initializer()
            return current()

        assert inherited.run(start_worker) == RunOptions()
