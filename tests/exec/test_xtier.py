"""The cross-tier harness: row comparison, tolerances, CLI dispatch."""

import json

import pytest

from repro.exec.xtier import (
    DEFAULT_TOLERANCE,
    TOLERANCE_FLOOR,
    TOLERANCE_MARGIN,
    compare_rows,
    relative_error,
    tolerance_from_errors,
)


class TestRelativeError:
    def test_symmetric_and_bounded(self):
        assert relative_error(100.0, 100.0) == 0.0
        assert relative_error(100.0, 50.0) == pytest.approx(0.5)
        assert relative_error(50.0, 100.0) == pytest.approx(0.5)
        # Zero reference cannot explode the metric.
        assert relative_error(0.0, 123.0) == pytest.approx(1.0)
        assert relative_error(0.0, 0.0) == 0.0


class TestCompareRows:
    def test_within_tolerance_is_clean(self):
        reference = [{"workload": "BP", "kernel_us": 100.0}]
        candidate = [{"workload": "BP", "kernel_us": 109.0}]
        worst, breaches = compare_rows(reference, candidate, {"kernel_us": 0.1})
        assert not breaches
        assert worst["kernel_us"] == pytest.approx(9.0 / 109.0)

    def test_breach_reports_row_and_column(self):
        reference = [{"workload": "BP", "kernel_us": 100.0}]
        candidate = [{"workload": "BP", "kernel_us": 150.0}]
        _, breaches = compare_rows(reference, candidate, {"kernel_us": 0.1})
        assert len(breaches) == 1
        assert breaches[0]["row"] == 0
        assert breaches[0]["column"] == "kernel_us"
        assert breaches[0]["tolerance"] == 0.1

    def test_unknown_column_uses_default_band(self):
        reference = [{"x": 1.0}]
        ok = [{"x": 1.0 + DEFAULT_TOLERANCE * 0.9}]
        bad = [{"x": 1.0 / (1.0 - DEFAULT_TOLERANCE) + 1.0}]
        assert not compare_rows(reference, ok, {})[1]
        assert compare_rows(reference, bad, {})[1]

    def test_identity_columns_must_match_exactly(self):
        reference = [{"workload": "BP", "kernel_us": 1.0}]
        candidate = [{"workload": "BFS", "kernel_us": 1.0}]
        _, breaches = compare_rows(reference, candidate, {})
        assert breaches and "identity mismatch" in breaches[0]["note"]

    def test_row_count_mismatch_is_structural(self):
        _, breaches = compare_rows([{"x": 1.0}], [], {})
        assert breaches and "row count differs" in breaches[0]["note"]

    def test_bools_are_identity_not_numbers(self):
        reference = [{"flag": True}]
        _, breaches = compare_rows(reference, [{"flag": False}], {})
        assert breaches and "identity mismatch" in breaches[0]["note"]


class TestToleranceFromErrors:
    def test_margin_and_floor(self):
        bands = tolerance_from_errors({"big": 0.4, "tiny": 0.001})
        assert bands["big"] == pytest.approx(0.4 * TOLERANCE_MARGIN)
        assert bands["tiny"] == TOLERANCE_FLOOR


class TestMainDispatch:
    @pytest.mark.parametrize(
        "argv", [[], ["diff"], ["--fresh", "out"], ["--baseline", "benchmarks"]]
    )
    def test_anything_but_xtier_is_a_usage_error(self, argv, capsys):
        from repro.exec.__main__ import main

        assert main(argv) == 2
        assert "xtier is the only subcommand" in capsys.readouterr().err

    def test_xtier_reports_missing_reference(self, tmp_path, capsys, monkeypatch):
        from repro.analytic import Calibration
        from repro.analytic.calibrate import PATH_ENV
        from repro.exec import xtier
        from repro.exec.__main__ import main

        artifact = tmp_path / "calibration.json"
        artifact.write_text(json.dumps({"schema": 1, "coefficients": {}}))
        # Pre-set the env override through monkeypatch so teardown undoes
        # the assignment main() makes; stub out the (packet-sweep) refit.
        monkeypatch.setenv(PATH_ENV, str(artifact))
        monkeypatch.setattr(
            xtier, "refit", lambda scale, executor=None: Calibration()
        )
        out = tmp_path / "report.json"
        code = main(
            [
                "xtier",
                "--figures",
                "fig14",
                "--artifact",
                str(artifact),
                "--out",
                str(out),
            ]
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert report["figures"]["fig14"]["missing_reference"]
        assert not report["ok"]
