"""Tests of the benchmark's own machinery (not of the program).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import pb_common as pc  # noqa: E402
import pb_trace  # noqa: E402

# Runs a few Fig. 14 points traced in a child process (tracing patches
# the program for the life of the process), optionally with a delay
# injected inside the page-table layer's wrapped call.
PROBE = """
import sys, time
sys.path.insert(0, {here!r})
import pb_common as pc
pc.program_on_path()
import pb_trace
from repro.exec import SweepExecutor
from repro.system.builder import MultiGPUSystem

delay = float(sys.argv[2])
if delay:
    original = MultiGPUSystem.install_page_table

    def install_page_table(self, *args, **kwargs):
        time.sleep(delay)
        return original(self, *args, **kwargs)

    MultiGPUSystem.install_page_table = install_page_table
recorder = pb_trace.install(sys.argv[1])
jobs = pc.fig14_grid(0.01, 1)[:6]
start = time.perf_counter()
SweepExecutor(jobs=1).map_outcomes(jobs)
print(time.perf_counter() - start)
recorder.flush()
"""


def _traced_record(tmp_path, name, delay):
    out_dir = tmp_path / name
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(here=HERE), str(out_dir), str(delay)],
        cwd=pc.ROOT,
        env=pc.program_env(),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    wall = float(done.stdout.strip())
    trace = pb_trace.load(str(out_dir))
    layers = pb_trace.layer_times(trace)
    # The layer self times reconcile with the wall timed around the sweep.
    assert abs(pb_trace.self_seconds(trace, lambda s: True) - wall) < 0.1 * wall
    return {
        "workload": "probe",
        "trace": 1,
        "fingerprint": {"nproc": 1},
        "metrics": {
            metric: {"value": layers.get(metric, 0.0)} for metric in compare.SELF_TIME
        },
    }


def test_compare_names_the_layer_with_an_injected_delay(tmp_path):
    base = _traced_record(tmp_path, "base", 0)
    slow = _traced_record(tmp_path, "slow", 0.05)
    result = compare.compare([base], [slow], bounds={})
    assert result[("probe", 1)]["largest_layer"] == "system.page_table_s"
    assert result[("probe", 1)]["largest_delta_s"] > 0.2


def test_self_times_replace_the_loop_by_its_fold():
    trace = {
        "spans": [
            {"id": "7.1", "name": pb_trace.POINT, "parent": None, "point": "7.1",
             "start": 0.0, "end": 10.0},
            {"id": "7.2", "name": "system.build", "parent": "7.1", "point": "7.1",
             "start": 1.0, "end": 3.0},
            {"id": "7.3", "name": pb_trace.LOOP, "parent": "7.1", "point": "7.1",
             "start": 3.0, "end": 9.0},
        ],
        "points": [{"point": "7.1", "fold": {"network": 4.0, "sim": 1.5}}],
    }
    layers = pb_trace.layer_times(trace)
    assert layers["exec.self_s"] == 2.0
    assert layers["system.build_s"] == 2.0
    assert layers["network.self_s"] == 4.0
    assert layers["sim.loop_s"] == 6.0 and layers["fold_s"] == 5.5
    # 0.5 s of the loop is outside the fold: it shows against a wall.
    assert pb_trace.self_seconds(trace, lambda s: True) == 9.5
    assert pb_trace.self_seconds(trace, lambda s: pb_trace.pid_of(s["id"]) == 8) == 0


def test_row_digest_ignores_engine_telemetry_only():
    assert pc.program_on_path()
    from repro.system.metrics import RunResult

    row = RunResult(workload="BP", arch="UMN", kernel_ps=5, memory_requests=3)
    fused = RunResult(
        workload="BP", arch="UMN", kernel_ps=5, memory_requests=3,
        events_executed=10, peak_pending_events=4,
    )
    wrong = RunResult(workload="BP", arch="UMN", kernel_ps=6, memory_requests=3)
    assert pc.row_digest(fused) == pc.row_digest(row)
    assert pc.row_digest(wrong) != pc.row_digest(row)


def _record(**fingerprint):
    base = {"nproc": 2, "cpu_model": "x", "python": "3.11.7", "bench_digest": "b"}
    base.update(fingerprint)
    return {
        "workload": "fig14-packet",
        "trace": 0,
        "fingerprint": base,
        "metrics": {"points_per_s": {"value": 10.0}},
    }


def test_compare_refuses_differing_fingerprints(tmp_path):
    assert compare.fingerprint_mismatches([_record()], [_record(code_digest="z")]) == []
    assert compare.fingerprint_mismatches([_record()], [_record(nproc=4)]) == [
        "nproc: 2 vs 4"
    ]
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_record()))
    new.write_text(json.dumps(_record(cpu_model="y")))
    assert compare.main([str(base), str(new)]) == 2


def test_compare_refuses_sides_without_the_same_groups(tmp_path):
    traced = _record()
    traced["trace"] = 1
    assert compare.group_mismatches([_record()], [traced]) == [
        "only BASE has fig14-packet trace=0",
        "only NEW has fig14-packet trace=1",
    ]
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_record()))
    new.write_text(json.dumps(traced))
    assert compare.main([str(base), str(new)]) == 2


def test_compare_flags_a_loss_beyond_the_bound():
    slow = _record()
    slow["metrics"]["points_per_s"]["value"] = 8.0
    result = compare.compare([_record()], [slow], bounds={"points_per_s": 0.15})
    assert result[("fig14-packet", 0)]["worse"] == ["points_per_s"]


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(pc.ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert e2e == pc.END_TO_END
    assert layers == pc.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_paper_err_is_zero_at_the_paper_ratios():
    rows = []
    for workload in ("A", "B"):
        for arch, kernel, memcpy in (
            ("PCIe", 35.0, 50.0),
            ("UMN", 85.0 / 8.5, 0.0),
            ("CMN", 85.0 / 1.8 - 1.0, 1.0),
            ("GMN", 10.0, 5.0),
        ):
            rows.append(
                {"workload": workload, "arch": arch, "kernel_us": kernel, "memcpy_us": memcpy}
            )
    assert pc.paper_err_fig14(rows) < 1e-12


def test_package_of():
    assert pb_trace.package_of("/x/src/repro/network/router.py") == "network"
    assert pb_trace.package_of("/x/src/repro/mem.py") == "mem"
    assert pb_trace.package_of("/usr/lib/python3.11/heapq.py") is None
    assert pb_trace.package_of("~") is None
