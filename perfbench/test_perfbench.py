"""Tests for the benchmark's own code: span arithmetic, patching, output checks.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cournotprox as cp  # noqa: E402
import cournotprox.solver  # noqa: E402
import cournotprox.subqp  # noqa: E402
from cournotprox import cli  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=None, counters=None):
    return [name, start, end, parent, counters]


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, 0),
            span("leaf", 2.0, 3.0, 1),
            span("b", 5.0, 6.0, 0),
        ]
        assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_are_counted_once(self):
        spans = [span("root", 0.0, 10.0), span("a", 1.0, 4.0, 0), span("b", 3.0, 6.0, 0)]
        assert tracer.self_times(spans)[0] == pytest.approx(5.0)

    def test_summary_sums_calls_times_and_counters(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, 0, {"elems": 3}),
            span("a", 5.0, 6.0, 0, {"elems": 4}),
        ]
        table = tracer.summarize(spans)
        assert table["a"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0, "elems": 7}
        assert table["root"]["self_s"] == pytest.approx(6.0)

    def test_recorder_links_parents_and_merges_self_nesting(self):
        rec = tracer.Recorder()
        inner = rec.wrap("inner", lambda: 1)
        again = rec.wrap("outer", lambda: inner())
        outer = rec.wrap("outer", lambda: again() + inner())
        assert outer() == 2
        names = [s[0] for s in rec.spans]
        assert names == ["outer", "inner", "inner"]
        assert [s[3] for s in rec.spans] == [None, 0, 0]
        assert tracer.has_ancestor(rec.spans, 2, "outer")


class TestPatching:
    def test_missing_names_are_skipped(self):
        rec = tracer.Recorder()
        functions = [
            ("cournotprox.solver", "no_such_function", "x"),
            ("cournotprox.no_such_module", "f", "y"),
            ("cournotprox.subqp", "prox_step", "subqp.prox_step"),
        ]
        with tracer.traced(rec, functions, {"no_such_method": "costs.z"}) as skipped:
            cp.solve(cp.log_cost_market(3, 0))
        assert skipped == [
            "cournotprox.solver.no_such_function",
            "cournotprox.no_such_module.f",
            "cournotprox.costs.CostModel.no_such_method",
        ]
        assert {s[0] for s in rec.spans} == {"subqp.prox_step"}

    def test_caller_lookup_is_patched_and_restored(self):
        original = cournotprox.subqp.prox_step
        method = cp.LogCost.__dict__["value_components"]
        rec = tracer.Recorder()
        with tracer.traced(rec) as skipped:
            assert cournotprox.solver.prox_step is not original
            result, _ = cp.solve(cp.log_cost_market(3, 0))
        assert cournotprox.solver.prox_step is original
        assert cournotprox.subqp.prox_step is original
        assert cp.LogCost.__dict__["value_components"] is method
        assert skipped == ["cournotprox.costs.CostModel.value_and_gradient"]
        table = tracer.summarize(rec.spans)
        assert table["solver.solve"]["calls"] == 1
        assert table["solver.solve"]["iterations"] == result.iterations
        assert table["subqp.prox_step"]["calls"] == result.iterations
        assert table["costs.value"]["elems"] == 3 * table["costs.value"]["calls"]


def converged_solve():
    inst = cp.log_cost_market(4, 0)
    return cp.solve(inst, cp.SolverConfig(eps=1e-6))


class TestOutputChecks:
    def test_a_good_solve_passes(self):
        result, trace = converged_solve()
        assert workloads.check_solve(result, trace) == []

    def test_increasing_gamma_counts_as_a_failed_solve(self):
        good = converged_solve()
        result, trace = converged_solve()
        trace.gamma[2] = trace.gamma[1] + 1.0
        outcome = workloads.Outcome(0.0)
        workloads._record(outcome, [good, (result, trace)])
        assert outcome.failed / outcome.attempted == 0.5
        assert outcome.problems == ["gamma increases at row 2"]

    def test_corrupted_sweep_trace_counts_as_a_failed_solve(self, tmp_path, capsys):
        solves = []
        with tracer.captured("cournotprox.experiments", "solve", solves):
            code = cli.main(["--example", "log", "--sweep", "5,10", "--seed", "3",
                             "--out", str(tmp_path)])
        assert workloads.check_sweep_dir(tmp_path, 3, solves, code) == [[], []]
        path = tmp_path / "trace_log_n10_seed3.csv"
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = repr(float(lines[1].split(",")[1]) + 1.0)
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        problems = workloads.check_sweep_dir(tmp_path, 3, solves, code)
        assert problems[0] == []
        assert any("verify_run failed" in p for p in problems[1])


class TestHostClock:
    def test_window_takes_out_ticks_and_averages_their_slowness(self):
        clock = run.HostClock()
        clock.ticks = [(0.05, 0.01, 1.0), (1.0, 0.02, 2.0), (1.5, 0.01, 3.0), (3.0, 0.01, 9.0)]
        spent, slow = clock.window(0.9, 1.0)
        assert spent == pytest.approx(0.03)
        assert slow == pytest.approx(2.5)

    def test_window_without_a_tick_takes_the_nearest(self):
        clock = run.HostClock()
        clock.ticks = [(1.5, 0.01, 3.0), (3.0, 0.01, 9.0)]
        assert clock.window(2.35, 0.1) == (0.0, 9.0)

    def test_ticks_arrive_while_entered_and_stop_after(self):
        with run.HostClock() as clock:
            end = run.perf_counter() + 4 * run.TICK_S
            while run.perf_counter() < end:
                pass
        count = len(clock.ticks)
        assert count >= 2
        assert all(seconds > 0 and slow > 0 for _, seconds, slow in clock.ticks)
        end = run.perf_counter() + 2 * run.TICK_S
        while run.perf_counter() < end:
            pass
        assert len(clock.ticks) == count


class TestContract:
    def test_benchmark_json_names_what_the_runner_prints(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER

    def test_fails_without_the_library_sources(self, tmp_path):
        shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep-cold", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode != 0
        assert done.stdout == ""
