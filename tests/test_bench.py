"""The bench harness: document shape and comparison.

The actual throughput numbers are host-dependent and untestable; what
is pinned here is everything around them — the program runner,
regression comparison logic, and the summarize/diff text paths the
``repro stats`` command uses for ``phantom.bench/1`` documents.
"""

import pytest

from repro.bench import (BENCH_SCHEMA, WORKLOADS, WorkloadResult, compare,
                         diff_bench, document, is_bench_document,
                         summarize_bench, _run_program, _straight_line)


def make_result(name="branch_heavy", speedup=10.0):
    return WorkloadResult(name=name, iterations=100, instructions=1000,
                          slow_seconds=speedup, fast_seconds=1.0)


class TestWorkloadResult:
    def test_speedup_and_ips(self):
        r = make_result(speedup=8.0)
        assert r.speedup == 8.0
        assert r.fast_ips == 1000.0
        assert r.slow_ips == 125.0


class TestDocument:
    def test_schema_and_detection(self):
        doc = document([make_result()], quick=True)
        assert doc["schema"] == BENCH_SCHEMA
        assert is_bench_document(doc)
        assert not is_bench_document({"schema": "phantom.run/1"})
        assert not is_bench_document([])

    def test_compare_flags_regressions_only_beyond_tolerance(self):
        baseline = document([make_result(speedup=10.0)])
        ok = document([make_result(speedup=8.0)])
        bad = document([make_result(speedup=6.0)])
        assert compare(ok, baseline, tolerance=0.3) == []
        problems = compare(bad, baseline, tolerance=0.3)
        assert len(problems) == 1
        assert "branch_heavy" in problems[0]

    def test_compare_rejects_non_bench_baseline(self):
        with pytest.raises(ValueError):
            compare(document([make_result()]), {"schema": "nope"})

    @pytest.mark.parametrize("run_quick", [True, False])
    def test_compare_rejects_baseline_of_the_other_mode(self, run_quick):
        run = document([make_result()], quick=run_quick)
        baseline = document([make_result()], quick=not run_quick)
        with pytest.raises(ValueError, match="quick"):
            compare(run, baseline)
        assert compare(run, document([make_result()],
                                     quick=run_quick)) == []

    def test_summarize_lists_workload_speedups(self):
        text = summarize_bench(document([make_result(speedup=12.0)]))
        assert "branch_heavy" in text
        assert "12.00x" in text

    def test_diff_reports_speedup_delta(self):
        a = document([make_result(speedup=10.0)])
        b = document([make_result(speedup=12.0)])
        assert "+2.00x" in diff_bench(a, b)

    def test_diff_notes_missing_workloads(self):
        a = document([make_result(name="syscall")])
        b = document([make_result(name="straight_line")])
        text = diff_bench(a, b)
        assert "only in A" in text and "only in B" in text


class TestRunners:
    def test_program_runner_engines_agree(self):
        slow_instrs, slow_wall = _run_program(_straight_line, 50, False)
        fast_instrs, fast_wall = _run_program(_straight_line, 50, True)
        assert slow_instrs == fast_instrs > 0
        assert slow_wall > 0 and fast_wall > 0

    def test_workload_registry_matches_sizes(self):
        from repro.bench import _SIZES
        assert set(WORKLOADS) == set(_SIZES)
