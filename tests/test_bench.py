"""The bench harness: document shape, comparison, skipped-cycle stats.

The actual throughput numbers are host-dependent and untestable; what
is pinned here is everything around them — engines retiring identical
instruction counts, the skipped-cycle count landing in the document,
regression comparison logic, and the summarize/diff text paths the
``repro stats`` command uses for ``phantom.bench/1`` documents.
"""

import pytest

from repro.bench import (BENCH_SCHEMA, WORKLOADS, WorkloadResult, compare,
                         diff_bench, document, is_bench_document,
                         summarize_bench, _run_idle_loop, _run_program,
                         _straight_line)


def make_result(name="branch_heavy", speedup=10.0, skipped=None):
    return WorkloadResult(name=name, iterations=100, instructions=1000,
                          slow_seconds=speedup, fast_seconds=1.0,
                          cycles_skipped=skipped)


class TestWorkloadResult:
    def test_speedup_and_ips(self):
        r = make_result(speedup=8.0)
        assert r.speedup == 8.0
        assert r.fast_ips == 1000.0
        assert r.slow_ips == 125.0

    def test_to_dict_includes_cycles_skipped_when_present(self):
        assert make_result(skipped=30).to_dict()["cycles_skipped"] == 30
        assert make_result(skipped=0).to_dict()["cycles_skipped"] == 0
        assert "cycles_skipped" not in make_result().to_dict()


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

    def test_summarize_mentions_cycles_skipped(self):
        text = summarize_bench(document([make_result(skipped=77)]))
        assert "branch_heavy" in text
        assert "cycles_skipped=77" in text

    def test_diff_reports_speedup_delta_and_stat_changes(self):
        a = document([make_result(speedup=10.0, skipped=0)])
        b = document([make_result(speedup=12.0, skipped=9)])
        text = diff_bench(a, b)
        assert "+2.00x" in text
        assert "cycles_skipped 0 -> 9" in text
        same = diff_bench(a, document([make_result(speedup=12.0,
                                                   skipped=0)]))
        assert "cycles_skipped" not in same   # unchanged stays silent

    def test_diff_notes_missing_workloads(self):
        a = document([make_result(name="syscall")])
        b = document([make_result(name="idle_loop")])
        text = diff_bench(a, b)
        assert "only in A" in text and "only in B" in text


class TestRunners:
    def test_idle_loop_engines_agree_and_record_stats(self):
        slow_instrs, _, slow_skipped = _run_idle_loop(20, False)
        fast_instrs, _, fast_skipped = _run_idle_loop(20, True)
        assert slow_instrs == fast_instrs > 0
        assert slow_skipped == 0
        assert fast_skipped == 20 * 2000

    def test_program_runner_returns_cycles_skipped(self):
        instrs, wall, skipped = _run_program(_straight_line, 50, True)
        assert instrs > 0 and wall > 0
        assert skipped == 0   # the program never idles

    def test_workload_registry_matches_sizes(self):
        from repro.bench import _SIZES
        assert set(WORKLOADS) == set(_SIZES)
        assert "idle_loop" in WORKLOADS
