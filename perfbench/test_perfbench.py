"""Tests for the benchmark's own arithmetic, tracing and declarations.

Run with ``python3 -m pytest perfbench`` from the root of the repository.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from metrics import (  # noqa: E402
    LayerTotal,
    count_failures,
    bracketed_ratios,
    error_rate,
    layer_metrics,
    layer_totals,
    self_times,
    tail,
)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CommandResult, check_commands  # noqa: E402


class TestTail:
    def test_exactly_ten_samples_beyond(self):
        value, percentile, count = tail(range(1, 31))
        assert value == 20  # 21..30 lie beyond it
        assert percentile == pytest.approx(100.0 * 20 / 30)
        assert count == 30

    def test_eleven_samples_gives_the_minimum(self):
        samples = [5.0, 1.0, 4.0, 9.0, 2.0, 8.0, 3.0, 7.0, 6.0, 10.0, 11.0]
        assert tail(samples)[:2] == (1.0, 100 / 11)

    def test_unsorted_input(self):
        samples = list(range(100, 0, -1))
        assert tail(samples)[0] == 90

    def test_too_few_samples_report_the_maximum(self):
        assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
        assert tail([1.0] * 10) == (1.0, 100.0, 10)

    def test_empty(self):
        with pytest.raises(ValueError):
            tail([])


class TestBracketedRatios:
    def test_each_pass_over_the_probes_around_it(self):
        assert bracketed_ratios([2.0, 3.0], [1.0, 3.0, 1.0]) == [1.0, 1.5]

    def test_host_slowdown_cancels(self):
        probes = [0.01, 0.02, 0.02, 0.01]
        times = [1.5, 2.0, 1.5]  # one pass of equal cost, run at two host speeds
        assert bracketed_ratios(times, probes) == pytest.approx([100.0, 100.0, 100.0])

    def test_needs_one_probe_more_than_passes(self):
        with pytest.raises(ValueError):
            bracketed_ratios([1.0, 1.0], [1.0, 1.0])


class TestErrorRate:
    def test_exit_codes_and_check_failures_count_once_per_command(self):
        assert count_failures([0, 1, 0, 2, 0], {1, 2}) == 3
        assert count_failures([0, 0], set()) == 0

    def test_out_of_range_check_index_is_ignored(self):
        assert count_failures([0, 0], {5}) == 0

    def test_rate(self):
        assert error_rate(3, 4) == 0.75
        assert error_rate(0, 7) == 0.0

    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            error_rate(0, 0)
        with pytest.raises(ValueError):
            error_rate(5, 4)

    def test_check_commands_counts_a_nonzero_exit(self, tmp_path):
        workload = WORKLOADS["sweep-directed"]
        results = [CommandResult("sweep", tmp_path, 2, "config error: x")]
        failures = check_commands(workload, results, oracle=None, rng=None)
        assert list(failures) == [0]
        assert "exited 2" in failures[0]

    def test_check_commands_counts_missing_output(self, tmp_path):
        workload = WORKLOADS["sweep-directed"]
        results = [CommandResult("sweep", tmp_path, 0, "")]
        assert list(check_commands(workload, results, oracle=None, rng=None)) == [0]


class TestSelfTime:
    # (id, parent, name, start, end)
    SPANS = [
        (1, 0, "child", 1.0, 3.0),
        (3, 2, "grandchild", 5.0, 6.0),
        (2, 0, "child", 4.0, 8.0),
        (0, None, "root", 0.0, 10.0),
    ]

    def test_only_direct_children_are_subtracted(self):
        own = self_times(self.SPANS)
        assert own[0] == pytest.approx(10.0 - 2.0 - 4.0)
        assert own[2] == pytest.approx(4.0 - 1.0)
        assert own[1] == pytest.approx(2.0)
        assert own[3] == pytest.approx(1.0)

    def test_totals_per_name(self):
        totals = layer_totals(self.SPANS, names=("never_called",))
        assert totals["child"].calls == 2
        assert totals["child"].seconds == pytest.approx(6.0)
        assert totals["child"].self_seconds == pytest.approx(5.0)
        assert totals["never_called"].calls == 0

    def test_self_time_per_point_excludes_wrapped_calls(self):
        spans = [(1, 0, "bounds.min_security", 1.0, 4.0),
                 (2, 0, "bounds.min_security", 5.0, 9.0),
                 (0, None, "secmap.evaluate_map", 0.0, 10.0)]
        totals = layer_totals(spans)
        counts = {("secmap.evaluate_map", "points"): 2}
        metrics, absent = layer_metrics(totals, counts, passes=1, commands=1)
        assert metrics["secmap.evaluate_map.self_us_per_point"].value == pytest.approx(1.5e6)
        assert metrics["bounds.min_security.calls_per_point"].value == 1.0
        assert metrics["bounds.min_security.us_per_call"].value == pytest.approx(3.5e6)

    def test_counts_are_per_pass_and_missing_layers_are_absent(self):
        totals = {"bounds.min_reliability": LayerTotal(46, 0.046, 0.046),
                  "planner.plan": LayerTotal(2, 0.1, 0.054)}
        metrics, absent = layer_metrics(totals, {}, passes=2, commands=2)
        assert metrics["bounds.min_reliability.calls"].value == 23
        assert metrics["planner.min_reliability_per_plan"].value == 23
        assert "bounds.min_security.us_per_call" in absent
        assert "cli.self_ms_per_cmd" in absent


class TestTracer:
    def test_wraps_where_looked_up_and_restores(self):
        from thzsecmap import bounds, linkmodel, planner, secmap
        original = bounds.min_reliability
        tracer = Tracer()
        with tracer.patched():
            assert planner.min_reliability is not original
            link = linkmodel.link_from_capacity_bits(2.0)
            code = bounds.SecrecyCode(100, 0.2, 0.5)
            planner.min_reliability(code, link)
        assert planner.min_reliability is original
        assert secmap.min_security is bounds.min_security
        assert [span[2] for span in tracer.spans] == ["bounds.min_reliability"]

    def test_missing_function_is_reported_not_raised(self):
        tracer = Tracer()
        layers = (("bounds.gone", "bounds", "no_such_function", None),
                  ("bounds.also_gone", "no_such_module", "f", None))
        with tracer.patched(layers):
            pass
        assert tracer.missing == {"bounds.no_such_function", "no_such_module.f"}
        assert tracer.traced == set()

    def test_nested_spans_record_their_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        (inner, outer) = tracer.spans
        assert inner[1] == outer[0] and outer[1] is None


def test_benchmark_json_matches_run_py():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in bench[key]} == declared
