"""Tests of the benchmark's own arithmetic and checks.

Run from the root of the checkout: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import random
import re
import sys

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    """Returns the queued times in order."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def _nested_tracer():
    # outer [0, 10] holds a [1, 4] and b [5, 9]; a holds a nested a [2, 3]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    outer, a, b = tracer.name_id("x.outer"), tracer.name_id("x.a"), tracer.name_id("x.b")
    o = tracer.open(outer)
    s1 = tracer.open(a)
    s2 = tracer.open(a)
    tracer.close(s2)
    tracer.close(s1)
    s3 = tracer.open(b)
    tracer.close(s3)
    tracer.close(o)
    return tracer


def test_self_time_is_duration_minus_child_coverage():
    s = spans.SpanSummary(_nested_tracer())
    assert s.self_time == [10 - 3 - 4, 3 - 1, 1, 4]
    assert s.self_total(["x.outer"]) == 3
    assert s.self_total(["x.a"]) == 3  # 2 of the outer a, 1 of the nested a


def test_layer_total_counts_nested_spans_once():
    s = spans.SpanSummary(_nested_tracer())
    assert s.total(["x.a"]) == 3
    assert s.total(["x.a", "x.b"]) == 7
    assert s.total(["x.outer", "x.a"]) == 10
    assert s.calls(["x.a"]) == 2


def test_coverage_merges_overlapping_intervals():
    assert spans.coverage([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.coverage([]) == 0


def test_generator_is_timed_only_inside_next():
    clock = FakeClock([0, 1, 10, 11, 20, 21])
    tracer = spans.Tracer(clock=clock)

    def gen():
        yield 1
        yield 2

    gen.__module__ = "reslat.completion"
    wrapped = spans._wrapper(tracer, gen, "completion.gen", "amalgamation", None)
    assert list(wrapped()) == [1, 2]  # three next() calls: two items, then exhaustion
    s = spans.SpanSummary(tracer)
    assert s.total(["completion.gen"]) == 3
    assert s.counts["calls.amalgamation.completion.gen"] == 1


def test_metric_names_and_units_follow_the_grammar():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    for m in bench["end_to_end"] + bench["per_layer"]:
        names.append(m["name"])
        assert UNIT.fullmatch(m["unit"]), m
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(layers.PER_LAYER.items())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    with open(os.path.join(BENCH_DIR, "design.json")) as fh:
        assert list(json.load(fh)["layer_map"]) == list(layers.PER_LAYER)


def _census_outputs():
    return {"counts": [list(row) for row in workloads.CENSUS_COUNTS], "tables": []}


def _round(checks, digest="d"):
    return {"attempted": len(checks), "failed_ops": [n for n, ok in checks if not ok], "digest": digest,
            "traced": False, "wall_s": 1.0, "setup_s": 0.1, "peak_rss_mib": 20.0,
            "measured_wall_s": 1.0, "measured_setup_s": 0.1, "reference_s": 0.25}


def test_fail_frac_counts_a_forced_mismatch():
    good = workloads.census_check(None, _census_outputs())
    bad_outputs = _census_outputs()
    bad_outputs["counts"][6][2] = 452  # the commutative integral 7-chains are 451
    bad = workloads.census_check(None, bad_outputs)
    assert len(bad) == len(good)
    summary = run.summarize([_round(bad)], trace=False)
    # the empty table list also misses the enumerated count and digest
    assert summary["failed"] == 3
    assert summary["attempted"] == len(bad)
    assert "count n=7 column 2" in summary["failed_ops"]
    assert not summary["correct"]


def test_rounds_that_disagree_count_as_failures():
    checks = [("op", True)]
    summary = run.summarize([_round(checks, "a"), _round(checks, "a"), _round(checks, "b")], trace=False)
    assert (summary["failed"], summary["attempted"]) == (1, 5)


def test_budget_and_partial_searches_fail():
    outputs = {"code": 0, "stdout": "{}", "searches": [
        (5, "BUDGET", 11, [5, 6]),
        (10, "UNSAT", 9, []),  # a search that examined nothing
        (10, "UNSAT", 11, [11]),
    ]}
    results = dict(workloads.paper_check(None, outputs))
    assert results["search UNSAT over sizes 5..11"] is False
    assert results["search UNSAT over sizes 10..9"] is False
    assert results["search UNSAT over sizes 10..11"] is False


def test_paper_digest_ignores_only_measured_times():
    report = {"steps": [
        {"step": "s", "ok": True, "detail": "0.52s"},
        {"step": "t", "ok": True, "search": {"verdict": "UNSAT", "wall_time_s": 0.5}},
    ]}
    later = json.loads(json.dumps(report))
    later["steps"][0]["detail"] = "1.07s"
    later["steps"][1]["search"]["wall_time_s"] = 0.9
    assert workloads.paper_canonical(report) == workloads.paper_canonical(later)
    later["steps"][1]["search"]["verdict"] = "FOUND"
    assert workloads.paper_canonical(report) != workloads.paper_canonical(later)


def test_random_tautologies_use_every_variable_and_operation_once():
    for seed in range(20):
        text = workloads.random_tautology(random.Random(seed))
        for v in workloads.RANDOM_VARIABLES:
            assert v in text
        body = text.replace("/\\", "M").replace("\\/", "J")
        assert (body.count("*"), body.count("\\")) == (1, 1)
        assert body.count("M") + body.count("J") == 3


def test_assignments_evaluated():
    class Result:
        def __init__(self, holds, variables, assignment=None):
            self.holds, self.variables, self.assignment = holds, variables, assignment

    assert layers.assignments_evaluated(14, Result(True, ("x", "y"))) == 196
    assert layers.assignments_evaluated(5, Result(False, ("x", "y"), (1, 2))) == 8
