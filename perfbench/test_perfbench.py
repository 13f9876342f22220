"""Tests for the benchmark's own code: python3 -m pytest perfbench"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from stats import tail, valid_metric_name  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_is_deterministic_per_seed(tmp_path):
    gen.generate("slate_heavy", 3, tmp_path / "a")
    gen.generate("slate_heavy", 3, tmp_path / "b")
    gen.generate("slate_heavy", 4, tmp_path / "c")
    a, b, c = tree(tmp_path / "a"), tree(tmp_path / "b"), tree(tmp_path / "c")
    assert a == b
    assert a.keys() == c.keys()
    assert a["catalog.jsonl"] != c["catalog.jsonl"]


def test_generator_plants_one_asset_per_routed_category(tmp_path):
    truth = gen.generate("slate_heavy", 5, tmp_path)
    for p, planted in enumerate(truth["planted"]):
        prompt = json.loads((tmp_path / "prompts" / f"prompt_{p:03d}.json").read_text())
        assert 1 <= len(prompt["concepts"]) <= 6
        assert gen.BODY in planted
        assert len(planted) == len(prompt["concepts"]) + 1
        assert not {"jacket", "sweater"} <= planted.keys()


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(valid_metric_name(n) for n in names)
    assert len(names) == len(set(names))
    assert not valid_metric_name("bad name")
    assert not valid_metric_name(".leading-dot")


def test_reported_metrics_match_benchmark_json():
    assert [n for n, _ in run.END_TO_END] == [m["name"] for m in SPEC["end_to_end"]]
    stages = {s: 1.0 for s in run.DEMO_STAGES}
    reported = run.layer_metrics(Tracer(), stages, 0.0, 0.0)
    assert list(reported) == [m["name"] for m in SPEC["per_layer"]]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        n: run.layer_unit(n) for n in reported}


@pytest.mark.parametrize("n, value, percentile", [
    (100, 89, 90.0),     # ten samples (90..99) beyond
    (1000, 989, 99.0),
    (22, 11, 1200 / 22),  # the first n whose ten-beyond sample is above the median
    (21, 20, 100.0),      # that sample would be the median: the maximum
    (12, 11, 100.0),
    (10, 9, 100.0),       # none has ten beyond: the maximum
    (1, 0, 100.0),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, value, percentile):
    samples = list(range(n))[::-1]  # order must not matter
    assert tail(samples) == (value, pytest.approx(percentile))


def span(name, parent, start, end, scope="look-0"):
    return [name, scope, parent, start, end]


def test_self_time_subtracts_covered_child_time():
    spans = [
        span("root", -1, 0, 100),
        span("a", 0, 10, 30),
        span("b", 0, 40, 90),
        span("b.child", 2, 50, 60),
    ]
    assert self_times(spans) == [30, 20, 40, 10]


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", -1, 0, 100), span("a", 0, 10, 50), span("b", 0, 30, 70),
             span("c", 0, 90, 120)]
    # children cover 10..70 and 90..100 of the root
    assert self_times(spans)[0] == 30


def test_tracer_wraps_call_sites_and_reports_missing_layers():
    import lookforge.pipeline
    import lookforge.synth

    original = lookforge.pipeline.estimate_subspaces
    tracer = Tracer()
    missing = tracer.install(
        span_targets=(("lookforge.pipeline", "estimate_subspaces", "synth.estimate_subspaces"),
                      ("lookforge.pipeline", "no_such_function", "pipeline.gone")),
        count_targets=())
    try:
        assert missing == ["lookforge.pipeline.no_such_function"]
        assert lookforge.pipeline.estimate_subspaces is not original
        assert lookforge.synth.estimate_subspaces is original
        with tracer.paused():
            assert lookforge.pipeline.estimate_subspaces is original
        assert lookforge.pipeline.estimate_subspaces is not original
    finally:
        tracer.uninstall()
    assert lookforge.pipeline.estimate_subspaces is original


def test_tracer_records_nesting_and_folds_recursion():
    tracer = Tracer()

    def fact(k):
        return 1 if k <= 1 else k * traced_fact(k - 1)

    traced_fact = tracer.wrap("m.fact", fact)
    outer = tracer.wrap("m.outer", lambda: traced_fact(4))
    with tracer.scoped("look-0", "bench.look"):
        assert outer() == 24
    names = [s[0] for s in tracer.spans]
    assert names == ["bench.look", "m.outer", "m.fact"]
    assert [s[2] for s in tracer.spans] == [-1, 0, 1]
    assert all(s[4] >= s[3] for s in tracer.spans)


class FakeRunner:
    """A runner whose traced looks take twice as long as untraced ones."""

    def __init__(self):
        self.truth = {"n_prompts": 3}
        self.checks = run.Checks(None, None, [])
        self.calls = []

    def look(self, k, p, traced=True):
        self.calls.append((k, p, traced))
        return 2.0 if traced else 1.0


def test_paired_loop_runs_each_prompt_traced_then_untraced():
    runner = FakeRunner()
    lat, _, overheads = run.closed_loop(runner, 1e-9, paired=True)
    # the loop ends only after a whole pair
    assert runner.calls == [(0, 0, True), (1, 0, False)]
    assert lat == [2.0] and overheads == [1.0]
