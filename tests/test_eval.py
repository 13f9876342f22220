import pytest

from lookforge.evalsuite import (
    ABLATIONS,
    EvalReport,
    markdown_table,
    run_interference_suite,
)

N = 12
SEED = 40


@pytest.fixture(scope="module")
def reports():
    return {a: run_interference_suite(N, base_seed=SEED, ablate=a) for a in ABLATIONS}


def test_full_branch_is_perfect_by_construction(reports):
    r = reports["none"]
    assert r.top1_accuracy == 1.0
    assert r.pool_recall == 1.0
    assert r.routed_coverage == 1.0


def test_suppression_off_never_finds_target(reports):
    # scenarios are resampled until the unsuppressed query misses, so this
    # arm failing to reach 0.0 would mean the eval diverges from the
    # scenario construction checks
    assert reports["suppression"].top1_accuracy == 0.0


def test_ablation_orderings(reports):
    assert reports["none"].top1_accuracy > reports["suppression"].top1_accuracy
    assert reports["none"].routed_coverage > reports["router"].routed_coverage
    assert reports["none"].top1_accuracy > reports["scaffold"].top1_accuracy


def test_naive_router_misses_match_coverage(reports):
    r = reports["router"]
    assert 0.0 < r.routed_coverage < 1.0
    # a routed scenario still runs the full suppressed branch, so
    # accuracy equals coverage in this arm
    assert r.top1_accuracy == r.routed_coverage


def test_deterministic(reports):
    again = run_interference_suite(N, base_seed=SEED, ablate="router")
    assert again == reports["router"]


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_interference_suite(5, ablate="nope")
    with pytest.raises(ValueError):
        run_interference_suite(0)


def test_markdown_table_shape():
    rows = [
        EvalReport("none", 4, 1.0, 1.0, 1.0),
        EvalReport("suppression", 4, 0.0, 0.75, 1.0),
    ]
    table = markdown_table(rows)
    lines = table.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("| ablation ")
    assert "| suppression | 4 | 0.000 | 0.750 | 1.000 |" in lines


def test_report_round_trip():
    r = run_interference_suite(3, base_seed=7, ablate="none")
    doc = r.to_dict()
    assert doc["ablation"] == "none"
    assert doc["n_scenarios"] == 3
    assert set(doc) == {
        "ablation", "n_scenarios", "top1_accuracy", "pool_recall",
        "routed_coverage",
    }
