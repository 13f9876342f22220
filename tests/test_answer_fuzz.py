"""Fuzz the judge and advisor answers of all five operations.

Every answer reaches the pipeline through a ``ScriptedSource``, as a real
judge's would through ``HttpSource``. Whatever the answers, assembly and
routing either degrade the result or raise ``JudgeUnavailableError``; no
other exception escapes and no returned look breaks the pool, exclusion
or core invariants.
"""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from lookforge.assembly import EDIT_ACTIONS, GenerationBudget, filter_pools, validate_look
from lookforge.catalog import Taxonomy
from lookforge.errors import JudgeUnavailableError, MissingCoreCategoryError
from lookforge.judge import JudgeClient, ScriptedSource
from lookforge.pipeline import run_assembly
from lookforge.retrieval import Candidate
from lookforge.router import Concept, PromptSpec, route

TAXONOMY = Taxonomy(
    categories=("body", "hat", "jacket", "sweater"),
    concept_map={"hoodie": ("sweater", "jacket"), "cap": ("hat",)},
    exclusion_groups=(("jacket", "sweater"),),
    view_map={},
    required_core=("body",),
)
CATEGORIES = list(TAXONOMY.categories)
IDS = {cat: [f"{cat[0]}{i}" for i in range(4)] for cat in CATEGORIES}
ALL_IDS = [aid for ids in IDS.values() for aid in ids]
BUNDLES = {aid: f"bundle-{aid}" for aid in IDS["body"]}
POOLS = {
    cat: [Candidate(aid, 1.0 - 0.1 * i, "part", BUNDLES.get(aid)) for i, aid in enumerate(ids)]
    for cat, ids in IDS.items()
}
GATE_K = 3
# Caps as large as the slate: no judge answer can make the slate
# infeasible, so a budget error here would be a fault, not an outcome.
BUDGET = GenerationBudget(n_candidates=4, per_asset_cap=4, per_bundle_cap=4,
                          bundle_rotation=2, max_refine_iters=2, batch_size=2)
PROMPT = PromptSpec(text="a zip hoodie and a cap",
                    concepts=(Concept("hoodie", ("zip",)), Concept("cap")))

scalar = st.none() | st.booleans() | st.integers(-3, 7) | st.text(max_size=3)
junk = st.recursive(
    scalar,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
not_a_list = scalar | st.dictionaries(st.text(max_size=3), junk, max_size=2)


def mostly(strategy):
    """Usually ``strategy``, about one time in 20 arbitrary JSON, so that
    most runs get past the first answer and reach the later ones."""
    return st.integers(0, 19).flatmap(lambda n: junk if n == 19 else strategy)


category = mostly(st.sampled_from(CATEGORIES + ["wings"]))
asset_id = st.sampled_from(ALL_IDS + ["zz"])


def answers(*shapes):
    """A queue of answers in the op's shapes, any of which may be junk."""
    return st.lists(mostly(st.one_of(*shapes)), min_size=1, max_size=3)


# An edit naming an asset of its own category has a chance to apply.
fitting_edit = st.sampled_from(CATEGORIES).flatmap(lambda cat: st.fixed_dictionaries({
    "action": st.sampled_from(EDIT_ACTIONS),
    "category_id": st.just(cat),
    "asset_id": st.sampled_from(IDS[cat]),
}))
edit = fitting_edit | st.fixed_dictionaries(
    {"action": mostly(st.sampled_from(EDIT_ACTIONS + ("paint",))), "category_id": category},
    optional={"asset_id": mostly(asset_id)},
)
judge_scripts = st.fixed_dictionaries({
    "cycle": st.just(True),
    "filter_grid": answers(
        st.just({"keep": "all"}),
        st.fixed_dictionaries({"keep": mostly(st.lists(asset_id, max_size=16))}),
    ),
    "select_outfit": answers(
        st.just({"select": "top"}),
        st.fixed_dictionaries({"select": mostly(st.dictionaries(
            st.sampled_from(CATEGORIES + ["wings"]), mostly(asset_id), max_size=4))}),
    ),
    "verify": answers(
        st.fixed_dictionaries({
            "verdict": st.just("fail"),
            "edits": st.lists(mostly(edit), min_size=1, max_size=3),
        }),
        st.just({"verdict": "pass"}),
        st.fixed_dictionaries({
            "verdict": mostly(st.sampled_from(["fail", "maybe"])),
            "issues": st.lists(st.text(max_size=3) | junk, max_size=2) | not_a_list,
            "edits": st.lists(edit | junk, max_size=3) | not_a_list,
        }),
    ),
    "compare_batch": answers(
        st.fixed_dictionaries({"winner": mostly(st.integers(-2, 4) | st.just("max_look_id"))}),
    ),
})
advisor_answers = answers(
    st.fixed_dictionaries({}, optional={
        "add_categories": st.lists(
            category | st.fixed_dictionaries({"category_id": category}), max_size=3,
        ) | not_a_list,
    }),
)


@settings(max_examples=75)
@given(judge_scripts)
def test_run_assembly_degrades_or_raises_unavailable(script):
    try:
        result = run_assembly(
            POOLS, JudgeClient(ScriptedSource(script)), BUDGET,
            taxonomy=TAXONOMY, body_category="body", gate_k=GATE_K,
        )
    except JudgeUnavailableError:
        return
    except MissingCoreCategoryError:
        # The documented outcome when the judge keeps no candidate of a
        # required-core category; replay the filter answers to check that.
        filtered, _ = filter_pools(POOLS, JudgeClient(ScriptedSource(script)), GATE_K)
        assert any(not filtered[cat] for cat in TAXONOMY.required_core)
        return
    for look in (result.base_look, *result.candidates, result.winner):
        assert validate_look(look, result.filtered_pools, TAXONOMY.exclusion_groups,
                             TAXONOMY.required_core) == []
    assert result.winner in result.candidates


@settings(max_examples=100)
@given(advisor_answers)
def test_route_survives_any_advisor_answer(queue):
    plan = route(PROMPT, TAXONOMY, advisor=JudgeClient(ScriptedSource({"advise": queue})))
    assert set(plan.target_categories) <= set(TAXONOMY.categories)
    assert list(plan.provenance) == list(plan.target_categories)
    for group in TAXONOMY.exclusion_groups:
        assert sum(cat in plan.target_categories for cat in group) <= 1
