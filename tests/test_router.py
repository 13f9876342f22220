from __future__ import annotations

import pytest

from lookforge.catalog import Taxonomy
from lookforge.errors import JudgeUnavailableError
from lookforge.router import (
    Concept,
    PromptSpec,
    load_prompt,
    match_concept_key,
    modifier_support,
    route,
    route_naive,
    save_prompt,
)


def make_taxonomy() -> Taxonomy:
    return Taxonomy(
        categories=("body", "hat", "jacket", "pants", "sweater"),
        concept_map={
            "hoodie": ("sweater", "jacket"),
            "pants": ("pants",),
            "cargo pants": ("pants",),
            "cap": ("hat",),
        },
        exclusion_groups=(("jacket", "sweater"),),
        view_map={},
        required_core=("body",),
    )


def test_match_longest_key_wins():
    cmap = make_taxonomy().concept_map
    assert match_concept_key("cargo pants", cmap) == "cargo pants"
    assert match_concept_key("linen pants", cmap) == "pants"
    assert match_concept_key("Hoodie", cmap) == "hoodie"
    assert match_concept_key("space helmet", cmap) is None


def test_match_is_whole_word():
    cmap = {"cap": ("hat",)}
    assert match_concept_key("escape room prop", cmap) is None
    assert match_concept_key("red cap", cmap) == "cap"


def test_modifier_support_counts_tokens():
    table = {"jacket": frozenset({"zip", "coat"})}
    assert modifier_support("jacket", ("zip-up", "black"), table) == 1
    assert modifier_support("jacket", ("zip", "coat"), table) == 2
    assert modifier_support("sweater", ("zip",), table) == 0


def test_route_expands_ambiguous_concept_and_resolves_by_modifiers():
    spec = PromptSpec(
        text="an explorer with a zip-up black hoodie",
        concepts=(Concept("hoodie", ("zip-up", "black")),),
    )
    plan = route(spec, make_taxonomy())
    # Both hoodie senses entered, then the zip modifier kept the jacket.
    assert plan.target_categories == ("body", "jacket")
    assert plan.provenance == {"body": "required-core", "jacket": "concept-expanded"}
    assert len(plan.resolved_exclusions) == 1
    res = plan.resolved_exclusions[0]
    assert res.kept == "jacket"
    assert res.dropped == ("sweater",)
    assert "modifier support 1" in res.reason


def test_route_exclusion_tie_breaks_to_lower_category_id():
    spec = PromptSpec(text="a hoodie", concepts=(Concept("hoodie"),))
    plan = route(spec, make_taxonomy())
    res = plan.resolved_exclusions[0]
    assert res.kept == "jacket"  # "jacket" < "sweater"
    assert "tie broken by category id" in res.reason


def test_route_knit_modifier_keeps_sweater():
    spec = PromptSpec(
        text="a cozy knit hoodie", concepts=(Concept("hoodie", ("knit", "cozy")),)
    )
    plan = route(spec, make_taxonomy())
    assert plan.resolved_exclusions[0].kept == "sweater"
    assert "sweater" in plan.target_categories
    assert "jacket" not in plan.target_categories


def test_route_unmatched_concept_warns():
    spec = PromptSpec(text="x", concepts=(Concept("jetpack"),))
    plan = route(spec, make_taxonomy())
    assert any("jetpack" in w for w in plan.warnings)
    assert plan.target_categories == ("body",)


class FakeAdvisor:
    def __init__(self, suggestion=None, fail=False):
        self.suggestion = suggestion or {}
        self.fail = fail
        self.payloads = []

    def advise(self, payload):
        self.payloads.append(payload)
        if self.fail:
            raise JudgeUnavailableError("connection refused")
        return self.suggestion


def test_advisor_adds_categories():
    spec = PromptSpec(text="a ranger", concepts=())
    advisor = FakeAdvisor({"add_categories": ["pants", "hat"]})
    plan = route(spec, make_taxonomy(), advisor=advisor)
    assert plan.target_categories == ("body", "hat", "pants")
    assert plan.provenance == {
        "body": "required-core", "hat": "advisor-added", "pants": "advisor-added",
    }
    assert advisor.payloads == [{"text": "a ranger", "target_categories": ["body"]}]


def test_advisor_suggestions_are_constraint_checked():
    spec = PromptSpec(
        text="zip hoodie", concepts=(Concept("hoodie", ("zip",)),)
    )
    advisor = FakeAdvisor({"add_categories": ["sweater", "wings"]})
    plan = route(spec, make_taxonomy(), advisor=advisor)
    # sweater conflicts with the kept jacket, wings is unknown
    assert "sweater" not in plan.target_categories
    assert "wings" not in plan.target_categories
    assert any("exclusion conflict" in w for w in plan.warnings)
    assert any("unknown category" in w for w in plan.warnings)


@pytest.mark.parametrize("answer", [
    {"add_categories": 5},
    {"add_categories": "hat"},
    {"add_categories": [{"category_id": ["hat"]}]},
    {"add_categories": [{"category_id": "pants", "query": 7}]},
], ids=["int_list", "string_list", "list_category", "int_query"])
def test_malformed_advisor_answer_leaves_plan_as_routed(answer):
    # An object entry is malformed whatever it holds: an entry is a category id.
    spec = PromptSpec(text="a ranger", concepts=(Concept("cap"),))
    routed = route(spec, make_taxonomy())
    plan = route(spec, make_taxonomy(), advisor=FakeAdvisor(answer))
    assert plan.to_dict() == {**routed.to_dict(), "warnings": plan.warnings}
    assert len(plan.warnings) == len(routed.warnings) + 1


def test_advisor_failure_is_nonfatal():
    spec = PromptSpec(text="x", concepts=())
    plan = route(spec, make_taxonomy(), advisor=FakeAdvisor(fail=True))
    assert plan.target_categories == ("body",)
    assert any("advisor unavailable" in w for w in plan.warnings)


def test_route_naive_single_category_per_concept():
    spec = PromptSpec(text="x", concepts=(Concept("hoodie", ("zip-up",)),))
    plan = route_naive(spec, make_taxonomy())
    # min("jacket", "sweater") regardless of modifiers
    assert plan.target_categories == ("body", "jacket")
    assert plan.resolved_exclusions == []


def test_plan_to_dict_is_sorted():
    spec = PromptSpec(
        text="x", concepts=(Concept("cap"), Concept("cargo pants", ("olive",)))
    )
    plan = route(spec, make_taxonomy())
    doc = plan.to_dict()
    assert list(doc["provenance"]) == sorted(doc["provenance"])
    assert doc["target_categories"] == ["body", "hat", "pants"]


def test_prompt_file_round_trip(tmp_path):
    spec = PromptSpec(
        text="an explorer", concepts=(Concept("hoodie", ("zip-up", "black")),)
    )
    path = tmp_path / "prompt.json"
    save_prompt(spec, path)
    assert load_prompt(path) == spec


def test_prompt_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "prompt.json"
    path.write_text('{"schema_version": 99, "text": "x"}')
    with pytest.raises(ValueError, match="schema version"):
        load_prompt(path)


@pytest.mark.parametrize("concepts", [
    [{"noun": "hoodie", "modifiers": "zip"}],
    [{"noun": "hoodie", "modifiers": ["zip-up", 7]}],
    [{"noun": ["hoodie"]}],
    [{"modifiers": ["zip"]}],
    ["hoodie"],
    {"noun": "hoodie"},
], ids=["string_modifiers", "non_string_modifier", "non_string_noun", "missing_noun",
        "string_concept", "object_concepts"])
def test_prompt_rejects_malformed_concepts(concepts):
    with pytest.raises(ValueError):
        PromptSpec.from_dict({"text": "a hoodie", "concepts": concepts}, "prompt.json")
