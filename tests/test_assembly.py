from __future__ import annotations

import pytest

from lookforge.assembly import (
    AvatarLook,
    Edit,
    GenerationBudget,
    VerificationReport,
    assemble_initial,
    filter_pools,
    generate_candidates,
    rank_bundles,
    refine,
    tournament,
    validate_look,
)
from lookforge.catalog import Taxonomy
from lookforge.errors import (
    BudgetInfeasibleError,
    JudgeUnavailableError,
    MissingCoreCategoryError,
)
from lookforge.judge import JudgeClient, ScriptedSource
from lookforge.retrieval import Candidate


def pool(*ids, start=1.0, bundles={}):
    return [
        Candidate(a, start - i * 0.01, "part", bundles.get(a)) for i, a in enumerate(ids)
    ]


def rules(core=(), groups=()):
    """A taxonomy carrying the given required core and exclusion groups."""
    categories = tuple(dict.fromkeys([*core, *(c for g in groups for c in g)]))
    return Taxonomy(categories, exclusion_groups=groups, required_core=core)


NO_BASE = AvatarLook("no-base")


def scripted(responses) -> tuple[JudgeClient, ScriptedSource]:
    src = ScriptedSource(responses)
    return JudgeClient(src), src


# --- dataclasses -----------------------------------------------------------------


def test_budget_validation():
    GenerationBudget()
    with pytest.raises(ValueError):
        GenerationBudget(n_candidates=0)
    with pytest.raises(ValueError):
        GenerationBudget(batch_size=0)
    with pytest.raises(ValueError):
        GenerationBudget(batch_size=1)
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match="n_candidates must be an integer"):
            GenerationBudget(n_candidates=bad)


def test_edit_validation():
    Edit("remove", "hat")
    with pytest.raises(ValueError):
        Edit("replace", "hat")  # needs asset_id
    with pytest.raises(ValueError):
        Edit("paint", "hat", "a")


def test_report_fail_requires_content():
    VerificationReport("pass")
    VerificationReport("fail", edits=(Edit("remove", "hat"),))
    with pytest.raises(ValueError):
        VerificationReport("fail")
    with pytest.raises(ValueError):
        VerificationReport("maybe")


def test_report_from_dict_parses_issue_forms():
    rep = VerificationReport.from_dict(
        {
            "verdict": "fail",
            "issues": ["clipping", {"description": "bad hat", "category_id": "hat"}],
            "edits": [{"action": "remove", "category_id": "hat"}],
        }
    )
    assert rep.issues[0].description == "clipping"
    assert rep.issues[1].category_id == "hat"
    assert rep.edits[0].action == "remove"


def test_validate_look_reports_all_violations():
    pools = {"hat": pool("h1"), "body": pool("b1"), "jacket": pool("j1"),
             "sweater": pool("s1")}
    look = AvatarLook(
        "l", selections={"hat": "ghost", "jacket": "j1", "sweater": "s1"}
    )
    problems = validate_look(
        look, pools, (("jacket", "sweater"),), ("body",)
    )
    assert len(problems) == 3
    assert any("not in pool" in p for p in problems)
    assert any("exclusion group" in p for p in problems)
    assert any("missing" in p for p in problems)
    good = AvatarLook("l", selections={"hat": "h1", "body": "b1"})
    assert validate_look(good, pools, (("jacket", "sweater"),), ("body",)) == []


# --- filter_pools ------------------------------------------------------------------


def test_filter_pools_keeps_order_and_slices_gate_k():
    pools = {"hat": pool("h1", "h2", "h3", "h4")}
    judge, src = scripted({"filter_grid": [{"keep": ["h3", "h1"]}]})
    filtered, warnings = filter_pools(pools, judge, gate_k=3)
    # h4 never shown (gate_k=3); order follows the pool, not the judge reply
    assert [c.asset_id for c in filtered["hat"]] == ["h1", "h3"]
    assert warnings == []
    shown = src.calls[0][1]["candidates"]
    assert [c["asset_id"] for c in shown] == ["h1", "h2", "h3"]


def test_filter_pools_drops_foreign_ids_with_warning():
    judge, _ = scripted({"filter_grid": [{"keep": ["h1", "zz"]}]})
    filtered, warnings = filter_pools({"hat": pool("h1", "h2")}, judge, gate_k=5)
    assert [c.asset_id for c in filtered["hat"]] == ["h1"]
    assert any("zz" in w for w in warnings)


def test_filter_pools_empty_keep_flags_category():
    judge, _ = scripted({"filter_grid": [{"keep": []}]})
    filtered, warnings = filter_pools({"hat": pool("h1")}, judge, gate_k=5)
    assert filtered["hat"] == []
    assert any("every candidate" in w for w in warnings)


def test_filter_pools_empty_pool_skips_judge():
    judge, src = scripted({})
    filtered, warnings = filter_pools({"hat": []}, judge, gate_k=5)
    assert filtered["hat"] == [] and warnings == [] and src.calls == []


def test_filter_pools_judge_failure_propagates():
    judge, _ = scripted({})
    with pytest.raises(JudgeUnavailableError):
        filter_pools({"hat": pool("h1")}, judge, gate_k=5)


# --- assemble_initial ----------------------------------------------------------------


BASE_POOLS = {
    "body": pool("b1", "b2"),
    "hat": pool("h1", "h2"),
    "jacket": pool("j1"),
    "sweater": pool("s1"),
}


def test_assemble_top_selection_with_bundle():
    judge, _ = scripted({"select_outfit": [{"select": "top"}]})
    look = assemble_initial(
        {**BASE_POOLS, "body": pool("b1", "b2", bundles={"b1": "bundleA"})},
        judge,
        taxonomy=rules(("body",), (("jacket", "sweater"),)),
        body_category="body",
    )
    assert look.selections["body"] == "b1"
    assert look.selections["hat"] == "h1"
    assert look.body_bundle_id == "bundleA"
    assert look.status == "draft"
    # jacket picked, sweater dropped by exclusion (ascending order)
    assert look.selections.get("jacket") == "j1"
    assert "sweater" not in look.selections


def test_assemble_replaces_off_pool_pick():
    judge, _ = scripted(
        {"select_outfit": [{"select": {"body": "b1", "hat": "ghost"}}]}
    )
    look = assemble_initial(BASE_POOLS, judge, taxonomy=rules(("body",)), body_category=None)
    assert look.selections["hat"] == "h1"
    assert any("off-pool" in h for h in look.history)


def test_assemble_fills_omitted_core():
    judge, _ = scripted({"select_outfit": [{"select": {"hat": "h2"}}]})
    look = assemble_initial(BASE_POOLS, judge, taxonomy=rules(("body",)), body_category=None)
    assert look.selections["body"] == "b1"
    assert any("filled core" in h for h in look.history)


def test_assemble_core_conflict_wins():
    pools = {"jacket": pool("j1"), "sweater": pool("s1")}
    judge, _ = scripted({"select_outfit": [{"select": {"jacket": "j1"}}]})
    look = assemble_initial(
        pools,
        judge,
        taxonomy=rules(("sweater",), (("jacket", "sweater"),)),
        body_category=None,
    )
    assert look.selections == {"sweater": "s1"}
    assert any("excluded against core" in h for h in look.history)


def test_assemble_missing_core_pool_is_fatal():
    pools = {"body": [], "hat": pool("h1")}
    judge, _ = scripted({"select_outfit": [{"select": "top"}]})
    with pytest.raises(MissingCoreCategoryError):
        assemble_initial(pools, judge, taxonomy=rules(("body",)), body_category=None)


CONFLICT_POOLS = {
    "armor": pool("a1"),
    "body": pool("b1", "b2"),
    "cape": pool("c1"),
    "hat": [],
    "jacket": pool("j1"),
    "suit": pool("s1"),
    "sweater": pool("w1"),
}


@pytest.mark.parametrize("picks, core, groups, expected", [
    ({"armor": "a1", "body": "b2"}, ("body",), (("armor", "body"),), {"body": "b2"}),
    ({"body": "b2", "cape": "c1"}, ("body",), (("body", "cape"),), {"body": "b2"}),
    ({"armor": "a1", "cape": "c1"}, ("body",), (("armor", "body"),),
     {"body": "b1", "cape": "c1"}),
    ({"body": "b1", "jacket": "j1", "sweater": "w1"}, ("body",),
     (("jacket", "sweater"),), {"body": "b1", "jacket": "j1"}),
    ({"body": "ghost", "cape": "c1"}, ("body",), (), {"body": "b1", "cape": "c1"}),
    ({"body": "b2", "hat": "h1"}, ("body",), (), {"body": "b2"}),
    ({"body": "b2", "wings": "x1"}, ("body",), (), {"body": "b2"}),
    ({"body": "b2", "suit": "s1"}, ("body", "suit"), (("body", "suit"),), {"body": "b2"}),
    ({"suit": "s1"}, ("body", "suit"), (("body", "suit"),), {"suit": "s1"}),
], ids=["core_after_group_mate", "core_before_group_mate", "core_omitted_mate_picked",
        "two_non_core_in_group", "off_pool_core", "empty_non_core_pool",
        "unknown_category", "two_core_in_group", "two_core_in_group_one_omitted"])
def test_assemble_conflict_table(picks, core, groups, expected):
    judge, _ = scripted({"select_outfit": [{"select": picks}]})
    look = assemble_initial(
        CONFLICT_POOLS, judge, taxonomy=rules(core, groups), body_category=None
    )
    assert look.selections == expected


@pytest.mark.parametrize("picks", [
    {"cape": "c1", "hat": "h1", "torso": "t1"},
    {"cape": "c1", "hat": "h1"},
], ids=["core_picked", "core_omitted"])
def test_assemble_core_wins_every_group(picks):
    # the core category shares one group with each non-core pick
    pools = {"cape": pool("c1"), "hat": pool("h1"), "torso": pool("t1")}
    groups = (("cape", "torso"), ("hat", "torso"))
    judge, _ = scripted({"select_outfit": [{"select": picks}]})
    look = assemble_initial(
        pools, judge, taxonomy=rules(("torso",), groups), body_category=None
    )
    assert look.selections == {"torso": "t1"}
    assert validate_look(look, pools, groups, ("torso",)) == []


def test_assemble_drops_unknown_category_pick():
    judge, _ = scripted({"select_outfit": [{"select": {"wings": "w1", "body": "b1"}}]})
    look = assemble_initial(BASE_POOLS, judge, taxonomy=rules(("body",)), body_category=None)
    assert "wings" not in look.selections
    assert any("unknown category" in h for h in look.history)


# --- refine ------------------------------------------------------------------------


def test_refine_pass_first_try():
    judge, src = scripted({"verify": [{"verdict": "pass"}]})
    look = AvatarLook("l", selections={"body": "b1"})
    out = refine(look, judge, GenerationBudget(), BASE_POOLS, taxonomy=rules(("body",)))
    assert out.status == "verified"
    assert len(src.calls) == 1


def test_refine_applies_edits_then_passes():
    judge, src = scripted(
        {
            "verify": [
                {
                    "verdict": "fail",
                    "issues": ["bare head"],
                    "edits": [{"action": "add", "category_id": "hat", "asset_id": "h2"}],
                },
                {"verdict": "pass"},
            ]
        }
    )
    look = AvatarLook("l", selections={"body": "b1"})
    out = refine(look, judge, GenerationBudget(), BASE_POOLS, taxonomy=rules(("body",)))
    assert out.status == "verified"
    assert out.selections["hat"] == "h2"
    assert out.history == ["add h2"]
    assert len(src.calls) == 2


def test_refine_edit_history_wording():
    judge, _ = scripted(
        {
            "verify": [
                {
                    "verdict": "fail",
                    "edits": [
                        {"action": "replace", "category_id": "hat", "asset_id": "h2"},
                        {"action": "remove", "category_id": "jacket"},
                    ],
                },
                {"verdict": "pass"},
            ]
        }
    )
    look = AvatarLook("l", selections={"body": "b1", "hat": "h1", "jacket": "j1"})
    out = refine(look, judge, GenerationBudget(), BASE_POOLS, taxonomy=rules(("body",)))
    assert out.history == ["replace h2", "remove j1"]
    assert "jacket" not in out.selections


def test_refine_skips_invalid_edits():
    judge, _ = scripted(
        {
            "verify": [
                {
                    "verdict": "fail",
                    "edits": [
                        {"action": "remove", "category_id": "body"},  # core
                        {"action": "replace", "category_id": "hat", "asset_id": "zz"},
                        {"action": "add", "category_id": "sweater", "asset_id": "s1"},
                        {"action": "replace", "category_id": "pants", "asset_id": "h1"},
                    ],
                },
                {"verdict": "pass"},
            ]
        }
    )
    look = AvatarLook("l", selections={"body": "b1", "hat": "h1", "jacket": "j1"})
    out = refine(
        look,
        judge,
        GenerationBudget(),
        BASE_POOLS,
        taxonomy=rules(("body",), (("jacket", "sweater"),)),
    )
    assert out.selections == {"body": "b1", "hat": "h1", "jacket": "j1"}
    assert any("skipped remove of core" in h for h in out.history)
    assert any("off-pool" in h for h in out.history)
    assert any("excluded against" in h for h in out.history)


@pytest.mark.parametrize("bad_edit, reason", [
    ({"action": "swap", "category_id": "hat", "asset_id": "h2"}, "unknown edit action"),
    ({"action": "replace", "category_id": "hat"}, "requires an asset_id"),
    ("replace the hat", "not an object"),
    ({"action": "replace", "category_id": "hat", "asset_id": ["h2"]}, "must be a string"),
], ids=["unknown_action", "replace_without_asset", "bare_string", "non_string_asset"])
def test_refine_skips_malformed_edits(bad_edit, reason):
    judge, _ = scripted(
        {
            "verify": [
                {
                    "verdict": "fail",
                    "edits": [
                        bad_edit,
                        {"action": "add", "category_id": "jacket", "asset_id": "j1"},
                    ],
                },
                {"verdict": "pass"},
            ]
        }
    )
    look = AvatarLook("l", selections={"body": "b1", "hat": "h1"})
    out = refine(look, judge, GenerationBudget(), BASE_POOLS, taxonomy=rules(("body",)))
    assert out.status == "verified"
    assert out.selections == {"body": "b1", "hat": "h1", "jacket": "j1"}
    assert validate_look(out, BASE_POOLS, (), ("body",)) == []
    skipped, applied = out.history
    assert skipped.startswith(f"skipped malformed edit {bad_edit!r}: ")
    assert reason in skipped
    assert applied == "add j1"


@pytest.mark.parametrize("answer", [
    {"verdict": "fail", "issues": ["x"], "edits": 5},
    {"verdict": "fail", "issues": 7},
    {"verdict": "fail", "edits": "xy"},
], ids=["int_edits", "int_issues", "string_edits"])
def test_refine_rejects_non_list_issues_or_edits(answer):
    judge, _ = scripted({"verify": [answer]})
    look = AvatarLook("l", selections={"body": "b1", "hat": "h1"})
    with pytest.raises(JudgeUnavailableError, match="must be lists"):
        refine(look, judge, GenerationBudget(), BASE_POOLS, taxonomy=rules(("body",)))
    assert look.history == []


def test_refine_exhausts_budget_and_stays_draft():
    fail = {"verdict": "fail", "issues": ["never happy"]}
    judge, src = scripted({"verify": [fail, fail, fail, fail, fail]})
    look = AvatarLook("l", selections={"body": "b1"})
    out = refine(look, judge, GenerationBudget(max_refine_iters=3), BASE_POOLS,
                 taxonomy=rules(("body",)))
    assert out.status == "draft"
    assert len(src.calls) == 3  # never more than the budget


# --- generate_candidates --------------------------------------------------------------


def big_pools():
    return {
        "body": pool("b1", "b2", "b3", "b4", "b5", "b6", bundles=BUNDLES),
        "hat": pool("h1", "h2", "h3"),
        "pants": pool("p1", "p2", "p3"),
    }


BUNDLES = {"b1": "B1", "b2": "B2", "b3": "B3", "b4": "B1", "b5": "B2", "b6": "B3"}


def passing_judge():
    return JudgeClient(ScriptedSource({"cycle": True, "verify": [{"verdict": "pass"}]}))


def test_rank_bundles_order_of_first_appearance():
    body = pool("b2", "b1", "b9", "b3", bundles=BUNDLES)
    assert rank_bundles(body) == ["B2", "B1", "B3"]
    assert rank_bundles(pool("b2", "b1", "b9", "b3")) == []


def test_generate_candidates_caps_and_rotation():
    budget = GenerationBudget()
    looks = generate_candidates(
        big_pools(),
        passing_judge(),
        budget,
        taxonomy=rules(("body",)),
        body_category="body",
        base_look=NO_BASE,
    )
    assert len(looks) == 6
    assert [lk.look_id for lk in looks] == [f"look-{i:03d}" for i in range(6)]
    # Rotation over the top 3 bundles, each exactly twice.
    assert [lk.body_bundle_id for lk in looks] == ["B1", "B2", "B3", "B1", "B2", "B3"]
    asset_use: dict[str, int] = {}
    bundle_use: dict[str, int] = {}
    for lk in looks:
        assert lk.status == "verified"
        for aid in lk.selections.values():
            asset_use[aid] = asset_use.get(aid, 0) + 1
            if aid in BUNDLES:
                bundle_use[BUNDLES[aid]] = bundle_use.get(BUNDLES[aid], 0) + 1
    assert max(asset_use.values()) <= budget.per_asset_cap
    assert max(bundle_use.values()) <= budget.per_bundle_cap
    # Non-body categories walk down the ranking as caps bind.
    assert [lk.selections["hat"] for lk in looks] == ["h1", "h1", "h2", "h2", "h3", "h3"]


def test_generate_candidates_bundle_cap_binds_body_picks_only():
    # hats carry a bundle id too, but only body picks check the bundle cap,
    # so the base look's hat repeats until its asset cap binds
    bundles = {"b1": "B1", "b2": "B2", "h1": "H", "h2": "H"}
    looks = generate_candidates(
        {"body": pool("b1", "b2", bundles=bundles), "hat": pool("h1", "h2", bundles=bundles)},
        passing_judge(),
        GenerationBudget(n_candidates=2, per_asset_cap=2, per_bundle_cap=1),
        taxonomy=rules(("body",)),
        body_category="body",
        base_look=NO_BASE,
    )
    assert [lk.selections for lk in looks] == [
        {"body": "b1", "hat": "h1"},
        {"body": "b2", "hat": "h1"},
    ]


def test_generate_candidates_core_infeasible():
    pools = {"body": pool("b1"), "hat": pool("h1", "h2", "h3")}
    with pytest.raises(BudgetInfeasibleError):
        generate_candidates(
            pools,
            passing_judge(),
            GenerationBudget(n_candidates=3, per_asset_cap=2),
            taxonomy=rules(("body",)),
            body_category=None,
            base_look=NO_BASE,
        )


def test_generate_candidates_omits_capped_non_core():
    pools = {"body": pool("b1", "b2", "b3"), "hat": pool("h1")}
    looks = generate_candidates(
        pools,
        passing_judge(),
        GenerationBudget(n_candidates=3, per_asset_cap=2),
        taxonomy=rules(("body",)),
        body_category=None,
        base_look=NO_BASE,
    )
    assert ["hat" in lk.selections for lk in looks] == [True, True, False]
    assert any("omitted hat" in h for h in looks[2].history)


def test_generate_candidates_empty_core_pool():
    pools = {"body": [], "hat": pool("h1")}
    with pytest.raises(BudgetInfeasibleError):
        generate_candidates(
            pools, passing_judge(), GenerationBudget(), taxonomy=rules(("body",)),
            body_category=None, base_look=NO_BASE,
        )


def test_generate_candidates_prefers_base_look():
    pools = big_pools()
    base = AvatarLook("base", selections={"hat": "h3", "body": "b1"})
    looks = generate_candidates(
        pools,
        passing_judge(),
        GenerationBudget(n_candidates=2),
        taxonomy=rules(("body",)),
        base_look=base,
        body_category=None,
    )
    assert [lk.selections["hat"] for lk in looks] == ["h3", "h3"]


def test_generate_candidates_counts_post_refine_selections():
    # Judge rewrites every look's hat to h3; the cap must bind on h3.
    judge = JudgeClient(
        ScriptedSource(
            {
                "cycle": True,
                "verify": [
                    {
                        "verdict": "fail",
                        "edits": [
                            {"action": "replace", "category_id": "hat", "asset_id": "h3"}
                        ],
                    },
                    {"verdict": "pass"},
                ],
            }
        )
    )
    looks = generate_candidates(
        big_pools(),
        judge,
        GenerationBudget(n_candidates=3),
        taxonomy=rules(),
        body_category=None,
        base_look=NO_BASE,
    )
    hats = [lk.selections["hat"] for lk in looks]
    assert hats == ["h3", "h3", "h3"]
    # h1 was the initial pick each time (its pre-refine use never counted),
    # while h3 usage reached the cap only through final selections.


def test_generate_candidates_exclusions_within_look():
    pools = {"jacket": pool("j1", "j2", "j3"), "sweater": pool("s1", "s2", "s3")}
    looks = generate_candidates(
        pools,
        passing_judge(),
        GenerationBudget(n_candidates=2),
        taxonomy=rules(groups=(("jacket", "sweater"),)),
        body_category=None,
        base_look=NO_BASE,
    )
    for lk in looks:
        assert "jacket" in lk.selections
        assert "sweater" not in lk.selections


def test_generate_candidates_body_bundle_follows_refined_body():
    judge = JudgeClient(ScriptedSource({"verify": [
        {"verdict": "fail", "edits": [{"action": "replace", "category_id": "body",
                                       "asset_id": "b2"}]},
        {"verdict": "pass"},
    ]}))
    (look,) = generate_candidates(
        {"body": pool("b1", "b2", bundles={"b1": "bundle-1", "b2": "bundle-2"})},
        judge,
        GenerationBudget(n_candidates=1),
        taxonomy=rules(),
        body_category="body",
        base_look=NO_BASE,
    )
    assert look.selections == {"body": "b2"}
    assert look.body_bundle_id == "bundle-2"


def test_generate_candidates_body_pick_checks_exclusions():
    pools = {
        "armor": pool("a1", "a2"),
        "body": pool("b1", "b2", bundles={"b1": "B1", "b2": "B2"}),
    }
    groups = (("armor", "body"),)
    looks = generate_candidates(
        pools,
        passing_judge(),
        GenerationBudget(n_candidates=2),
        taxonomy=rules(groups=groups),
        body_category="body",
        base_look=NO_BASE,
    )
    for lk in looks:
        assert validate_look(lk, pools, groups, ()) == []


# --- tournament ------------------------------------------------------------------------


def looks_n(n):
    return [AvatarLook(f"look-{i:03d}", selections={"body": "b1"}) for i in range(n)]


def test_tournament_eight_looks_three_calls():
    judge, src = scripted({"cycle": True, "compare_batch": [{"winner": 1}]})
    winner = tournament(looks_n(8), judge, batch_size=4)
    assert len(src.calls) == 3
    # Round 1: winners are indices 1 and 5; round 2 winner of [1, 5] is 5.
    assert winner.look_id == "look-005"


def test_tournament_singleton_batch_advances_free():
    judge, src = scripted({"cycle": True, "compare_batch": [{"winner": 0}]})
    winner = tournament(looks_n(5), judge, batch_size=4)
    # Batches: [0..3], [4] (free). Then [winner0, 4]. Two judge calls.
    assert len(src.calls) == 2
    assert winner.look_id == "look-000"


def test_tournament_single_look_no_calls():
    judge, src = scripted({})
    winner = tournament(looks_n(1), judge, batch_size=4)
    assert winner.look_id == "look-000"
    assert src.calls == []


def test_tournament_invalid_winner_falls_back_to_first():
    judge, _ = scripted({"compare_batch": [{"winner": 99}]})
    winner = tournament(looks_n(2), judge, batch_size=4)
    assert winner.look_id == "look-000"


def test_tournament_validates_inputs():
    judge, _ = scripted({})
    with pytest.raises(ValueError):
        tournament([], judge, batch_size=4)
    with pytest.raises(ValueError):
        tournament(looks_n(2), judge, batch_size=1)


def test_look_doc_is_sorted_and_complete():
    look = AvatarLook("l1", selections={"hat": "h1", "body": "b1"},
                      body_bundle_id="B1", history=["x"])
    doc = look.to_doc()
    assert list(doc["selections"]) == ["body", "hat"]
    assert doc["look_id"] == "l1"
    assert doc["body_bundle_id"] == "B1"
    assert doc["status"] == "draft"
