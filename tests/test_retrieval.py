from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lookforge.catalog import AssetCatalog, Taxonomy
from lookforge.errors import MissingTextPriorError
from lookforge.evidence import EvidenceStore, PartEvidence
from lookforge.retrieval import (
    Candidate,
    CategoryRetrieval,
    RetrievalConfig,
    build_pool,
    pools_from_dict,
    pools_to_dict,
    retrieve_category,
    retrieve_concept_residual,
    retrieve_part,
)
from lookforge.vecmath import estimate_subspaces, normalize


def test_config_defaults_and_validation():
    cfg = RetrievalConfig()
    assert (cfg.alpha, cfg.beta) == (0.7, 0.7)
    assert (cfg.branch_k, cfg.pool_k, cfg.gate_k) == (40, 40, 20)
    with pytest.raises(ValueError):
        RetrievalConfig(alpha=1.5)
    with pytest.raises(ValueError):
        RetrievalConfig(beta=-0.1)
    # a bool or a string is not a weight, though True compares as 1
    for bad in (True, False, "0.5", None):
        with pytest.raises(ValueError, match="alpha must be a number"):
            RetrievalConfig(alpha=bad)
        with pytest.raises(ValueError, match="beta must be a number"):
            RetrievalConfig(beta=bad)
    with pytest.raises(ValueError):
        RetrievalConfig(branch_k=0)
    # a count that is not an int would fail later, as a slice bound
    for bad in (2.5, True, "3"):
        with pytest.raises(ValueError, match="branch_k must be an integer"):
            RetrievalConfig(branch_k=bad)
    with pytest.raises(ValueError):
        RetrievalConfig(gate_k=50, pool_k=40)


# --- build_pool --------------------------------------------------------------


def cand(aid, score, source="part"):
    return Candidate(aid, score, source)


def test_pool_max_score_dedup_and_both_tag():
    part = [cand("a", 0.9), cand("b", 0.5)]
    residual = [cand("a", 0.7, "concept_residual"), cand("c", 0.8, "concept_residual")]
    pool = build_pool(part, residual, pool_k=10)
    assert [(c.asset_id, c.source) for c in pool] == [
        ("a", "both"),
        ("c", "concept_residual"),
        ("b", "part"),
    ]
    assert pool[0].score == 0.9


def test_pool_tie_breaks_by_asset_id():
    part = [cand("z", 0.5), cand("a", 0.5)]
    residual = [cand("m", 0.5, "concept_residual")]
    pool = build_pool(part, residual, pool_k=10)
    assert [c.asset_id for c in pool] == ["a", "m", "z"]


def test_pool_truncates():
    part = [cand(f"a{i}", 1.0 - i * 0.01) for i in range(30)]
    pool = build_pool(part, [], pool_k=5)
    assert len(pool) == 5
    assert pool[0].asset_id == "a0"


def pool_oracle(part, residual, pool_k):
    best: dict[str, float] = {}
    sources: dict[str, set[str]] = {}
    for c in [*part, *residual]:
        best[c.asset_id] = max(best.get(c.asset_id, -2.0), c.score)
        sources.setdefault(c.asset_id, set()).add(c.source)
    order = sorted(best, key=lambda a: (-best[a], a))[:pool_k]
    return [
        (a, best[a], "both" if len(sources[a]) > 1 else next(iter(sources[a])))
        for a in order
    ]


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_pool_matches_hash_map_oracle(seed):
    rng = np.random.default_rng(seed)
    ids = [f"a{i:02d}" for i in range(20)]
    # Quantized scores force plenty of exact ties and overlaps.
    part = [
        cand(a, round(float(rng.integers(0, 5)) / 5.0, 3))
        for a in rng.choice(ids, size=rng.integers(0, 15), replace=False)
    ]
    residual = [
        cand(a, round(float(rng.integers(0, 5)) / 5.0, 3), "concept_residual")
        for a in rng.choice(ids, size=rng.integers(0, 15), replace=False)
    ]
    pool_k = int(rng.integers(1, 12))
    got = [(c.asset_id, c.score, c.source) for c in build_pool(part, residual, pool_k)]
    assert got == pool_oracle(part, residual, pool_k)


# --- branches ----------------------------------------------------------------


def top_catalog(ids, rows) -> AssetCatalog:
    """A catalog whose one category, "top", holds ``rows``."""
    return AssetCatalog(Taxonomy(categories=("top",)), {"top": (ids, rows)})


def test_retrieve_part_alpha_endpoint():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    catalog = top_catalog(["a", "b"], rows)
    cfg = RetrievalConfig(alpha=1.0, branch_k=2)
    out = retrieve_part(catalog, "top", [0.9, 0.1], [0.0, 1.0], cfg)
    assert out[0].asset_id == "a"
    assert all(c.source == "part" for c in out)
    # alpha=0 ignores the part entirely
    cfg0 = RetrievalConfig(alpha=0.0, branch_k=2)
    out0 = retrieve_part(catalog, "top", [0.9, 0.1], [0.0, 1.0], cfg0)
    assert out0[0].asset_id == "b"


def interference_fixture():
    # Category "top" assets: tgt aligned with e1, decoy contaminated by e2.
    rows = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.3, 0.954, 0.0, 0.0],
        ]
    )
    # ids ascending: dk (decoy) first, tg (target) second
    catalog = top_catalog(["dk", "tg"], rows[[1, 0]])
    g = normalize([1.0, 1.5, 0.0, 0.0])
    t_c = np.array([1.0, 0.0, 0.0, 0.0])
    return catalog, g, t_c, {"legs": np.eye(4)[:, 1:2], "top": np.eye(4)[:, 0:1]}


def test_residual_suppression_flips_winner():
    catalog, g, t_c, subs = interference_fixture()
    cfg = RetrievalConfig(branch_k=2)
    with_sup, collapsed = retrieve_concept_residual(catalog, "top", g, t_c, subs, cfg)
    assert not collapsed
    assert with_sup[0].asset_id == "tg"
    without, collapsed2 = retrieve_concept_residual(catalog, "top", g, t_c, {}, cfg)
    assert not collapsed2
    assert without[0].asset_id == "dk"
    assert all(c.source == "concept_residual" for c in with_sup)


def test_residual_excludes_own_category_subspace():
    catalog, g, t_c, subs = interference_fixture()
    cfg = RetrievalConfig(branch_k=2)
    # subs includes a subspace for "top" itself; suppressing it would kill
    # the signal, so it must be skipped.
    out, collapsed = retrieve_concept_residual(catalog, "top", g, t_c, subs, cfg)
    assert not collapsed
    assert out[0].asset_id == "tg"


def test_residual_collapse_falls_back_to_text_prior():
    catalog, g, t_c, _ = interference_fixture()
    cfg = RetrievalConfig(branch_k=2)
    # Suppress the entire visible span of g.
    out, collapsed = retrieve_concept_residual(
        catalog, "top", g, t_c, {"legs": np.eye(4)[:, :2]}, cfg
    )
    assert collapsed
    # Query degraded to t_c = e1, so the aligned target wins.
    assert out[0].asset_id == "tg"


def test_small_residual_is_not_collapsed():
    # g lies in the legs subspace except for a 1e-2 component along e3:
    # the residual is small but real, so it must steer the query, not the
    # text prior alone (which favours "prior")
    catalog = top_catalog(["prior", "resid"], np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.2, 0.0, 1.0, 0.0],
    ]))
    g = normalize([0.0, 1.0, 1e-2, 0.0])
    out, collapsed = retrieve_concept_residual(
        catalog, "top", g, [1.0, 0.0, 0.0, 0.0], {"legs": np.eye(4)[:, 1:2]},
        RetrievalConfig(branch_k=2),
    )
    assert not collapsed
    assert [c.asset_id for c in out] == ["resid", "prior"]


# --- retrieve_category -------------------------------------------------------


def category_fixture(with_part: bool):
    tax = Taxonomy(categories=("legs", "top"), required_core=())
    rows = np.array([[1.0, 0.0, 0.0, 0.0], [0.3, 0.954, 0.0, 0.0]])
    # "legs" stays empty; only the target "tg" is in a bundle
    catalog = AssetCatalog(tax, {"top": (["tg", "dk"], rows)}, {"tg": "bnd-1"})
    store = EvidenceStore()
    store.add_view("front", normalize([1.0, 1.5, 0.0, 0.0]))
    store.add_text_prior("top", [1.0, 0.0, 0.0, 0.0])
    if with_part:
        store.add_part(PartEvidence("top", "valid", np.array([0.98, 0.05, 0.0, 0.0])))
    return catalog, store, {"legs": np.eye(4)[:, 1:2]}


def test_retrieve_category_with_part_evidence():
    catalog, store, subs = category_fixture(with_part=True)
    out = retrieve_category("top", catalog, store, subs, RetrievalConfig(branch_k=2))
    assert out.used_part_evidence
    assert not out.residual_collapsed
    assert out.source_view == "front"
    assert out.pool[0].asset_id == "tg"
    # Both branches found both assets.
    assert {c.source for c in out.pool} == {"both"}
    # Each pooled candidate carries its catalog bundle id, None without one.
    assert [(c.asset_id, c.bundle_id) for c in out.pool] == [("tg", "bnd-1"), ("dk", None)]


def test_retrieve_category_without_part_evidence():
    catalog, store, subs = category_fixture(with_part=False)
    out = retrieve_category("top", catalog, store, subs, RetrievalConfig(branch_k=2))
    assert not out.used_part_evidence
    assert {c.source for c in out.pool} == {"concept_residual"}


def test_retrieve_category_failed_part_uses_global_only():
    catalog, store, subs = category_fixture(with_part=False)
    store.add_part(PartEvidence("top", "failed"))
    out = retrieve_category("top", catalog, store, subs, RetrievalConfig(branch_k=2))
    assert not out.used_part_evidence


def test_pools_document_round_trip():
    catalog, store, subs = category_fixture(with_part=True)
    top = retrieve_category("top", catalog, store, subs, RetrievalConfig(branch_k=2))
    legs = CategoryRetrieval(
        "legs", [cand("l1", 0.25, "concept_residual")], False, True, None, ["no view"]
    )
    retrievals = {"top": top, "legs": legs}
    doc = json.loads(json.dumps(pools_to_dict(retrievals)))
    assert pools_from_dict(doc) == retrievals


@pytest.mark.parametrize(
    "entry, detail",
    [({"asset_id": "l1", "score": 0.5, "source": "part"}, " has no key 'bundle_id'"),
     ({"asset_id": "l1", "score": 0.5, "source": "part", "bundle_id": 5},
      ": bundle_id must be a string or null"),
     ({"asset_id": None, "score": 0.5, "source": "part", "bundle_id": None},
      ": asset_id must be a non-empty string"),
     ({"asset_id": ["a"], "score": 0.5, "source": "part", "bundle_id": None},
      ": asset_id must be a non-empty string"),
     ({"asset_id": "", "score": 0.5, "source": "part", "bundle_id": None},
      ": asset_id must be a non-empty string"),
     ({"asset_id": "l1", "score": 0.5, "source": 7, "bundle_id": None}, ": source must be"),
     ({"asset_id": "l1", "score": 0.5, "source": "text", "bundle_id": None}, ": source must be"),
     ({"asset_id": "l1", "score": True, "source": "part", "bundle_id": None},
      ": score must be a finite number"),
     ({"asset_id": "l1", "score": "0.5", "source": "part", "bundle_id": None},
      ": score must be a finite number"),
     ({"asset_id": "l1", "score": float("nan"), "source": "part", "bundle_id": None},
      ": score must be a finite number"),
     ({"asset_id": "l1", "score": 10**400, "source": "part", "bundle_id": None},
      ": int too large to convert to float")],
    ids=["missing", "number", "null_asset", "list_asset", "empty_asset", "number_source",
         "unknown_source", "bool_score", "string_score", "nan_score", "huge_score"],
)
def test_pools_document_names_bad_entry(entry, detail):
    legs = CategoryRetrieval("legs", [cand("l0", 0.75, "part")], False, False, "front")
    doc = json.loads(json.dumps(pools_to_dict({"legs": legs})))
    doc["pools"]["legs"]["pool"].append(entry)
    with pytest.raises(ValueError) as info:
        pools_from_dict(doc)
    assert str(info.value).startswith(f"pools.json category 'legs': pool entry 1{detail}")
    assert str(info.value).endswith("; re-run retrieve")


def test_retrieve_category_missing_text_prior():
    catalog, store, subs = category_fixture(with_part=False)
    with pytest.raises(MissingTextPriorError):
        retrieve_category("legs", catalog, store, subs, RetrievalConfig())


def test_retrieve_category_pool_respects_pool_k(rng):
    tax = Taxonomy(categories=("top",), required_core=())
    n, d = 30, 8
    ids = [f"a{i:02d}" for i in range(n)]
    catalog = AssetCatalog(tax, {"top": (ids, rng.standard_normal((n, d)))})
    store = EvidenceStore()
    store.add_view("front", normalize(rng.standard_normal(d)))
    store.add_text_prior("top", normalize(rng.standard_normal(d)))
    cfg = RetrievalConfig(branch_k=25, pool_k=7, gate_k=3)
    out = retrieve_category("top", catalog, store, {}, cfg)
    assert len(out.pool) == 7
    scores = [c.score for c in out.pool]
    assert scores == sorted(scores, reverse=True)


def test_subspace_estimation_feeds_suppression(rng):
    # End to end at small scale: estimated subspaces, not planted ones.
    d = 16
    q, _ = np.linalg.qr(rng.standard_normal((d, 8)))
    top_basis, legs_basis = q[:, :4], q[:, 4:8]
    legs_rows = rng.standard_normal((20, 4)) @ legs_basis.T
    legs_rows /= np.linalg.norm(legs_rows, axis=1, keepdims=True)
    legs_ids = [f"l{i:02d}" for i in range(20)]
    legs_catalog = AssetCatalog(Taxonomy(categories=("legs",)), {"legs": (legs_ids, legs_rows)})
    legs_sub = estimate_subspaces(legs_catalog)["legs"]
    tgt = normalize(top_basis @ np.array([1.0, 0.2, 0.0, 0.0]))
    decoy = normalize(0.5 * tgt + 1.2 * legs_basis[:, 0])
    catalog = top_catalog(["dk", "tg"], np.vstack([decoy, tgt]))
    g = normalize(tgt + 1.5 * legs_basis[:, 0])
    t_c = tgt + 0.01 * rng.standard_normal(d)
    cfg = RetrievalConfig(branch_k=2)
    sup, _ = retrieve_concept_residual(catalog, "top", g, t_c, {"legs": legs_sub}, cfg)
    unsup, _ = retrieve_concept_residual(catalog, "top", g, t_c, {}, cfg)
    assert sup[0].asset_id == "tg"
    assert unsup[0].asset_id == "dk"
