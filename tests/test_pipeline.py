import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lookforge

from lookforge.catalog import (
    MANIFEST_FILE,
    Taxonomy,
    load_index_dir,
    save_index_dir,
    save_taxonomy,
    write_doc,
)
from lookforge.errors import UnknownCategoryError
from lookforge.evidence import EvidenceStore, PartEvidence
from lookforge.judge import PASS_SCRIPT, JudgeClient, ScriptedSource
from lookforge.pipeline import run_pipeline, run_retrieval
from lookforge.retrieval import RetrievalConfig
from lookforge.router import Concept, PromptSpec, route
from lookforge.synth import CategorySpec, SynthSpec, generate_catalog
from lookforge.vecmath import SubspaceParams, normalize


@pytest.fixture()
def scenario():
    taxonomy = Taxonomy(
        categories=("hat", "legs"),
        concept_map={"cap": ("hat",), "pants": ("legs",)},
    )
    spec = SynthSpec(
        d=16,
        categories=(CategorySpec("hat", 3, 12), CategorySpec("legs", 3, 12)),
        noise_sigma=0.2,
        seed=21,
    )
    catalog, bases = generate_catalog(spec, taxonomy=taxonomy)
    rng = np.random.default_rng(99)

    hat_ids, hat_rows = catalog.embedding_matrix("hat")
    target = hat_ids[4]
    # global embedding mixing the hat target with legs-subspace noise
    v = normalize(bases["legs"] @ rng.standard_normal(3))
    g = normalize(hat_rows[4] + 1.2 * v)

    store = EvidenceStore()
    store.add_view("front", g)
    for cid in ("hat", "legs"):
        _, rows = catalog.embedding_matrix(cid)
        store.add_text_prior(cid, normalize(rows.mean(axis=0)))
    store.add_part(PartEvidence(category_id="hat", status="failed"))
    store.add_part(PartEvidence(category_id="legs", status="failed"))

    prompt = PromptSpec(
        text="a scout in a cap and pants",
        concepts=(Concept("cap", ()), Concept("pants", ())),
    )
    return catalog, taxonomy, store, prompt, target


def test_preloaded_indices_match_built_ones(tmp_path, scenario):
    # the catalog build-index saves gives the pools of the one it saved
    catalog, taxonomy, store, prompt, _ = scenario
    plan = route(prompt, taxonomy)
    cfg = RetrievalConfig()

    built = run_retrieval(plan, catalog, store, cfg)

    sources = {"taxonomy": tmp_path / "taxonomy.json"}
    save_taxonomy(taxonomy, sources["taxonomy"])
    write_doc(tmp_path / MANIFEST_FILE, save_index_dir(catalog, tmp_path, sources))
    reloaded = load_index_dir(tmp_path, taxonomy, sources)
    via_index_dir = run_retrieval(plan, reloaded, store, cfg)

    for cat in plan.target_categories:
        assert built[cat].pool == via_index_dir[cat].pool


def test_suppression_uses_unrouted_categories(scenario):
    catalog, taxonomy, store, prompt, target = scenario
    # route only the hat; legs still interferes inside g and must be
    # suppressed from catalog-wide subspace estimates
    narrow = PromptSpec(text="a scout in a cap", concepts=(Concept("cap", ()),))
    plan = route(narrow, taxonomy)
    assert plan.target_categories == ("hat",)
    rets = run_retrieval(plan, catalog, store, RetrievalConfig())
    assert rets["hat"].pool[0].asset_id == target


def test_run_pipeline_aggregates_and_wins(scenario):
    catalog, taxonomy, store, prompt, target = scenario
    result = run_pipeline(
        catalog, taxonomy, store, prompt, JudgeClient(ScriptedSource(PASS_SCRIPT))
    )
    assert set(result.plan.target_categories) == {"hat", "legs"}
    assert result.base_look.look_id == "look-base"
    assert result.winner in result.candidates
    assert result.winner.status == "verified"
    assert result.winner.selections["hat"] == target
    assert isinstance(result.warnings, list)


def test_unknown_body_category_raises(scenario):
    catalog, taxonomy, store, prompt, _ = scenario
    source = ScriptedSource(PASS_SCRIPT)
    with pytest.raises(UnknownCategoryError, match="'bdy'"):
        run_pipeline(catalog, taxonomy, store, prompt, JudgeClient(source), body_category="bdy")
    # checked before the judge is consulted
    assert source.calls == []


def test_second_taxonomy_is_refused(scenario):
    # routing and assembly would follow one taxonomy, retrieval the catalog's
    catalog, taxonomy, store, prompt, _ = scenario
    other = Taxonomy(
        categories=taxonomy.categories,
        concept_map=taxonomy.concept_map,
        required_core=("hat",),
    )
    source = ScriptedSource(PASS_SCRIPT)
    with pytest.raises(ValueError, match="catalog's taxonomy"):
        run_pipeline(catalog, other, store, prompt, JudgeClient(source))
    assert source.calls == []
    # an equal taxonomy that is another object is the same taxonomy
    same = Taxonomy.from_dict(taxonomy.to_dict())
    assert run_pipeline(catalog, same, store, prompt, JudgeClient(source)).winner


def test_subspace_params_flow_through(scenario):
    catalog, taxonomy, store, prompt, _ = scenario
    plan = route(prompt, taxonomy)
    # rank 1 subspaces suppress less; the call must still succeed and the
    # two settings must be distinguishable in at least one pool
    full = run_retrieval(plan, catalog, store, RetrievalConfig())
    skinny = run_retrieval(
        plan, catalog, store, RetrievalConfig(),
        subspace_params=SubspaceParams(rank=1),
    )
    assert any(
        [c.asset_id for c in full[cat].pool]
        != [c.asset_id for c in skinny[cat].pool]
        for cat in plan.target_categories
    )


# Builds an 8x2,000 catalog at d=128, large enough for a threaded BLAS to
# split the SVDs and matrix products, and prints run_retrieval's pools.json
# body for every category.
_POOLS_SCRIPT = """
import json
import numpy as np
from lookforge.evidence import EvidenceStore, PartEvidence
from lookforge.pipeline import run_retrieval
from lookforge.retrieval import RetrievalConfig, pools_to_dict
from lookforge.router import RoutingPlan
from lookforge.synth import CategorySpec, SynthSpec, generate_catalog
from lookforge.vecmath import normalize

cats = tuple(f"c{i}" for i in range(8))
spec = SynthSpec(d=128, categories=tuple(CategorySpec(c, 4, 2000) for c in cats), seed=5)
catalog, _ = generate_catalog(spec)
rng = np.random.default_rng(6)
store = EvidenceStore()
picks = [catalog.embedding_matrix(c)[1][int(rng.integers(2000))] for c in cats]
store.add_view("front", normalize(np.sum(picks, axis=0)))
for c in cats:
    store.add_text_prior(c, normalize(catalog.embedding_matrix(c)[1].mean(axis=0)))
part = normalize(picks[0] + 0.1 * rng.standard_normal(128))
store.add_part(PartEvidence("c0", "valid", part))
plan = RoutingPlan(cats, {})
pools = run_retrieval(plan, catalog, store, RetrievalConfig())
print(json.dumps(pools_to_dict(pools), sort_keys=True))
"""


def test_pools_do_not_depend_on_blas_threads():
    src = str(Path(lookforge.__file__).resolve().parent.parent)
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _POOLS_SCRIPT], env=env, capture_output=True, check=True
        )
        outputs.append(proc.stdout)
    assert b'"pools"' in outputs[0]
    assert outputs[0] == outputs[1]
