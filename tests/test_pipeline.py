import numpy as np
import pytest

from lookforge.catalog import Taxonomy, save_taxonomy, write_doc
from lookforge.evidence import EvidenceStore, PartEvidence
from lookforge.index import MANIFEST_FILE, load_index_dir, save_index_dir
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

    store = EvidenceStore(prompt_text="a scout in a cap and pants")
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

    built = run_retrieval(plan, catalog, store, taxonomy, cfg)

    sources = {"taxonomy": tmp_path / "taxonomy.json"}
    save_taxonomy(taxonomy, sources["taxonomy"])
    write_doc(tmp_path / MANIFEST_FILE, save_index_dir(catalog, tmp_path, sources))
    reloaded = load_index_dir(tmp_path, taxonomy, sources)
    via_index_dir = run_retrieval(plan, reloaded, store, taxonomy, cfg)

    for cat in plan.target_categories:
        assert built[cat].pool == via_index_dir[cat].pool


def test_suppression_uses_unrouted_categories(scenario):
    catalog, taxonomy, store, prompt, target = scenario
    # route only the hat; legs still interferes inside g and must be
    # suppressed from catalog-wide subspace estimates
    narrow = PromptSpec(text="a scout in a cap", concepts=(Concept("cap", ()),))
    plan = route(narrow, taxonomy)
    assert plan.target_categories == ("hat",)
    rets = run_retrieval(plan, catalog, store, taxonomy, RetrievalConfig())
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


def test_subspace_params_flow_through(scenario):
    catalog, taxonomy, store, prompt, _ = scenario
    plan = route(prompt, taxonomy)
    # rank 1 subspaces suppress less; the call must still succeed and the
    # two settings must be distinguishable in at least one pool
    full = run_retrieval(plan, catalog, store, taxonomy, RetrievalConfig())
    skinny = run_retrieval(
        plan, catalog, store, taxonomy, RetrievalConfig(),
        subspace_params=SubspaceParams(rank=1),
    )
    assert any(
        [c.asset_id for c in full[cat].pool]
        != [c.asset_id for c in skinny[cat].pool]
        for cat in plan.target_categories
    )
