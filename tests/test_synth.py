import ast
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from lookforge.catalog import AssetCatalog, Taxonomy
from lookforge.errors import InfeasibleSpecError
from lookforge.retrieval import RetrievalConfig, retrieve_concept_residual, retrieve_part
from lookforge.synth import (
    CategorySpec,
    SynthSpec,
    asset_id_for,
    build_assets,
    build_bases,
    generate_catalog,
    generate_interference_scenario,
    generate_pipeline_scenario,
)
from lookforge.vecmath import estimate_subspaces
from oracle import brute_force_rank, brute_force_ranking


def small_spec(**kw):
    defaults = dict(
        d=16,
        categories=(
            CategorySpec("hat", subspace_rank=3, n_assets=10),
            CategorySpec("legs", subspace_rank=3, n_assets=10),
        ),
        noise_sigma=0.3,
        seed=7,
    )
    defaults.update(kw)
    return SynthSpec(**defaults)


class TestSpecValidation:
    def test_rank_overflow_rejected(self):
        with pytest.raises(InfeasibleSpecError):
            SynthSpec(d=4, categories=(CategorySpec("a", 3, 5), CategorySpec("b", 3, 5)))

    def test_duplicate_category_rejected(self):
        with pytest.raises(InfeasibleSpecError):
            SynthSpec(d=16, categories=(CategorySpec("a", 2, 5), CategorySpec("a", 2, 5)))

    def test_empty_categories_rejected(self):
        with pytest.raises(InfeasibleSpecError):
            SynthSpec(d=16, categories=())

    def test_negative_sigma_rejected(self):
        with pytest.raises(InfeasibleSpecError):
            small_spec(noise_sigma=-0.1)

    def test_bad_category_counts_rejected(self):
        with pytest.raises(ValueError):
            CategorySpec("a", subspace_rank=0, n_assets=5)
        with pytest.raises(ValueError):
            CategorySpec("a", subspace_rank=2, n_assets=0)


class TestBases:
    def test_blocks_are_orthonormal_and_mutually_orthogonal(self, rng):
        spec = small_spec()
        bases = build_bases(spec, rng)
        b1, b2 = bases["hat"], bases["legs"]
        np.testing.assert_allclose(b1.T @ b1, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(b2.T @ b2, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(b1.T @ b2, np.zeros((3, 3)), atol=1e-12)

    def test_assets_are_unit_rows(self, rng):
        spec = small_spec()
        bases = build_bases(spec, rng)
        rows = build_assets(bases["hat"], 10, 0.3, rng)
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)

    def test_zero_sigma_rows_lie_in_span(self, rng):
        spec = small_spec()
        bases = build_bases(spec, rng)
        b = bases["hat"]
        rows = build_assets(b, 10, 0.0, rng)
        in_span = rows @ b @ b.T
        np.testing.assert_allclose(rows, in_span, atol=1e-12)

    def test_overlap_plants_exact_cosines(self, rng):
        spec = small_spec(interference=((("hat"), "legs", 0.6),))
        bases = build_bases(spec, rng)
        b1, b2 = bases["hat"], bases["legs"]
        # paired leading columns meet at the declared cosine
        for k in range(3):
            assert np.dot(b1[:, k], b2[:, k]) == pytest.approx(0.6, abs=1e-12)
        # each basis individually stays orthonormal
        np.testing.assert_allclose(b2.T @ b2, np.eye(3), atol=1e-12)

    def test_overlap_one_shares_directions(self, rng):
        spec = small_spec(interference=(("hat", "legs", 1.0),))
        bases = build_bases(spec, rng)
        np.testing.assert_allclose(bases["hat"], bases["legs"], atol=1e-12)

    def test_overlap_validation(self):
        with pytest.raises(InfeasibleSpecError):
            small_spec(interference=(("hat", "hat", 0.5),))
        with pytest.raises(InfeasibleSpecError):
            small_spec(interference=(("hat", "nope", 0.5),))
        with pytest.raises(InfeasibleSpecError):
            small_spec(interference=(("hat", "legs", 1.5),))
        with pytest.raises(InfeasibleSpecError):
            small_spec(
                interference=(("hat", "legs", 0.2), ("legs", "hat", 0.3))
            )


class TestGenerateCatalog:
    def test_ids_and_counts(self):
        spec = small_spec()
        catalog, bases = generate_catalog(spec)
        assert catalog.embedding_matrix("hat")[0][0] == "hat-000"
        assert len(catalog.embedding_matrix("hat")[0]) == 10
        assert catalog.embedding_matrix("legs")[1].shape == (10, 16)
        assert bases["hat"].shape == (16, 3)

    def test_bundle_round_robin(self):
        spec = small_spec(
            categories=(CategorySpec("body", 3, 7, bundle_count=3),)
        )
        catalog, _ = generate_catalog(spec)
        bundles = [catalog.bundles[aid] for aid in catalog.embedding_matrix("body")[0]]
        assert bundles == [
            "body-bnd-0", "body-bnd-1", "body-bnd-2",
            "body-bnd-0", "body-bnd-1", "body-bnd-2", "body-bnd-0",
        ]

    def test_no_bundles_by_default(self):
        catalog, _ = generate_catalog(small_spec())
        assert catalog.bundles == {}

    def test_deterministic_for_seed(self):
        c1, _ = generate_catalog(small_spec(seed=5))
        c2, _ = generate_catalog(small_spec(seed=5))
        for cid in ("hat", "legs"):
            ids1, rows1 = c1.embedding_matrix(cid)
            ids2, rows2 = c2.embedding_matrix(cid)
            assert ids1 == ids2
            np.testing.assert_array_equal(rows1, rows2)


class TestBruteForce:
    def test_ranking_matches_index(self, rng):
        rows = rng.standard_normal((30, 8))
        ids = [asset_id_for("x", i) for i in range(30)]
        q = rng.standard_normal(8)
        catalog = AssetCatalog(Taxonomy(categories=("x",)), {"x": (ids, rows)})
        hits = catalog.search("x", q, k=30)
        ranking = brute_force_ranking(ids, rows, q)
        assert [aid for aid, _ in hits] == [aid for aid, _ in ranking]

    def test_catalog_rank_matches_index(self, rng):
        catalog, _ = generate_catalog(small_spec(seed=13))
        q = rng.standard_normal(16)
        for k in (1, 3, 10, 99):
            hits = catalog.search("hat", q, k=k)
            assert brute_force_rank(catalog, "hat", q, k) == [aid for aid, _ in hits]

    def test_empty_category_and_bad_k(self):
        catalog = AssetCatalog(Taxonomy(categories=("a",)), {"a": ([], np.empty((0, 4)))})
        assert brute_force_rank(catalog, "a", [1.0, 0, 0, 0], 5) == []
        with pytest.raises(ValueError):
            brute_force_rank(catalog, "a", [1.0, 0, 0, 0], 0)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            brute_force_ranking(["a", "b"], np.eye(1, 3), [1.0, 0, 0])


class TestEstimateSubspaces:
    def test_recovers_planted_basis_noiseless(self):
        spec = small_spec(noise_sigma=0.0, seed=3)
        catalog, bases = generate_catalog(spec)
        est = estimate_subspaces(catalog)
        for cid in ("hat", "legs"):
            worst = subspace_angles(est[cid], bases[cid]).max()
            assert worst < 1e-6
            assert est[cid].shape[1] == 3

    def test_skips_empty_categories(self):
        from lookforge.catalog import AssetCatalog, Taxonomy

        tax = Taxonomy(categories=("a", "b"))
        catalog = AssetCatalog(tax, {"a": (["a-0"], np.array([[1.0, 0, 0, 0]]))})
        est = estimate_subspaces(catalog)
        assert set(est) == {"a"}

    def test_recovery_degrades_monotonically_with_noise(self):
        cats = ("arms", "hat", "legs")

        def mean_worst_angle(sigma):
            vals = []
            for seed in range(1, 21):
                spec = SynthSpec(
                    d=64,
                    categories=tuple(CategorySpec(c, 4, 48) for c in cats),
                    noise_sigma=sigma,
                    seed=seed,
                )
                catalog, bases = generate_catalog(spec)
                est = estimate_subspaces(catalog)
                vals.append(max(
                    subspace_angles(est[c], bases[c]).max() for c in cats
                ))
            return float(np.mean(vals))

        angles = [mean_worst_angle(s) for s in (0.0, 0.15, 0.3, 0.45)]
        assert angles == sorted(angles)
        assert angles[0] < 1e-6
        # the trend is not a numerical accident: each step is a clear jump
        for lo, hi in zip(angles, angles[1:]):
            assert hi > lo + 0.01


class TestInterferenceScenario:
    def test_planted_truth_verifies(self):
        spec = small_spec(d=32, categories=(
            CategorySpec("hat", 4, 24),
            CategorySpec("legs", 4, 24),
            CategorySpec("torso", 4, 24),
        ), seed=11)
        scn = generate_interference_scenario(spec)
        truth = scn.truth
        cfg = RetrievalConfig()
        catalog, target = scn.catalog, truth.target_category

        suppressed, collapsed = retrieve_concept_residual(
            catalog, target, truth.g, truth.t_c, scn.subspaces, cfg
        )
        assert not collapsed
        assert suppressed[0].asset_id == truth.target_asset_id

        unsuppressed, _ = retrieve_concept_residual(catalog, target, truth.g, truth.t_c, {}, cfg)
        assert unsuppressed[0].asset_id != truth.target_asset_id

        part = retrieve_part(catalog, target, truth.p_c, truth.t_c, cfg)
        assert part[0].asset_id == truth.target_asset_id
        assert scn.attempts >= 1

    def test_lambda_zero_keeps_target_on_top(self):
        spec = small_spec(d=32, categories=(
            CategorySpec("hat", 4, 24),
            CategorySpec("legs", 4, 24),
        ), seed=2)
        scn = generate_interference_scenario(spec, lam=0.0)
        truth = scn.truth
        plain, _ = retrieve_concept_residual(
            scn.catalog, truth.target_category, truth.g, truth.t_c, {}, RetrievalConfig()
        )
        assert plain[0].asset_id == truth.target_asset_id

    def test_single_category_rejected(self):
        spec = small_spec(categories=(CategorySpec("hat", 3, 10),))
        with pytest.raises(InfeasibleSpecError):
            generate_interference_scenario(spec)

    def test_negative_lambda_rejected(self):
        with pytest.raises(InfeasibleSpecError):
            generate_interference_scenario(small_spec(), lam=-1.0)

    def test_deterministic_for_seed(self):
        spec = small_spec(d=32, categories=(
            CategorySpec("hat", 4, 24),
            CategorySpec("legs", 4, 24),
        ), seed=9)
        s1 = generate_interference_scenario(spec)
        s2 = generate_interference_scenario(spec)
        assert s1.truth.target_asset_id == s2.truth.target_asset_id
        np.testing.assert_array_equal(s1.truth.g, s2.truth.g)
        assert s1.attempts == s2.attempts


class TestPipelineScenario:
    EXPECTED_FILES = (
        "catalog.jsonl", "taxonomy.json", "prompt.json", "evidence.json",
        "judge.json", "config.json", "truth.json",
    )

    def test_writes_complete_bundle(self, tmp_path):
        truth = generate_pipeline_scenario(tmp_path, seed=0)
        for name in self.EXPECTED_FILES:
            assert (tmp_path / name).exists(), name
        on_disk = json.loads((tmp_path / "truth.json").read_text())
        assert on_disk == truth
        assert set(truth["planted_selections"]) == {"body", "jacket", "pants"}
        assert truth["attempts"] >= 1

    def test_bundle_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_pipeline_scenario(a, seed=4)
        generate_pipeline_scenario(b, seed=4)
        for name in self.EXPECTED_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_pipeline_recovers_planted_selections(self, tmp_path):
        from lookforge.catalog import ingest_catalog, load_taxonomy
        from lookforge.evidence import load_evidence
        from lookforge.judge import JudgeClient, ScriptedSource
        from lookforge.pipeline import run_pipeline
        from lookforge.router import load_prompt

        truth = generate_pipeline_scenario(tmp_path, seed=1)
        taxonomy = load_taxonomy(tmp_path / "taxonomy.json")
        catalog, report = ingest_catalog(tmp_path / "catalog.jsonl", taxonomy)
        assert report.n_rejected == 0
        store = load_evidence(tmp_path / "evidence.json")
        prompt = load_prompt(tmp_path / "prompt.json")
        judge = JudgeClient(ScriptedSource(tmp_path / "judge.json"))

        result = run_pipeline(
            catalog, taxonomy, store, prompt, judge, body_category="body"
        )
        assert tuple(result.plan.target_categories) == tuple(
            truth["expected_plan_categories"]
        )
        for cid, aid in truth["planted_selections"].items():
            assert result.winner.selections[cid] == aid
        assert result.winner.status == "verified"


def test_only_synth_consumers_import_synth():
    # synth is test-data code: the production pipeline must not depend on it
    allowed = {"synth", "evalsuite", "cli"}
    src = Path(__file__).resolve().parents[1] / "src" / "lookforge"
    importers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                names += [f"{node.module}.{a.name}" if node.module else a.name
                          for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n.split(".")[-1] == "synth" for n in names):
                importers.add(path.stem)
    assert importers <= allowed, sorted(importers - allowed)
