"""Synthetic catalogs with planted ground truth.

Every category gets its own orthogonal subspace (disjoint column blocks of
one QR basis), and assets are unit vectors lying mostly inside their
category's subspace:

    asset = normalize(normalize(B_c @ coeffs) + noise)

where ``noise`` is an isotropic vector rescaled to norm ``noise_sigma``,
making ``noise_sigma`` a relative perturbation scale independent of the
embedding dimension.

Interference scenarios additionally plant a contaminated global embedding
``g = normalize(target + lam * v)`` with ``v`` inside another category's
subspace, and rejection-sample until the planted asset is provably
recoverable by suppression but not without it.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .assembly import GenerationBudget
from .catalog import AssetCatalog, Taxonomy, save_taxonomy, write_doc
from .errors import InfeasibleSpecError, ScenarioConstructionFailedError
from .evidence import EvidenceStore, PartEvidence, save_evidence
from .judge import PASS_SCRIPT
from .pipeline import run_retrieval
from .retrieval import RetrievalConfig, retrieve_concept_residual, retrieve_part
from .router import Concept, PromptSpec, route, save_prompt
from .vecmath import SubspaceParams, estimate_subspaces, normalize

DEFAULT_NOISE_SIGMA = 0.3
DEFAULT_LAMBDA = 1.5
MAX_SCENARIO_RETRIES = 100
PART_NOISE_SIGMA = 0.05


@dataclass(frozen=True)
class CategorySpec:
    category_id: str
    subspace_rank: int
    n_assets: int
    bundle_count: int = 0

    def __post_init__(self) -> None:
        if self.subspace_rank < 1:
            raise ValueError("subspace_rank must be >= 1")
        if self.n_assets < 1:
            raise ValueError("n_assets must be >= 1")
        if self.bundle_count < 0:
            raise ValueError("bundle_count must be >= 0")


@dataclass(frozen=True)
class SynthSpec:
    d: int
    categories: tuple[CategorySpec, ...]
    # (category_a, category_b, coefficient): cosine planted between the
    # leading basis directions of the two categories, in [0, 1]
    interference: tuple[tuple[str, str, float], ...] = ()
    noise_sigma: float = DEFAULT_NOISE_SIGMA
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.categories:
            raise InfeasibleSpecError("spec declares no categories")
        ids = [c.category_id for c in self.categories]
        if len(set(ids)) != len(ids):
            raise InfeasibleSpecError("duplicate category ids in spec")
        total_rank = sum(c.subspace_rank for c in self.categories)
        if total_rank > self.d:
            raise InfeasibleSpecError(
                f"total subspace rank {total_rank} exceeds dimension {self.d}"
            )
        known = set(ids)
        seen_pairs: set[frozenset[str]] = set()
        for a, b, rho in self.interference:
            if a == b:
                raise InfeasibleSpecError(f"overlap pair ({a!r}, {b!r}) must differ")
            if a not in known or b not in known:
                raise InfeasibleSpecError(
                    f"overlap pair ({a!r}, {b!r}) names an unknown category"
                )
            pair = frozenset((a, b))
            if pair in seen_pairs:
                raise InfeasibleSpecError(f"duplicate overlap pair ({a!r}, {b!r})")
            seen_pairs.add(pair)
            if not 0.0 <= rho <= 1.0:
                raise InfeasibleSpecError(
                    f"overlap coefficient {rho} outside [0, 1]"
                )
        if self.noise_sigma < 0:
            raise InfeasibleSpecError("noise_sigma must be non-negative")


def build_bases(spec: SynthSpec, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Per-category bases from disjoint column blocks of one QR factor.

    With no declared overlap the bases are mutually orthogonal. Each
    overlap triple (a, b, rho) then tilts the leading columns of b's
    basis toward a's, so paired directions end up with cosine exactly
    rho (rho = 1 shares them outright). Within-basis orthonormality is
    preserved because the source blocks are orthogonal. Triples apply in
    declaration order; a later pair mixes the already-mixed basis.
    """
    total_rank = sum(c.subspace_rank for c in spec.categories)
    q, _ = np.linalg.qr(rng.standard_normal((spec.d, total_rank)))
    bases: dict[str, np.ndarray] = {}
    offset = 0
    for cat in spec.categories:
        bases[cat.category_id] = q[:, offset : offset + cat.subspace_rank].copy()
        offset += cat.subspace_rank
    for cat_a, cat_b, rho in spec.interference:
        if rho == 0.0:
            continue
        a, b = bases[cat_a], bases[cat_b]
        m = min(a.shape[1], b.shape[1])
        mixed = b.copy()
        mixed[:, :m] = np.sqrt(1.0 - rho * rho) * b[:, :m] + rho * a[:, :m]
        bases[cat_b] = mixed
    return bases


def build_assets(
    basis: np.ndarray,
    n_assets: int,
    noise_sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Unit rows near the span of ``basis`` with relative noise."""
    d, rank = basis.shape
    coeffs = rng.standard_normal((n_assets, rank))
    clean = coeffs @ basis.T
    clean /= np.linalg.norm(clean, axis=1, keepdims=True)
    if noise_sigma > 0:
        noise = rng.standard_normal((n_assets, d))
        noise *= noise_sigma / np.linalg.norm(noise, axis=1, keepdims=True)
        rows = clean + noise
    else:
        rows = clean
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def asset_id_for(category_id: str, i: int) -> str:
    return f"{category_id}-{i:03d}"


def generate_catalog(
    spec: SynthSpec,
    rng: np.random.Generator | None = None,
    taxonomy: Taxonomy | None = None,
) -> tuple[AssetCatalog, dict[str, np.ndarray]]:
    """Catalog of synthetic assets plus the planted per-category bases."""
    rng = rng if rng is not None else np.random.default_rng(spec.seed)
    if taxonomy is None:
        taxonomy = Taxonomy(categories=tuple(c.category_id for c in spec.categories))
    bases = build_bases(spec, rng)
    rows: dict[str, tuple[list[str], np.ndarray]] = {}
    bundles: dict[str, str] = {}
    for cat in spec.categories:
        ids = [asset_id_for(cat.category_id, i) for i in range(cat.n_assets)]
        rows[cat.category_id] = (
            ids, build_assets(bases[cat.category_id], cat.n_assets, spec.noise_sigma, rng)
        )
        if cat.bundle_count:
            bundles.update(
                (aid, f"{cat.category_id}-bnd-{i % cat.bundle_count}")
                for i, aid in enumerate(ids)
            )
    catalog = AssetCatalog(taxonomy, rows, bundles)
    return catalog, bases


def _write_catalog(catalog: AssetCatalog, path: str | Path) -> None:
    """Write a generated catalog as the JSONL ``ingest_catalog`` reads, in
    ascending asset-id order; titles number assets as :func:`asset_id_for`."""
    lines: dict[str, str] = {}
    for cid in catalog.taxonomy.categories:
        for aid, row in zip(*catalog.embedding_matrix(cid)):
            doc = {"asset_id": aid, "category_id": cid, "embedding": row.tolist(),
                   "title": f"synthetic {cid} {int(aid.rsplit('-', 1)[1])}",
                   "quality_flag": "curated"}
            if aid in catalog.bundles:
                doc["bundle_id"] = catalog.bundles[aid]
            lines[aid] = json.dumps(doc, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[aid] for aid in sorted(lines))


# --- interference scenarios -------------------------------------------------------


@dataclass(frozen=True)
class PlantedTruth:
    target_category: str
    interference_category: str
    target_asset_id: str
    g: np.ndarray
    p_c: np.ndarray
    t_c: np.ndarray


@dataclass
class InterferenceScenario:
    catalog: AssetCatalog
    subspaces: dict[str, np.ndarray]
    truth: PlantedTruth
    attempts: int


def generate_interference_scenario(
    spec: SynthSpec,
    *,
    lam: float = DEFAULT_LAMBDA,
) -> InterferenceScenario:
    """Catalog plus planted truth with verified recoverability.

    Each attempt draws a fresh catalog, a target asset, and an
    interference direction from another category's subspace, then checks
    with the production retrieval path that (a) the suppressed residual
    query ranks the target first, (b) with ``lam > 0`` the unsuppressed
    query does not (with ``lam == 0`` it must agree), and (c) the part
    query ranks the target first. Attempts repeat until the checks hold.
    """
    if len(spec.categories) < 2:
        raise InfeasibleSpecError(
            "interference scenarios need at least two categories"
        )
    if lam < 0:
        raise InfeasibleSpecError("lam must be non-negative")
    cfg = RetrievalConfig()
    rng = np.random.default_rng(spec.seed)

    for attempt in range(1, MAX_SCENARIO_RETRIES + 1):
        catalog, bases = generate_catalog(spec, rng=rng)
        cat_ids = [c.category_id for c in spec.categories]
        target_cat = cat_ids[int(rng.integers(len(cat_ids)))]
        others_ids = [c for c in cat_ids if c != target_cat]
        interference_cat = others_ids[int(rng.integers(len(others_ids)))]

        ids, rows = catalog.embedding_matrix(target_cat)
        target_idx = int(rng.integers(len(ids)))
        target_id = ids[target_idx]
        e_star = rows[target_idx]

        b_int = bases[interference_cat]
        v = b_int @ rng.standard_normal(b_int.shape[1])
        v = normalize(v)
        g = normalize(e_star + lam * v)

        p_noise = rng.standard_normal(spec.d)
        p_noise *= PART_NOISE_SIGMA / np.linalg.norm(p_noise)
        p_c = normalize(e_star + p_noise)
        t_c = normalize(rows.mean(axis=0))

        subspaces = estimate_subspaces(catalog)
        suppressed, collapsed = retrieve_concept_residual(
            catalog, target_cat, g, t_c, subspaces, cfg
        )
        if collapsed or not suppressed or suppressed[0].asset_id != target_id:
            continue
        unsuppressed, _ = retrieve_concept_residual(catalog, target_cat, g, t_c, {}, cfg)
        unsup_top = unsuppressed[0].asset_id if unsuppressed else None
        if lam > 0 and unsup_top == target_id:
            continue
        if lam == 0 and unsup_top != target_id:
            continue
        part = retrieve_part(catalog, target_cat, p_c, t_c, cfg)
        if not part or part[0].asset_id != target_id:
            continue

        truth = PlantedTruth(
            target_category=target_cat,
            interference_category=interference_cat,
            target_asset_id=target_id,
            g=g,
            p_c=p_c,
            t_c=t_c,
        )
        return InterferenceScenario(
            catalog=catalog,
            subspaces=subspaces,
            truth=truth,
            attempts=attempt,
        )

    raise ScenarioConstructionFailedError(
        f"no valid scenario in {MAX_SCENARIO_RETRIES} attempts (seed {spec.seed}, lam {lam})"
    )


# --- end-to-end scenario bundle ----------------------------------------------------


PIPELINE_PROMPT_TEXT = (
    "an explorer wearing a zip-up black hoodie and olive cargo pants"
)


def generate_pipeline_scenario(out_dir, seed: int = 0) -> dict:
    """Write a complete runnable scenario bundle into ``out_dir``.

    The bundle exercises the whole pipeline: an ambiguous concept that
    must be routed by modifiers, a mixed global embedding that needs
    suppression, part evidence for one category, bundled body assets, and
    a scripted judge. Construction resamples until retrieval provably
    ranks every planted asset first in its category, so ``truth.json``
    (also returned) is a guarantee rather than a hope.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    taxonomy = Taxonomy(
        categories=("body", "jacket", "pants", "sweater"),
        concept_map={
            "hoodie": ("sweater", "jacket"),
            "pants": ("pants",),
            "cargo pants": ("pants",),
        },
        exclusion_groups=(("jacket", "sweater"),),
        view_map={"jacket": ("front",), "pants": ("front",)},
        required_core=("body",),
    )
    spec = SynthSpec(
        d=32,
        categories=(
            CategorySpec("body", subspace_rank=3, n_assets=12, bundle_count=3),
            CategorySpec("jacket", subspace_rank=3, n_assets=16),
            CategorySpec("pants", subspace_rank=3, n_assets=16),
            CategorySpec("sweater", subspace_rank=3, n_assets=16),
        ),
        noise_sigma=0.2,
        seed=seed,
    )
    prompt = PromptSpec(
        text=PIPELINE_PROMPT_TEXT,
        concepts=(
            Concept("hoodie", ("zip-up", "black")),
            Concept("cargo pants", ("olive", "tactical")),
        ),
    )

    for attempt in range(1, MAX_SCENARIO_RETRIES + 1):
        catalog, _ = generate_catalog(spec, rng=rng, taxonomy=taxonomy)

        planted: dict[str, str] = {}
        embeddings: dict[str, np.ndarray] = {}
        for cid in ("body", "jacket", "pants"):
            ids, rows = catalog.embedding_matrix(cid)
            idx = int(rng.integers(len(ids)))
            planted[cid] = ids[idx]
            embeddings[cid] = rows[idx]

        g_front = normalize(
            embeddings["body"] + embeddings["jacket"] + embeddings["pants"]
        )
        left_noise = rng.standard_normal(spec.d)
        g_left = normalize(g_front + 0.05 * left_noise / np.linalg.norm(left_noise))

        store = EvidenceStore()
        store.add_view("front", g_front)
        store.add_view("left", g_left)
        for cid in taxonomy.categories:
            _, rows = catalog.embedding_matrix(cid)
            store.add_text_prior(cid, normalize(rows.mean(axis=0)))
        part_noise = rng.standard_normal(spec.d)
        part_noise *= PART_NOISE_SIGMA / np.linalg.norm(part_noise)
        store.add_part(
            PartEvidence(
                category_id="pants",
                status="valid",
                embedding=normalize(embeddings["pants"] + part_noise),
            )
        )
        store.add_part(PartEvidence(category_id="jacket", status="failed"))
        store.add_part(PartEvidence(category_id="body", status="failed"))

        plan = route(prompt, taxonomy)
        retrievals = run_retrieval(plan, catalog, store, RetrievalConfig())
        recovered = all(
            retrievals[cid].pool and retrievals[cid].pool[0].asset_id == planted[cid]
            for cid in planted
        )
        if recovered:
            break
    else:
        raise ScenarioConstructionFailedError(
            f"no recoverable pipeline scenario in {MAX_SCENARIO_RETRIES} attempts (seed {seed})"
        )

    config = {
        "schema_version": 1,
        "seed": seed,
        "body_category": "body",
        "paths": {
            "catalog": "catalog.jsonl",
            "taxonomy": "taxonomy.json",
            "evidence": "evidence.json",
            "prompt": "prompt.json",
            "index_dir": "indices",
            "output_dir": "output",
        },
        "retrieval": asdict(RetrievalConfig()),
        "budget": asdict(GenerationBudget()),
        "subspace": asdict(SubspaceParams()),
        "judge": "scripted:judge.json",
        "advisor": None,
    }
    truth = {
        "planted_selections": planted,
        "expected_plan_categories": ["body", "jacket", "pants"],
        "seed": seed,
        "attempts": attempt,
    }

    _write_catalog(catalog, out / "catalog.jsonl")
    save_taxonomy(taxonomy, out / "taxonomy.json")
    save_prompt(prompt, out / "prompt.json")
    save_evidence(store, out / "evidence.json")
    for name, doc in (("judge.json", PASS_SCRIPT), ("config.json", config),
                      ("truth.json", truth)):
        write_doc(out / name, doc)
    return truth
