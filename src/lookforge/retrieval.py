"""Two-branch retrieval and candidate pooling.

Each routed category gets up to two query vectors:

- a part branch, when usable part evidence exists: the part embedding
  fused with the category text prior at weight ``alpha``;
- a concept-residual branch, always: the global view embedding with every
  *other* category's subspace projected out, renormalized, and fused with
  the text prior at weight ``beta``.

Branch hits merge into a single pool by max score, with hits found by
both branches tagged as such. Suppression can collapse the residual to
numerical zero when the global embedding lies entirely in other
categories' subspaces; the branch then degrades to the text prior alone
rather than searching with noise.

:func:`retrieve_category` is the one per-category call: it searches the
category's catalog rows (:meth:`AssetCatalog.search`), takes the view from
the catalog's taxonomy and tags each pooled candidate with its asset's
bundle id. :func:`retrieve_part` and :func:`retrieve_concept_residual` run
single branches over one category of the catalog.
"""
from __future__ import annotations

import logging
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .catalog import AssetCatalog, Taxonomy, at, check, need
from .errors import UnknownCategoryError
from .evidence import EvidenceStore, resolve_part_or_global, select_view
from .vecmath import fuse, normalize, suppress

logger = logging.getLogger(__name__)

# A suppressed residual at or below this norm has collapsed.
RESIDUAL_COLLAPSE_EPS = 1e-6


@dataclass(frozen=True)
class RetrievalConfig:
    alpha: float = 0.7
    beta: float = 0.7
    branch_k: int = 40
    pool_k: int = 40
    gate_k: int = 20

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            w = getattr(self, name)
            if isinstance(w, bool) or not isinstance(w, (int, float)) or not 0.0 <= w <= 1.0:
                raise ValueError(f"{name} must be a number in [0, 1], got {w!r}")
        for name in ("branch_k", "pool_k", "gate_k"):
            k = getattr(self, name)
            if isinstance(k, bool) or not isinstance(k, int) or k < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {k!r}")
        if self.gate_k > self.pool_k:
            raise ValueError(
                f"gate_k ({self.gate_k}) cannot exceed pool_k ({self.pool_k})"
            )


@dataclass(frozen=True)
class Candidate:
    asset_id: str
    score: float
    source: str  # "part", "concept_residual", or "both"
    bundle_id: str | None = None  # the asset's bundle, if it has one

    def to_dict(self) -> dict:
        """One ranked entry, as pools.json and judge grid payloads carry it."""
        return {
            "asset_id": self.asset_id,
            "score": float(self.score),
            "source": self.source,
            "bundle_id": self.bundle_id,
        }

    @classmethod
    def from_dict(cls, doc: dict, where: str) -> Candidate:
        """Parse the pools.json entry at ``where``; nothing is coerced, and
        ``bundle_id`` is required, a string or null."""
        check(doc, dict, where)
        asset_id, source = need(doc, "asset_id", str, where), need(doc, "source", str, where)
        score = need(doc, "score", (int, float), where)
        bundle_id = need(doc, "bundle_id", (str, type(None)), where)
        if not asset_id:
            raise ValueError(f"{at(where, 'asset_id')} must not be empty")
        # NaN, the infinities and integers beyond float range fail
        if not -sys.float_info.max <= score <= sys.float_info.max:
            raise ValueError(f"{at(where, 'score')} must be a finite number, got {score!r}")
        if source not in ("part", "concept_residual", "both"):
            raise ValueError(f"{at(where, 'source')} must be part, concept_residual or both")
        return cls(asset_id, float(score), source, bundle_id)


@dataclass
class CategoryRetrieval:
    """Pooled retrieval outcome for one category."""

    category_id: str
    pool: list[Candidate]
    used_part_evidence: bool
    residual_collapsed: bool
    source_view: str | None
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """The category's pools.json entry; the category id is its key."""
        doc = asdict(self)
        del doc["category_id"]
        doc["pool"] = [c.to_dict() for c in self.pool]
        return doc


def pools_to_dict(retrievals: dict[str, CategoryRetrieval]) -> dict:
    """The pools.json body: one entry per routed category."""
    return {"pools": {cat: r.to_dict() for cat, r in retrievals.items()}}


def pools_from_dict(doc: dict, taxonomy: Taxonomy) -> dict[str, list[Candidate]]:
    """Each category's pool from a pools.json document, the one key per
    category that ``assemble`` reads; each must be a taxonomy category."""
    pools = {}
    for cat, entry in need(doc, "pools", dict, "pools.json").items():
        where = at("pools.json", "pools", cat)
        if cat not in taxonomy.categories:
            raise UnknownCategoryError(f"{where}: {cat!r} is not a taxonomy category")
        pool = need(check(entry, dict, where), "pool", list, where)
        pools[cat] = [Candidate.from_dict(c, at(where, "pool", i)) for i, c in enumerate(pool)]
    return pools


def retrieve_part(
    catalog: AssetCatalog,
    category_id: str,
    part_embedding,
    text_prior,
    cfg: RetrievalConfig,
) -> list[Candidate]:
    """Part branch: fuse(part, text prior, alpha), search branch_k."""
    q = fuse(part_embedding, text_prior, cfg.alpha)
    return [Candidate(a, s, "part") for a, s in catalog.search(category_id, q, cfg.branch_k)]


def retrieve_concept_residual(
    catalog: AssetCatalog,
    category_id: str,
    global_embedding,
    text_prior,
    subspaces: dict[str, np.ndarray],
    cfg: RetrievalConfig,
) -> tuple[list[Candidate], bool]:
    """Concept-residual branch for ``category_id``.

    Suppresses every *other* category's subspace basis out of the global
    embedding. Passing an empty ``subspaces`` mapping disables suppression
    (the ablation path) without changing anything else. Returns the
    candidates and whether the residual collapsed to the text prior.
    """
    others = {cid: sub for cid, sub in subspaces.items() if cid != category_id}
    residual = suppress(global_embedding, others)
    collapsed = bool(np.linalg.norm(residual) <= RESIDUAL_COLLAPSE_EPS)
    if collapsed:
        logger.warning(
            "residual for category %r collapsed; querying with text prior only",
            category_id,
        )
        q = normalize(text_prior)
    else:
        q = fuse(residual, text_prior, cfg.beta)
    hits = catalog.search(category_id, q, cfg.branch_k)
    return [Candidate(a, s, "concept_residual") for a, s in hits], collapsed


def build_pool(
    part: list[Candidate],
    residual: list[Candidate],
    pool_k: int,
) -> list[Candidate]:
    """Merge branch candidates into one ranked pool.

    Max-score dedup: an asset found by both branches keeps its higher
    score and the source tag "both". Ordering is score descending with
    ties broken by ascending asset id, truncated to ``pool_k``.
    """
    merged: dict[str, Candidate] = {}
    for cand in [*part, *residual]:
        prev = merged.get(cand.asset_id)
        if prev is None:
            merged[cand.asset_id] = cand
            continue
        merged[cand.asset_id] = Candidate(
            asset_id=cand.asset_id,
            score=max(prev.score, cand.score),
            source="both" if prev.source != cand.source else prev.source,
        )
    ranked = sorted(merged.values(), key=lambda c: (-c.score, c.asset_id))
    return ranked[:pool_k]


def retrieve_category(
    category_id: str,
    catalog: AssetCatalog,
    store: EvidenceStore,
    subspaces: dict[str, np.ndarray],
    cfg: RetrievalConfig,
) -> CategoryRetrieval:
    """Run both branches over the catalog's rows of one routed category
    and pool the results, each tagged with its asset's bundle id."""
    warnings: list[str] = []
    t_c = store.text_prior(category_id)

    part_embedding = resolve_part_or_global(category_id, store)
    part_candidates: list[Candidate] = []
    if part_embedding is not None:
        part_candidates = retrieve_part(catalog, category_id, part_embedding, t_c, cfg)

    source_view, view_warning = select_view(category_id, store, catalog.taxonomy)
    if view_warning:
        warnings.append(view_warning)
    g = store.view_embedding(source_view)
    residual_candidates, collapsed = retrieve_concept_residual(
        catalog, category_id, g, t_c, subspaces, cfg
    )

    pool = [
        replace(c, bundle_id=catalog.bundles.get(c.asset_id))
        for c in build_pool(part_candidates, residual_candidates, cfg.pool_k)
    ]
    return CategoryRetrieval(
        category_id=category_id,
        pool=pool,
        used_part_evidence=part_embedding is not None,
        residual_collapsed=collapsed,
        source_view=source_view,
        warnings=warnings,
    )
