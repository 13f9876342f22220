"""End-to-end orchestration: prompt to verified winning look.

Order of operations: route the prompt, estimate suppression subspaces
from the whole catalog, retrieve pooled candidates per routed category
(each search runs over that category's catalog rows, and each candidate
carries its asset's bundle id), gate them through the judge, assemble and
refine a slate, and crown a tournament winner. Retrieval is the last
stage that reads the catalog: assembly reads only the pools. Each stage
is importable on its own; this module only wires them together.
:class:`AssemblyResult` owns the look.json format.
"""
from __future__ import annotations

from dataclasses import dataclass

from .assembly import (
    AvatarLook,
    GenerationBudget,
    assemble_initial,
    filter_pools,
    generate_candidates,
    tournament,
)
from .catalog import AssetCatalog, Taxonomy
from .errors import UnknownCategoryError
from .evidence import EvidenceStore
from .retrieval import Candidate, CategoryRetrieval, RetrievalConfig, retrieve_category
from .router import PromptSpec, RoutingPlan, route
from .vecmath import SubspaceParams, estimate_subspaces


@dataclass
class AssemblyResult:
    """Gated pools, base look, refined slate and winner of one assembly."""

    filtered_pools: dict[str, list[Candidate]]
    base_look: AvatarLook
    candidates: list[AvatarLook]
    winner: AvatarLook
    warnings: list[str]

    def to_dict(self) -> dict:
        """The look.json body."""
        return {
            "winner": self.winner.to_doc(),
            "base_look": self.base_look.to_doc(),
            "candidates": [c.to_doc() for c in self.candidates],
            "gated_pools": {
                cat: [c.asset_id for c in cands] for cat, cands in self.filtered_pools.items()
            },
            "warnings": list(self.warnings),
        }


@dataclass
class PipelineResult(AssemblyResult):
    """An assembly plus the plan and retrievals it came from; their
    warnings stay on ``plan`` and each retrieval."""

    plan: RoutingPlan
    retrievals: dict[str, CategoryRetrieval]


def run_retrieval(
    plan: RoutingPlan,
    catalog: AssetCatalog,
    store: EvidenceStore,
    cfg: RetrievalConfig,
    subspace_params: SubspaceParams = SubspaceParams(),
) -> dict[str, CategoryRetrieval]:
    """Pooled retrieval for every routed category.

    Suppression subspaces are estimated over the whole catalog, not just
    the routed categories; interference comes from whatever else is in the
    embedding, routed or not. Views come from the catalog's taxonomy. The
    ``retrieve`` command passes the catalog ``build-index`` saved.
    """
    subspaces = estimate_subspaces(catalog, subspace_params)
    return {
        cat: retrieve_category(cat, catalog, store, subspaces, cfg)
        for cat in plan.target_categories
    }


def run_assembly(
    retrievals: dict[str, CategoryRetrieval],
    judge,
    budget: GenerationBudget,
    *,
    taxonomy: Taxonomy,
    body_category: str | None,
    gate_k: int,
) -> AssemblyResult:
    """Gate, assemble, refine and judge the pooled candidates. A
    ``body_category`` the taxonomy does not declare raises
    :class:`UnknownCategoryError`."""
    if body_category is not None and body_category not in taxonomy.categories:
        raise UnknownCategoryError(f"body_category {body_category!r} is not a taxonomy category")
    pools = {cat: r.pool for cat, r in retrievals.items()}
    filtered, warnings = filter_pools(pools, judge, gate_k)
    base = assemble_initial(filtered, judge, taxonomy=taxonomy, body_category=body_category)
    candidates = generate_candidates(
        filtered, judge, budget, taxonomy=taxonomy, body_category=body_category, base_look=base
    )
    winner = tournament(candidates, judge, budget.batch_size)
    return AssemblyResult(filtered, base, candidates, winner, warnings)


def run_pipeline(
    catalog: AssetCatalog,
    taxonomy: Taxonomy,
    store: EvidenceStore,
    prompt: PromptSpec,
    judge,
    *,
    advisor=None,
    retrieval_cfg: RetrievalConfig = RetrievalConfig(),
    budget: GenerationBudget = GenerationBudget(),
    subspace_params: SubspaceParams = SubspaceParams(),
    body_category: str | None = None,
) -> PipelineResult:
    """Route, retrieve and assemble one prompt. ``taxonomy`` must equal
    ``catalog.taxonomy`` (``ValueError`` otherwise): retrieval reads the
    catalog's, so a second one would mix two rule sets in one look."""
    if taxonomy != catalog.taxonomy:
        raise ValueError("taxonomy differs from the catalog's taxonomy")
    plan = route(prompt, taxonomy, advisor=advisor)
    retrievals = run_retrieval(plan, catalog, store, retrieval_cfg, subspace_params)
    assembly = run_assembly(
        retrievals,
        judge,
        budget,
        taxonomy=taxonomy,
        body_category=body_category,
        gate_k=retrieval_cfg.gate_k,
    )
    return PipelineResult(**vars(assembly), plan=plan, retrievals=retrievals)
