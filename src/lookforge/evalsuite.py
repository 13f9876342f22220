"""Seeded ablation runs over planted interference scenarios.

Every scenario hides one recoverable target asset behind cross-category
interference baked into the global embedding. The suite then measures
what each retrieval stage contributes by switching it off:

    none         full concept-residual branch (suppression + text fusion)
    suppression  other-category subspaces withheld from the residual query
    router       naive single-category routing instead of recall-first
                 expansion; scenarios routed to the wrong category count
                 as outright misses
    scaffold     no global embedding at all, text prior only (beta = 0)

Every arm pools through the pipeline's ``retrieve_category`` over one
front view and the target's text prior. Part evidence is withheld on
purpose: the residual branch is the thing under measurement, and a clean
part crop would paper over its failures.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, replace

from .catalog import Taxonomy
from .evidence import EvidenceStore
from .retrieval import RetrievalConfig, retrieve_category
from .router import Concept, PromptSpec, route, route_naive
from .synth import CategorySpec, SynthSpec, generate_interference_scenario

ABLATIONS = ("none", "suppression", "router", "scaffold")

EVAL_CATEGORIES = ("arms", "hat", "legs")
EVAL_CONCEPT = "garment"
EVAL_D = 64
EVAL_RANK = 4
EVAL_ASSETS_PER_CATEGORY = 48


@dataclass(frozen=True)
class EvalReport:
    ablation: str
    n_scenarios: int
    top1_accuracy: float
    pool_recall: float
    routed_coverage: float

    def to_dict(self) -> dict:
        return asdict(self)


def _eval_spec(seed: int, noise_sigma: float) -> SynthSpec:
    return SynthSpec(
        d=EVAL_D,
        categories=tuple(
            CategorySpec(c, EVAL_RANK, EVAL_ASSETS_PER_CATEGORY)
            for c in EVAL_CATEGORIES
        ),
        noise_sigma=noise_sigma,
        seed=seed,
    )


def _routing_fixture(target: str, interference: str) -> tuple[Taxonomy, PromptSpec]:
    """Taxonomy and prompt where one concept is ambiguous between the
    scenario's two categories. Recall-first routing targets both; a naive
    router has to guess."""
    pair = tuple(sorted((target, interference)))
    taxonomy = Taxonomy(
        categories=EVAL_CATEGORIES,
        concept_map={EVAL_CONCEPT: pair},
    )
    prompt = PromptSpec(
        text=f"a figure wearing a {EVAL_CONCEPT}",
        concepts=(Concept(EVAL_CONCEPT, ()),),
    )
    return taxonomy, prompt


def run_interference_suite(
    n_scenarios: int,
    base_seed: int = 0,
    ablate: str = "none",
) -> EvalReport:
    """Fresh scenario per index i (seed = base_seed + i), aggregated metrics.

    top1_accuracy and pool_recall are end-to-end: a scenario whose target
    category never gets routed scores zero on both.
    """
    if ablate not in ABLATIONS:
        raise ValueError(f"unknown ablation {ablate!r}; pick from {ABLATIONS}")
    if n_scenarios < 1:
        raise ValueError("n_scenarios must be >= 1")
    cfg = RetrievalConfig()

    top1 = 0
    recall = 0
    routed = 0
    for i in range(n_scenarios):
        scn = generate_interference_scenario(_eval_spec(base_seed + i, noise_sigma=0.3))
        truth = scn.truth
        taxonomy, prompt = _routing_fixture(
            truth.target_category, truth.interference_category
        )
        plan = (
            route_naive(prompt, taxonomy)
            if ablate == "router"
            else route(prompt, taxonomy)
        )
        if truth.target_category not in plan.target_categories:
            continue
        routed += 1

        store = EvidenceStore()
        store.add_view("front", truth.g)
        store.add_text_prior(truth.target_category, truth.t_c)
        subspaces = {} if ablate == "suppression" else scn.subspaces
        arm_cfg = replace(cfg, beta=0.0) if ablate == "scaffold" else cfg
        pool = retrieve_category(
            truth.target_category, scn.catalog, store, subspaces, arm_cfg
        ).pool
        if not pool:
            continue
        if pool[0].asset_id == truth.target_asset_id:
            top1 += 1
        if any(c.asset_id == truth.target_asset_id for c in pool):
            recall += 1

    return EvalReport(
        ablation=ablate,
        n_scenarios=n_scenarios,
        top1_accuracy=top1 / n_scenarios,
        pool_recall=recall / n_scenarios,
        routed_coverage=routed / n_scenarios,
    )


def markdown_table(reports: list[EvalReport]) -> str:
    header = (
        "| ablation | scenarios | top-1 accuracy | pool recall | routed coverage |\n"
        "|---|---|---|---|---|\n"
    )
    rows = [
        f"| {r.ablation} | {r.n_scenarios} | {r.top1_accuracy:.3f} "
        f"| {r.pool_recall:.3f} | {r.routed_coverage:.3f} |"
        for r in reports
    ]
    return header + "\n".join(rows) + "\n"
