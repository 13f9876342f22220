"""Prompt routing: concepts to categories, exclusions, required core.

Routing is recall-first. Every category a concept could denote enters the
target set, and the exclusion step then removes contradictions using
modifier evidence, so "a hoodie with a zip" reaches the jacket index
instead of being guessed into sweaters up front.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

from .catalog import Taxonomy, excluded_by, read_doc, write_doc
from .errors import JudgeUnavailableError

logger = logging.getLogger(__name__)

PROMPT_SCHEMA_VERSION = 1

# Modifier keyword support per category. A category "supports" a modifier
# when the modifier (or any of its hyphen/space tokens) appears in its set;
# exclusion conflicts keep the category with the most supported modifiers.
DEFAULT_MODIFIER_KEYWORDS: dict[str, frozenset[str]] = {
    "jacket": frozenset(
        {"zip", "zip-up", "zipper", "zippered", "coat", "windbreaker",
         "bomber", "shell", "outer", "parka", "rain"}
    ),
    "sweater": frozenset(
        {"knit", "knitted", "pullover", "wool", "woolen", "crewneck",
         "cable", "cozy", "chunky"}
    ),
    "hat": frozenset({"brim", "brimmed", "cap", "beanie", "straw", "visor"}),
    "pants": frozenset(
        {"cargo", "denim", "jeans", "trouser", "tactical", "chino"}
    ),
    "shoes": frozenset({"laced", "sneaker", "boot", "heel", "sole"}),
}


@dataclass(frozen=True)
class Concept:
    """One noun phrase from the prompt plus its attached modifiers."""

    noun: str
    modifiers: tuple[str, ...] = ()


@dataclass(frozen=True)
class PromptSpec:
    """Structured prompt: free text plus pre-parsed concepts."""

    text: str
    concepts: tuple[Concept, ...] = ()

    def to_dict(self) -> dict:
        return {
            "schema_version": PROMPT_SCHEMA_VERSION,
            "text": self.text,
            "concepts": [
                {"noun": c.noun, "modifiers": list(c.modifiers)} for c in self.concepts
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> PromptSpec:
        if not isinstance(doc, dict):
            raise ValueError("prompt must be a JSON object")
        version = doc.get("schema_version", PROMPT_SCHEMA_VERSION)
        if version != PROMPT_SCHEMA_VERSION:
            raise ValueError(f"unsupported prompt schema version {version!r}")
        concepts = doc.get("concepts", [])
        if not isinstance(concepts, list):
            raise ValueError(f"prompt concepts must be a list, got {concepts!r}")
        return cls(
            text=str(doc.get("text", "")),
            concepts=tuple(_concept_from_dict(c) for c in concepts),
        )


def _concept_from_dict(doc: dict) -> Concept:
    if not isinstance(doc, dict):
        raise ValueError(f"prompt concept must be an object, got {doc!r}")
    noun, modifiers = doc.get("noun"), doc.get("modifiers", [])
    if not isinstance(noun, str):
        raise ValueError(f"concept noun must be a string, got {noun!r}")
    if not isinstance(modifiers, list) or not all(isinstance(m, str) for m in modifiers):
        raise ValueError(f"concept modifiers must be a list of strings, got {modifiers!r}")
    return Concept(noun=noun, modifiers=tuple(modifiers))


def load_prompt(path: str | Path) -> PromptSpec:
    return PromptSpec.from_dict(read_doc(path))


def save_prompt(spec: PromptSpec, path: str | Path) -> None:
    write_doc(path, spec.to_dict())


@dataclass(frozen=True)
class ExclusionResolution:
    group: tuple[str, ...]
    kept: str
    dropped: tuple[str, ...]
    reason: str


@dataclass
class RoutingPlan:
    """Which categories to search, and why.

    ``provenance`` explains why each category is targeted:
    ``concept-expanded`` (a prompt concept maps there), ``required-core``
    (the taxonomy demands it), or ``advisor-added``.
    """

    target_categories: tuple[str, ...]
    provenance: dict[str, str]
    resolved_exclusions: list[ExclusionResolution] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "target_categories": list(self.target_categories),
            "provenance": dict(sorted(self.provenance.items())),
            "resolved_exclusions": [
                {
                    "group": list(r.group),
                    "kept": r.kept,
                    "dropped": list(r.dropped),
                    "reason": r.reason,
                }
                for r in self.resolved_exclusions
            ],
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> RoutingPlan:
        if not isinstance(doc, dict) or not isinstance(doc.get("target_categories"), list):
            raise ValueError("routing plan needs a 'target_categories' list; re-run route")
        provenance = doc.get("provenance", {})
        if not isinstance(provenance, dict):
            raise ValueError("routing plan 'provenance' must be an object; re-run route")
        exclusions = doc.get("resolved_exclusions", [])
        if not isinstance(exclusions, list) or not all(isinstance(r, dict) for r in exclusions):
            raise ValueError("routing plan 'resolved_exclusions' must list objects; re-run route")
        return cls(
            target_categories=tuple(doc["target_categories"]),
            provenance={str(k): str(v) for k, v in provenance.items()},
            resolved_exclusions=[
                ExclusionResolution(
                    group=tuple(r.get("group", [])),
                    kept=str(r.get("kept", "")),
                    dropped=tuple(r.get("dropped", [])),
                    reason=str(r.get("reason", "")),
                )
                for r in exclusions
            ],
            warnings=[str(w) for w in doc.get("warnings", [])],
        )


def plan_to_dict(plan: RoutingPlan) -> dict:
    """The plan.json body."""
    return {"plan": plan.to_dict()}


def plan_from_dict(doc: dict) -> RoutingPlan:
    return RoutingPlan.from_dict(doc["plan"])


def match_concept_key(noun: str, concept_map: dict[str, tuple[str, ...]]) -> str | None:
    """Find the concept-map key matching a noun phrase.

    Case-insensitive whole-word containment; the longest key (most words,
    then most characters, then lexicographic) wins so "cargo pants" beats
    "pants" when both are mapped.
    """
    words = noun.lower().split()
    best: str | None = None
    best_rank: tuple[int, int, str] | None = None
    for key in concept_map:
        kw = key.lower().split()
        if not kw:
            continue
        hit = any(words[i : i + len(kw)] == kw for i in range(len(words) - len(kw) + 1))
        if not hit:
            continue
        rank = (len(kw), len(key))
        if best is None or rank > best_rank[:2] or (rank == best_rank[:2] and key < best):
            best, best_rank = key, (len(kw), len(key), key)
    return best


def modifier_support(category_id: str, modifiers: tuple[str, ...],
                     keyword_table: dict[str, frozenset[str]]) -> int:
    """Count how many modifiers the category's keyword set supports."""
    table = keyword_table.get(category_id, frozenset())
    count = 0
    for m in modifiers:
        ml = m.lower()
        tokens = ml.replace("-", " ").split()
        if ml in table or any(t in table for t in tokens):
            count += 1
    return count


def route(
    spec: PromptSpec,
    taxonomy: Taxonomy,
    *,
    advisor=None,
) -> RoutingPlan:
    """Produce the routing plan for one prompt.

    Expansion adds every category each concept may denote; required-core
    categories are always present; exclusion groups are then resolved by
    modifier support (ties to the lower category id). An advisor, when
    given, may add categories subject to the same taxonomy and exclusion
    constraints; advisor failure degrades to a warning.
    """
    warnings: list[str] = []
    provenance: dict[str, str] = {}
    # category -> concepts that brought it in, in prompt order
    sources: dict[str, list[Concept]] = {}

    for concept in spec.concepts:
        key = match_concept_key(concept.noun, taxonomy.concept_map)
        if key is None:
            warnings.append(f"concept {concept.noun!r} matched no taxonomy entry")
            continue
        for cid in taxonomy.concept_map[key]:
            provenance.setdefault(cid, "concept-expanded")
            sources.setdefault(cid, []).append(concept)

    for cid in taxonomy.required_core:
        provenance.setdefault(cid, "required-core")

    targets = set(provenance)
    resolutions: list[ExclusionResolution] = []
    for group in taxonomy.exclusion_groups:
        present = [c for c in group if c in targets]
        if len(present) < 2:
            continue
        protected = [c for c in present if c in taxonomy.required_core]
        if len(protected) >= 2:
            warnings.append(
                f"exclusion group {list(group)} keeps conflicting required-core "
                "categories; taxonomy needs review"
            )
            continue
        if protected:
            kept = protected[0]
            reason = "required-core category retained"
        else:
            def support_of(cid: str) -> int:
                mods: list[str] = []
                for concept in sources.get(cid, []):
                    mods.extend(concept.modifiers)
                return modifier_support(cid, tuple(mods), DEFAULT_MODIFIER_KEYWORDS)

            scores = {c: support_of(c) for c in present}
            best = max(scores.values())
            kept = min(c for c in present if scores[c] == best)
            reason = f"modifier support {scores[kept]}"
            if sum(1 for c in present if scores[c] == best) > 1:
                reason += ", tie broken by category id"
        dropped = tuple(c for c in present if c != kept)
        for c in dropped:
            targets.discard(c)
        resolutions.append(
            ExclusionResolution(group=tuple(group), kept=kept, dropped=dropped,
                                reason=reason)
        )

    plan = RoutingPlan(
        target_categories=tuple(sorted(targets)),
        provenance={c: provenance[c] for c in sorted(targets)},
        resolved_exclusions=resolutions,
        warnings=warnings,
    )

    if advisor is not None:
        _apply_advisor(plan, spec.text, taxonomy, advisor)
    return plan


def _apply_advisor(plan: RoutingPlan, text: str, taxonomy: Taxonomy, advisor) -> None:
    """Merge the advisor's answer into the plan; the one place that reads it.

    An answer whose ``add_categories`` is not a list leaves the plan as
    routed. An entry that is not a category id string, and a suggestion
    the taxonomy or an exclusion group rules out, are skipped. Every
    rejection adds a warning.
    """
    try:
        suggestion = advisor.advise(
            {"text": text, "target_categories": list(plan.target_categories)}
        )
    except JudgeUnavailableError as exc:
        plan.warnings.append(f"advisor unavailable: {exc}")
        logger.warning("advisor unavailable: %s", exc)
        return
    additions = suggestion.get("add_categories", [])
    if not isinstance(additions, list):
        plan.warnings.append(
            f"advisor answer ignored: add_categories must be a list, got {suggestion!r}"
        )
        return

    targets = set(plan.target_categories)
    for cid in additions:
        if not isinstance(cid, str):
            plan.warnings.append(f"advisor suggestion {cid!r} skipped: malformed")
            continue
        if cid in targets:
            continue
        if cid not in taxonomy.categories:
            plan.warnings.append(f"advisor suggested unknown category {cid!r}")
            continue
        if excluded_by(cid, targets, taxonomy.exclusion_groups) is not None:
            plan.warnings.append(
                f"advisor suggestion {cid!r} rejected: exclusion conflict"
            )
            continue
        targets.add(cid)
        plan.provenance[cid] = "advisor-added"

    plan.target_categories = tuple(sorted(targets))
    plan.provenance = {c: plan.provenance[c] for c in plan.target_categories}


def route_naive(spec: PromptSpec, taxonomy: Taxonomy) -> RoutingPlan:
    """Ablation baseline: one category per concept, no expansion.

    :func:`route` over a narrowed taxonomy: each concept maps only to the
    lowest category id it denotes, so ambiguous concepts cover roughly half
    their true categories, and there are no exclusion groups to resolve.
    Required core categories still enter.
    """
    narrowed = replace(
        taxonomy,
        concept_map={k: (min(v),) for k, v in taxonomy.concept_map.items()},
        exclusion_groups=(),
    )
    return route(spec, narrowed)
