"""Judge-gated assembly: from candidate pools to one verified look.

The stages, in pipeline order:

1. :func:`filter_pools` shows each category's top candidates to the judge
   and keeps the survivors.
2. :func:`assemble_initial` asks the judge for an outfit selection and
   places it, core categories first, into the draft base look.
3. :func:`refine` runs the verify/edit loop until the judge passes the
   look or the iteration budget runs out.
4. :func:`generate_candidates` produces a diversified slate under
   per-asset and per-bundle caps with body-bundle rotation, one placement
   pass and one refinement per look.
5. :func:`tournament` reduces the slate to a single winner with batched
   comparisons.

Looks never leave this module in an inconsistent state: every placement
and edit is checked against the pool and the taxonomy's exclusion groups
(``catalog.excluded_by``) and required core. Each stage takes the
:class:`Taxonomy` itself, so no rule can be left out. A look's
``body_bundle_id`` is read from its final selections (``_body_bundle``).

Bundle ids come from the pools alone: retrieval tags each candidate with
its asset's ``bundle_id``, and every lookup here is for a pooled asset (the
body pool's ranking, its candidates' caps, and selections, which are pool
members). Assembly never reads the catalog.
"""
from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, field
from itertools import chain

from .catalog import Taxonomy, excluded_by
from .errors import BudgetInfeasibleError, JudgeUnavailableError, MissingCoreCategoryError
from .retrieval import Candidate

logger = logging.getLogger(__name__)

EDIT_ACTIONS = ("replace", "add", "remove")


@dataclass(frozen=True)
class GenerationBudget:
    n_candidates: int = 6
    per_asset_cap: int = 2
    per_bundle_cap: int = 2
    bundle_rotation: int = 3
    max_refine_iters: int = 3
    batch_size: int = 4

    def __post_init__(self) -> None:
        for name, v in asdict(self).items():
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")


@dataclass(frozen=True)
class Edit:
    action: str
    category_id: str
    asset_id: str | None = None

    def __post_init__(self) -> None:
        if self.action not in EDIT_ACTIONS:
            raise ValueError(f"unknown edit action {self.action!r}")
        if self.action in ("replace", "add") and not self.asset_id:
            raise ValueError(f"{self.action} edit requires an asset_id")
        if self.asset_id is not None and not isinstance(self.asset_id, str):
            raise ValueError(f"asset_id must be a string, got {self.asset_id!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> Edit:
        if not isinstance(doc, dict):
            raise ValueError("edit is not an object")
        return cls(
            action=str(doc.get("action", "")),
            category_id=str(doc.get("category_id", "")),
            asset_id=doc.get("asset_id"),
        )


@dataclass(frozen=True)
class Issue:
    description: str
    category_id: str | None = None


@dataclass(frozen=True)
class VerificationReport:
    verdict: str
    issues: tuple[Issue, ...] = ()
    edits: tuple[Edit, ...] = ()
    # judge edits that did not parse, each as "<edit>: <reason>"
    rejected_edits: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.verdict not in ("pass", "fail"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "fail" and not (self.issues or self.edits or self.rejected_edits):
            raise ValueError("fail report must carry issues or edits")

    @classmethod
    def from_dict(cls, doc: dict) -> VerificationReport:
        """Parse a judge's verify answer; the one place that reads it.

        A ``pass`` ignores everything else in the answer. An answer that
        cannot be a report (another verdict, a fail with nothing in it, or
        ``issues``/``edits`` that are not lists) raises
        :class:`JudgeUnavailableError`. A single edit that does not parse
        is kept in ``rejected_edits`` instead.
        """
        if doc.get("verdict") == "pass":
            return cls("pass")
        raw_issues = doc.get("issues", [])
        raw_edits = doc.get("edits", [])
        if not isinstance(raw_issues, list) or not isinstance(raw_edits, list):
            raise JudgeUnavailableError(
                f"verify issues and edits must be lists: {doc!r}"
            )
        edits: list[Edit] = []
        rejected: list[str] = []
        for raw in raw_edits:
            try:
                edits.append(Edit.from_dict(raw))
            except ValueError as exc:
                rejected.append(f"{raw!r}: {exc}")
        issues = tuple(
            Issue(
                description=str(i.get("description", i) if isinstance(i, dict) else i),
                category_id=i.get("category_id") if isinstance(i, dict) else None,
            )
            for i in raw_issues
        )
        try:
            return cls(str(doc.get("verdict", "")), issues, tuple(edits), tuple(rejected))
        except ValueError as exc:
            raise JudgeUnavailableError(f"malformed verify response {doc!r}: {exc}") from exc


@dataclass
class AvatarLook:
    look_id: str
    selections: dict[str, str] = field(default_factory=dict)
    body_bundle_id: str | None = None
    status: str = "draft"
    history: list[str] = field(default_factory=list)

    def to_doc(self) -> dict:
        """Stable document form for judge payloads and pipeline output."""
        return {
            "look_id": self.look_id,
            "selections": dict(sorted(self.selections.items())),
            "body_bundle_id": self.body_bundle_id,
            "status": self.status,
            "history": list(self.history),
        }


def validate_look(
    look: AvatarLook,
    pools: dict[str, list[Candidate]],
    exclusion_groups: tuple[tuple[str, ...], ...],
    required_core: tuple[str, ...],
) -> list[str]:
    """Invariant check; returns violations (empty when consistent)."""
    problems: list[str] = []
    for cat, aid in look.selections.items():
        pool_ids = {c.asset_id for c in pools.get(cat, [])}
        if aid not in pool_ids:
            problems.append(f"selection {aid!r} not in pool for {cat!r}")
    for group in exclusion_groups:
        chosen = [c for c in group if c in look.selections]
        if len(chosen) > 1:
            problems.append(f"exclusion group {list(group)} violated by {chosen}")
    for cat in required_core:
        if cat not in look.selections:
            problems.append(f"required core category {cat!r} missing")
    return problems


# --- stage 1: judge gating -----------------------------------------------------


def filter_pools(
    pools: dict[str, list[Candidate]],
    judge,
    gate_k: int,
) -> tuple[dict[str, list[Candidate]], list[str]]:
    """Keep only judge-approved candidates from each pool's top ``gate_k``.

    Pool order is preserved. Judge answers naming assets outside the shown
    grid are dropped with a warning; an empty answer leaves the category
    at risk (flagged, not fatal). Judge transport errors propagate.
    """
    filtered: dict[str, list[Candidate]] = {}
    warnings: list[str] = []
    for cat in sorted(pools):
        gated = pools[cat][:gate_k]
        if not gated:
            filtered[cat] = []
            continue
        keep = judge.filter_grid(cat, gated)
        shown = {c.asset_id for c in gated}
        foreign = [a for a in keep if a not in shown]
        if foreign:
            warnings.append(
                f"judge kept unknown assets {foreign} for {cat!r}; dropped"
            )
        keep_set = set(keep) & shown
        filtered[cat] = [c for c in gated if c.asset_id in keep_set]
        if not filtered[cat]:
            warnings.append(f"judge filtered out every candidate for {cat!r}")
    for w in warnings:
        logger.warning("%s", w)
    return filtered, warnings


# --- stage 2: initial assembly --------------------------------------------------


def pool_bundles(pools: dict[str, list[Candidate]]) -> dict[str, str]:
    """Bundle id of every pooled asset that has one."""
    return {
        c.asset_id: c.bundle_id
        for pool in pools.values()
        for c in pool
        if c.bundle_id is not None
    }


def _body_bundle(
    look: AvatarLook, bundles: dict[str, str], body_category: str | None
) -> str | None:
    """The bundle of the look's selected body asset, read from its selections."""
    return bundles.get(look.selections.get(body_category))


def assemble_initial(
    pools: dict[str, list[Candidate]],
    judge,
    *,
    taxonomy: Taxonomy,
    body_category: str | None,
) -> AvatarLook:
    """Draft look ``look-base`` from the judge's outfit selection.

    Categories are placed in one core-first pass: the judge's core picks
    in category order, then the core categories it omitted, filled from
    the top of their pools, then its other picks in category order. Picks
    outside the pool are replaced by the pool's top candidate, and a
    category excluded against one already placed is dropped, so core
    categories win conflicts. An empty core pool is fatal.
    """
    required_core = taxonomy.required_core
    pool_ids = {cat: [c.asset_id for c in pool] for cat, pool in pools.items()}
    picks = judge.select_outfit(pool_ids, {"required_core": list(required_core)})
    for cat in required_core:
        if not pools.get(cat):
            raise MissingCoreCategoryError(
                f"required core category {cat!r} has no usable candidates"
            )

    look = AvatarLook(look_id="look-base")
    omitted_core = [cat for cat in dict.fromkeys(required_core) if cat not in picks]
    core_first = (
        sorted(cat for cat in picks if cat in required_core)
        + omitted_core
        + sorted(cat for cat in picks if cat not in required_core)
    )
    for cat in core_first:
        if cat not in pools:
            look.history.append(f"dropped pick for unknown category {cat}")
            continue
        if not pools[cat]:
            look.history.append(f"no candidates for {cat}; pick dropped")
            continue
        top = pools[cat][0].asset_id
        aid = picks.get(cat, top)
        if aid not in pool_ids[cat]:
            look.history.append(f"replaced off-pool pick {aid} with {top} for {cat}")
            aid = top
        conflict = excluded_by(cat, look.selections, taxonomy.exclusion_groups)
        if conflict is not None:
            core = "core " if conflict in required_core else ""
            look.history.append(f"dropped {cat} (excluded against {core}{conflict})")
            continue
        look.selections[cat] = aid
        if cat not in picks:
            look.history.append(f"filled core category {cat} with {aid}")

    look.body_bundle_id = _body_bundle(look, pool_bundles(pools), body_category)
    return look


# --- stage 3: refinement ---------------------------------------------------------


def _apply_edit(
    look: AvatarLook,
    edit: Edit,
    pools: dict[str, list[Candidate]],
    taxonomy: Taxonomy,
) -> bool:
    """Apply one judge edit if it keeps the look consistent."""
    cat = edit.category_id
    pool_ids = {c.asset_id for c in pools.get(cat, [])}

    if edit.action == "remove":
        if cat not in look.selections:
            look.history.append(f"skipped remove of unselected {cat}")
            return False
        if cat in taxonomy.required_core:
            look.history.append(f"skipped remove of core category {cat}")
            return False
        removed = look.selections.pop(cat)
        look.history.append(f"remove {removed}")
        return True

    if edit.asset_id not in pool_ids:
        look.history.append(
            f"skipped {edit.action} of off-pool asset {edit.asset_id} for {cat}"
        )
        return False

    if edit.action == "add":
        if cat in look.selections:
            look.history.append(f"skipped add for already-selected {cat}")
            return False
        conflict = excluded_by(cat, look.selections, taxonomy.exclusion_groups)
        if conflict is not None:
            look.history.append(f"skipped add of {cat} (excluded against {conflict})")
            return False
        look.selections[cat] = edit.asset_id
        look.history.append(f"add {edit.asset_id}")
        return True

    # replace
    if cat not in look.selections:
        look.history.append(f"skipped replace for unselected {cat}")
        return False
    look.selections[cat] = edit.asset_id
    look.history.append(f"replace {edit.asset_id}")
    return True


def refine(
    look: AvatarLook,
    judge,
    budget: GenerationBudget,
    pools: dict[str, list[Candidate]],
    taxonomy: Taxonomy,
) -> AvatarLook:
    """Verify/edit loop: at most ``max_refine_iters`` judge verifications.

    Each fail report's edits apply in order, each one re-checked against
    the look invariants (and rolled back if it breaks them). Edits that do
    not parse are skipped and noted in the history. A look that never
    passes stays a draft.
    """
    for _ in range(budget.max_refine_iters):
        report = VerificationReport.from_dict(judge.verify(look.to_doc()))
        if report.verdict == "pass":
            look.status = "verified"
            return look
        for rejected in report.rejected_edits:
            look.history.append(f"skipped malformed edit {rejected}")
        for edit in report.edits:
            before = dict(look.selections)
            if not _apply_edit(look, edit, pools, taxonomy):
                continue
            problems = validate_look(
                look, pools, taxonomy.exclusion_groups, taxonomy.required_core
            )
            if problems:
                look.selections = before
                look.history.append(
                    f"rolled back {edit.action} on {edit.category_id}: {problems[0]}"
                )
    look.status = "draft"
    return look


# --- stage 4: candidate generation ----------------------------------------------


def rank_bundles(body_pool: list[Candidate]) -> list[str]:
    """Distinct bundle ids in order of first appearance in the body pool."""
    return list(dict.fromkeys(c.bundle_id for c in body_pool if c.bundle_id is not None))


def generate_candidates(
    pools: dict[str, list[Candidate]],
    judge,
    budget: GenerationBudget,
    *,
    taxonomy: Taxonomy,
    body_category: str | None,
    base_look: AvatarLook,
) -> list[AvatarLook]:
    """Diversified slate of refined looks under usage caps.

    Body bundles rotate through the top ``bundle_rotation`` ranked bundles
    so the slate spans body types. No asset appears in more than
    ``per_asset_cap`` looks and no bundle in more than ``per_bundle_cap``;
    capped choices fall through to the next-ranked unblocked candidate.
    A required-core category with nothing left to pick raises
    :class:`BudgetInfeasibleError`; other categories are omitted. Usage
    counters reflect each look's final, post-refinement selections.
    """
    required_core = taxonomy.required_core
    bundles = pool_bundles(pools)
    asset_use: dict[str, int] = {}
    bundle_use: dict[str, int] = {}

    rotation: list[str] = []
    if body_category and body_category in pools:
        rotation = rank_bundles(pools[body_category])[: budget.bundle_rotation]

    def asset_blocked(aid: str) -> bool:
        return asset_use.get(aid, 0) >= budget.per_asset_cap

    def bundle_blocked(c: Candidate) -> bool:
        b = c.bundle_id
        return b is not None and bundle_use.get(b, 0) >= budget.per_bundle_cap

    def pick(cat: str, look: AvatarLook, target_bundle: str | None) -> str | None:
        """First candidate the exclusions and caps allow, preferred ones
        first: the target bundle's bodies for the body category, the base
        look's pick for the others. The target is None only when no body
        has a bundle; then every body is preferred and pool order stands."""
        if excluded_by(cat, look.selections, taxonomy.exclusion_groups) is not None:
            return None
        pool = pools[cat]
        if cat == body_category:
            preferred = (c for c in pool if c.bundle_id == target_bundle)
        else:
            base_pick = base_look.selections.get(cat)
            preferred = (c for c in pool if c.asset_id == base_pick)
        for c in chain(preferred, pool):
            if not asset_blocked(c.asset_id) and not (
                cat == body_category and bundle_blocked(c)
            ):
                return c.asset_id
        return None

    looks: list[AvatarLook] = []
    categories = sorted(pools)
    core_first = [c for c in categories if c in required_core] + [
        c for c in categories if c not in required_core
    ]
    for i in range(budget.n_candidates):
        look = AvatarLook(look_id=f"look-{i:03d}")
        target_bundle = rotation[i % len(rotation)] if rotation else None
        for cat in core_first:
            if not pools.get(cat):
                if cat in required_core:
                    raise BudgetInfeasibleError(
                        f"required core category {cat!r} has no candidates"
                    )
                continue
            aid = pick(cat, look, target_bundle)
            if aid is None:
                if cat in required_core:
                    raise BudgetInfeasibleError(
                        f"caps leave no usable candidate for core category {cat!r} "
                        f"in look {i}"
                    )
                look.history.append(f"omitted {cat}: caps or exclusions")
                continue
            look.selections[cat] = aid

        look = refine(look, judge, budget, pools, taxonomy)
        look.body_bundle_id = _body_bundle(look, bundles, body_category)
        for aid in look.selections.values():
            asset_use[aid] = asset_use.get(aid, 0) + 1
            b = bundles.get(aid)
            if b is not None:
                bundle_use[b] = bundle_use.get(b, 0) + 1
        looks.append(look)
    return looks


# --- stage 5: tournament ---------------------------------------------------------


def tournament(looks: list[AvatarLook], judge, batch_size: int) -> AvatarLook:
    """Reduce looks to one winner via batched judge comparisons.

    Looks are compared in insertion-order batches; each batch's winner
    advances. A batch of one advances without spending a judge call. An
    out-of-range winner index from the judge falls back to the batch's
    first look with a warning.
    """
    if not looks:
        raise ValueError("tournament needs at least one look")
    if batch_size < 2:
        raise ValueError(f"batch_size must be >= 2, got {batch_size}")
    current = list(looks)
    while len(current) > 1:
        survivors: list[AvatarLook] = []
        for start in range(0, len(current), batch_size):
            batch = current[start : start + batch_size]
            if len(batch) == 1:
                survivors.append(batch[0])
                continue
            winner = judge.compare_batch([lk.to_doc() for lk in batch])
            if not 0 <= winner < len(batch):
                logger.warning(
                    "judge returned winner %r for a batch of %d; using first",
                    winner,
                    len(batch),
                )
                winner = 0
            survivors.append(batch[winner])
        current = survivors
    return current[0]
