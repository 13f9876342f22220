"""Visual evidence and text priors for one prompt/look.

An :class:`EvidenceStore` carries everything retrieval conditions on:
global embeddings of rendered views, per-category part evidence (crops,
when a detector found the part), and per-category text prior embeddings.
Part evidence has an explicit status so downstream code can tell a usable
crop from a failed detection instead of guessing from missing fields.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .catalog import VIEWS, Taxonomy, read_doc, write_doc
from .errors import MissingTextPriorError, NoViewsAvailableError
from .vecmath import as_vector

logger = logging.getLogger(__name__)

EVIDENCE_SCHEMA_VERSION = 1

PART_STATUSES = ("valid", "fallback_keyword", "failed")


@dataclass(frozen=True)
class PartEvidence:
    """Evidence for one category's part.

    ``valid`` and ``fallback_keyword`` statuses require an embedding;
    ``failed`` must carry none.
    """

    category_id: str
    status: str
    embedding: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.status not in PART_STATUSES:
            raise ValueError(f"unknown part status {self.status!r}")
        if self.status == "failed":
            if self.embedding is not None:
                raise ValueError("failed part evidence cannot carry an embedding")
        else:
            if self.embedding is None:
                raise ValueError(f"{self.status} part evidence requires an embedding")

    @property
    def usable(self) -> bool:
        return self.status in ("valid", "fallback_keyword")


class EvidenceStore:
    """Evidence for one prompt: view globals, parts, and text priors."""

    def __init__(self) -> None:
        self._views: dict[str, np.ndarray] = {}
        self._parts: dict[str, PartEvidence] = {}
        self._text_priors: dict[str, np.ndarray] = {}
        self._dim: int | None = None

    # --- population ----------------------------------------------------------

    def _check_dim(self, v: np.ndarray) -> np.ndarray:
        v = as_vector(v, d=self._dim)
        if self._dim is None:
            self._dim = int(v.shape[0])
        return v

    def add_view(self, view: str, embedding) -> None:
        if view not in VIEWS:
            raise ValueError(f"unknown view {view!r}")
        self._views[view] = self._check_dim(embedding)

    def add_part(self, part: PartEvidence) -> None:
        if part.embedding is not None:
            part = PartEvidence(
                category_id=part.category_id,
                status=part.status,
                embedding=self._check_dim(part.embedding),
            )
        self._parts[part.category_id] = part

    def add_text_prior(self, category_id: str, embedding) -> None:
        self._text_priors[category_id] = self._check_dim(embedding)

    # --- access --------------------------------------------------------------

    @property
    def available_views(self) -> tuple[str, ...]:
        return tuple(v for v in VIEWS if v in self._views)

    def view_embedding(self, view: str) -> np.ndarray:
        return self._views[view]

    def part(self, category_id: str) -> PartEvidence | None:
        return self._parts.get(category_id)

    @property
    def parts(self) -> dict[str, PartEvidence]:
        return dict(self._parts)

    def text_prior(self, category_id: str) -> np.ndarray:
        try:
            return self._text_priors[category_id]
        except KeyError:
            raise MissingTextPriorError(
                f"no text prior for category {category_id!r}"
            ) from None

    @property
    def text_priors(self) -> dict[str, np.ndarray]:
        return dict(self._text_priors)


def select_view(
    category_id: str,
    store: EvidenceStore,
    taxonomy: Taxonomy,
) -> tuple[str, str | None]:
    """The one view to read global evidence from, and any warning.

    Takes the first view of the taxonomy's per-category preference that
    the store has; otherwise the first available view in the default
    front/back/left/right order, with a warning when a stated preference
    went unmet. Raises :class:`NoViewsAvailableError` when the store has
    no views at all.
    """
    available = store.available_views
    if not available:
        raise NoViewsAvailableError("evidence store has no rendered views")
    preference = taxonomy.view_map.get(category_id, ())
    for view in preference:
        if view in available:
            return view, None
    warning = None
    if preference:
        warning = (
            f"no preferred view of {category_id!r} available "
            f"(wanted {list(preference)}); falling back to default order"
        )
        logger.warning("%s", warning)
    return available[0], warning


def resolve_part_or_global(category_id: str, store: EvidenceStore) -> np.ndarray | None:
    """Decide whether retrieval may trust part evidence for a category.

    Part evidence wins iff present with a usable status; its embedding is
    returned. ``None`` means the caller should fall back to global view
    evidence alone.
    """
    part = store.part(category_id)
    return part.embedding if part is not None and part.usable else None


# --- file format --------------------------------------------------------------


def save_evidence(store: EvidenceStore, path: str | Path) -> None:
    doc = {
        "schema_version": EVIDENCE_SCHEMA_VERSION,
        "views": {v: [float(x) for x in store.view_embedding(v)]
                  for v in store.available_views},
        "parts": [
            {
                "category_id": p.category_id,
                "status": p.status,
                "embedding": None
                if p.embedding is None
                else [float(x) for x in p.embedding],
            }
            for _, p in sorted(store.parts.items())
        ],
        "text_priors": {
            c: [float(x) for x in v] for c, v in sorted(store.text_priors.items())
        },
    }
    write_doc(path, doc)


def load_evidence(path: str | Path) -> EvidenceStore:
    """Read an evidence file. Keys the format does not define, such as the
    ``prompt_text`` and per-part ``source_view`` that older files carry, are
    ignored."""
    doc = read_doc(path)
    if not isinstance(doc, dict):
        raise ValueError("evidence must be a JSON object")
    version = doc.get("schema_version", EVIDENCE_SCHEMA_VERSION)
    if version != EVIDENCE_SCHEMA_VERSION:
        raise ValueError(f"unsupported evidence schema version {version!r}")
    views, parts, priors = doc.get("views", {}), doc.get("parts", []), doc.get("text_priors", {})
    if not isinstance(views, dict) or not isinstance(priors, dict):
        raise ValueError("evidence views and text_priors must be objects")
    if not isinstance(parts, list) or not all(isinstance(e, dict) for e in parts):
        raise ValueError("evidence parts must be a list of objects")
    store = EvidenceStore()
    for view, emb in views.items():
        store.add_view(view, emb)
    for entry in parts:
        emb = entry.get("embedding")
        store.add_part(
            PartEvidence(
                category_id=entry["category_id"],
                status=entry["status"],
                embedding=None if emb is None else np.asarray(emb, dtype=np.float64),
            )
        )
    for cid, emb in priors.items():
        store.add_text_prior(cid, emb)
    return store
