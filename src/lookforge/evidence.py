"""Visual evidence and text priors for one prompt/look.

An :class:`EvidenceStore` carries everything retrieval conditions on:
global embeddings of rendered views, per-category part evidence (crops,
when a detector found the part), and per-category text prior embeddings.
Part evidence has an explicit status so downstream code can tell a usable
crop from a failed detection instead of guessing from missing fields.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .catalog import VIEWS, Taxonomy, at, check, check_doc, need, read_doc, write_doc
from .errors import MissingTextPriorError, NoViewsAvailableError, PipelineError
from .vecmath import as_vector

logger = logging.getLogger(__name__)

EVIDENCE_SCHEMA_VERSION = 1

PART_STATUSES = ("valid", "fallback_keyword", "failed")


@dataclass(frozen=True)
class PartEvidence:
    """Evidence for one category's part.

    ``valid`` and ``fallback_keyword`` statuses require an embedding;
    ``failed`` must carry none. A refusal's message starts with its field.
    """

    category_id: str
    status: str
    embedding: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.status not in PART_STATUSES:
            raise ValueError(f"status must be one of {', '.join(PART_STATUSES)}, "
                             f"got {self.status!r}")
        if (self.status == "failed") != (self.embedding is None):
            wanted = "null" if self.status == "failed" else "given"
            raise ValueError(f"embedding must be {wanted} for a {self.status} part")

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
            part = replace(part, embedding=self._check_dim(part.embedding))
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

    def text_prior(self, category_id: str) -> np.ndarray:
        try:
            return self._text_priors[category_id]
        except KeyError:
            raise MissingTextPriorError(
                f"no text prior for category {category_id!r}"
            ) from None

    def to_dict(self) -> dict:
        """The evidence file body."""
        return {
            "schema_version": EVIDENCE_SCHEMA_VERSION,
            "views": {v: [float(x) for x in self._views[v]] for v in self.available_views},
            "parts": [
                {
                    "category_id": p.category_id,
                    "status": p.status,
                    "embedding": None if p.embedding is None else [float(x) for x in p.embedding],
                }
                for _, p in sorted(self._parts.items())
            ],
            "text_priors": {c: [float(x) for x in v] for c, v in sorted(self._text_priors.items())},
        }


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
    write_doc(path, store.to_dict())


def load_evidence(path: str | Path) -> EvidenceStore:
    """Read an evidence file; a refusal names the file and the key. Keys the
    format does not define, such as the ``prompt_text`` and per-part
    ``source_view`` of older files, are ignored."""
    name = Path(path).name
    doc = check_doc(read_doc(path), EVIDENCE_SCHEMA_VERSION, name)
    store = EvidenceStore()
    for view, emb in check(doc.get("views", {}), dict, at(name, "views")).items():
        where = at(name, "views", view)
        _add(where, store.add_view, view, _vector(emb, where))
    for i, entry in enumerate(check(doc.get("parts", []), list, at(name, "parts"))):
        where = at(name, "parts", i)
        cid = need(check(entry, dict, where), "category_id", str, where)
        status, emb = need(entry, "status", str, where), entry.get("embedding")
        emb = None if emb is None else _vector(emb, at(where, "embedding"))
        try:
            part = PartEvidence(cid, status, emb)
        except ValueError as exc:  # its message starts with the field's name
            raise ValueError(f"{where}.{exc}") from exc
        _add(at(where, "embedding"), store.add_part, part)
    for cid, emb in check(doc.get("text_priors", {}), dict, at(name, "text_priors")).items():
        where = at(name, "text_priors", cid)
        _add(where, store.add_text_prior, cid, _vector(emb, where))
    return store


def _vector(value, path: str) -> np.ndarray:
    """A JSON list of numbers as a float64 array; numpy converts it, so ``true`` reads as 1."""
    check(value, list, path)
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path} must be a list of numbers: {exc}") from None


def _add(path: str, add, *args) -> None:
    """``add(*args)``; a refusal is raised again, same type, naming ``path``."""
    try:
        add(*args)
    except (ValueError, PipelineError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
