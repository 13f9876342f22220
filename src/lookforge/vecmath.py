"""Embedding math: normalization, category subspaces, suppression, fusion.

Vectors are 1-D float64 numpy arrays of a shared dimension ``d``,
validated for finiteness; zero-norm inputs raise instead of silently
producing NaN. A category subspace is its orthonormal (d, r) basis
matrix. Catalog rows are never normalized or cast here: search scores
the catalog's float64 rows against their norms (:mod:`lookforge.catalog`).
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DegenerateFusionError,
    DimensionMismatchError,
    EmptyCategoryError,
    NonFiniteVectorError,
    ZeroVectorError,
)

if TYPE_CHECKING:
    from .catalog import AssetCatalog

logger = logging.getLogger(__name__)

# Norms at or below this are treated as zero.
ZERO_NORM_EPS = 1e-12


def as_vector(values, d: int | None = None) -> np.ndarray:
    """Coerce ``values`` to a finite 1-D float64 array, optionally checking ``d``."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D vector, got shape {v.shape}")
    if d is not None and v.shape[0] != d:
        raise DimensionMismatchError(f"expected dimension {d}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteVectorError("vector contains NaN or infinite entries")
    return v


def normalize(v) -> np.ndarray:
    """Return ``v / ||v||``.

    Raises :class:`ZeroVectorError` when the norm is at or below
    ``ZERO_NORM_EPS`` and :class:`NonFiniteVectorError` on NaN/inf input.
    """
    v = as_vector(v)
    n = float(np.linalg.norm(v))
    if n <= ZERO_NORM_EPS:
        raise ZeroVectorError(f"cannot normalize vector with norm {n!r}")
    return v / n


@dataclass(frozen=True)
class SubspaceParams:
    """How a category subspace's rank is chosen (see
    :func:`compute_category_subspace`)."""

    rank: int | None = None
    variance_threshold: float = 0.90
    max_rank: int = 16
    center: bool = False

    def __post_init__(self) -> None:
        for name in ("max_rank",) if self.rank is None else ("rank", "max_rank"):
            r = getattr(self, name)
            if isinstance(r, bool) or not isinstance(r, int) or r < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {r!r}")
        t = self.variance_threshold
        if isinstance(t, bool) or not isinstance(t, (int, float)) or not 0.0 < t <= 1.0:
            raise ValueError(f"variance_threshold must lie in (0, 1], got {t!r}")
        if not isinstance(self.center, bool):  # a string such as "false" is truthy
            raise ValueError(f"center must be true or false, got {self.center!r}")


def compute_category_subspace(
    category_id: str,
    embeddings,
    params: SubspaceParams = SubspaceParams(),
) -> np.ndarray:
    """SVD-derived subspace for one category's embeddings: its orthonormal
    (d, r) basis, the top right singular vectors as columns.

    ``embeddings`` stacks one row per asset. By default rows enter the SVD
    uncentered, so the leading direction tracks the category mean; set
    ``params.center`` to subtract the mean first. With ``params.rank``
    None the rank is the smallest r whose squared singular values cover
    ``params.variance_threshold`` of the total energy, capped at
    ``params.max_rank``. An explicit rank is clamped to min(n, d).
    """
    m = np.asarray(embeddings, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got shape {m.shape}")
    n, d = m.shape
    if n == 0:
        raise EmptyCategoryError(f"category {category_id!r} has no embeddings")
    if not np.all(np.isfinite(m)):
        raise NonFiniteVectorError("embedding matrix contains NaN or infinite entries")
    if params.center:
        m = m - m.mean(axis=0, keepdims=True)

    _, s, vt = np.linalg.svd(m, full_matrices=False)

    if params.rank is not None:
        r = min(params.rank, n, d)
    else:
        energy = s**2
        total = float(energy.sum())
        if total <= ZERO_NORM_EPS:
            # All-zero rows after centering; keep a single direction.
            r = 1
        else:
            covered = np.cumsum(energy) / total
            r = int(np.searchsorted(covered, params.variance_threshold) + 1)
        r = min(r, params.max_rank, n, d)

    return np.ascontiguousarray(vt[:r].T)


def estimate_subspaces(
    catalog: AssetCatalog,
    params: SubspaceParams = SubspaceParams(),
) -> dict[str, np.ndarray]:
    """Per-category subspace bases estimated from catalog embeddings.

    Categories without assets are skipped (logged), matching what the
    pipeline can actually suppress.
    """
    out: dict[str, np.ndarray] = {}
    for cid in catalog.taxonomy.categories:
        ids, rows = catalog.embedding_matrix(cid)
        if not ids:
            logger.info("category %r has no assets; no subspace", cid)
            continue
        out[cid] = compute_category_subspace(cid, rows, params)
    return out


def suppress(g, others: dict[str, np.ndarray]) -> np.ndarray:
    """Remove other categories' subspace components from a global embedding.

    ``others`` maps category id to an orthonormal (d, r) basis. Subtracts
    the projection onto each basis in ascending category id order and
    returns the raw residual without renormalizing. The caller decides
    whether the residual is still usable (see the collapse threshold in
    :mod:`lookforge.retrieval`).
    """
    r = as_vector(g).copy()
    for cid in sorted(others):
        basis = others[cid]
        if basis.shape[0] != r.shape[0]:
            raise DimensionMismatchError(
                f"subspace {cid!r} has dim {basis.shape[0]}, residual has dim {r.shape[0]}"
            )
        r -= basis @ (basis.T @ r)
    return r


def fuse(primary, text_prior, w: float) -> np.ndarray:
    """Weighted fusion ``normalize(w * primary + (1 - w) * text_prior)``.

    Raises :class:`DegenerateFusionError` when the combination cancels to
    (numerical) zero, which otherwise would manufacture an arbitrary
    direction out of noise.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"fusion weight must lie in [0, 1], got {w}")
    p = as_vector(primary)
    t = as_vector(text_prior, d=p.shape[0])
    fused = w * p + (1.0 - w) * t
    n = float(np.linalg.norm(fused))
    if n <= ZERO_NORM_EPS:
        raise DegenerateFusionError("fused vector has no direction")
    return fused / n
