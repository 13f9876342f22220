"""Embedding math: normalization, category subspaces, suppression, fusion.

Vectors are 1-D float64 numpy arrays of a shared dimension ``d``,
validated for finiteness; zero-norm inputs raise instead of silently
producing NaN. A category subspace is its orthonormal (d, r) basis
matrix, estimated from the catalog's rows as stored: the catalog holds
them finite and nonzero, and search scores them against their norms
(:mod:`lookforge.catalog`), so nothing here re-checks, normalizes or casts them.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DegenerateFusionError,
    DimensionMismatchError,
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
    :func:`estimate_subspaces`)."""

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


def estimate_subspaces(
    catalog: AssetCatalog,
    params: SubspaceParams = SubspaceParams(),
) -> dict[str, np.ndarray]:
    """Each non-empty category's subspace: the top right singular vectors
    of its catalog rows, as the columns of an orthonormal (d, r) basis.

    Rows enter the SVD uncentered unless ``params.center``, so the leading
    direction tracks the category mean. With ``params.rank`` None the rank
    is the smallest r whose squared singular values cover
    ``params.variance_threshold`` of the total energy, capped at
    ``params.max_rank``; an explicit rank is clamped to min(n, d).
    Categories without assets are skipped (logged): nothing to suppress.
    """
    out: dict[str, np.ndarray] = {}
    for cid in catalog.taxonomy.categories:
        ids, m = catalog.embedding_matrix(cid)
        if not ids:
            logger.info("category %r has no assets; no subspace", cid)
            continue
        if params.center:
            m = m - m.mean(axis=0, keepdims=True)
        s, vt = np.linalg.svd(m, full_matrices=False)[1:]  # U (n x min(n, d)) freed now
        energy = s**2
        total = float(energy.sum())
        if params.rank is not None:
            r = params.rank
        elif total <= ZERO_NORM_EPS:  # all-zero rows after centering: keep one direction
            r = 1
        else:
            covered = np.cumsum(energy) / total
            r = min(params.max_rank, int(np.searchsorted(covered, params.variance_threshold) + 1))
        out[cid] = np.ascontiguousarray(vt[: min(r, *m.shape)].T)
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
    """Weighted fusion of unit inputs,
    ``normalize(w * normalize(primary) + (1 - w) * normalize(text_prior))``.

    Each input is normalized first, so ``w`` is its share of the direction
    whatever the inputs' lengths. An input whose weight is 0 is not read:
    ``fuse(p, t, 1.0)`` is ``normalize(p)`` for any ``t``. A zero input
    that is read raises :class:`ZeroVectorError`. Raises
    :class:`DegenerateFusionError` when the combination cancels to
    (numerical) zero, which otherwise would manufacture an arbitrary
    direction out of noise.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"fusion weight must lie in [0, 1], got {w}")
    if w in (0.0, 1.0):
        return normalize(primary if w else text_prior)
    p = normalize(primary)
    fused = w * p + (1.0 - w) * normalize(as_vector(text_prior, d=p.shape[0]))
    n = float(np.linalg.norm(fused))
    if n <= ZERO_NORM_EPS:
        raise DegenerateFusionError("fused vector has no direction")
    return fused / n
