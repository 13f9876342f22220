"""Exact per-category cosine search, one index per catalog category.

A flat scan over the category's float64 rows in ascending asset-id order,
each row's norm computed once: a row scores ``(row . q) / norm`` against
the normalized query. A stable sort on negated scores sends exact ties to
the lower asset id. No approximate structure is involved; determinism and
auditability beat speed at catalog sizes this system targets.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, NonFiniteVectorError, ZeroVectorError
from .vecmath import ZERO_NORM_EPS, as_vector, normalize


@dataclass(frozen=True)
class SearchHit:
    asset_id: str
    score: float
    rank: int


class CategoryIndex:
    """Flat cosine index over one category's assets.

    ``rows`` is a read-only float64 view of ``embeddings``, one row per id
    in ascending order; only a writable array is copied. A read-only view
    is trusted to stay unchanged, since each row's norm is computed once:
    the catalog, which owns its matrices, never writes them afterwards.
    Raises ``ValueError`` for ids out of order, :class:`NonFiniteVectorError`
    for a row whose norm is not finite (NaN or infinite entries, or
    overflow) and :class:`ZeroVectorError` for one at most ``ZERO_NORM_EPS``.
    """

    def __init__(self, category_id: str, asset_ids: Sequence[str], embeddings) -> None:
        self.category_id = category_id
        if sorted(asset_ids) != list(asset_ids) or len(set(asset_ids)) != len(asset_ids):
            raise ValueError("asset ids must be strictly ascending")
        self.asset_ids = tuple(asset_ids)
        matrix = np.asarray(embeddings, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != len(self.asset_ids):
            raise DimensionMismatchError(
                f"matrix of shape {matrix.shape} for {len(self.asset_ids)} asset ids"
            )
        if matrix.flags.writeable:
            matrix = matrix.copy()
            matrix.flags.writeable = False
        self.rows = matrix
        self.size, self.dim = matrix.shape
        self._norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))  # no n x d temporary
        if not np.all(np.isfinite(self._norms)):
            raise NonFiniteVectorError("a row's norm is not finite")
        if np.any(self._norms <= ZERO_NORM_EPS):
            raise ZeroVectorError(f"a row's norm is at or below {ZERO_NORM_EPS}")

    def search(self, query, k: int) -> list[SearchHit]:
        """Top-``k`` assets by cosine against the normalized query.

        Ties break toward the lower asset id. ``k`` larger than the index
        returns everything; an empty index returns no hits.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        q = normalize(as_vector(query, d=self.dim))
        # not `matrix @ q`: blocked gemv kernels give identical rows
        # position-dependent scores, breaking the id tie-break
        scores = (self.rows * q).sum(axis=1) / self._norms
        order = np.argsort(-scores, kind="stable")[: min(k, self.size)]
        return [
            SearchHit(asset_id=self.asset_ids[i], score=float(scores[i]), rank=rank)
            for rank, i in enumerate(order)
        ]
