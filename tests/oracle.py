"""Reference ranking oracle for the search tests.

Same scoring contract as :meth:`AssetCatalog.search`, a row scores
``(row . q) / ||row||`` over the given float64 rows, with an independent
scoring loop and sort, so a disagreement points at the search rather than
at the oracle.
"""
from __future__ import annotations

import numpy as np

from lookforge.catalog import AssetCatalog
from lookforge.vecmath import as_vector, normalize


def brute_force_ranking(
    asset_ids: list[str],
    embeddings,
    query,
) -> list[tuple[str, float]]:
    """Full ranking by cosine, scored row by row and sorted in python.

    Each row is divided by its own norm after the dot product, the
    search's scoring contract (shared on purpose); the scoring loop and the
    (-score, asset_id) sort are independent of the search implementation.
    Ties resolve to the lower asset id.
    """
    rows = np.asarray(embeddings, dtype=np.float64)
    if rows.shape[0] != len(asset_ids):
        raise ValueError(f"{rows.shape[0]} rows for {len(asset_ids)} ids")
    q = normalize(as_vector(query, d=int(rows.shape[1])))
    scored = [
        (-float(np.dot(row, q) / np.linalg.norm(row)), aid)
        for aid, row in zip(asset_ids, rows)
    ]
    scored.sort()
    return [(aid, -neg) for neg, aid in scored]


def brute_force_rank(
    catalog: AssetCatalog,
    category_id: str,
    query,
    k: int,
) -> list[str]:
    """Top-``k`` asset ids for a category by full scan.

    Same ordering contract as the catalog's search: cosine descending, ties
    to the lower id, ``k`` past the category size returns everything,
    an empty category returns no ids.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ids, rows = catalog.embedding_matrix(category_id)
    if not ids:
        return []
    ranking = brute_force_ranking(ids, rows, query)
    return [aid for aid, _ in ranking[: min(k, len(ids))]]
