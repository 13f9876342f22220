"""Exact per-category cosine search, and the index directory that
``build-index`` writes and ``retrieve`` reads.

Search is a flat scan: rows are float32 unit vectors stored in ascending
asset-id order, queries are normalized in float64, and scores come from a
float64 matrix-vector product. Ranking uses a stable sort on negated
scores, so exact ties resolve to the lower asset id. No approximate
structure is involved; determinism and auditability beat speed at catalog
sizes this system targets. Retrieval builds one :class:`CategoryIndex`
per routed category from the catalog's id-ordered rows.

An index directory, format version 2, holds the ingested catalog in
``catalog.npz``: ``meta``, UTF-8 JSON of each non-empty category's asset
ids (JSON round-trips any id exactly; numpy strings drop a trailing NUL)
and the bundle map, and ``rows_<i>``, the float64 matrix of the i-th of
those categories. ``manifest.json`` records the format version and the
sha256 of the npz and of the catalog and taxonomy files it came from.
Loading checks all of them before parsing, so a stale or corrupted index
is never searched.
"""
from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .catalog import AssetCatalog, Taxonomy, read_doc, replace_file
from .errors import (
    ChecksumMismatchError,
    DimensionMismatchError,
    SnapshotIoError,
    VersionMismatchError,
)
from .vecmath import as_vector, canonical_rows, normalize

INDEX_FORMAT_VERSION = 2
INDEX_FILE = "catalog.npz"
MANIFEST_FILE = "manifest.json"


@dataclass(frozen=True)
class SearchHit:
    asset_id: str
    score: float
    rank: int


class CategoryIndex:
    """Flat cosine index over one category's assets."""

    def __init__(self, category_id: str, asset_ids: list[str], embeddings: np.ndarray) -> None:
        self.category_id = category_id
        if sorted(asset_ids) != list(asset_ids) or len(set(asset_ids)) != len(asset_ids):
            raise ValueError("asset ids must be strictly ascending")
        self.asset_ids = list(asset_ids)
        matrix = canonical_rows(embeddings)
        if matrix.shape[0] != len(self.asset_ids):
            raise DimensionMismatchError(
                f"{matrix.shape[0]} rows for {len(self.asset_ids)} asset ids"
            )
        self._matrix = matrix

    @property
    def size(self) -> int:
        return len(self.asset_ids)

    @property
    def dim(self) -> int:
        return int(self._matrix.shape[1])

    @property
    def rows(self) -> np.ndarray:
        """The stored float32 row matrix (read-only view)."""
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    def search(self, query, k: int) -> list[SearchHit]:
        """Top-``k`` assets by cosine against the normalized query.

        Ties break toward the lower asset id. ``k`` larger than the index
        returns everything; an empty index returns no hits.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        q = normalize(as_vector(query, d=self.dim))
        if self.size == 0:
            return []
        # not `matrix @ q`: blocked gemv kernels give identical rows
        # position-dependent scores, breaking the id tie-break
        scores = (self._matrix.astype(np.float64) * q).sum(axis=1)
        order = np.argsort(-scores, kind="stable")[: min(k, self.size)]
        return [
            SearchHit(asset_id=self.asset_ids[i], score=float(scores[i]), rank=rank)
            for rank, i in enumerate(order)
        ]


def _sha256(fh) -> str:
    """Hex sha256 of an open binary file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    for chunk in iter(lambda: fh.read(1 << 20), b""):
        digest.update(chunk)
    return digest.hexdigest()


def _source_sha256(sources: Mapping[str, str | Path]) -> dict[str, str]:
    digests = {}
    for name, path in sorted(sources.items()):
        with open(path, "rb") as fh:
            digests[name] = _sha256(fh)
    return digests


def save_index_dir(
    catalog: AssetCatalog, index_dir: str | Path, sources: Mapping[str, str | Path]
) -> dict:
    """Write ``catalog`` to ``index_dir/catalog.npz``; returns the manifest
    body, which records the npz's digest and that of each named source file."""
    categories = [c for c in catalog.taxonomy.categories if catalog.embedding_matrix(c)[0]]
    meta = {
        "categories": [[c, list(catalog.embedding_matrix(c)[0])] for c in categories],
        "bundles": dict(sorted(catalog.bundles.items())),
    }
    arrays = {f"rows_{i}": catalog.embedding_matrix(c)[1] for i, c in enumerate(categories)}
    meta_bytes = np.frombuffer(json.dumps(meta).encode("ascii"), np.uint8)
    index_dir = Path(index_dir)
    index_dir.mkdir(parents=True, exist_ok=True)
    path = index_dir / INDEX_FILE
    replace_file(path, lambda fh: np.savez(fh, meta=meta_bytes, **arrays))
    with open(path, "rb") as fh:
        index_sha256 = _sha256(fh)
    return {
        "format_version": INDEX_FORMAT_VERSION,
        "index_sha256": index_sha256,
        "source_sha256": _source_sha256(sources),
    }


def load_index_dir(
    index_dir: str | Path, taxonomy: Taxonomy, sources: Mapping[str, str | Path]
) -> AssetCatalog:
    """The catalog ``save_index_dir`` wrote. A missing or malformed manifest
    or npz raises :class:`SnapshotIoError`, another format version
    :class:`VersionMismatchError`, and a source file or npz whose digest
    differs from the manifest's :class:`ChecksumMismatchError`."""
    index_dir = Path(index_dir)
    manifest_path = index_dir / MANIFEST_FILE
    try:
        manifest = read_doc(manifest_path)
        version = manifest.get("format_version")
    except (OSError, ValueError, AttributeError) as exc:
        raise SnapshotIoError(f"cannot read {manifest_path}: {exc}; run build-index") from exc
    if version != INDEX_FORMAT_VERSION:
        raise VersionMismatchError(
            f"{manifest_path} has index format version {version}, supported version "
            f"{INDEX_FORMAT_VERSION}; run build-index"
        )
    recorded = manifest.get("source_sha256")
    for name, digest in _source_sha256(sources).items():
        if not isinstance(recorded, dict) or recorded.get(name) != digest:
            raise ChecksumMismatchError(
                f"{name} file {sources[name]} changed since the index was built; run build-index"
            )
    path = index_dir / INDEX_FILE
    try:
        with open(path, "rb") as fh:
            if _sha256(fh) != manifest.get("index_sha256"):
                raise ChecksumMismatchError(f"{path} failed checksum verification")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as npz:
                meta = json.loads(npz["meta"].tobytes())
                cats = meta["categories"]
                rows = {cid: (ids, npz[f"rows_{i}"]) for i, (cid, ids) in enumerate(cats)}
                bundles = dict(meta["bundles"])
    except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
        raise SnapshotIoError(f"cannot read {path}: {exc}; run build-index") from exc
    return AssetCatalog(taxonomy, rows, bundles)
