"""Exact per-category cosine search with binary snapshots.

Search is a flat scan: rows are float32 unit vectors stored in ascending
asset-id order, queries are normalized in float64, and scores come from a
float64 matrix-vector product. Ranking uses a stable sort on negated
scores, so exact ties resolve to the lower asset id. No approximate
structure is involved; determinism and auditability beat speed at catalog
sizes this system targets.

Snapshot layout (little-endian), version 1:

    magic  b"LFIX"
    u32    version
    u32    dimension d
    u32    row count n
    u16    category id byte length, then that many UTF-8 bytes
    n *    (u16 asset id byte length, then bytes)
    n*d    float32 row data
    32     sha256 over everything after the magic and before the digest

Loading verifies magic, version, and checksum before parsing the body, so
a corrupted file never yields a silently wrong index.

A snapshot directory holds one ``<category>.idx`` per category and a
``manifest.json`` listing each snapshot's file, asset count and sha256.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .catalog import replace_file
from .errors import (
    ChecksumMismatchError,
    DimensionMismatchError,
    SnapshotIoError,
    VersionMismatchError,
)
from .vecmath import as_vector, canonical_rows, normalize

SNAPSHOT_MAGIC = b"LFIX"
SNAPSHOT_VERSION = 1
MANIFEST_FILE = "manifest.json"


@dataclass(frozen=True)
class SearchHit:
    asset_id: str
    score: float
    rank: int


class CategoryIndex:
    """Flat cosine index over one category's assets."""

    def __init__(
        self,
        category_id: str,
        asset_ids: list[str],
        embeddings: np.ndarray | None = None,
        *,
        _canonical: np.ndarray | None = None,
    ) -> None:
        self.category_id = category_id
        if sorted(asset_ids) != list(asset_ids) or len(set(asset_ids)) != len(asset_ids):
            raise ValueError("asset ids must be strictly ascending")
        self.asset_ids = list(asset_ids)
        if _canonical is not None:
            matrix = np.asarray(_canonical, dtype=np.float32)
        else:
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

    # --- snapshots -----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        body = bytearray()
        body += struct.pack("<III", SNAPSHOT_VERSION, self.dim, self.size)
        cid = self.category_id.encode("utf-8")
        body += struct.pack("<H", len(cid)) + cid
        for aid in self.asset_ids:
            raw = aid.encode("utf-8")
            body += struct.pack("<H", len(raw)) + raw
        body += np.ascontiguousarray(self._matrix, dtype="<f4").tobytes()
        digest = hashlib.sha256(bytes(body)).digest()
        replace_file(Path(path), SNAPSHOT_MAGIC + bytes(body) + digest)

    @classmethod
    def load(cls, path: str | Path) -> CategoryIndex:
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise SnapshotIoError(f"cannot read snapshot {path}: {exc}") from exc
        if len(data) < 8 or data[:4] != SNAPSHOT_MAGIC:
            raise SnapshotIoError(f"{path} is not an index snapshot")
        (version,) = struct.unpack_from("<I", data, 4)
        if version != SNAPSHOT_VERSION:
            raise VersionMismatchError(
                f"snapshot version {version}, supported version {SNAPSHOT_VERSION}"
            )
        if len(data) < 4 + 12 + 32:
            raise ChecksumMismatchError(f"{path} is truncated")
        body, digest = data[4:-32], data[-32:]
        if hashlib.sha256(body).digest() != digest:
            raise ChecksumMismatchError(f"{path} failed checksum verification")

        try:
            _, d, n = struct.unpack_from("<III", body, 0)
            off = 12
            (cid_len,) = struct.unpack_from("<H", body, off)
            off += 2
            category_id = body[off : off + cid_len].decode("utf-8")
            off += cid_len
            asset_ids: list[str] = []
            for _ in range(n):
                (id_len,) = struct.unpack_from("<H", body, off)
                off += 2
                asset_ids.append(body[off : off + id_len].decode("utf-8"))
                off += id_len
            row_bytes = body[off : off + 4 * n * d]
            if len(row_bytes) != 4 * n * d or off + 4 * n * d != len(body):
                raise SnapshotIoError(f"{path} has a malformed body")
            matrix = np.frombuffer(row_bytes, dtype="<f4").reshape(n, d).astype(
                np.float32, copy=True
            )
        except (struct.error, UnicodeDecodeError) as exc:
            raise SnapshotIoError(f"{path} has a malformed body: {exc}") from exc
        return cls(category_id, asset_ids, _canonical=matrix)


def build_indices(catalog, categories: list[str] | None = None) -> dict[str, CategoryIndex]:
    """Build one index per (requested) category from an ingested catalog."""
    cats = list(categories) if categories is not None else list(catalog.taxonomy.categories)
    return {cid: CategoryIndex(cid, *catalog.embedding_matrix(cid)) for cid in cats}


def save_snapshots(
    indices: dict[str, CategoryIndex], index_dir: str | Path, dimension: int | None
) -> dict:
    """Write one snapshot per index into ``index_dir``; returns the manifest body."""
    index_dir = Path(index_dir)
    index_dir.mkdir(parents=True, exist_ok=True)
    entries: dict[str, dict] = {}
    for cat in sorted(indices):
        target = index_dir / f"{cat}.idx"
        indices[cat].save(target)
        entries[cat] = {
            "file": target.name,
            "n_assets": indices[cat].size,
            "sha256": hashlib.sha256(target.read_bytes()).hexdigest(),
        }
    return {"dimension": dimension, "indices": entries}


def load_snapshots(index_dir: str | Path, categories) -> dict[str, CategoryIndex]:
    return {cat: CategoryIndex.load(Path(index_dir) / f"{cat}.idx") for cat in categories}
