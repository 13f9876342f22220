from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lookforge.errors import (
    ChecksumMismatchError,
    SnapshotIoError,
    VersionMismatchError,
    ZeroVectorError,
)
from lookforge.index import SNAPSHOT_MAGIC, CategoryIndex, SearchHit


def oracle_ids(asset_ids, rows_f32, query, k):
    """Independent reference ranking: per-row dots, full python sort."""
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    scored = [
        (-float(np.dot(row.astype(np.float64), q)), aid)
        for aid, row in zip(asset_ids, rows_f32)
    ]
    scored.sort()
    return [aid for _, aid in scored[:k]]


def small_index() -> CategoryIndex:
    rows = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0],
        ]
    )
    return CategoryIndex("hat", ["a", "b", "c", "d"], rows)


def test_search_ranks_by_cosine():
    idx = small_index()
    hits = idx.search([1.0, 0.1, 0.0], k=4)
    assert [h.asset_id for h in hits] == ["a", "c", "b", "d"]
    assert [h.rank for h in hits] == [0, 1, 2, 3]
    assert hits[0].score == pytest.approx(1.0 / np.sqrt(1.01), abs=1e-6)


def test_search_tie_breaks_to_lower_asset_id():
    rows = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    idx = CategoryIndex("hat", ["m", "x", "y", "z"], rows)
    hits = idx.search([1.0, 0.0], k=4)
    assert [h.asset_id for h in hits] == ["x", "y", "z", "m"]


def test_search_k_clamps_and_validates():
    idx = small_index()
    assert len(idx.search([1.0, 0.0, 0.0], k=100)) == 4
    assert len(idx.search([1.0, 0.0, 0.0], k=2)) == 2
    with pytest.raises(ValueError):
        idx.search([1.0, 0.0, 0.0], k=0)


def test_search_zero_query_raises():
    with pytest.raises(ZeroVectorError):
        small_index().search([0.0, 0.0, 0.0], k=1)


def test_empty_index():
    idx = CategoryIndex("hat", [], np.empty((0, 3)))
    assert idx.search([1.0, 0.0, 0.0], k=5) == []
    assert idx.dim == 3 and idx.size == 0
    assert idx.rows.shape == (0, 3)


def test_query_scale_invariance():
    idx = small_index()
    base = idx.search([0.3, 0.4, 0.5], k=4)
    scaled = idx.search([0.3 * 4.0, 0.4 * 4.0, 0.5 * 4.0], k=4)
    assert [h.asset_id for h in base] == [h.asset_id for h in scaled]
    assert [h.score for h in base] == [h.score for h in scaled]


def test_constructor_requires_sorted_unique_ids():
    rows = np.eye(2)
    with pytest.raises(ValueError):
        CategoryIndex("hat", ["b", "a"], rows)
    with pytest.raises(ValueError):
        CategoryIndex("hat", ["a", "a"], rows)


def test_rows_are_unit_float32_and_readonly():
    idx = small_index()
    assert idx.rows.dtype == np.float32
    norms = np.linalg.norm(idx.rows.astype(np.float64), axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-6
    with pytest.raises(ValueError):
        idx.rows[0, 0] = 5.0


def test_search_hit_is_plain_record():
    hit = SearchHit("a", 0.5, 0)
    assert (hit.asset_id, hit.score, hit.rank) == ("a", 0.5, 0)


def test_duplicate_rows_tie_to_lower_id_regression():
    # scoring with a blocked gemv kernel used to give identical rows
    # position-dependent float64 scores, defeating the id tie-break
    rng = np.random.default_rng(5362)
    rows = rng.standard_normal((3, 8))
    rows[2] = rows[0]
    idx = CategoryIndex("c", ["a000", "a001", "a002"], rows)
    hits = idx.search(rng.standard_normal(8), k=3)
    assert [h.asset_id for h in hits] == ["a001", "a000", "a002"]
    assert hits[1].score == hits[2].score


@settings(max_examples=30)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=1, max_value=35),
)
def test_search_matches_reference_ranking(seed, n, k):
    rng = np.random.default_rng(seed)
    d = 8
    ids = [f"a{i:03d}" for i in range(n)]
    rows = rng.standard_normal((n, d))
    # Plant a duplicate row when there is room, to exercise tie handling.
    if n >= 3:
        rows[2] = rows[0]
    idx = CategoryIndex("c", ids, rows)
    q = rng.standard_normal(d)
    hits = idx.search(q, k=k)
    assert [h.asset_id for h in hits] == oracle_ids(ids, idx.rows, q, k)
    assert [h.rank for h in hits] == list(range(len(hits)))
    # Scores arrive in non-increasing order.
    scores = [h.score for h in hits]
    assert all(a >= b for a, b in zip(scores, scores[1:]))


# --- snapshots ---------------------------------------------------------------


def test_snapshot_round_trip_bit_identical(tmp_path, rng):
    n, d = 50, 16
    ids = [f"a{i:03d}" for i in range(n)]
    idx = CategoryIndex("hat", ids, rng.standard_normal((n, d)))
    path = tmp_path / "hat.idx"
    idx.save(path)
    loaded = CategoryIndex.load(path)
    assert loaded.category_id == "hat"
    assert loaded.asset_ids == ids
    assert loaded.rows.tobytes() == idx.rows.tobytes()
    for _ in range(20):
        q = rng.standard_normal(d)
        a = idx.search(q, k=10)
        b = loaded.search(q, k=10)
        assert [(h.asset_id, h.score, h.rank) for h in a] == [
            (h.asset_id, h.score, h.rank) for h in b
        ]


def test_snapshot_empty_index_round_trip(tmp_path):
    idx = CategoryIndex("hat", [], np.empty((0, 7)))
    path = tmp_path / "empty.idx"
    idx.save(path)
    loaded = CategoryIndex.load(path)
    assert loaded.size == 0 and loaded.dim == 7
    assert loaded.category_id == "hat"


def test_snapshot_corruption_detected(tmp_path, rng):
    idx = CategoryIndex("hat", ["a", "b"], rng.standard_normal((2, 4)))
    path = tmp_path / "hat.idx"
    idx.save(path)
    blob = bytearray(path.read_bytes())
    # Flip one byte inside the float32 row region (near the end of the body).
    blob[-40] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumMismatchError):
        CategoryIndex.load(path)


def test_snapshot_truncation_detected(tmp_path, rng):
    idx = CategoryIndex("hat", ["a", "b"], rng.standard_normal((2, 4)))
    path = tmp_path / "hat.idx"
    idx.save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ChecksumMismatchError):
        CategoryIndex.load(path)


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "bogus.idx"
    path.write_bytes(b"JUNKxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
    with pytest.raises(SnapshotIoError):
        CategoryIndex.load(path)
    with pytest.raises(SnapshotIoError):
        CategoryIndex.load(tmp_path / "missing.idx")


def test_snapshot_version_mismatch(tmp_path, rng):
    idx = CategoryIndex("hat", ["a"], rng.standard_normal((1, 4)))
    path = tmp_path / "hat.idx"
    idx.save(path)
    blob = bytearray(path.read_bytes())
    assert blob[:4] == SNAPSHOT_MAGIC
    blob[4] = 99  # bump the little-endian version field
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatchError):
        CategoryIndex.load(path)
