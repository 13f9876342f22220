from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lookforge.catalog import (
    INDEX_FILE,
    MANIFEST_FILE,
    AssetCatalog,
    Taxonomy,
    load_index_dir,
    read_doc,
    save_index_dir,
    save_taxonomy,
    write_doc,
)
from lookforge.errors import (
    ChecksumMismatchError,
    NonFiniteVectorError,
    SnapshotIoError,
    VersionMismatchError,
    ZeroVectorError,
)
from lookforge.index import CategoryIndex, SearchHit


def oracle_ids(asset_ids, rows, query, k):
    """Independent reference ranking: per-row dots over row norms, full
    python sort."""
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    scored = [
        (-float(np.dot(row, q) / np.linalg.norm(row)), aid)
        for aid, row in zip(asset_ids, rows)
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


def test_rows_are_the_given_float64_rows_readonly():
    idx = small_index()
    assert idx.rows.dtype == np.float64
    assert idx.rows[2].tolist() == [1.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        idx.rows[0, 0] = 5.0


def test_index_over_writable_array_ignores_later_writes():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    idx = CategoryIndex("hat", ["a", "b"], rows)
    rows[0] = [0.0, 1.0]
    rows[1] = [1.0, 0.0]
    assert idx.rows.tolist() == [[1.0, 0.0], [0.0, 1.0]]
    assert [h.asset_id for h in idx.search([1.0, 0.1], k=2)] == ["a", "b"]


@pytest.mark.parametrize("bad, error", [
    ([0.0, 0.0], ZeroVectorError),
    ([np.nan, 1.0], NonFiniteVectorError),
    ([np.inf, 1.0], NonFiniteVectorError),
    ([1e200, 1e200], NonFiniteVectorError),  # the norm overflows
], ids=["zero", "nan", "inf", "overflow"])
def test_constructor_rejects_rows_without_finite_nonzero_norm(bad, error):
    with pytest.raises(error):
        CategoryIndex("hat", ["a", "b"], np.array([[1.0, 0.0], bad]))


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


# --- index directory ---------------------------------------------------------


TAXONOMY = Taxonomy(categories=("hat", "shoe"))


def saved_index(tmp_path, rows, bundles=None):
    """Save a catalog of ``rows`` as ``build-index`` does; returns
    (catalog, index dir, sources)."""
    catalog = AssetCatalog(TAXONOMY, rows, bundles)
    sources = {"catalog": tmp_path / "catalog.jsonl", "taxonomy": tmp_path / "taxonomy.json"}
    tmp_path.mkdir(parents=True, exist_ok=True)
    sources["catalog"].write_text("catalog stand-in\n")
    save_taxonomy(TAXONOMY, sources["taxonomy"])
    index_dir = tmp_path / "indices"
    write_doc(index_dir / MANIFEST_FILE, save_index_dir(catalog, index_dir, sources))
    return catalog, index_dir, sources


def assert_same_catalog(a: AssetCatalog, b: AssetCatalog) -> None:
    assert a.dimension == b.dimension
    assert a.bundles == b.bundles
    for cid in TAXONOMY.categories:
        ids, matrix = a.embedding_matrix(cid)
        assert b.embedding_matrix(cid)[0] == ids
        assert b.embedding_matrix(cid)[1].shape == matrix.shape
        assert b.embedding_matrix(cid)[1].tobytes() == matrix.tobytes()


def test_snapshot_round_trip_bit_identical(tmp_path, rng):
    n, d = 50, 16
    ids = [f"a{i:03d}" for i in range(n)]
    rows = {"hat": (ids, rng.standard_normal((n, d))),
            "shoe": (["s1", "s0"], rng.standard_normal((2, d)))}
    catalog, index_dir, sources = saved_index(tmp_path, rows, {"a001": "b1", "s0": "b2"})
    loaded = load_index_dir(index_dir, TAXONOMY, sources)
    assert_same_catalog(catalog, loaded)
    idx = catalog.index("hat")
    reloaded = loaded.index("hat")
    assert reloaded.rows.tobytes() == idx.rows.tobytes()
    for _ in range(20):
        q = rng.standard_normal(d)
        a = idx.search(q, k=10)
        b = reloaded.search(q, k=10)
        assert [(h.asset_id, h.score, h.rank) for h in a] == [
            (h.asset_id, h.score, h.rank) for h in b
        ]


def test_snapshot_empty_index_round_trip(tmp_path, rng):
    # an empty category keeps the catalog's dimension; an empty catalog has none
    rows = {"hat": (["a"], rng.standard_normal((1, 7)))}
    catalog, index_dir, sources = saved_index(tmp_path, rows)
    loaded = load_index_dir(index_dir, TAXONOMY, sources)
    assert_same_catalog(catalog, loaded)
    shoe = loaded.index("shoe")
    assert shoe.size == 0 and shoe.dim == 7
    catalog, index_dir, sources = saved_index(tmp_path, {})
    loaded = load_index_dir(index_dir, TAXONOMY, sources)
    assert loaded.dimension is None
    assert_same_catalog(catalog, loaded)


def test_snapshot_corruption_detected(tmp_path, rng):
    rows = {"hat": (["a", "b"], rng.standard_normal((2, 4)))}
    _, index_dir, sources = saved_index(tmp_path, rows)
    path = index_dir / INDEX_FILE
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumMismatchError):
        load_index_dir(index_dir, TAXONOMY, sources)


def test_snapshot_truncation_detected(tmp_path, rng):
    rows = {"hat": (["a", "b"], rng.standard_normal((2, 4)))}
    _, index_dir, sources = saved_index(tmp_path, rows)
    path = index_dir / INDEX_FILE
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ChecksumMismatchError):
        load_index_dir(index_dir, TAXONOMY, sources)


def test_snapshot_bad_magic(tmp_path, rng):
    # a missing or malformed manifest or npz is an I/O error, even when
    # the manifest's digest matches the junk
    _, index_dir, sources = saved_index(tmp_path, {"hat": (["a"], rng.standard_normal((1, 4)))})
    manifest_path, npz_path = index_dir / MANIFEST_FILE, index_dir / INDEX_FILE
    manifest = read_doc(manifest_path)
    junk = b"JUNKxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"
    npz_path.write_bytes(junk)
    write_doc(manifest_path, {**manifest, "index_sha256": hashlib.sha256(junk).hexdigest()})
    with pytest.raises(SnapshotIoError):
        load_index_dir(index_dir, TAXONOMY, sources)
    npz_path.unlink()
    with pytest.raises(SnapshotIoError):
        load_index_dir(index_dir, TAXONOMY, sources)
    manifest_path.write_text("{not json")
    with pytest.raises(SnapshotIoError):
        load_index_dir(index_dir, TAXONOMY, sources)
    manifest_path.unlink()
    with pytest.raises(SnapshotIoError):
        load_index_dir(index_dir, TAXONOMY, sources)


def test_snapshot_version_mismatch(tmp_path, rng):
    _, index_dir, sources = saved_index(tmp_path, {"hat": (["a"], rng.standard_normal((1, 4)))})
    manifest_path = index_dir / MANIFEST_FILE
    manifest = read_doc(manifest_path)
    write_doc(manifest_path, {**manifest, "format_version": 99})
    with pytest.raises(VersionMismatchError, match="build-index"):
        load_index_dir(index_dir, TAXONOMY, sources)
    # the per-category snapshot manifest carries no format version at all
    write_doc(manifest_path, {"dimension": 4, "indices": {}, "schema_version": 1})
    with pytest.raises(VersionMismatchError, match="build-index"):
        load_index_dir(index_dir, TAXONOMY, sources)


@pytest.mark.parametrize("source", ["catalog", "taxonomy"])
def test_changed_source_file_detected(tmp_path, rng, source):
    _, index_dir, sources = saved_index(tmp_path, {"hat": (["a"], rng.standard_normal((1, 4)))})
    with open(sources[source], "a") as fh:
        fh.write("\n")
    with pytest.raises(ChecksumMismatchError, match=f"{source} file .* run build-index"):
        load_index_dir(index_dir, TAXONOMY, sources)


def test_index_dir_bytes_are_deterministic(tmp_path, rng):
    rows = {"hat": (["b", "a"], rng.standard_normal((2, 4)))}
    _, first, _ = saved_index(tmp_path / "one", rows, {"b": "x", "a": "y"})
    _, second, _ = saved_index(tmp_path / "two", rows, {"a": "y", "b": "x"})
    for name in (INDEX_FILE, MANIFEST_FILE):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_unusual_asset_ids_round_trip_exactly(tmp_path, rng):
    # numpy string arrays would drop the trailing NUL and merge "hat\x00"
    # into "hat"; ids must come back exactly as ingested
    ids = ["hat", "hat\x00", "caf\u00e9-\u5e3d\u5b50", "\ud800-lone-surrogate", "a b\n"]
    catalog, index_dir, sources = saved_index(
        tmp_path, {"hat": (ids, rng.standard_normal((len(ids), 4)))}, {"hat\x00": "b\x00"}
    )
    loaded = load_index_dir(index_dir, TAXONOMY, sources)
    assert_same_catalog(catalog, loaded)
    assert set(loaded.embedding_matrix("hat")[0]) == set(ids)
