"""The catalog's exact per-category search, and the index directory that
``build-index`` writes and ``retrieve`` loads."""
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


def one_category(asset_ids, rows) -> AssetCatalog:
    """A catalog whose one category, "hat", holds ``rows``."""
    return AssetCatalog(Taxonomy(categories=("hat",)), {"hat": (asset_ids, rows)})


def small_catalog() -> AssetCatalog:
    rows = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [1.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0],
        ]
    )
    return one_category(["a", "b", "c", "d"], rows)


def test_search_ranks_by_cosine():
    hits = small_catalog().search("hat", [1.0, 0.1, 0.0], k=4)
    assert [aid for aid, _ in hits] == ["a", "c", "b", "d"]
    assert hits[0][1] == pytest.approx(1.0 / np.sqrt(1.01), abs=1e-6)


def test_search_tie_breaks_to_lower_asset_id():
    rows = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    hits = one_category(["m", "x", "y", "z"], rows).search("hat", [1.0, 0.0], k=4)
    assert [aid for aid, _ in hits] == ["x", "y", "z", "m"]


def test_search_k_clamps_and_validates():
    catalog = small_catalog()
    assert len(catalog.search("hat", [1.0, 0.0, 0.0], k=100)) == 4
    assert len(catalog.search("hat", [1.0, 0.0, 0.0], k=2)) == 2
    with pytest.raises(ValueError):
        catalog.search("hat", [1.0, 0.0, 0.0], k=0)


def test_search_zero_query_raises():
    with pytest.raises(ZeroVectorError):
        small_catalog().search("hat", [0.0, 0.0, 0.0], k=1)


def test_empty_index():
    catalog = one_category([], np.empty((0, 3)))
    assert catalog.search("hat", [1.0, 0.0, 0.0], k=5) == []
    assert catalog.dimension == 3
    assert catalog.embedding_matrix("hat")[1].shape == (0, 3)


def test_query_scale_invariance():
    catalog = small_catalog()
    base = catalog.search("hat", [0.3, 0.4, 0.5], k=4)
    scaled = catalog.search("hat", [0.3 * 4.0, 0.4 * 4.0, 0.5 * 4.0], k=4)
    assert base == scaled


def test_rows_are_the_given_float64_rows_readonly():
    rows = small_catalog().embedding_matrix("hat")[1]
    assert rows.dtype == np.float64
    assert rows[2].tolist() == [1.0, 1.0, 0.0]
    with pytest.raises(ValueError):
        rows[0, 0] = 5.0


@pytest.mark.parametrize("bad, error", [
    ([0.0, 0.0], ZeroVectorError),
    ([np.nan, 1.0], NonFiniteVectorError),
    ([np.inf, 1.0], NonFiniteVectorError),
    ([1e200, 1e200], NonFiniteVectorError),  # the norm overflows
], ids=["zero", "nan", "inf", "overflow"])
def test_constructor_rejects_rows_without_finite_nonzero_norm(bad, error):
    with pytest.raises(error):
        one_category(["a", "b"], np.array([[1.0, 0.0], bad]))


def test_duplicate_rows_tie_to_lower_id_regression():
    # scoring with a blocked gemv kernel used to give identical rows
    # position-dependent float64 scores, defeating the id tie-break
    rng = np.random.default_rng(5362)
    rows = rng.standard_normal((3, 8))
    rows[2] = rows[0]
    catalog = one_category(["a000", "a001", "a002"], rows)
    hits = catalog.search("hat", rng.standard_normal(8), k=3)
    assert [aid for aid, _ in hits] == ["a001", "a000", "a002"]
    assert hits[1][1] == hits[2][1]


def test_search_keeps_tied_rows_in_id_order_in_a_large_category():
    # below about 16 rows an unstable sort falls back to insertion sort,
    # which keeps ties in order by accident; 40 rows in 5 tied groups do not
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((5, 6))[rng.permutation(np.arange(40) % 5)]
    hits = one_category([f"a{i:02d}" for i in range(40)], rows).search(
        "hat", rng.standard_normal(6), k=40
    )
    for (id_a, score_a), (id_b, score_b) in zip(hits, hits[1:]):
        assert score_a > score_b or (score_a == score_b and id_a < id_b)


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
    catalog = one_category(ids, rows)
    q = rng.standard_normal(d)
    hits = catalog.search("hat", q, k=k)
    assert [aid for aid, _ in hits] == oracle_ids(ids, catalog.embedding_matrix("hat")[1], q, k)
    # Scores arrive in non-increasing order.
    scores = [score for _, score in hits]
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
    for _ in range(20):
        q = rng.standard_normal(d)
        assert loaded.search("hat", q, k=10) == catalog.search("hat", q, k=10)


def test_snapshot_empty_index_round_trip(tmp_path, rng):
    # an empty category keeps the catalog's dimension; an empty catalog has none
    rows = {"hat": (["a"], rng.standard_normal((1, 7)))}
    catalog, index_dir, sources = saved_index(tmp_path, rows)
    loaded = load_index_dir(index_dir, TAXONOMY, sources)
    assert_same_catalog(catalog, loaded)
    ids, matrix = loaded.embedding_matrix("shoe")
    assert ids == () and matrix.shape == (0, 7)
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
