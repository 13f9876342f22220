from __future__ import annotations

import json

import numpy as np
import pytest

from lookforge.catalog import (
    AssetCatalog,
    Taxonomy,
    ingest_catalog,
    load_taxonomy,
    read_doc,
    save_taxonomy,
    write_doc,
)
from lookforge.errors import (
    DimensionMismatchError,
    InvalidTaxonomyError,
    NonFiniteVectorError,
    UnknownCategoryError,
    ZeroVectorError,
)
from lookforge.synth import CategorySpec, SynthSpec, _write_catalog, generate_catalog


def make_taxonomy() -> Taxonomy:
    return Taxonomy(
        categories=("body", "hat", "jacket", "sweater"),
        concept_map={"hoodie": ("sweater", "jacket"), "cap": ("hat",)},
        exclusion_groups=(("jacket", "sweater"),),
        view_map={"hat": ("front", "left")},
        required_core=("body",),
    )


def line(asset_id="a1", category="hat", emb=(1.0, 0.0), **extra) -> str:
    doc = {
        "asset_id": asset_id,
        "category_id": category,
        "embedding": list(emb),
        "title": "thing",
        "quality_flag": "curated",
    }
    doc.update(extra)
    return json.dumps(doc)


def test_ingest_happy_path():
    tax = make_taxonomy()
    cat, report = ingest_catalog([line("a1"), line("a2", emb=(0.0, 1.0))], tax)
    assert report.n_loaded == 2
    assert report.n_rejected == 0
    assert cat.dimension == 2
    assert cat.embedding_matrix("hat")[0] == ("a1", "a2")


def test_ingest_skips_bad_records_with_reasons():
    tax = make_taxonomy()
    lines = [
        "not json",
        json.dumps(["not", "an", "object"]),
        line("a1"),
        line("a1"),  # duplicate
        line("a2", category="pants"),
        line("a3", emb=()),
        json.dumps({"asset_id": "a4", "category_id": "hat", "embedding": [1, 0]}),
        line("a5", emb=(0.0, 0.0)),
    ]
    lines.append(
        json.dumps(
            {
                "asset_id": "a6",
                "category_id": "hat",
                "embedding": [1, 0],
                "title": "x",
                "quality_flag": "premium",
            }
        )
    )
    lines.append(line("a7", bundle_id=7))
    cat, report = ingest_catalog(lines, tax)
    assert report.n_loaded == 1
    reasons = [r.reason for r in report.rejections]
    assert reasons == [
        "malformed_json",
        "malformed_json",
        "duplicate_asset_id",
        "unknown_category",
        "bad_embedding",
        "missing_field",
        "bad_embedding",
        "invalid_quality_flag",
        "bad_bundle_id",
    ]
    assert [r.line_no for r in report.rejections] == [1, 2, 4, 5, 6, 7, 8, 9, 10]


def test_ingest_rejects_embedding_whose_norm_overflows():
    # finite entries, but the norm is not: no index could score the row
    tax = make_taxonomy()
    lines = [line("a0", emb=(1e200, 1e200)), line("a1")]
    cat, report = ingest_catalog(lines, tax)
    assert [(r.line_no, r.reason) for r in report.rejections] == [(1, "bad_embedding")]
    assert cat.embedding_matrix("hat")[0] == ("a1",)


def test_ingest_rejects_integer_beyond_float_range_per_line():
    tax = make_taxonomy()
    huge = '{"asset_id": "a0", "category_id": "hat", "embedding": [1%s, 0], ' \
        '"title": "x", "quality_flag": "curated"}' % ("0" * 400)
    cat, report = ingest_catalog([line("a1"), huge, line("a2", emb=(0.0, 1.0))], tax)
    assert [(r.line_no, r.reason) for r in report.rejections] == [(2, "bad_embedding")]
    assert cat.embedding_matrix("hat")[0] == ("a1", "a2")


def test_ingest_dimension_mismatch_is_fatal():
    tax = make_taxonomy()
    with pytest.raises(DimensionMismatchError):
        ingest_catalog([line("a1"), line("a2", emb=(1.0, 0.0, 0.0))], tax)


def test_ingest_blank_lines_ignored():
    tax = make_taxonomy()
    cat, report = ingest_catalog(["", line("a1"), "   ", ""], tax)
    assert report.n_loaded == 1
    assert report.n_rejected == 0


def test_embedding_matrix_sorted_and_unknown_category():
    tax = make_taxonomy()
    cat, _ = ingest_catalog([line("z9"), line("a1"), line("m5")], tax)
    assert cat.embedding_matrix("hat")[0] == ("a1", "m5", "z9")
    assert cat.embedding_matrix("body")[0] == ()
    with pytest.raises(UnknownCategoryError):
        cat.embedding_matrix("pants")


def test_embedding_matrix_order_matches_ids():
    tax = make_taxonomy()
    cat, _ = ingest_catalog(
        [line("b", emb=(0.0, 1.0)), line("a", emb=(1.0, 0.0))], tax
    )
    ids, m = cat.embedding_matrix("hat")
    assert ids == ("a", "b")
    assert np.allclose(m, [[1.0, 0.0], [0.0, 1.0]])
    ids_empty, m_empty = cat.embedding_matrix("body")
    assert ids_empty == () and m_empty.shape == (0, 2)


def test_embedding_matrix_is_the_stored_parse_in_id_order(rng):
    # more rows than the first ingest buffer holds, in shuffled id order
    tax = make_taxonomy()
    lines = [
        line(f"{cid}-{i:03d}", category=cid, emb=rng.standard_normal(3).tolist())
        for cid in ("hat", "jacket") for i in range(150)
    ]
    lines = [lines[k] for k in rng.permutation(len(lines))]
    cat, _ = ingest_catalog(lines, tax)
    docs = sorted((json.loads(ln) for ln in lines), key=lambda d: d["asset_id"])
    for cid in ("hat", "jacket"):
        ids, m = cat.embedding_matrix(cid)
        again_ids, again = cat.embedding_matrix(cid)
        assert again_ids is ids and np.shares_memory(again, m)
        assert not m.flags.writeable
        want = [d for d in docs if d["category_id"] == cid]
        assert ids == tuple(d["asset_id"] for d in want)
        np.testing.assert_array_equal(m, np.array([d["embedding"] for d in want]))


def test_catalog_index_shares_the_embedding_matrix():
    # search scans the stored rows: a row's score is its cosine, whatever its norm
    tax = make_taxonomy()
    cat, _ = ingest_catalog([line("b", emb=(0.0, 2.0)), line("a")], tax)
    assert cat.search("hat", [0.0, 1.0], k=2) == [("b", 1.0), ("a", 0.0)]
    assert cat.search("body", [0.0, 1.0], k=2) == []
    with pytest.raises(UnknownCategoryError):
        cat.search("pants", [0.0, 1.0], k=2)


@pytest.mark.parametrize("bad, error", [
    ([0.0, 0.0], ZeroVectorError),
    ([np.nan, 1.0], NonFiniteVectorError),
], ids=["zero", "nan"])
def test_catalog_rejects_row_without_finite_nonzero_norm(bad, error):
    with pytest.raises(error):
        AssetCatalog(make_taxonomy(), {"hat": (["a", "b"], np.array([[1.0, 0.0], bad]))})


def test_catalog_rejects_unknown_category():
    with pytest.raises(UnknownCategoryError):
        AssetCatalog(make_taxonomy(), {"pants": (["x"], np.array([[1.0, 0.0]]))})


def test_catalog_rejects_mixed_dimensions_and_repeated_ids():
    tax = make_taxonomy()
    with pytest.raises(DimensionMismatchError):
        AssetCatalog(tax, {"hat": (["a"], np.ones((1, 2))), "body": (["b"], np.ones((1, 3)))})
    with pytest.raises(ValueError, match="duplicate"):
        AssetCatalog(tax, {"hat": (["a"], np.ones((1, 2))), "body": (["a"], np.ones((1, 2)))})


def test_bundle_id_round_trip(tmp_path):
    tax = make_taxonomy()
    cat, _ = ingest_catalog([line("a1", bundle_id="bundle-7"), line("a2")], tax)
    assert cat.bundles == {"a1": "bundle-7"}
    # the JSONL synth writes ingests back to the catalog it came from
    spec = SynthSpec(
        d=8, categories=(CategorySpec("body", 2, 7, bundle_count=3), CategorySpec("hat", 2, 5)),
    )
    made, _ = generate_catalog(spec)
    _write_catalog(made, tmp_path / "out.jsonl")
    back, report = ingest_catalog(tmp_path / "out.jsonl", made.taxonomy)
    assert report.n_rejected == 0
    assert back.bundles == made.bundles and len(made.bundles) == 7
    for cid in ("body", "hat"):
        ids, rows = made.embedding_matrix(cid)
        back_ids, back_rows = back.embedding_matrix(cid)
        assert back_ids == ids
        np.testing.assert_array_equal(back_rows, rows)


def test_taxonomy_validation_catches_structural_problems():
    bad = Taxonomy(
        categories=("hat", "hat"),
        concept_map={"x": ("nope",), "y": ()},
        exclusion_groups=(("hat",), ("hat", "ghost")),
        view_map={"ghost": ("front",), "hat": ("top",)},
        required_core=("ghost",),
    )
    problems = bad.validate()
    assert any("duplicate category" in p for p in problems)
    assert any("unknown category 'nope'" in p for p in problems)
    assert any("maps to no categories" in p for p in problems)
    assert any("fewer than 2" in p for p in problems)
    assert any("unknown view 'top'" in p for p in problems)
    assert any("required core references unknown" in p for p in problems)
    assert make_taxonomy().validate() == []


def test_taxonomy_rejects_two_core_categories_in_one_group(tmp_path):
    # no look could hold both, so assembly would fail later and blame caps
    tax = Taxonomy(
        categories=("body", "hat", "suit"),
        exclusion_groups=(("body", "suit"),),
        required_core=("body", "suit"),
    )
    assert tax.validate() == ["exclusion group ['body', 'suit'] holds required core ['body', 'suit']"]
    path = tmp_path / "tax.json"
    path.write_text(json.dumps(tax.to_dict()))
    with pytest.raises(InvalidTaxonomyError, match="required core"):
        load_taxonomy(path)


def test_taxonomy_file_round_trip(tmp_path):
    tax = make_taxonomy()
    path = tmp_path / "tax.json"
    save_taxonomy(tax, path)
    loaded = load_taxonomy(path)
    assert loaded == tax


def test_taxonomy_load_rejects_invalid(tmp_path):
    path = tmp_path / "tax.json"
    path.write_text(json.dumps({"categories": ["hat"], "required_core": ["ghost"]}))
    with pytest.raises(InvalidTaxonomyError):
        load_taxonomy(path)
    path.write_text(json.dumps({"schema_version": 99, "categories": ["hat"]}))
    with pytest.raises(InvalidTaxonomyError):
        load_taxonomy(path)


def test_failed_write_keeps_previous_document(tmp_path):
    path = tmp_path / "doc.json"
    write_doc(path, {"a": 1})
    with pytest.raises(TypeError):
        write_doc(path, {"a": 1, "b": object()})
    assert read_doc(path) == {"a": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
