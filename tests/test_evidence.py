from __future__ import annotations

import numpy as np
import pytest

from lookforge.catalog import Taxonomy
from lookforge.errors import (
    DimensionMismatchError,
    MissingTextPriorError,
    NoViewsAvailableError,
)
from lookforge.evidence import (
    EvidenceStore,
    PartEvidence,
    load_evidence,
    resolve_part_or_global,
    save_evidence,
    select_view,
)


def make_taxonomy(view_map=None) -> Taxonomy:
    return Taxonomy(
        categories=("body", "hat", "pants"),
        view_map=view_map or {},
        required_core=("body",),
    )


def make_store() -> EvidenceStore:
    store = EvidenceStore()
    store.add_view("front", [1.0, 0.0, 0.0])
    store.add_view("left", [0.0, 1.0, 0.0])
    store.add_text_prior("hat", [0.0, 0.0, 1.0])
    return store


def test_part_evidence_status_consistency():
    PartEvidence("hat", "valid", np.array([1.0, 0.0]))
    PartEvidence("hat", "fallback_keyword", np.array([1.0, 0.0]))
    PartEvidence("hat", "failed")
    with pytest.raises(ValueError):
        PartEvidence("hat", "failed", np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        PartEvidence("hat", "valid")
    with pytest.raises(ValueError):
        PartEvidence("hat", "maybe", np.array([1.0, 0.0]))


def test_store_tracks_views_in_canonical_order():
    store = EvidenceStore()
    store.add_view("left", [1.0, 0.0])
    store.add_view("front", [0.0, 1.0])
    assert store.available_views == ("front", "left")
    with pytest.raises(ValueError):
        store.add_view("top", [1.0, 0.0])


def test_store_enforces_single_dimension():
    store = make_store()
    with pytest.raises(DimensionMismatchError):
        store.add_view("back", [1.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        store.add_text_prior("pants", [1.0])
    with pytest.raises(DimensionMismatchError):
        store.add_part(PartEvidence("hat", "valid", np.array([1.0, 0.0])))


def test_text_prior_missing_raises():
    store = make_store()
    assert np.allclose(store.text_prior("hat"), [0.0, 0.0, 1.0])
    with pytest.raises(MissingTextPriorError):
        store.text_prior("pants")


def test_select_views_prefers_view_map():
    store = make_store()  # has front, left
    tax = make_taxonomy(view_map={"hat": ("back", "left", "front")})
    view, warning = select_view("hat", store, tax)
    assert view == "left"  # the first preferred view the store has
    assert warning is None


def test_select_views_falls_back_with_warning():
    store = make_store()  # has front, left
    tax = make_taxonomy(view_map={"hat": ("back",)})
    view, warning = select_view("hat", store, tax)
    assert view == "front"
    assert warning is not None and "falling back" in warning


def test_select_views_no_preference_no_warning():
    store = make_store()
    view, warning = select_view("pants", store, make_taxonomy())
    assert view == "front"
    assert warning is None


def test_select_views_empty_store_raises():
    with pytest.raises(NoViewsAvailableError):
        select_view("hat", EvidenceStore(), make_taxonomy())


def test_resolve_part_statuses():
    store = make_store()
    store.add_part(PartEvidence("hat", "valid", np.array([1.0, 1.0, 0.0])))
    store.add_part(PartEvidence("pants", "failed"))

    assert np.allclose(resolve_part_or_global("hat", store), [1.0, 1.0, 0.0])
    assert resolve_part_or_global("pants", store) is None  # failed detection
    assert resolve_part_or_global("body", store) is None  # no part evidence


def test_resolve_fallback_keyword_counts_as_part():
    store = make_store()
    store.add_part(PartEvidence("hat", "fallback_keyword", np.array([0.0, 1.0, 1.0])))
    assert np.allclose(resolve_part_or_global("hat", store), [0.0, 1.0, 1.0])


def test_evidence_file_round_trip(tmp_path):
    store = make_store()
    store.add_part(PartEvidence("hat", "valid", np.array([1.0, 2.0, 3.0])))
    store.add_part(PartEvidence("pants", "failed"))
    path = tmp_path / "evidence.json"
    save_evidence(store, path)
    loaded = load_evidence(path)
    assert loaded.available_views == ("front", "left")
    assert np.allclose(loaded.view_embedding("front"), [1.0, 0.0, 0.0])
    assert loaded.part("hat").status == "valid"
    assert np.allclose(loaded.part("hat").embedding, [1.0, 2.0, 3.0])
    assert loaded.part("pants").status == "failed"
    assert np.allclose(loaded.text_prior("hat"), [0.0, 0.0, 1.0])


def test_evidence_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "evidence.json"
    path.write_text('{"schema_version": 42}')
    with pytest.raises(ValueError):
        load_evidence(path)
