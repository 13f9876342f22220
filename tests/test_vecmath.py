from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lookforge.catalog import AssetCatalog, Taxonomy
from lookforge.errors import (
    DegenerateFusionError,
    DimensionMismatchError,
    NonFiniteVectorError,
    ZeroVectorError,
)
from lookforge.vecmath import (
    SubspaceParams,
    estimate_subspaces,
    fuse,
    normalize,
    suppress,
)

# Strategy for well-scaled nonzero vectors. Entries are kept away from the
# extremes so norms stay in a float-friendly range.
finite_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=2, max_value=32),
    elements=st.floats(min_value=-1e3, max_value=1e3),
).filter(lambda v: np.linalg.norm(v) > 1e-6)


def subspace(rows, params=SubspaceParams()):
    """The subspace estimated for a one-category catalog of ``rows``."""
    ids = [f"a{i:03d}" for i in range(len(rows))]
    catalog = AssetCatalog(Taxonomy(categories=("c",)), {"c": (ids, rows)})
    return estimate_subspaces(catalog, params)["c"]


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


# --- normalize ---------------------------------------------------------------


def test_normalize_basic():
    out = normalize([3.0, 4.0])
    assert np.allclose(out, [0.6, 0.8])


def test_normalize_zero_raises():
    with pytest.raises(ZeroVectorError):
        normalize([0.0, 0.0, 0.0])
    with pytest.raises(ZeroVectorError):
        normalize([1e-13, 0.0])


def test_normalize_nonfinite_raises():
    with pytest.raises(NonFiniteVectorError):
        normalize([1.0, np.nan])
    with pytest.raises(NonFiniteVectorError):
        normalize([np.inf, 0.0])


def test_normalize_rejects_matrix():
    with pytest.raises(DimensionMismatchError):
        normalize(np.ones((2, 2)))


@given(finite_vectors)
def test_normalize_is_unit_norm(v):
    assert math.isclose(float(np.linalg.norm(normalize(v))), 1.0, rel_tol=1e-12)


@given(finite_vectors, st.floats(min_value=1e-3, max_value=1e3))
def test_normalize_scale_invariant(v, c):
    assert np.allclose(normalize(v), normalize(c * v), atol=1e-9)


# --- subspaces ---------------------------------------------------------------


def test_subspace_duplicate_rows_singular_value():
    # Ten copies of e1: one nonzero singular value, so one direction, e1.
    rows = np.tile(np.array([[1.0, 0.0, 0.0]]), (10, 1))
    basis = subspace(rows)
    assert basis.shape == (3, 1)
    assert abs(float(basis[0, 0])) == pytest.approx(1.0, abs=1e-12)


def test_subspace_variance_policy_two_directions():
    # Five copies of e1 and five of e2 split the energy evenly, so the
    # 0.90 threshold needs both directions.
    rows = np.vstack(
        [np.tile([[1.0, 0.0, 0.0]], (5, 1)), np.tile([[0.0, 1.0, 0.0]], (5, 1))]
    )
    basis = subspace(rows)
    assert basis.shape[1] == 2
    # The two directions span e1 and e2.
    assert np.allclose(basis @ basis.T, np.diag([1.0, 1.0, 0.0]), atol=1e-9)
    # Threshold at exactly the first step keeps rank 1.
    low = subspace(rows, SubspaceParams(variance_threshold=0.5))
    assert low.shape[1] == 1


def test_subspace_fixed_rank_clamped():
    rows = np.eye(3)[:2]
    basis = subspace(rows, SubspaceParams(rank=10))
    assert basis.shape[1] == 2  # clamped to n


def test_subspace_max_rank_cap():
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((40, 24))
    basis = subspace(rows, SubspaceParams(max_rank=5))
    assert basis.shape[1] == 5


@pytest.mark.parametrize("field, bad", [
    ("max_rank", -1), ("max_rank", 0), ("max_rank", 2.5), ("max_rank", True),
    ("max_rank", None), ("rank", 0), ("rank", -2), ("rank", 1.5), ("rank", True),
    ("variance_threshold", 0.0), ("variance_threshold", -0.1),
    ("variance_threshold", 1.5), ("variance_threshold", math.nan),
    ("variance_threshold", True), ("center", "false"), ("center", 1),
])
def test_subspace_params_reject_values_they_cannot_run(field, bad):
    # max_rank=-1 would slice vt[:-1]; max_rank=0 would switch suppression off
    with pytest.raises(ValueError, match=field):
        SubspaceParams(**{field: bad})


def test_subspace_params_accept_their_edges():
    SubspaceParams(rank=1, max_rank=1, variance_threshold=1.0)
    SubspaceParams(rank=None, variance_threshold=1e-9)


def test_subspace_center_flag():
    # Two antipodal clusters: uncentered SVD spends its first direction on
    # the mean, centered SVD does not.
    rows = np.array([[1.0, 0.1, 0.0], [1.0, -0.1, 0.0], [1.0, 0.1, 0.0]])
    plain = subspace(rows, SubspaceParams(rank=1))
    centered = subspace(rows, SubspaceParams(rank=1, center=True))
    assert abs(float(plain[0, 0])) > 0.9
    assert abs(float(centered[1, 0])) > 0.9


def test_subspace_basis_orthonormal(rng):
    rows = rng.standard_normal((30, 16))
    basis = subspace(rows, SubspaceParams(rank=6))
    gram = basis.T @ basis
    assert np.allclose(gram, np.eye(6), atol=1e-10)


def test_project_in_and_out_of_subspace():
    # suppress subtracts the projection onto the basis: ``v - suppress(v)``.
    others = {"c": np.eye(4)[:, :2]}
    inside = np.array([0.3, -0.7, 0.0, 0.0])
    outside = np.array([0.0, 0.0, 2.0, -1.0])
    assert np.allclose(inside - suppress(inside, others), inside, atol=1e-12)
    assert np.allclose(outside - suppress(outside, others), 0.0, atol=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_project_idempotent(seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((12, 8))
    others = {"c": subspace(rows, SubspaceParams(rank=3))}
    v = rng.standard_normal(8)
    once = suppress(v, others)
    assert np.linalg.norm(suppress(once, others) - once) <= 1e-9


# --- suppress ----------------------------------------------------------------


def test_suppress_known_residual():
    g = _unit([1.0, 1.0, 0.0])
    r = suppress(g, {"a": np.eye(3)[:, :1]})
    assert np.allclose(r, [0.0, 1.0 / math.sqrt(2.0), 0.0], atol=1e-12)
    # Residual is returned unnormalized.
    assert np.linalg.norm(r) == pytest.approx(1.0 / math.sqrt(2.0))


def test_suppress_empty_is_identity():
    g = _unit([1.0, 2.0, 3.0])
    assert np.allclose(suppress(g, {}), g)


def test_suppress_order_is_ascending_category_id():
    # Two oblique (non-orthogonal) subspaces: the sequential residual
    # depends on application order, so pin it by id.
    b1 = _unit([1.0, 0.0, 0.0]).reshape(3, 1)
    b2 = _unit([1.0, 1.0, 0.0]).reshape(3, 1)
    g = np.array([0.2, 0.5, 0.8])

    r = g.copy()
    for b in (b1, b2):  # ascending id order
        r = r - b @ (b.T @ r)
    got = suppress(g, {"b": b2, "a": b1})  # insertion order should not matter
    assert np.allclose(got, r, atol=1e-12)
    # And the reversed order genuinely differs, so the test has teeth.
    r_rev = g.copy()
    for b in (b2, b1):
        r_rev = r_rev - b @ (b.T @ r_rev)
    assert not np.allclose(r, r_rev)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_suppress_annihilates_in_subspace_vectors(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((16, 4)))
    v = q @ rng.standard_normal(4)
    assert np.linalg.norm(suppress(v, {"c": q})) <= 1e-6 * max(
        1.0, np.linalg.norm(v)
    )


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_suppress_preserves_orthogonal_component(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((16, 8)))
    # Build a vector orthogonal to both subspaces.
    v = rng.standard_normal(16)
    v -= q @ (q.T @ v)
    r = suppress(v, {"a": q[:, :4], "b": q[:, 4:8]})
    assert np.linalg.norm(r - v) <= 1e-6 * max(1.0, np.linalg.norm(v))


def test_suppress_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        suppress(np.ones(4), {"a": np.eye(3)[:, :1]})


# --- fuse --------------------------------------------------------------------


def test_fuse_frozen_value():
    # fuse(e1, e2, 0.7) = [0.7, 0.3] / sqrt(0.58)
    out = fuse([1.0, 0.0], [0.0, 1.0], 0.7)
    assert np.allclose(out, [0.9191450300180578, 0.3939192985791676], atol=1e-12)


def test_fuse_weighs_directions_not_lengths():
    p, t = np.array([3.0, 0.0]), np.array([0.0, 0.5])
    # the frozen value of the unit inputs e1 and e2, whatever their lengths
    assert np.allclose(fuse(p, t, 0.7), [0.9191450300180578, 0.3939192985791676], atol=1e-12)
    # an input of weight 0 is not read
    assert np.array_equal(fuse(p, np.zeros(2), 1.0), [1.0, 0.0])
    assert np.array_equal(fuse(np.zeros(2), t, 0.0), [0.0, 1.0])


def test_fuse_endpoints():
    p = _unit([2.0, 1.0, 0.0])
    t = _unit([0.0, 1.0, 3.0])
    assert np.allclose(fuse(p, t, 1.0), p, atol=1e-12)
    assert np.allclose(fuse(p, t, 0.0), t, atol=1e-12)


def test_fuse_degenerate_raises():
    v = _unit([1.0, 2.0])
    with pytest.raises(DegenerateFusionError):
        fuse(v, -v, 0.5)


def test_fuse_weight_out_of_range():
    with pytest.raises(ValueError):
        fuse([1.0, 0.0], [0.0, 1.0], 1.2)


@given(finite_vectors, st.floats(min_value=0.0, max_value=1.0))
def test_fuse_output_unit_norm(v, w):
    t = np.roll(v, 1) + 0.5  # unrelated second vector, rarely cancels
    try:
        out = fuse(v, t, w)
    except (DegenerateFusionError, ZeroVectorError):  # t is zero when v is all -0.5
        return
    assert math.isclose(float(np.linalg.norm(out)), 1.0, rel_tol=1e-12)

