"""Proximal operators and the SVD wrapper against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gridsentry import numerics
from gridsentry.errors import NumericError
from gridsentry.numerics import (SvdResult, _symmetric_svd, make_rng,
                                 nuclear_norm, require_matrix, soft_threshold,
                                 svd, svt, symmetrize_clamp)

from conftest import random_symmetric


def test_make_rng_is_reproducible():
    a = make_rng(42).random(8)
    b = make_rng(42).random(8)
    c = make_rng(43).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_require_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        require_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        require_matrix([[1.0, np.nan]])
    out = require_matrix([[1, 2], [3, 4]])
    assert out.dtype == np.float64 and out.shape == (2, 2)


def test_svd_identity_and_reconstruction():
    res = svd(np.eye(3))
    assert np.allclose(res.singular_values, [1.0, 1.0, 1.0])
    assert np.allclose(res.reconstruct(), np.eye(3), atol=1e-12)


def test_svd_singular_values_match_eigen_oracle():
    # for a symmetric matrix the singular values are |eigenvalues|
    for seed in range(5):
        m = random_symmetric(6, seed)
        got = svd(m).singular_values
        want = np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1]
        assert np.all(np.diff(got) <= 1e-12)
        assert np.allclose(got, want, atol=1e-8)


def test_svd_reconstructs_rectangular_input():
    rng = make_rng(0)
    m = rng.normal(size=(5, 3))
    res = svd(m)
    assert np.allclose(res.reconstruct(), m, atol=1e-10)
    assert res.u.shape == (5, 3) and res.vt.shape == (3, 3)


def test_symmetric_svd_fallback_matches_direct_path():
    for seed in range(4):
        m = random_symmetric(5, seed)
        a, b = svd(m), _symmetric_svd(m)
        assert np.allclose(a.singular_values, b.singular_values, atol=1e-9)
        assert np.allclose(b.reconstruct(), m, atol=1e-9)


def test_soft_threshold_worked_examples():
    m = np.array([[2.5, -0.3], [0.4, -2.0]])
    out = soft_threshold(m, 1.0)
    assert np.allclose(out, [[1.5, 0.0], [0.0, -1.0]])


def test_soft_threshold_matches_scalar_loop():
    rng = make_rng(3)
    m = rng.normal(size=(6, 6))
    for tau in (0.0, 0.05, 0.7):
        got = soft_threshold(m, tau)
        for i in range(6):
            for j in range(6):
                v = m[i, j]
                want = np.sign(v) * max(abs(v) - tau, 0.0)
                assert abs(got[i, j] - want) <= 1e-12


def test_soft_threshold_zero_tau_returns_fresh_copy():
    m = np.array([[1.0, -2.0]])
    out = soft_threshold(m, 0.0)
    assert np.array_equal(out, m) and out is not m
    with pytest.raises(ValueError):
        soft_threshold(m, -0.1)


def test_svt_zero_tau_is_identity_copy():
    m = random_symmetric(5, 1)
    out = svt(m, 0.0)
    assert np.array_equal(out, m) and out is not m
    with pytest.raises(ValueError):
        svt(m, -1e-9)


def test_svt_on_diagonal_matrix_shrinks_entries():
    m = np.diag([3.0, 1.5, 0.2])
    out = svt(m, 1.0)
    assert np.allclose(out, np.diag([2.0, 0.5, 0.0]), atol=1e-12)


def test_svt_matches_eigen_shrinkage_oracle():
    # symmetric input: soft-threshold |eigenvalues|, keep signs and vectors
    for seed in range(4):
        m = random_symmetric(6, seed)
        vals, vecs = np.linalg.eigh(m)
        shrunk = np.sign(vals) * np.maximum(np.abs(vals) - 0.3, 0.0)
        want = (vecs * shrunk) @ vecs.T
        assert np.allclose(svt(m, 0.3), want, atol=1e-8)


def test_svt_huge_tau_wipes_everything():
    m = random_symmetric(5, 2)
    assert np.allclose(svt(m, 1e6), 0.0)


def _svd_shrinkage(m, tau):
    res = svd(m)
    return (res.u * np.maximum(res.singular_values - tau, 0.0)) @ res.vt


def test_svt_rejects_non_square_asymmetric_and_over_ceiling(monkeypatch):
    with pytest.raises(ValueError, match="square"):
        svt(np.zeros((3, 4)), 0.1)
    asym = random_symmetric(5, 3)
    asym[0, 1] += 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        svt(asym, 0.1)
    with pytest.raises(ValueError, match="symmetric"):
        nuclear_norm(asym)
    monkeypatch.setattr(numerics, "_MAX_SVD_SIDE", 4)
    with pytest.raises(ValueError, match="dense ceiling"):
        svt(random_symmetric(5, 4), 0.1)
    with pytest.raises(ValueError, match="dense ceiling"):
        nuclear_norm(random_symmetric(5, 4))


def test_svt_tolerates_last_bit_asymmetry():
    m = random_symmetric(6, 5)
    m[2, 4] = np.nextafter(m[2, 4], 2.0)
    assert np.allclose(svt(m, 0.3), _svd_shrinkage(m, 0.3), atol=1e-8)


def test_eigensolver_failure_is_numeric_error(monkeypatch):
    def no_convergence(_):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    m = random_symmetric(4, 6)
    with pytest.raises(NumericError):
        svt(m, 0.1)
    with pytest.raises(NumericError):
        nuclear_norm(m)


def test_nuclear_norm_matches_singular_value_sum():
    for seed in range(5):
        m = random_symmetric(7, seed) - 0.3 * random_symmetric(7, seed + 10)
        want = svd(m).singular_values.sum()
        assert abs(nuclear_norm(m) - want) <= 1e-10 * max(want, 1.0)
    assert nuclear_norm(np.zeros((3, 3))) == 0.0


@settings(max_examples=60)
@given(st.integers(1, 12).flatmap(
           lambda n: arrays(np.float64, (n, n),
                            elements=st.floats(-10.0, 10.0, allow_subnormal=False))),
       st.floats(0.0, 20.0))
def test_spectral_operators_match_svd_property(raw, tau):
    m = (raw + raw.T) / 2.0
    res = svd(m)
    assert np.abs(svt(m, tau) - _svd_shrinkage(m, tau)).max() <= 1e-8
    assert abs(nuclear_norm(m) - res.singular_values.sum()) <= 1e-8


def test_symmetrize_clamp_properties():
    rng = make_rng(5)
    m = rng.normal(size=(7, 7)) * 2.0
    out = symmetrize_clamp(m)
    assert np.array_equal(out, out.T)
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert np.all(np.diag(out) == 0.0)
    # idempotent once the matrix is already in the feasible set
    assert np.array_equal(symmetrize_clamp(out), out)


def test_symmetrize_clamp_rejects_non_square():
    with pytest.raises(ValueError):
        symmetrize_clamp(np.zeros((2, 3)))
