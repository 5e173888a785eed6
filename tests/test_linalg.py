"""Covariance and dense linear-algebra primitives."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslci import (
    CovarianceBlocks,
    empirical_cov,
    gaussian_ci_population,
    gaussian_conditionals_from_precision,
    inv_sqrt,
    partial_cov,
    pca_top_r,
    pinv,
    random_gaussian_ci_spec,
)
from sslci.linalg import _as_float, solve_psd
from sslci.models import make_rng


# ---------------------------------------------------------------------------
# _as_float: the finiteness check behind every public function


@pytest.mark.parametrize(
    "m",
    [
        np.full((3, 4), 1e200),  # finite, though Σx² overflows
        np.asfortranarray(np.full((3, 4), -1e200)),
        np.empty((0, 3)),
        np.float64(2.5),
        [[1, 2], [3, 4]],
        np.arange(24.0).reshape(4, 6)[:, ::2],  # strided view
    ],
    ids=["overflowing-squares", "fortran", "empty", "0-d", "int-list", "strided"],
)
def test_as_float_accepts_finite_input(m):
    out = _as_float(m)
    assert out.dtype == np.float64 and np.array_equal(out, np.asarray(m, dtype=float))


def test_as_float_does_not_copy_a_float_array():
    m = np.ones((4, 3))
    assert _as_float(m) is m and _as_float(m.T).base is m


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("layout", ["c", "fortran", "strided", "0-d", "big"])
def test_as_float_rejects_a_non_finite_entry_anywhere(bad, layout):
    shape = {"c": (3, 5), "fortran": (3, 5), "strided": (3, 10), "0-d": (), "big": (400, 50)}
    base = np.ones(shape[layout], order="F" if layout == "fortran" else "C")
    for pos in {0, base.size // 2, base.size - 1}:
        m = base.copy(order="K")
        m.flat[pos] = bad
        if layout == "strided":
            m = m[:, pos % 2 :: 2]  # keeps the column of ``pos``
        with pytest.raises(ValueError, match="non-finite"):
            _as_float(m)


# ---------------------------------------------------------------------------
# empirical_cov


def test_empirical_cov_unit_variance():
    a = np.array([[1.0], [-1.0]])
    assert np.allclose(empirical_cov(a, a), [[1.0]])


def test_empirical_cov_zeros():
    a = np.zeros((4, 3))
    b = np.zeros((4, 2))
    assert np.array_equal(empirical_cov(a, b), np.zeros((3, 2)))


def test_empirical_cov_matches_double_loop_oracle():
    rng = make_rng(1)
    a = rng.integers(-5, 6, (5, 2)).astype(float)
    b = rng.integers(-5, 6, (5, 3)).astype(float)
    ca = a - a.mean(axis=0)
    cb = b - b.mean(axis=0)
    oracle = np.zeros((2, 3))
    for i in range(2):
        for j in range(3):
            total = 0.0
            for n in range(5):
                total += ca[n, i] * cb[n, j]
            oracle[i, j] = total / 5
    assert np.allclose(empirical_cov(a, b), oracle, atol=1e-12)


def test_empirical_cov_no_centering_second_moment():
    rng = make_rng(2)
    a = rng.standard_normal((10, 2))
    assert np.allclose(empirical_cov(a, a, center=False), a.T @ a / 10)


def test_empirical_cov_row_mismatch():
    with pytest.raises(ValueError):
        empirical_cov(np.zeros((3, 2)), np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# partial_cov


def test_partial_cov_zero_cross_returns_sigma_ab():
    rng = make_rng(3)
    sab = rng.standard_normal((3, 2))
    out = partial_cov(sab, np.zeros((3, 4)), np.eye(4), np.zeros((4, 2)))
    assert np.array_equal(out, sab)


def test_partial_cov_ci_by_construction():
    # A = Ma·Z + noise_a, B = Mb·Z + noise_b with independent noises:
    # analytic cross-blocks give exactly zero partial covariance.
    rng = make_rng(4)
    ma = rng.standard_normal((3, 2))
    mb = rng.standard_normal((4, 2))
    szz = np.eye(2) * 1.7
    sab = ma @ szz @ mb.T
    saz = ma @ szz
    szb = szz @ mb.T
    out = partial_cov(sab, saz, szz, szb)
    assert np.linalg.norm(out, "fro") <= 1e-10


def test_partial_cov_matches_block_inverse_oracle():
    # Schur complement via inversion of the full joint covariance.
    rng = make_rng(5)
    g = rng.standard_normal((7, 7))
    joint = g @ g.T + 0.5 * np.eye(7)  # (a: 0-2, z: 3-4, b: 5-6)
    a_idx, z_idx, b_idx = slice(0, 3), slice(3, 5), slice(5, 7)
    out = partial_cov(
        joint[a_idx, b_idx], joint[a_idx, z_idx], joint[z_idx, z_idx], joint[z_idx, b_idx]
    )
    oracle = joint[a_idx, b_idx] - joint[a_idx, z_idx] @ np.linalg.inv(
        joint[z_idx, z_idx]
    ) @ joint[z_idx, b_idx]
    assert np.allclose(out, oracle, atol=1e-10)


def test_partial_cov_singular_z_flags_degenerate():
    szz = np.diag([1.0, 0.0])
    out = partial_cov(np.eye(2), np.eye(2), szz, np.eye(2))
    assert solve_psd(szz, np.eye(2))[1]
    assert np.allclose(out, np.diag([0.0, 1.0]))


def test_partial_cov_well_conditioned_z_not_degenerate():
    szz = np.array([[2.0, 0.5], [0.5, 1.0]])
    szb = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, -1.0]])
    out = partial_cov(np.zeros((1, 3)), np.ones((1, 2)), szz, szb)
    assert not solve_psd(szz, szb)[1]
    assert np.allclose(out, -np.ones((1, 2)) @ np.linalg.inv(szz) @ szb, atol=1e-12)


@pytest.mark.parametrize(
    ("sigma", "degenerate"),
    [
        (np.diag([3.0, 1.0]), False),
        (np.diag([3.0, 0.0]), True),
        (np.diag([1.0, 1e-12]), True),
        (np.zeros((2, 2)), True),
    ],
)
def test_solve_psd_flags_only_singular_sigma(sigma, degenerate):
    rhs = np.array([[1.0], [2.0]])
    x, flag = solve_psd(sigma, rhs)
    assert flag is degenerate
    assert np.allclose(x, pinv(sigma) @ rhs, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_partial_cov_independent_z_property(seed):
    rng = make_rng(seed, 6)
    sab = rng.standard_normal((2, 3))
    gz = rng.standard_normal((2, 2))
    out = partial_cov(sab, np.zeros((2, 2)), gz @ gz.T + np.eye(2), np.zeros((2, 3)))
    assert np.array_equal(out, sab)


# ---------------------------------------------------------------------------
# pinv


def test_pinv_identity():
    assert np.allclose(pinv(np.eye(3)), np.eye(3))


def test_pinv_rank_deficient_diag():
    assert np.allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))


def test_pinv_penrose_identities():
    rng = make_rng(7)
    m = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3))
    mp = pinv(m)
    assert np.allclose(m @ mp @ m, m, atol=1e-8)
    assert np.allclose(mp @ m @ mp, mp, atol=1e-8)
    assert np.allclose((m @ mp).T, m @ mp, atol=1e-8)
    assert np.allclose((mp @ m).T, mp @ m, atol=1e-8)


def test_pinv_involution_on_range():
    rng = make_rng(8)
    m = rng.standard_normal((3, 3))
    assert np.allclose(pinv(pinv(m)), m, atol=1e-8)


# ---------------------------------------------------------------------------
# inv_sqrt


def test_inv_sqrt_identity():
    assert np.allclose(inv_sqrt(np.eye(3)), np.eye(3))


def test_inv_sqrt_diag():
    assert np.allclose(inv_sqrt(np.diag([4.0, 1.0])), np.diag([0.5, 1.0]))


def test_inv_sqrt_projector_property():
    rng = make_rng(9)
    g = rng.standard_normal((5, 3))
    psd = g @ g.T  # rank 3
    half = inv_sqrt(psd)
    proj = half @ psd @ half
    assert np.allclose(proj @ proj, proj, atol=1e-8)
    assert np.allclose(half, half.T, atol=1e-12)
    assert np.linalg.matrix_rank(proj, tol=1e-8) == 3


def test_inv_sqrt_rejects_asymmetric():
    with pytest.raises(ValueError):
        inv_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_inv_sqrt_symmetry_rule_has_a_relative_term():
    # accepted when |m − mᵀ| <= 1e-10 + 1e-5·|mᵀ| entrywise, then symmetrized
    near = np.array([[2.0, 1.0 + 1e-6], [1.0, 2.0]])
    assert np.array_equal(inv_sqrt(near), inv_sqrt((near + near.T) / 2.0))
    with pytest.raises(ValueError, match="symmetric"):
        inv_sqrt(np.array([[2.0, 1e-9], [0.0, 2.0]]))


def test_inv_sqrt_accepts_large_scale_population_blocks():
    # rounding leaves Σ_X1X1 asymmetric beyond any 1e-10 absolute rule
    spec = random_gaussian_ci_spec(6, 5, 2, seed=0)
    big = dataclasses.replace(spec, m1=1e4 * spec.m1, noise1=1e4 * spec.noise1)
    sigma = gaussian_ci_population(big).sigma_x1x1
    assert np.abs(sigma - sigma.T).max() > 1e-8
    half = inv_sqrt(sigma)
    assert np.allclose(half @ sigma @ half, np.eye(6), atol=1e-6)


# ---------------------------------------------------------------------------
# pca_top_r


def test_pca_rank_one_samples():
    rng = make_rng(10)
    direction = rng.standard_normal(4)
    samples = rng.standard_normal((50, 1)) * direction[None, :]
    proj, spectrum = pca_top_r(samples, 2)
    assert spectrum[0] > 0
    assert spectrum[1] < 1e-10
    assert np.allclose(proj.T @ proj, np.eye(2), atol=1e-10)


def test_pca_isotropic_spectrum_flat():
    rng = make_rng(11)
    samples = rng.standard_normal((20_000, 3))
    _, spectrum = pca_top_r(samples, 3)
    assert spectrum.max() - spectrum.min() < 0.05


def test_pca_full_rank_orthogonal():
    rng = make_rng(12)
    samples = rng.standard_normal((30, 4))
    proj, spectrum = pca_top_r(samples, 4)
    assert np.allclose(proj.T @ proj, np.eye(4), atol=1e-10)
    assert np.all(np.diff(spectrum) <= 1e-12)


@pytest.mark.parametrize(
    "samples, r",
    [
        (make_rng(14).standard_normal((3, 6)), 5),
        # axis-aligned samples: the principal direction is a standard basis vector
        (np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]), 3),
    ],
)
def test_pca_completes_basis_when_samples_are_fewer_than_r(samples, r):
    n, d = samples.shape
    proj, spectrum = pca_top_r(samples, r)
    assert proj.shape == (d, r)
    assert np.abs(proj.T @ proj - np.eye(r)).max() < 1e-12
    assert np.all(spectrum[n:] == 0)


def test_pca_r_too_large():
    with pytest.raises(ValueError):
        pca_top_r(np.zeros((5, 3)), 4)


def test_pca_deterministic_signs():
    rng = make_rng(13)
    samples = rng.standard_normal((25, 4))
    p1, _ = pca_top_r(samples, 3)
    p2, _ = pca_top_r(samples.copy(), 3)
    assert np.array_equal(p1, p2)


# ---------------------------------------------------------------------------
# precision-route conditional maps


def _random_blocks(seed: int) -> CovarianceBlocks:
    rng = make_rng(seed, 14)
    d1, d2, k = 2, 2, 1
    dim = d1 + d2 + k
    g = rng.standard_normal((dim, dim))
    joint = g @ g.T + 0.5 * np.eye(dim)
    return CovarianceBlocks(
        sigma_x1x1=joint[:d1, :d1],
        sigma_x1x2=joint[:d1, d1 : d1 + d2],
        sigma_x1y=joint[:d1, d1 + d2 :],
        sigma_x2x2=joint[d1 : d1 + d2, d1 : d1 + d2],
        sigma_x2y=joint[d1 : d1 + d2, d1 + d2 :],
        sigma_yy=joint[d1 + d2 :, d1 + d2 :],
    )


def test_precision_blockdiagonal_joint_zero_maps():
    blocks = CovarianceBlocks(
        sigma_x1x1=np.eye(2),
        sigma_x1x2=np.zeros((2, 2)),
        sigma_x1y=np.zeros((2, 1)),
        sigma_x2x2=np.eye(2),
        sigma_x2y=np.zeros((2, 1)),
        sigma_yy=np.eye(1),
    )
    m21, my_x, my_x1 = gaussian_conditionals_from_precision(blocks)
    assert np.allclose(m21, 0, atol=1e-12)
    assert np.allclose(my_x, 0, atol=1e-12)
    assert np.allclose(my_x1, 0, atol=1e-12)


def test_precision_route_matches_covariance_route_ci_model():
    spec = random_gaussian_ci_spec(3, 2, 2, seed=21)
    blocks = gaussian_ci_population(spec)
    _assert_routes_agree(blocks)


def test_precision_route_matches_covariance_route_random():
    for seed in range(10):
        _assert_routes_agree(_random_blocks(seed))


def _assert_routes_agree(blocks: CovarianceBlocks):
    m21, my_x, my_x1 = gaussian_conditionals_from_precision(blocks)
    s11 = np.asarray(blocks.sigma_x1x1, float)
    s11_inv = np.linalg.inv(s11)
    assert np.abs(m21 - np.asarray(blocks.sigma_x1x2).T @ s11_inv).max() < 1e-8
    assert np.abs(my_x1 - np.asarray(blocks.sigma_x1y).T @ s11_inv).max() < 1e-8
    s12 = np.asarray(blocks.sigma_x1x2)
    joint_xx = np.block([[s11, s12], [s12.T, np.asarray(blocks.sigma_x2x2)]])
    sigma_yx = np.concatenate(
        [np.asarray(blocks.sigma_x1y).T, np.asarray(blocks.sigma_x2y).T], axis=1
    )
    assert np.abs(my_x - sigma_yx @ np.linalg.inv(joint_xx)).max() < 1e-8


def test_precision_rejects_singular_joint():
    blocks = CovarianceBlocks(
        sigma_x1x1=np.eye(2),
        sigma_x1x2=np.eye(2),  # duplicated coordinates -> singular joint
        sigma_x1y=np.zeros((2, 1)),
        sigma_x2x2=np.eye(2),
        sigma_x2y=np.zeros((2, 1)),
        sigma_yy=np.eye(1),
    )
    with pytest.raises(ValueError):
        gaussian_conditionals_from_precision(blocks)
