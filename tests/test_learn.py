"""Two-step pipeline: closed forms, finite-sample fits, risk evaluation."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sslci import (
    CovarianceBlocks,
    MixtureSpec,
    closed_form_f_gaussian,
    closed_form_psi_gaussian,
    closed_form_psi_mixture,
    empirical_cov,
    fit_downstream,
    fit_pretext_linear,
    gaussian_ci_population,
    mean_squared_error,
    mixture_posterior,
    mixture_sample,
    optimal_downstream_map,
    random_gaussian_ci_spec,
    random_mixture_spec,
)
from sslci.learn import _mean_sq_norm, mixture_two_class_target
from sslci.linalg import _singular, solve_psd
from sslci.models import make_rng


def _scalar_blocks(s11, s12, s1y, s22, s2y, syy) -> CovarianceBlocks:
    return CovarianceBlocks(
        sigma_x1x1=np.array([[s11]]),
        sigma_x1x2=np.array([[s12]]),
        sigma_x1y=np.array([[s1y]]),
        sigma_x2x2=np.array([[s22]]),
        sigma_x2y=np.array([[s2y]]),
        sigma_yy=np.array([[syy]]),
    )


# ---------------------------------------------------------------------------
# closed forms (Gaussian)


def test_closed_form_psi_zero_cross():
    blocks = _scalar_blocks(2.0, 0.0, 0.0, 1.0, 0.0, 1.0)
    assert np.allclose(closed_form_psi_gaussian(blocks), 0.0)


def test_closed_form_psi_scalar():
    blocks = _scalar_blocks(2.0, 1.0, 0.5, 1.0, 0.3, 1.0)
    assert closed_form_psi_gaussian(blocks)[0, 0] == pytest.approx(0.5)


def test_closed_form_psi_well_conditioned_not_degenerate():
    blocks = gaussian_ci_population(random_gaussian_ci_spec(5, 4, 2, seed=3))
    b = closed_form_psi_gaussian(blocks)
    assert not solve_psd(blocks.sigma_x1x1, blocks.sigma_x1x2)[1]
    oracle = np.linalg.solve(blocks.sigma_x1x1, blocks.sigma_x1x2).T
    assert np.allclose(b, oracle, atol=1e-12)


def test_closed_form_psi_singular_flags_degenerate():
    blocks = _scalar_blocks(0.0, 0.0, 0.0, 1.0, 0.3, 1.0)
    b = closed_form_psi_gaussian(blocks)
    assert solve_psd(blocks.sigma_x1x1, blocks.sigma_x1x2)[1]
    assert np.array_equal(b, np.zeros((1, 1)))


def test_closed_form_f_scalar():
    blocks = _scalar_blocks(2.0, 1.0, 0.5, 1.0, 0.3, 1.0)
    f_map = closed_form_f_gaussian(blocks)
    assert f_map[0, 0] == pytest.approx(0.25)


def test_closed_form_f_minimizes_population_loss():
    # normal-equations oracle: any perturbation increases the population
    # quadratic loss E|Y - Mx|^2 = tr(Syy) - 2 tr(M S1y) + tr(M S11 M^T)
    spec = random_gaussian_ci_spec(3, 2, 2, seed=1)
    blocks = gaussian_ci_population(spec)
    f_map = closed_form_f_gaussian(blocks)
    s11 = np.asarray(blocks.sigma_x1x1)
    s1y = np.asarray(blocks.sigma_x1y)
    syy = np.asarray(blocks.sigma_yy)

    def population_loss(m):
        return np.trace(syy) - 2 * np.trace(m @ s1y) + np.trace(m @ s11 @ m.T)

    base = population_loss(f_map)
    rng = make_rng(2)
    for _ in range(5):
        assert population_loss(f_map + 0.01 * rng.standard_normal(f_map.shape)) > base


def test_exact_ci_linear_identity():
    for seed in range(10):
        spec = random_gaussian_ci_spec(5, 4, 2, seed=seed)
        blocks = gaussian_ci_population(spec)
        f_map = closed_form_f_gaussian(blocks)
        b = closed_form_psi_gaussian(blocks)
        w_star = optimal_downstream_map(blocks)
        assert np.linalg.norm(f_map - w_star.T @ b, "fro") <= 1e-8


# ---------------------------------------------------------------------------
# closed forms (mixture)


def test_mixture_psi_one_hot_posterior_returns_center():
    spec = MixtureSpec(
        centers1=np.array([[0.0], [100.0]]),
        centers2=np.array([[1.0, 2.0], [3.0, 4.0]]),
        alpha=0.0,
    )
    psi = closed_form_psi_mixture(spec, np.array([[0.0]]))
    assert np.allclose(psi, [[1.0, 2.0]], atol=1e-10)


def test_mixture_psi_equidistant_average():
    spec = MixtureSpec(
        centers1=np.array([[0.0, 0.0], [2.0, 0.0]]),
        centers2=np.array([[1.0, 0.0], [0.0, 1.0]]),
        alpha=0.0,
    )
    psi = closed_form_psi_mixture(spec, np.array([[1.0, 5.0]]))
    assert np.allclose(psi, [[0.5, 0.5]], atol=1e-12)


def test_mixture_psi_matches_kernel_conditional_mean():
    # Monte-Carlo oracle: kernel-weighted average of x2 near a probe point.
    spec = random_mixture_spec(2, 2, 2, alpha=0.0, seed=3)
    data = mixture_sample(spec, 400_000, seed=4)
    probe = (spec.centers1[0] + spec.centers1[1]) / 2
    bandwidth = 0.25
    w = np.exp(-0.5 * np.sum((data.x1 - probe) ** 2, axis=1) / bandwidth**2)
    oracle = (w[:, None] * data.x2).sum(axis=0) / w.sum()
    psi = closed_form_psi_mixture(spec, probe[None, :])[0]
    # kernel smoothing has O(bandwidth^2) bias; tolerance is loose
    assert np.abs(psi - oracle).max() < 0.2


@pytest.mark.parametrize("d1, d2", [(3, 5), (5, 3)], ids=["pad", "truncate"])
def test_mixture_psi_at_alpha_one_is_the_fitted_first_view(d1, d2):
    spec = random_mixture_spec(3, d1, d2, alpha=1.0, seed=7)
    x1 = make_rng(8).standard_normal((50, d1))
    width = min(d1, d2)
    padded = np.zeros((50, d2))
    padded[:, :width] = x1[:, :width]
    assert np.array_equal(closed_form_psi_mixture(spec, x1), padded)
    assert np.array_equal(closed_form_psi_mixture(spec, x1[4:5]), padded[4:5])


def _pad(x, d):
    """x zero-padded with +0.0 on the right or truncated to d columns, by np.pad."""
    return np.pad(x[:, :d], ((0, 0), (0, max(d - x.shape[1], 0))))


@pytest.mark.parametrize("alpha", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("d1, d2", [(3, 5), (5, 3), (4, 4)], ids=["pad", "truncate", "equal"])
def test_mixture_alpha_terms_are_bit_equal_to_the_padded_formula(d1, d2, alpha):
    spec = random_mixture_spec(3, d1, d2, alpha, seed=31)
    x1 = make_rng(32).standard_normal((60, d1))
    want = mixture_posterior(spec, x1) @ ((1.0 - alpha) * spec.centers2)
    want = want + alpha * _pad(x1, d2)
    assert closed_form_psi_mixture(spec, x1).tobytes() == want.tobytes()
    # the sample's x2 against the formula drawn from the same generator state
    rng = make_rng(33)
    labels = rng.integers(0, spec.k, size=60)
    first = spec.centers1[labels] + rng.standard_normal((60, d1))
    noise = rng.standard_normal((60, d2))
    want = (1.0 - alpha) * (spec.centers2[labels] + noise) + alpha * _pad(first, d2)
    data = mixture_sample(spec, 60, seed=33)
    assert data.x1.tobytes() == first.tobytes()
    assert data.x2.tobytes() == want.tobytes()


def test_mixture_psi_takes_only_a_batch():
    spec = random_mixture_spec(3, 4, 6, alpha=0.5, seed=21)
    with pytest.raises(ValueError, match=re.escape("got shape (4,)")):
        closed_form_psi_mixture(spec, [0.0, 1.0, 2.0, 3.0])


def test_mixture_two_class_target_takes_only_a_batch():
    spec = random_mixture_spec(2, 4, 6, alpha=0.5, seed=21)
    with pytest.raises(ValueError, match=re.escape("got shape (4,)")):
        mixture_two_class_target(spec, [0.0, 1.0, 2.0, 3.0])
    assert mixture_two_class_target(spec, np.zeros((3, 4))).shape == (3,)


def test_mixture_psi_residual_is_uncorrelated_with_x1_at_half_alpha():
    # ψ* = E[X2 | X1], so X2 − ψ*(X1) is uncorrelated with every function of X1
    spec = random_mixture_spec(3, 4, 6, alpha=0.5, seed=21)
    data = mixture_sample(spec, 200_000, seed=22)
    resid = data.x2 - closed_form_psi_mixture(spec, data.x1)
    for feats in (data.x1, mixture_posterior(spec, data.x1)):
        cov = empirical_cov(resid, feats)
        monte_carlo = np.outer(resid.std(axis=0), feats.std(axis=0)) / np.sqrt(len(resid))
        assert np.all(np.abs(cov) <= 5 * monte_carlo)


def test_mixture_two_class_identity_pointwise():
    rng = make_rng(5)
    mu1 = rng.uniform(0, 10, 6)
    mu2 = rng.uniform(0, 10, 4)
    spec = MixtureSpec(
        centers1=np.vstack([mu1, -mu1]),
        centers2=np.vstack([mu2, -mu2]),
        alpha=0.0,
    )
    points = rng.standard_normal((1000, 6)) * 4
    lhs = mixture_two_class_target(spec, points)
    rhs = closed_form_psi_mixture(spec, points) @ mu2 / (mu2 @ mu2)
    assert np.abs(lhs - rhs).max() <= 1e-10


# ---------------------------------------------------------------------------
# finite-sample fits


def test_fit_pretext_recovers_realizable_map():
    rng = make_rng(6)
    c = rng.standard_normal((3, 5))
    x1 = rng.standard_normal((100, 5))
    b = fit_pretext_linear(x1, x1 @ c.T)
    assert np.abs(b - c).max() < 1e-8


def test_fit_pretext_zero_targets():
    rng = make_rng(7)
    b = fit_pretext_linear(rng.standard_normal((20, 3)), np.zeros((20, 2)))
    assert np.abs(b).max() < 1e-12


def test_fit_pretext_residual_orthogonality():
    rng = make_rng(9)
    x1 = rng.standard_normal((60, 4))
    x2 = rng.standard_normal((60, 3))
    b = fit_pretext_linear(x1, x2)
    residual = x2 - x1 @ b.T
    assert np.abs(x1.T @ residual).max() < 1e-8


def test_fit_downstream_recovers_weights():
    rng = make_rng(10)
    psi = rng.standard_normal((80, 4))
    w = rng.standard_normal((4, 2))
    w_hat = fit_downstream(psi, psi @ w)
    assert np.abs(w_hat - w).max() < 1e-8


def test_learned_maps_are_float_arrays_of_the_paper_shapes():
    # B is d2×d1 and a head Ŵ is features × k, also from integer or list input
    rng = make_rng(11)
    x1, x2, y = (rng.integers(-5, 6, (30, d)) for d in (4, 3, 2))
    blocks = gaussian_ci_population(random_gaussian_ci_spec(5, 4, 2, seed=3))
    for m, shape in (
        (fit_pretext_linear(x1.tolist(), x2), (3, 4)),
        (fit_downstream(x2, y.tolist()), (3, 2)),
        (closed_form_psi_gaussian(blocks), (4, 5)),
    ):
        assert type(m) is np.ndarray and m.dtype == np.float64 and m.shape == shape


# ---------------------------------------------------------------------------
# conditioning of the least-squares solve

EPS = np.finfo(np.float64).eps
#: singular values of A at or below this fraction of σ_max are dropped
CUTOFF = 1e-5


def _design(n, d, log_kappa, seed):
    """n×d design with singular values 1 … 10^−log_kappa, none in [1e-6, 1e-4].

    Returns ``(a, b, kept)``: the design scaled by a random power of ten,
    three right-hand sides, and the singular values above the cutoff.
    """
    rng = make_rng(seed)
    r = min(n, d)
    exponents = rng.uniform(-log_kappa, 0.0, r)
    exponents[0] = 0.0
    band = (exponents > -6.0) & (exponents < -4.0)
    exponents[band] = np.where(exponents[band] > -5.0, -4.0, -6.0)
    s = 10.0**exponents
    u, _ = np.linalg.qr(rng.standard_normal((n, r)))
    v, _ = np.linalg.qr(rng.standard_normal((d, r)))
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    b = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-3.0, 3.0)
    return (u * (scale * s)) @ v.T, b, scale * s[s > CUTOFF]


@pytest.mark.parametrize("tall", [True, False], ids=["n>=d", "n<d"])
@settings(max_examples=60, deadline=None)
@given(
    small=st.integers(1, 12),
    extra=st.integers(0, 40),
    log_kappa=st.floats(0.0, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_least_squares_predictions_match_lstsq_at_the_rank_cutoff(
    tall, small, extra, log_kappa, seed
):
    n, d = (small + extra, small) if tall else (small, small + extra + 1)
    a, b, kept = _design(n, d, log_kappa, seed)
    w = fit_pretext_linear(a, b).T
    ref = np.linalg.lstsq(a, b, rcond=CUTOFF)[0]
    kappa = kept.max() / kept.min()
    tol = 64 * kappa**2 * EPS * np.linalg.norm(b)
    assert np.abs(a @ w - a @ ref).max() <= tol


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 50),
    d=st.integers(1, 10),
    copies=st.lists(st.integers(0, 9), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_least_squares_is_the_minimum_norm_solution_on_duplicated_columns(
    n, d, copies, seed
):
    rng = make_rng(seed)
    base = rng.standard_normal((n, d))
    a = np.concatenate([base, base[:, [c % d for c in copies]]], axis=1)
    b = rng.standard_normal((n, 2))
    s = np.linalg.svd(a, compute_uv=False)
    kept = s[s > CUTOFF * s[0]]
    ref = np.linalg.lstsq(a, b, rcond=CUTOFF)[0]
    tol = 64 * (kept[0] / kept[-1]) ** 2 * EPS * np.linalg.norm(b) / kept[-1]
    for w in (fit_pretext_linear(a, b).T, fit_downstream(a, b)):
        assert np.abs(w - ref).max() <= tol


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    d=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_least_squares_is_byte_equal_to_the_direct_solve_on_a_nonsingular_gram(n, d, seed):
    rng = make_rng(seed)
    a = rng.standard_normal((n, d))
    b = rng.standard_normal((n, 3))
    assume(not _singular(a.T @ a))
    want = np.linalg.solve(a.T @ a, a.T @ b)
    assert fit_pretext_linear(a, b).T.tobytes() == want.tobytes()
    assert fit_downstream(a, b).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# risk evaluation


def test_excess_risk_zero_for_perfect_predictor():
    rng = make_rng(13)
    x = rng.standard_normal((50, 2))
    value = mean_squared_error(np.eye(2), lambda v: v, lambda v: v, x)
    assert value == pytest.approx(0.0, abs=1e-12)


def test_excess_risk_constant_target():
    c = np.array([1.0, 2.0, 2.0])
    x = np.zeros((10, 2))
    value = mean_squared_error(np.zeros((2, 3)), lambda v: v, lambda v: np.tile(c, (len(v), 1)), x)
    assert value == pytest.approx(c @ c)


def test_excess_risk_population_head_exact_ci():
    spec = random_gaussian_ci_spec(4, 3, 2, seed=14)
    blocks = gaussian_ci_population(spec)
    b = closed_form_psi_gaussian(blocks)
    w_star = optimal_downstream_map(blocks)
    f_map = closed_form_f_gaussian(blocks)
    rng = make_rng(15)
    x = rng.standard_normal((500, 4))
    assert mean_squared_error(w_star, lambda v: v @ b.T, lambda v: v @ f_map.T, x) <= 2e-10


def test_risk_with_one_dimensional_labels():
    x = make_rng(19).standard_normal((40, 3))
    w = np.array([1.0, -2.0, 0.5])
    w_hat = fit_downstream(x, x @ w)
    assert w_hat.shape == (3,)

    def shifted(v):
        return v @ w + 1.0

    assert mean_squared_error(w_hat, lambda v: v, shifted, x) == pytest.approx(1.0)
    assert mean_squared_error(w_hat, lambda v: v, shifted, x[:1]) == pytest.approx(1.0)


def test_mean_squared_error_matches_a_hand_computed_value():
    # ψ(x) = (x1 + x2, x1), W = [[1, 0], [0, 2]], f*(x) = (x2, x1 − x2):
    # x = (1, 2) predicts (3, 2) against (2, −1): 1 + 9 = 10;
    # x = (0, −1) predicts (−1, 0) against (−1, 1): 0 + 1 = 1; mean 5.5
    x = np.array([[1.0, 2.0], [0.0, -1.0]])
    w = np.array([[1.0, 0.0], [0.0, 2.0]])

    def features(v):
        return np.stack([v[:, 0] + v[:, 1], v[:, 0]], axis=1)

    def f_star(v):
        return np.stack([v[:, 1], v[:, 0] - v[:, 1]], axis=1)

    assert mean_squared_error(w, features, f_star, x) == 5.5


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mean_squared_error_rejects_a_head_that_is_not_finite(bad):
    x = np.ones((4, 2))
    w = np.array([[1.0], [bad]])
    with pytest.raises(ValueError, match="non-finite entries"):
        mean_squared_error(w, lambda v: v, lambda v: v[:, :1], x)


def test_mean_sq_norm_matches_a_hand_computed_value():
    # rows (−1, −3) and (0, 1): ‖e_1‖² = 10, ‖e_2‖² = 1, mean 5.5
    assert _mean_sq_norm(np.array([[-1.0, -3.0], [0.0, 1.0]])) == 5.5


def test_mean_sq_norm_of_an_f_ordered_target_is_bit_equal_to_its_c_copy():
    drawn = random_mixture_spec(3, 6, 5, 0.0, seed=4)
    # centres shrunk ×0.05 overlap, so the posteriors are far from one-hot
    spec = MixtureSpec(centers1=0.05 * drawn.centers1, centers2=drawn.centers2, alpha=0.0)
    x = make_rng(6).standard_normal((3000, 6))
    post = mixture_posterior(spec, x)
    assert post.flags.f_contiguous and not post.flags.c_contiguous
    copy = np.ascontiguousarray(post)
    assert _mean_sq_norm(post) == _mean_sq_norm(copy)
    w = make_rng(7).standard_normal((6, 3))

    def c_ordered(v):
        return np.ascontiguousarray(mixture_posterior(spec, v))

    view = mean_squared_error(w, lambda v: v, lambda v: mixture_posterior(spec, v), x)
    assert view == mean_squared_error(w, lambda v: v, c_ordered, x)


@pytest.mark.parametrize("k", [1, 2, 8, 16])
def test_mean_sq_norm_matches_the_row_wise_sum(k):
    e = make_rng(23, k).standard_normal((10_000, k))
    want = (e**2).sum(axis=1).mean()
    assert abs(_mean_sq_norm(e) - want) <= 1e-14 * want
