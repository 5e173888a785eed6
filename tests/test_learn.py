"""Two-step pipeline: closed forms, finite-sample fits, risk evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslci import (
    CovarianceBlocks,
    DownstreamFit,
    LinearRepresentation,
    MixtureSpec,
    closed_form_f_gaussian,
    closed_form_psi_gaussian,
    closed_form_psi_mixture,
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
from sslci.learn import mixture_two_class_target
from sslci.linalg import solve_psd
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
    rep = closed_form_psi_gaussian(blocks)
    assert np.allclose(rep.b, 0.0)


def test_closed_form_psi_scalar():
    blocks = _scalar_blocks(2.0, 1.0, 0.5, 1.0, 0.3, 1.0)
    rep = closed_form_psi_gaussian(blocks)
    assert rep.b[0, 0] == pytest.approx(0.5)


def test_closed_form_psi_well_conditioned_not_degenerate():
    blocks = gaussian_ci_population(random_gaussian_ci_spec(5, 4, 2, seed=3))
    rep = closed_form_psi_gaussian(blocks)
    assert not solve_psd(blocks.sigma_x1x1, blocks.sigma_x1x2)[1]
    oracle = np.linalg.solve(blocks.sigma_x1x1, blocks.sigma_x1x2).T
    assert np.allclose(rep.b, oracle, atol=1e-12)


def test_closed_form_psi_singular_flags_degenerate():
    blocks = _scalar_blocks(0.0, 0.0, 0.0, 1.0, 0.3, 1.0)
    rep = closed_form_psi_gaussian(blocks)
    assert solve_psd(blocks.sigma_x1x1, blocks.sigma_x1x2)[1]
    assert np.array_equal(rep.b, np.zeros((1, 1)))


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
        rep = closed_form_psi_gaussian(blocks)
        w_star = optimal_downstream_map(blocks)
        assert np.linalg.norm(f_map - w_star.T @ rep.b, "fro") <= 1e-8


# ---------------------------------------------------------------------------
# closed forms (mixture)


def test_mixture_psi_one_hot_posterior_returns_center():
    spec = MixtureSpec(
        centers1=np.array([[0.0], [100.0]]),
        centers2=np.array([[1.0, 2.0], [3.0, 4.0]]),
        alpha=0.0,
    )
    psi = closed_form_psi_mixture(spec, np.array([0.0]))
    assert np.allclose(psi, [1.0, 2.0], atol=1e-10)


def test_mixture_psi_equidistant_average():
    spec = MixtureSpec(
        centers1=np.array([[0.0, 0.0], [2.0, 0.0]]),
        centers2=np.array([[1.0, 0.0], [0.0, 1.0]]),
        alpha=0.0,
    )
    psi = closed_form_psi_mixture(spec, np.array([1.0, 5.0]))
    assert np.allclose(psi, [0.5, 0.5], atol=1e-12)


def test_mixture_psi_matches_kernel_conditional_mean():
    # Monte-Carlo oracle: kernel-weighted average of x2 near a probe point.
    spec = random_mixture_spec(2, 2, 2, alpha=0.0, seed=3)
    data = mixture_sample(spec, 400_000, seed=4)
    probe = (spec.centers1[0] + spec.centers1[1]) / 2
    bandwidth = 0.25
    w = np.exp(-0.5 * np.sum((data.x1 - probe) ** 2, axis=1) / bandwidth**2)
    oracle = (w[:, None] * data.x2).sum(axis=0) / w.sum()
    psi = closed_form_psi_mixture(spec, probe)
    # kernel smoothing has O(bandwidth^2) bias; tolerance is loose
    assert np.abs(psi - oracle).max() < 0.2


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
    rep = fit_pretext_linear(x1, x1 @ c.T, ridge=0.0)
    assert np.abs(rep.b - c).max() < 1e-8


def test_fit_pretext_zero_targets():
    rng = make_rng(7)
    rep = fit_pretext_linear(rng.standard_normal((20, 3)), np.zeros((20, 2)))
    assert np.abs(rep.b).max() < 1e-12


def test_fit_pretext_large_ridge_shrinks_to_zero():
    rng = make_rng(8)
    x1 = rng.standard_normal((50, 3))
    x2 = rng.standard_normal((50, 2))
    rep = fit_pretext_linear(x1, x2, ridge=1e9)
    assert np.abs(rep.b).max() < 1e-6


def test_fit_pretext_residual_orthogonality():
    rng = make_rng(9)
    x1 = rng.standard_normal((60, 4))
    x2 = rng.standard_normal((60, 3))
    rep = fit_pretext_linear(x1, x2, ridge=0.0)
    residual = x2 - x1 @ rep.b.T
    assert np.abs(x1.T @ residual).max() < 1e-8


def test_fit_downstream_recovers_weights():
    rng = make_rng(10)
    psi = rng.standard_normal((80, 4))
    w = rng.standard_normal((4, 2))
    fit = fit_downstream(psi, psi @ w)
    assert np.abs(fit.w_hat - w).max() < 1e-8


def test_fit_downstream_full_rank_pca_identical():
    rng = make_rng(11)
    psi = rng.standard_normal((60, 5))
    y = rng.standard_normal((60, 2))
    plain = fit_downstream(psi, y)
    full_pca = fit_downstream(psi, y, pca_rank=5)
    assert np.abs(plain.predict(psi) - full_pca.predict(psi)).max() < 1e-10


def test_fit_downstream_pca_helps_on_low_rank_noise():
    # low-rank signal plus small feature noise: truncation should not lose
    # to the plain fit on held-out data in most seeded trials
    wins = 0
    trials = 50
    for seed in range(trials):
        rng = make_rng(seed, 12)
        rank = 2
        mix = rng.standard_normal((rank, 6))
        w_true = rng.standard_normal((rank, 1))
        z_tr = rng.standard_normal((40, rank))
        z_te = rng.standard_normal((400, rank))
        noise = 0.05
        psi_tr = z_tr @ mix + noise * rng.standard_normal((40, 6))
        psi_te = z_te @ mix + noise * rng.standard_normal((400, 6))
        y_tr = z_tr @ w_true + 0.5 * rng.standard_normal((40, 1))
        y_te = z_te @ w_true
        plain = fit_downstream(psi_tr, y_tr)
        trunc = fit_downstream(psi_tr, y_tr, pca_rank=rank)
        err_plain = ((plain.predict(psi_te) - y_te) ** 2).mean()
        err_trunc = ((trunc.predict(psi_te) - y_te) ** 2).mean()
        wins += err_trunc <= err_plain
    assert wins >= 0.8 * trials


@pytest.mark.parametrize("ridge", [-1.0, np.nan, np.inf])
def test_fit_pretext_rejects_a_ridge_that_is_not_finite_and_nonnegative(ridge):
    with pytest.raises(ValueError, match="ridge must be finite and nonnegative"):
        fit_pretext_linear(np.ones((4, 2)), np.ones((4, 1)), ridge=ridge)


def test_fit_downstream_pca_rank_too_large():
    with pytest.raises(ValueError):
        fit_downstream(np.zeros((10, 3)), np.zeros((10, 1)), pca_rank=4)


def test_linear_representation_stores_a_finite_float_array():
    rep = LinearRepresentation(b=[[1.0, 2.0]])
    assert isinstance(rep.b, np.ndarray) and rep.b.dtype == np.float64
    np.testing.assert_array_equal(rep(np.ones((3, 2))), np.full((3, 1), 3.0))
    with pytest.raises(ValueError, match="non-finite"):
        LinearRepresentation(b=[[np.nan, 1.0]])


def test_downstream_fit_stores_a_finite_float_array():
    fit = DownstreamFit(w_hat=[[2.0]])
    assert isinstance(fit.w_hat, np.ndarray) and fit.w_hat.dtype == np.float64
    np.testing.assert_array_equal(fit.predict(np.ones((2, 1))), np.full((2, 1), 2.0))
    with pytest.raises(ValueError, match="non-finite entries"):
        DownstreamFit(w_hat=[[np.nan]])


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
    w = fit_pretext_linear(a, b).b.T
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
    for w in (fit_pretext_linear(a, b).b.T, fit_downstream(a, b).w_hat):
        assert np.abs(w - ref).max() <= tol


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    d=st.integers(1, 20),
    log_ridge=st.floats(-4.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_least_squares_with_a_ridge_is_byte_equal_to_the_direct_solve(
    n, d, log_ridge, seed
):
    rng = make_rng(seed)
    a = rng.standard_normal((n, d))
    b = rng.standard_normal((n, 3))
    ridge = 10.0**log_ridge
    want = np.linalg.solve(a.T @ a + n * ridge * np.eye(d), a.T @ b)
    assert fit_pretext_linear(a, b, ridge).b.T.tobytes() == want.tobytes()
    assert fit_downstream(a, b, ridge).w_hat.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# risk evaluation


def test_excess_risk_zero_for_perfect_predictor():
    rep = LinearRepresentation(b=np.eye(2))
    fit = DownstreamFit(w_hat=np.eye(2))
    rng = make_rng(13)
    x = rng.standard_normal((50, 2))
    assert mean_squared_error(fit, rep, lambda v: v, x) == pytest.approx(0.0, abs=1e-12)


def test_excess_risk_constant_target():
    rep = LinearRepresentation(b=np.eye(2))
    fit = DownstreamFit(w_hat=np.zeros((2, 3)))
    c = np.array([1.0, 2.0, 2.0])
    x = np.zeros((10, 2))
    value = mean_squared_error(fit, rep, lambda v: np.tile(c, (len(v), 1)), x)
    assert value == pytest.approx(c @ c)


def test_excess_risk_population_head_exact_ci():
    spec = random_gaussian_ci_spec(4, 3, 2, seed=14)
    blocks = gaussian_ci_population(spec)
    rep = closed_form_psi_gaussian(blocks)
    w_star = optimal_downstream_map(blocks)
    f_map = closed_form_f_gaussian(blocks)
    fit = DownstreamFit(w_hat=w_star)
    rng = make_rng(15)
    x = rng.standard_normal((500, 4))
    assert mean_squared_error(fit, rep, lambda v: v @ f_map.T, x) <= 2e-10


def test_risk_with_one_dimensional_labels():
    x = make_rng(19).standard_normal((40, 3))
    w = np.array([1.0, -2.0, 0.5])
    rep = LinearRepresentation(b=np.eye(3))
    fit = fit_downstream(x, x @ w)
    assert fit.w_hat.shape == (3,)

    def shifted(v):
        return v @ w + 1.0

    assert mean_squared_error(fit, rep, shifted, x) == pytest.approx(1.0)
    assert mean_squared_error(fit, rep, shifted, x[:1]) == pytest.approx(1.0)
