"""Conditional-independence diagnostics against brute-force oracles."""

import numpy as np
import pytest

from sslci import (
    DiscreteJoint,
    bayes_gap_check,
    beta_inv,
    discrete_joint_random,
    empirical_cov,
    eps_ci_linear,
    eps_ci_linear_from_data,
    eps_ci_universal,
    eps_y_bar,
    gaussian_ci_population,
    gaussian_ci_sample,
    mixture_sample,
    random_gaussian_ci_spec,
    random_mixture_spec,
)
from sslci.linalg import inv_sqrt, solve_psd
from sslci.models import make_rng


# ---------------------------------------------------------------------------
# eps_ci_linear


def test_eps_ci_linear_zero_on_analytic_ci_blocks():
    for seed in range(5):
        spec = random_gaussian_ci_spec(4, 3, 2, seed=seed)
        blocks = gaussian_ci_population(spec)
        eps = eps_ci_linear(
            blocks.sigma_x1x1,
            blocks.sigma_x1x2,
            blocks.sigma_x1y,
            blocks.sigma_yy,
            np.asarray(blocks.sigma_x2y).T,
        )
        assert eps <= 1e-10


def test_eps_ci_linear_matches_direct_formula():
    rng = make_rng(1)
    s11 = rng.standard_normal((4, 4))
    s11 = s11 @ s11.T + np.eye(4)
    s12 = rng.standard_normal((4, 3))
    s1y = rng.standard_normal((4, 2))
    syy = np.diag([0.6, 0.4])
    sy2 = rng.standard_normal((2, 3))
    cond = s12 - s1y @ np.linalg.inv(syy) @ sy2
    oracle = np.linalg.norm(inv_sqrt(s11) @ cond, "fro")
    assert eps_ci_linear(s11, s12, s1y, syy, sy2) == pytest.approx(oracle, abs=1e-12)


def test_eps_ci_linear_from_data_monotone_in_alpha():
    # mixing the first view into the second breaks conditional independence
    values = []
    for alpha in (0.0, 0.5, 1.0):
        spec = random_mixture_spec(2, 3, 3, alpha=alpha, seed=2)
        data = mixture_sample(spec, 50_000, seed=3)
        values.append(eps_ci_linear_from_data(data.x1, data.x2, data.y))
    assert values[0] < values[1] < values[2]
    assert values[0] < 0.05


# ---------------------------------------------------------------------------
# eps_ci_universal


def _universal_oracle(joint: DiscreteJoint) -> float:
    p = joint.p
    d1, d2, c = p.shape
    p1 = p.sum(axis=(1, 2))
    total = 0.0
    for s1 in range(d1):
        inner = np.zeros(d2)
        for s2 in range(d2):
            lhs = p[s1, s2].sum() / p1[s1]
            rhs = 0.0
            for s in range(c):
                p_bar = p[:, :, s].sum()
                rhs += (p[s1, :, s].sum() / p1[s1]) * (p[:, s2, s].sum() / p_bar)
            inner[s2] = lhs - rhs
        total += p1[s1] * (inner**2).sum()
    return float(np.sqrt(total))


def test_eps_ci_universal_matches_triple_loop_oracle():
    for seed in range(10):
        joint = discrete_joint_random((4, 5, 3), seed=seed)
        assert eps_ci_universal(joint) == pytest.approx(
            _universal_oracle(joint), abs=1e-12
        )


def test_eps_ci_universal_zero_under_ci():
    for seed in range(10):
        joint = discrete_joint_random((4, 5, 3), seed=seed, ci_with_y=True)
        assert eps_ci_universal(joint) <= 1e-12


def test_eps_ci_universal_grows_with_perturbation():
    joint = discrete_joint_random((3, 3, 2), seed=4, ci_with_y=True)
    base = joint.p.copy()
    delta = np.zeros_like(base)
    delta[0, 0, 0] += 1.0
    delta[0, 1, 0] -= 1.0
    values = []
    for t in (0.0, 0.01, 0.02):
        p = base + t * delta * base.min()
        values.append(eps_ci_universal(DiscreteJoint(p=p / p.sum())))
    assert values[0] <= 1e-12
    assert values[0] < values[1] < values[2]


def test_eps_ci_universal_requires_latent_axis():
    joint = discrete_joint_random((3, 3), seed=5)
    with pytest.raises(ValueError):
        eps_ci_universal(joint)


def test_eps_ci_universal_rejects_an_empty_label_class():
    p = discrete_joint_random((4, 3, 3), seed=5).p.copy()
    p[:, :, 1] = 0.0
    with pytest.raises(ValueError, match="empty label class"):
        eps_ci_universal(DiscreteJoint(p=p / p.sum()))


# ---------------------------------------------------------------------------
# beta_inv


def test_beta_inv_identity_blocks():
    report = beta_inv(np.eye(3), np.eye(3))
    assert report.value == pytest.approx(1.0)
    assert report.rank == 3
    assert not report.degenerate


def test_beta_inv_diagonal_scaling():
    # sy = diag(2, 3), sx = diag(1, 6): sy @ pinv(sx) = diag(2, 1/2)
    report = beta_inv(np.diag([2.0, 3.0]), np.diag([1.0, 6.0]))
    assert report.value == pytest.approx(2.0)


def test_beta_inv_svd_oracle_and_rotation_invariance():
    rng = make_rng(6)
    sy = rng.standard_normal((2, 3))
    sx = rng.standard_normal((5, 3))
    oracle = np.linalg.svd(sy @ np.linalg.pinv(sx), compute_uv=False)[0]
    report = beta_inv(sy, sx)
    assert report.value == pytest.approx(oracle, abs=1e-12)
    assert report.rank == 3
    # rotating the x2 embedding leaves the spectral norm unchanged
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    assert beta_inv(sy, q @ sx).value == pytest.approx(report.value, abs=1e-10)


def test_beta_inv_flags_rank_deficiency():
    sx = np.zeros((4, 3))
    sx[0, 0] = 1.0
    report = beta_inv(np.eye(2, 3), sx)
    assert report.rank == 1
    assert report.degenerate


# ---------------------------------------------------------------------------
# eps_y_bar


def test_eps_y_bar_zero_when_label_is_function_of_latent():
    # latent with 4 states, label = latent mod 2: p(y|x1, ybar) = p(y|ybar)
    rng = make_rng(7)
    p = np.zeros((3, 4, 2))
    for s in range(4):
        px1 = rng.uniform(0.1, 1.0, 3)
        p[:, s, s % 2] = px1 / px1.sum() * rng.uniform(0.1, 1.0)
    joint = DiscreteJoint(p=p / p.sum())
    assert eps_y_bar(joint) <= 1e-12


def test_eps_y_bar_positive_generic():
    joint = discrete_joint_random((3, 4, 2), seed=8)
    assert eps_y_bar(joint) > 1e-4


def test_eps_y_bar_trivial_latent():
    # a single latent state screens nothing: check against the direct gap
    joint = discrete_joint_random((3, 4, 2), seed=9)
    p = joint.p.sum(axis=1)[:, None, :] * np.ones((1, 1, 1))
    collapsed = DiscreteJoint(p=p.reshape(3, 1, 2))
    p1 = joint.p.sum(axis=(1, 2))
    py_x1 = joint.p.sum(axis=1) / p1[:, None]
    py = joint.p.sum(axis=(0, 1))
    oracle = np.sqrt((p1 * ((py_x1 - py) ** 2).sum(axis=1)).sum())
    assert eps_y_bar(collapsed) == pytest.approx(float(oracle), abs=1e-12)


# ---------------------------------------------------------------------------
# bayes gap


def test_bayes_gap_zero_when_x2_uninformative():
    # p(x1, x2, y) = p(x1, y) p(x2): the second view adds nothing
    rng = make_rng(10)
    p1y = rng.uniform(0.1, 1.0, (3, 2))
    p1y /= p1y.sum()
    p2 = rng.uniform(0.1, 1.0, 4)
    p2 /= p2.sum()
    joint = DiscreteJoint(p=p1y[:, None, :] * p2[None, :, None])
    lhs, rhs = bayes_gap_check(joint)
    assert lhs <= 1e-14
    assert rhs >= lhs


def test_bayes_gap_zero_rhs_when_label_deterministic():
    # y a deterministic function of x1 forces both sides to vanish
    rng = make_rng(11)
    p = np.zeros((2, 3, 2))
    for s1 in range(2):
        row = rng.uniform(0.1, 1.0, 3)
        p[s1, :, s1] = row
    joint = DiscreteJoint(p=p / p.sum())
    lhs, rhs = bayes_gap_check(joint)
    assert rhs <= 1e-14
    assert lhs <= rhs + 1e-14


def test_bayes_gap_inequality_random():
    for seed in range(40):
        joint = discrete_joint_random((4, 4, 3), seed=seed)
        lhs, rhs = bayes_gap_check(joint)
        assert lhs <= rhs + 1e-12


def test_bayes_gap_lhs_loop_oracle():
    joint = discrete_joint_random((3, 3, 2), seed=12)
    p = joint.p
    p12 = p.sum(axis=2)
    p1 = p12.sum(axis=1)
    lhs_oracle = 0.0
    for s1 in range(3):
        for s2 in range(3):
            a = p[s1, :, :].sum(axis=0) / p1[s1]
            b = p[s1, s2, :] / p12[s1, s2]
            lhs_oracle += p12[s1, s2] * ((a - b) ** 2).sum()
    lhs, _ = bayes_gap_check(joint)
    assert lhs == pytest.approx(lhs_oracle, abs=1e-12)


# ---------------------------------------------------------------------------
# sample diagnostics


def _sample_beta(data):
    return beta_inv(empirical_cov(data.y, data.y), empirical_cov(data.x2, data.y))


def test_sample_eps_ci_and_beta_on_a_ci_mixture():
    spec = random_mixture_spec(2, 3, 3, alpha=0.0, seed=14)
    data = mixture_sample(spec, 30_000, seed=15)
    assert eps_ci_linear_from_data(data.x1, data.x2, data.y) < 0.05
    beta = _sample_beta(data)
    assert beta.value > 0
    assert beta.rank >= 1


@pytest.mark.parametrize("k", [2, 5, 8])
def test_one_hot_latent_is_always_degenerate(k):
    # centred one-hot columns sum to zero: Σ_ȳȳ is singular and
    # rank(Σ_X2ȳ) stops at k − 1 even with k <= d2
    data = mixture_sample(random_mixture_spec(k, 4, 9, alpha=0.3, seed=k), 4_000, seed=1)
    syy = empirical_cov(data.y, data.y)
    assert solve_psd(syy, syy)[1]
    beta = _sample_beta(data)
    assert beta.rank == k - 1
    assert beta.degenerate


def test_gaussian_latent_is_not_degenerate():
    data = gaussian_ci_sample(random_gaussian_ci_spec(4, 6, 3, seed=2), 4_000, seed=3)
    syy = empirical_cov(data.y, data.y)
    assert not solve_psd(syy, syy)[1]
    beta = _sample_beta(data)
    assert beta.rank == 3
    assert not beta.degenerate


def _five_blocks_centred_per_call(x1, x2, ybar, center):
    return (
        empirical_cov(x1, x1, center),
        empirical_cov(x1, x2, center),
        empirical_cov(x1, ybar, center),
        empirical_cov(ybar, ybar, center),
        empirical_cov(ybar, x2, center),
    )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * abs(b)


@pytest.mark.parametrize("center", [True])
def test_eps_ci_linear_from_data_matches_per_call_centring(center):
    spec = random_mixture_spec(5, 6, 4, alpha=0.4, seed=16)
    data = mixture_sample(spec, 3_000, seed=17)
    oracle = eps_ci_linear(*_five_blocks_centred_per_call(data.x1, data.x2, data.y, center))
    assert _close(eps_ci_linear_from_data(data.x1, data.x2, data.y), oracle)
