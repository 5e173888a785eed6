"""The finite-support layer against direct summation over the joint tensor.

``DiscreteJoint`` sums its marginals once; every function of the layer
reads them.  The oracles here recompute each quantity from the tensor
alone, summing it afresh for every marginal they need.
"""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sslci import (
    DiscreteJoint,
    ace_fit,
    ace_objective_identity_check,
    apx_error_bound_eval,
    bayes_gap_check,
    build_operator_l,
    build_operator_t,
    discrete_joint_random,
    eps_ci_tilde,
    eps_ci_universal,
    eps_y_bar,
    maximal_correlation,
)
from sslci.linalg import pinv
from sslci.operators import ACE_TOL

SIZES = [(3, 2, 2), (4, 5, 3), (6, 7, 2), (8, 7, 3), (12, 11, 3)]
JOINTS = [
    (sizes, seed, ci)
    for sizes in SIZES
    for seed in range(4)
    for ci in (False, True)
]
RTOL, ATOL = 1e-13, 1e-15
# eps_ci_tilde's accuracy contract is absolute: within C·ε of the exact value
# (ε the machine epsilon; σ₁ of the weighted kernel is 1).  Near CI the
# weighted W = T − L is a cancellation, so no route keeps relative accuracy.
EPS_CI_TILDE_C = 16
EPS_CI_TILDE_ATOL = EPS_CI_TILDE_C * np.finfo(np.float64).eps


def _pickled(joint):
    return pickle.loads(pickle.dumps(joint))


def _close(value, oracle) -> bool:
    value, oracle = np.asarray(value), np.asarray(oracle)
    return bool((np.abs(value - oracle) <= RTOL * np.abs(oracle) + ATOL).all())


def _oracle_t(p):
    p12 = p.sum(axis=2)
    d1, d2 = p12.sum(axis=1), p12.sum(axis=0)
    return p12 / np.outer(d1, d2), d1, d2


def _oracle_l(p):
    py = p.sum(axis=(0, 1))
    px1_y = p.sum(axis=1) / py[None, :]
    px2_y = p.sum(axis=0) / py[None, :]
    num = (px1_y * py[None, :]) @ px2_y.T
    return num / np.outer(p.sum(axis=(1, 2)), p.sum(axis=(0, 2)))


def _oracle_eps_ci_tilde(p):
    t, d1, d2 = _oracle_t(p)
    diff = np.sqrt(d1)[:, None] * (t - _oracle_l(p)) * np.sqrt(d2)[None, :]
    return np.linalg.svd(diff, compute_uv=False)[0]


def _exact_eps_ci_tilde(p):
    # N = p(x1, x2) − Σ_y p(x1, y) p(x2, y) / p(y) and Nᵀ D1⁻¹ N are exact in
    # Fractions of the float tensor; WᵀW = D2^{-1/2} Nᵀ D1⁻¹ N D2^{-1/2} then
    # takes a few roundings per entry, far below the contract.  Small joints only.
    f = np.vectorize(Fraction, otypes=[object])(p)
    p12, p1y, p2y = f.sum(axis=2), f.sum(axis=1), f.sum(axis=0)
    n = p12 - (p1y / p1y.sum(axis=0)) @ p2y.T
    gram = np.array(n.T @ (n / p12.sum(axis=1)[:, None]), dtype=np.float64)
    s = 1.0 / np.sqrt(np.array(p12.sum(axis=0), dtype=np.float64))
    return float(np.sqrt(max(np.linalg.eigvalsh(s[:, None] * gram * s)[-1], 0.0)))


def _dirichlet_joint(n1, n2, ny, concentration, seed):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.full(n1 * n2 * ny, concentration)).reshape(n1, n2, ny)


def _oracle_gap(p):
    # axes (x1, target, latent)
    p1 = p.sum(axis=(1, 2))
    py = p.sum(axis=(0, 1))
    cond_t_x1 = p.sum(axis=2) / p1[:, None]
    alt = (p.sum(axis=1) / p1[:, None]) @ (p.sum(axis=0) / py[None, :]).T
    return np.sqrt((p1 * ((cond_t_x1 - alt) ** 2).sum(axis=1)).sum())


def _oracle_bayes_gap(p):
    p12 = p.sum(axis=2)
    p1 = p12.sum(axis=1)
    py_x1 = p.sum(axis=1) / p1[:, None]
    py_x1x2 = p / p12[:, :, None]
    lhs = (p12 * ((py_x1[:, None, :] - py_x1x2) ** 2).sum(axis=2)).sum()
    rhs = 2.0 * p.shape[2] * (p1 * (1.0 - py_x1.max(axis=1))).sum()
    return lhs, rhs


def _oracle_apx(solution, p, g_choice):
    p1, p2, py = p.sum(axis=(1, 2)), p.sum(axis=(0, 2)), p.sum(axis=(0, 1))
    f_star = p.sum(axis=1) / p1[:, None]
    if g_choice == "pinv_of_A":
        g = pinv((p.sum(axis=0) / py[None, :]).T)
    else:
        g = np.eye(py.size)[(p.sum(axis=0) / p2[:, None]).argmax(axis=1)]
    weighted_g = p2[:, None] * g
    l_g = _oracle_l(p) @ weighted_g
    t_k_g = np.ones((p1.size, 1)) * (p2 @ g)[None, :] + solution.psi @ (
        solution.sigmas[:, None] * (solution.eta.T @ weighted_g)
    )
    bound = 2.0 * (
        (p1[:, None] * (t_k_g - l_g) ** 2).sum()
        + (p1[:, None] * (l_g - f_star) ** 2).sum()
    )
    features = np.concatenate([np.ones((p1.size, 1)), solution.psi], axis=1)
    sw = np.sqrt(p1)[:, None]
    w, *_ = np.linalg.lstsq(sw * features, sw * f_star, rcond=None)
    return bound, ((sw * (features @ w - f_star)) ** 2).sum()


@pytest.mark.parametrize("sizes, seed, ci", JOINTS)
def test_finite_support_layer_matches_direct_summation(sizes, seed, ci):
    joint = discrete_joint_random(sizes, seed, ci_with_y=ci)
    p = joint.p
    _, d1, d2 = _oracle_t(p)
    l_matrix = np.sqrt(d1)[:, None] * _oracle_l(p) * np.sqrt(d2)  # bases 1ₓ/√p(x)
    assert _close(build_operator_l(joint), l_matrix)
    assert _close(eps_ci_tilde(joint), _oracle_eps_ci_tilde(p))
    assert _close(eps_ci_universal(joint), _oracle_gap(p))
    assert _close(eps_y_bar(joint), _oracle_gap(p.transpose(0, 2, 1)))
    assert _close(bayes_gap_check(joint), _oracle_bayes_gap(p))
    solution = ace_fit(joint, k=min(3, min(sizes[:2]) - 1))
    for g_choice in ("pinv_of_A", "bayes_indicator"):
        assert _close(
            apx_error_bound_eval(solution, joint, g_choice),
            _oracle_apx(solution, p, g_choice),
        )


@settings(max_examples=200, deadline=None)
@given(
    n1=st.integers(3, 24),
    n2=st.integers(3, 24),
    ny=st.integers(2, 4),
    concentration=st.sampled_from([1.0, 0.1, 0.02]),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
# the non-max label mass of one x1 row is 1e-24 of the row: rhs of the Bayes
# gap must not be computed as 1 − max, which rounds it to 0 below lhs
@example(n1=3, n2=3, ny=2, concentration=0.02, k=1, seed=1347423462)
# a whole x1 row underflows to 0
@example(n1=3, n2=3, ny=2, concentration=0.02, k=1, seed=792239)
# near CI, eps_ci_tilde = 5.1e-9 is a cancellation: relative error 2e-9
@example(n1=3, n2=3, ny=4, concentration=0.02, k=1, seed=8)
def test_finite_support_layer_on_dirichlet_joints(n1, n2, ny, concentration, k, seed):
    # small concentrations give sparse joints with marginals spread over
    # many orders of magnitude
    k = min(k, min(n1, n2) - 1)
    p = _dirichlet_joint(n1, n2, ny, concentration, seed)
    assume(p.sum(axis=(1, 2)).min() > 0 and p.sum(axis=(0, 2)).min() > 0)
    joint = DiscreteJoint(p=p)
    svals = np.linalg.svd(build_operator_t(joint), compute_uv=False)
    solution = ace_fit(joint, k=k)
    assert np.abs(solution.sigmas - svals[1 : k + 1]).max() <= 1e-8
    ace_objective_identity_check(solution, joint)
    actual_oracle = _oracle_apx(solution, joint.p, "pinv_of_A")[1]
    for g_choice in ("pinv_of_A", "bayes_indicator"):
        bound, actual = apx_error_bound_eval(solution, joint, g_choice)
        assert actual <= bound + 1e-8
        assert _close(actual, actual_oracle)
    oracle = _oracle_eps_ci_tilde(joint.p)
    assert abs(eps_ci_tilde(joint) - oracle) <= 1e-12 * oracle + EPS_CI_TILDE_ATOL
    lhs, rhs = bayes_gap_check(joint)
    assert lhs <= rhs


@pytest.mark.parametrize("seed", [8, 43, 61, 108])
def test_eps_ci_tilde_within_its_absolute_contract_of_the_exact_value(seed):
    # 3×3×4 Dirichlet(0.02) draws where eps_ci_tilde misses 1e-12 relative
    joint = DiscreteJoint(p=_dirichlet_joint(3, 3, 4, 0.02, seed))
    exact = _exact_eps_ci_tilde(joint.p)
    assert abs(eps_ci_tilde(joint) - exact) <= EPS_CI_TILDE_ATOL
    assert abs(_oracle_eps_ci_tilde(joint.p) - exact) <= EPS_CI_TILDE_ATOL


def _sin_max_angle(basis: np.ndarray, q: np.ndarray) -> float:
    """Sine of the largest principal angle between two orthonormal bases."""
    return float(np.linalg.norm(q - basis @ (basis.T @ q), 2))


@settings(max_examples=200, deadline=None)
@given(
    n1=st.integers(3, 24),
    n2=st.integers(3, 24),
    ny=st.integers(2, 4),
    concentration=st.sampled_from([1.0, 0.1, 0.02]),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_singular_values_and_subspaces_on_dirichlet_joints(
    n1, n2, ny, concentration, k, seed
):
    # every maximal correlation against the dense SVD, and ψ/η against the
    # singular vectors of the deflated kernel M: by Wedin's theorem the sine
    # of the largest principal angle is at most residual / (σ_k − σ_{k+1}).
    # The reference deflates too, because σ₁ can sit within 1e-8 of the
    # constant pair's 1, where the SVD of the full kernel mixes the two.
    k = min(k, min(n1, n2) - 1)
    p = _dirichlet_joint(n1, n2, ny, concentration, seed)
    # at concentration 0.02 a whole row can underflow to zero
    assume(p.sum(axis=(1, 2)).min() > 0 and p.sum(axis=(0, 2)).min() > 0)
    joint = DiscreteJoint(p=p)
    w = build_operator_t(joint)
    svals = np.linalg.svd(w, compute_uv=False)
    for j in range(1, min(n1, n2)):
        value = maximal_correlation(joint, j)
        assert 0.0 <= value <= 1.0
        assert abs(value - svals[j]) <= 1e-10, j
    solution = ace_fit(joint, k=k)
    root1 = np.sqrt(joint.marginal_x1())[:, None]
    root2 = np.sqrt(joint.marginal_x2())[:, None]
    psi_w, eta_w = solution.psi * root1, solution.eta * root2
    m_def = w - root1 @ root2.T
    residual = max(
        np.linalg.norm(m_def @ eta_w - psi_w * solution.sigmas, axis=0).max(),
        np.linalg.norm(m_def.T @ psi_w - eta_w * solution.sigmas, axis=0).max(),
    )
    assert solution.converged
    assert solution.residual < ACE_TOL
    assert abs(residual - solution.residual) < 1e-14
    u, s, vt = np.linalg.svd(m_def, full_matrices=False)
    bound = 10.0 * (ACE_TOL + 1e-15)
    assert _sin_max_angle(u[:, :k], psi_w) * (s[k - 1] - s[k]) < bound
    assert _sin_max_angle(vt[:k].T, eta_w) * (s[k - 1] - s[k]) < bound


@pytest.mark.parametrize(
    "fn",
    [eps_y_bar, bayes_gap_check, eps_ci_tilde, lambda joint: joint.marginal_y()],
    ids=["eps_y_bar", "bayes_gap_check", "eps_ci_tilde", "marginal_y"],
)
def test_two_axis_joint_has_no_label(fn):
    with pytest.raises(ValueError):
        fn(discrete_joint_random((3, 4), seed=1))


@pytest.mark.parametrize(
    "copy_joint", [lambda j: j, copy.deepcopy, _pickled], ids=["same", "deepcopy", "pickle"]
)
@pytest.mark.parametrize("sizes", [(4, 5), (4, 5, 3)])
def test_stored_marginals_are_read_only(sizes, copy_joint):
    joint = copy_joint(discrete_joint_random(sizes, seed=2))
    accessors = [lambda: joint.p, joint.marginal_x1, joint.marginal_x2]
    if len(sizes) == 3:
        accessors += [joint.marginal_y, joint.marginal_x1y, joint.marginal_x2y]
    for accessor in accessors:
        before = accessor().copy()
        with pytest.raises(ValueError):
            accessor()[0] = 0.0
        assert np.array_equal(accessor(), before)


def test_marginals_are_the_sums_of_the_tensor():
    joint = discrete_joint_random((5, 4, 3), seed=3)
    p = joint.p
    assert np.allclose(joint.marginal_x1(), p.sum(axis=(1, 2)), rtol=0, atol=1e-16)
    assert np.allclose(joint.marginal_x2(), p.sum(axis=(0, 2)), rtol=0, atol=1e-16)
    assert np.allclose(joint.marginal_y(), p.sum(axis=(0, 1)), rtol=0, atol=1e-16)
    assert np.array_equal(joint.marginal_x1y(), p.sum(axis=1))
    assert np.array_equal(joint.marginal_x2y(), p.sum(axis=0))
    assert joint.marginal_x1() is joint.marginal_x1()
