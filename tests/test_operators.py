"""Density-ratio operators, the alternating solver, and the error bound."""

import dataclasses
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest

from sslci import (
    DiscreteJoint,
    ace_fit,
    ace_objective_identity_check,
    apx_error_bound_eval,
    build_operator_l,
    build_operator_t,
    discrete_joint_random,
    eps_ci_tilde,
    maximal_correlation,
)
from sslci import operators
from sslci.linalg import pinv
from sslci.models import make_rng
from sslci.operators import ACE_TOL


def _product_joint(d1: int, d2: int, seed: int) -> DiscreteJoint:
    rng = make_rng(seed, 33)
    p1 = rng.uniform(0.1, 1.0, d1)
    p2 = rng.uniform(0.1, 1.0, d2)
    p1 /= p1.sum()
    p2 /= p2.sum()
    return DiscreteJoint(p=np.outer(p1, p2))


def _joint_with_an_empty_label_class() -> DiscreteJoint:
    p = discrete_joint_random((4, 3, 3), seed=1).p.copy()
    p[:, :, 1] = 0.0
    return DiscreteJoint(p=p / p.sum())


def _bsc_joint(q: float) -> DiscreteJoint:
    # uniform bit through a binary symmetric channel with flip probability q
    p = np.array([[1 - q, q], [q, 1 - q]]) / 2.0
    return DiscreteJoint(p=p)


# ---------------------------------------------------------------------------
# operator construction


def test_operator_t_row_sums():
    # E[1 | X1] = 1: in the bases 1ₓ/√p(x) the constant is √p, so W @ √p2 = √p1
    for seed in range(5):
        joint = discrete_joint_random((4, 5), seed=seed)
        w = build_operator_t(joint)
        root1, root2 = np.sqrt(joint.marginal_x1()), np.sqrt(joint.marginal_x2())
        assert np.abs(w @ root2 - root1).max() < 1e-12
        assert np.abs(w.T @ root1 - root2).max() < 1e-12


def test_operator_t_entrywise_oracle():
    joint = discrete_joint_random((3, 4), seed=1)
    w = build_operator_t(joint)
    p = joint.p
    for s1 in range(3):
        for s2 in range(4):
            ratio = p[s1, s2] / np.sqrt(p[s1].sum() * p[:, s2].sum())
            assert w[s1, s2] == pytest.approx(ratio, abs=1e-14)


def test_operator_t_product_joint_all_ones():
    # t = 1, so W = √p1 √p2ᵀ
    joint = _product_joint(4, 6, seed=2)
    root1, root2 = np.sqrt(joint.marginal_x1()), np.sqrt(joint.marginal_x2())
    assert np.abs(build_operator_t(joint) - np.outer(root1, root2)).max() < 1e-12


def test_operator_t_permutation_joint_spectrum():
    # X2 a permutation of X1 (uniform): t = m·P and W = P, every singular value one
    m = 5
    perm = np.roll(np.eye(m), 2, axis=1)
    joint = DiscreteJoint(p=perm / m)
    w = build_operator_t(joint)
    assert np.allclose(w, perm)
    svals = np.linalg.svd(w, compute_uv=False)
    assert np.abs(svals - 1.0).max() < 1e-12


def test_operator_apply_matches_direct_conditional_mean():
    # E[g(X2) | X1] = (W @ (√p2·g)) / √p1
    joint = discrete_joint_random((4, 5), seed=3)
    w = build_operator_t(joint)
    rng = make_rng(4)
    g = rng.standard_normal(5)
    p12 = joint.p_x1x2()
    oracle = (p12 * g[None, :]).sum(axis=1) / p12.sum(axis=1)
    root1, root2 = np.sqrt(joint.marginal_x1()), np.sqrt(joint.marginal_x2())
    assert np.abs(w @ (root2 * g) / root1 - oracle).max() < 1e-12


def test_weighted_top_singular_pair_is_constant():
    for seed in range(5):
        joint = discrete_joint_random((5, 6), seed=seed)
        u, s, vt = np.linalg.svd(build_operator_t(joint))
        assert s[0] == pytest.approx(1.0, abs=1e-12)
        assert s[1] < 1.0 - 1e-8
        # the top pair spans the square-root marginals
        assert np.abs(np.abs(u[:, 0]) - np.sqrt(joint.marginal_x1())).max() < 1e-10
        assert np.abs(np.abs(vt[0]) - np.sqrt(joint.marginal_x2())).max() < 1e-10


def test_operator_l_rank_and_ci_equality():
    joint = discrete_joint_random((6, 7, 2), seed=5)
    l_kernel = build_operator_l(joint)
    assert np.linalg.matrix_rank(l_kernel, tol=1e-10) <= 2
    ci = discrete_joint_random((6, 7, 2), seed=6, ci_with_y=True)
    assert np.abs(build_operator_l(ci) - build_operator_t(ci)).max() < 1e-10


def test_operator_l_entrywise_oracle():
    joint = discrete_joint_random((3, 4, 2), seed=7)
    l_kernel = build_operator_l(joint)
    p = joint.p
    p1 = p.sum(axis=(1, 2))
    p2 = p.sum(axis=(0, 2))
    py = p.sum(axis=(0, 1))
    for s1 in range(3):
        for s2 in range(4):
            num = sum(
                (p[s1, :, s].sum() / py[s]) * (p[:, s2, s].sum() / py[s]) * py[s]
                for s in range(2)
            )
            assert l_kernel[s1, s2] == pytest.approx(
                num / np.sqrt(p1[s1] * p2[s2]), abs=1e-12
            )


def test_operator_l_requires_label():
    with pytest.raises(ValueError):
        build_operator_l(discrete_joint_random((3, 3), seed=8))


# ---------------------------------------------------------------------------
# eps_ci_tilde


def test_eps_ci_tilde_zero_under_ci():
    for seed in range(10):
        joint = discrete_joint_random((4, 5, 3), seed=seed, ci_with_y=True)
        assert eps_ci_tilde(joint) <= 1e-10


def test_eps_ci_tilde_positive_generic_and_monotone():
    ci = discrete_joint_random((3, 3, 2), seed=9, ci_with_y=True)
    base = ci.p.copy()
    delta = np.zeros_like(base)
    delta[0, 0, 0] += 1.0
    delta[1, 1, 0] += 1.0
    delta[0, 1, 0] -= 1.0
    delta[1, 0, 0] -= 1.0
    values = []
    for t in (0.0, 0.005, 0.01):
        p = base + t * delta * base.min()
        values.append(eps_ci_tilde(DiscreteJoint(p=p / p.sum())))
    assert values[0] <= 1e-10
    assert values[0] < values[1] < values[2]


@pytest.mark.parametrize("sizes", [(150, 90, 3), (90, 150, 3)])
def test_eps_ci_tilde_matches_the_dense_top_singular_value(sizes):
    # both orientations of the Gram matrix: WᵀW and WWᵀ
    joint = discrete_joint_random(sizes, seed=sum(sizes))
    w = build_operator_t(joint) - build_operator_l(joint)
    dense = np.linalg.svd(w, compute_uv=False)[0]
    assert eps_ci_tilde(joint) == pytest.approx(dense, rel=1e-13)


def test_eps_ci_tilde_stays_at_rounding_level_on_a_larger_ci_joint():
    joint = discrete_joint_random((60, 60, 4), seed=12, ci_with_y=True)
    assert 0.0 <= eps_ci_tilde(joint) <= 1e-10


# ---------------------------------------------------------------------------
# alternating solver


def test_ace_fit_matches_dense_svd():
    for seed in range(10):
        joint = discrete_joint_random((6, 7), seed=seed)
        svals = np.linalg.svd(build_operator_t(joint), compute_uv=False)
        sol = ace_fit(joint, k=3)
        assert sol.converged
        assert np.abs(sol.sigmas - svals[1:4]).max() < 1e-8


def _sin_max_angle(basis: np.ndarray, q: np.ndarray) -> float:
    """Sine of the largest principal angle between two orthonormal bases."""
    return float(np.linalg.norm(q - basis @ (basis.T @ q), 2))


@pytest.mark.parametrize(
    "sizes, seeds", [((12, 11, 3), range(100)), ((200, 200, 3), range(2))]
)
def test_ace_fit_spans_the_dense_singular_subspaces(sizes, seeds):
    # ψ/η against the dense-SVD singular vectors of the weighted kernel: by
    # Wedin's theorem the angle is at most residual / (σ_k − σ_{k+1})
    k = 3
    for seed in seeds:
        joint = discrete_joint_random(sizes, seed=seed)
        w = build_operator_t(joint)
        u, s, vt = np.linalg.svd(w, full_matrices=False)
        sol = ace_fit(joint, k=k)
        root1 = np.sqrt(joint.marginal_x1())[:, None]
        root2 = np.sqrt(joint.marginal_x2())[:, None]
        psi_w, eta_w = sol.psi * root1, sol.eta * root2
        m_def = w - root1 @ root2.T
        residual = max(
            np.linalg.norm(m_def @ eta_w - psi_w * sol.sigmas, axis=0).max(),
            np.linalg.norm(m_def.T @ psi_w - eta_w * sol.sigmas, axis=0).max(),
        )
        assert sol.converged
        assert sol.residual < ACE_TOL
        assert abs(residual - sol.residual) < 1e-14
        tol = 10.0 * (ACE_TOL + 1e-15) / (s[k] - s[k + 1])
        assert _sin_max_angle(u[:, 1 : k + 1], psi_w) < tol, seed
        assert _sin_max_angle(vt[1 : k + 1].T, eta_w) < tol, seed


def test_ace_fit_orthonormal_in_weighted_geometry():
    joint = discrete_joint_random((5, 5), seed=10)
    d1, d2 = joint.marginal_x1(), joint.marginal_x2()
    sol = ace_fit(joint, k=2)
    gram_psi = sol.psi.T @ (sol.psi * d1[:, None])
    gram_eta = sol.eta.T @ (sol.eta * d2[:, None])
    assert np.abs(gram_psi - np.eye(2)).max() < 1e-8
    assert np.abs(gram_eta - np.eye(2)).max() < 1e-8
    # nonconstant: orthogonal to the constant function under each marginal
    assert np.abs(d1 @ sol.psi).max() < 1e-8
    assert np.abs(d2 @ sol.eta).max() < 1e-8


def test_ace_fit_product_joint_zero_sigma():
    sol = ace_fit(_product_joint(4, 4, seed=11), k=1)
    assert abs(sol.sigmas[0]) < 1e-10


def test_ace_fit_deterministic():
    joint = discrete_joint_random((6, 6), seed=12)
    a = ace_fit(joint, k=2)
    b = ace_fit(joint, k=2)
    assert np.array_equal(a.psi, b.psi)
    assert np.array_equal(a.eta, b.eta)
    assert np.array_equal(a.sigmas, b.sigmas)


@pytest.mark.parametrize("seed", range(20))
def test_ace_fit_psi_columns_have_a_positive_first_entry(seed):
    # the sign convention: the first entry above 1e-12·max of each ψ column is > 0
    psi = ace_fit(discrete_joint_random((9, 8, 3), seed=seed), k=3).psi
    for col in psi.T:
        first = col[np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]]
        assert first > 0


def test_ace_fit_k_out_of_range():
    joint = discrete_joint_random((3, 3), seed=13)
    with pytest.raises(ValueError):
        ace_fit(joint, k=3)
    with pytest.raises(ValueError):
        ace_fit(joint, k=0)


def test_ace_sigma_reproduces_correlation():
    # sigma_i = E[psi_i(X1) eta_i(X2)] by direct summation
    joint = discrete_joint_random((5, 6), seed=14)
    sol = ace_fit(joint, k=2)
    p12 = joint.p_x1x2()
    for i in range(2):
        corr = float(sol.psi[:, i] @ p12 @ sol.eta[:, i])
        assert corr == pytest.approx(sol.sigmas[i], abs=1e-8)


# ---------------------------------------------------------------------------
# maximal correlation


def test_maximal_correlation_bsc():
    for q in (0.0, 0.1, 0.3, 0.5, 0.7, 1.0):
        assert maximal_correlation(_bsc_joint(q), k=1) == pytest.approx(
            abs(1 - 2 * q), abs=1e-12
        )


def test_maximal_correlation_independent_views():
    assert maximal_correlation(_product_joint(3, 4, seed=15), k=1) < 1e-10


def test_maximal_correlation_range_and_monotone():
    joint = discrete_joint_random((6, 6), seed=16)
    values = [maximal_correlation(joint, k=k) for k in range(1, 6)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_unconverged_engine_is_reported(monkeypatch):
    # plain ACE needs more than 100 sweeps on this joint, so one block step
    # cannot reach ACE_TOL
    joint = discrete_joint_random((200, 200, 3), seed=0)
    monkeypatch.setattr(operators, "ACE_MAX_ITERS", 1)
    sol = ace_fit(joint, k=3)
    assert not sol.converged
    assert sol.iterations == 1
    assert np.isfinite(sol.residual) and sol.residual >= ACE_TOL
    with pytest.raises(np.linalg.LinAlgError):
        maximal_correlation(joint, k=3)


def test_maximal_correlation_k_out_of_range():
    joint = discrete_joint_random((3, 3), seed=17)
    with pytest.raises(ValueError):
        maximal_correlation(joint, k=3)


def _bound_call(g_choice: str):
    # the solution is fitted here, at collection, before the operator is patched
    joint = discrete_joint_random((4, 3, 2), seed=1)
    return partial(apx_error_bound_eval, ace_fit(joint, k=2), joint, g_choice)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ace_fit(discrete_joint_random((4, 3, 2), seed=1), k=3),
        lambda: maximal_correlation(discrete_joint_random((4, 3, 2), seed=1), k=3),
        lambda: eps_ci_tilde(discrete_joint_random((4, 3), seed=1)),
        lambda: eps_ci_tilde(_joint_with_an_empty_label_class()),
        _bound_call("nonsense"),
    ],
    ids=[
        "ace_fit-k",
        "maximal_correlation-k",
        "eps_ci_tilde-no-label",
        "eps_ci_tilde-empty-label-class",
        "apx_error_bound_eval-g_choice",
    ],
)
def test_invalid_calls_raise_before_building_the_operator(call, monkeypatch):
    def fail(joint):
        raise AssertionError("build_operator_t ran before validation")

    monkeypatch.setattr("sslci.operators.build_operator_t", fail)
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [eps_ci_tilde, lambda joint: ace_fit(joint, k=3)],
    ids=["eps_ci_tilde", "ace_fit"],
)
def test_kernel_calls_hold_at_most_two_and_a_half_kernel_sized_arrays(call):
    # the matrix of T and one product or Gram matrix beside it, not a copy of t
    joint = discrete_joint_random((400, 400, 3), seed=1)
    tracemalloc.start()
    try:
        call(joint)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 400 * 400 * 8


# ---------------------------------------------------------------------------
# objective identity


def test_objective_identity_random_joints():
    for seed in range(10):
        joint = discrete_joint_random((5, 6), seed=seed)
        sol = ace_fit(joint, k=2)
        l_ace, l_cca = ace_objective_identity_check(sol, joint)
        assert l_ace == pytest.approx(2 * 2 - 2 * l_cca, abs=1e-10)


def test_objective_identity_product_joint_value():
    # independent views: every correlation is zero, so l_ace = 2k
    joint = _product_joint(4, 4, seed=18)
    sol = ace_fit(joint, k=2)
    l_ace, l_cca = ace_objective_identity_check(sol, joint)
    assert abs(l_cca) < 1e-8
    assert l_ace == pytest.approx(4.0, abs=1e-7)


def test_objective_identity_rejects_infeasible():
    joint = discrete_joint_random((4, 4), seed=19)
    sol = ace_fit(joint, k=2)
    bad = dataclasses.replace(sol, psi=2.0 * sol.psi)
    with pytest.raises(ValueError):
        ace_objective_identity_check(bad, joint)


# ---------------------------------------------------------------------------
# approximation bound


def test_apx_bound_holds_both_witnesses():
    for seed in range(20):
        joint = discrete_joint_random((5, 6, 2), seed=seed)
        sol = ace_fit(joint, k=2)
        for g_choice in ("pinv_of_A", "bayes_indicator"):
            bound, actual = apx_error_bound_eval(sol, joint, g_choice)
            assert 0.0 <= actual <= bound + 1e-8


def test_apx_bound_exact_ci_full_rank():
    # under CI with k = |Y| pairs, the regression achieves zero error
    for seed in range(5):
        joint = discrete_joint_random((5, 6, 3), seed=seed, ci_with_y=True)
        sol = ace_fit(joint, k=3)
        _, actual = apx_error_bound_eval(sol, joint, "pinv_of_A")
        assert actual <= 1e-8


def _bound_through_the_dense_l(solution, joint, g_choice):
    # the bound of apx_error_bound_eval, with L g from the dense |X1|×|X2| kernel
    p1, p2, py = joint.marginal_x1(), joint.marginal_x2(), joint.marginal_y()
    p2y = joint.marginal_x2y()
    f_star = joint.marginal_x1y() / p1[:, None]
    if g_choice == "pinv_of_A":
        g = pinv((p2y / py).T)
    else:
        g = np.eye(py.size)[p2y.argmax(axis=1)]
    weighted_g = p2[:, None] * g
    # L's kernel is its matrix divided by √p(x1) along rows and √p(x2) along columns
    root1, root2 = np.sqrt(p1)[:, None], np.sqrt(p2)[:, None]
    l_g = build_operator_l(joint) @ (root2 * g) / root1
    t_k_g = p2 @ g + solution.psi @ (solution.sigmas[:, None] * (solution.eta.T @ weighted_g))
    return 2.0 * (p1 @ ((t_k_g - l_g) ** 2 + (l_g - f_star) ** 2)).sum()


@pytest.mark.parametrize("g_choice", ["pinv_of_A", "bayes_indicator"])
@pytest.mark.parametrize("ci", [False, True], ids=["generic", "ci"])
@pytest.mark.parametrize("sizes", [(30, 30, 4), (40, 25, 4), (25, 40, 4)])
def test_apx_bound_value_matches_the_dense_label_kernel(sizes, ci, g_choice):
    # k = 2 < |Y| − 1 pairs, so the bound stays well above rounding under CI too
    joint = discrete_joint_random(sizes, seed=sum(sizes), ci_with_y=ci)
    sol = ace_fit(joint, k=2)
    bound, _ = apx_error_bound_eval(sol, joint, g_choice)
    reference = _bound_through_the_dense_l(sol, joint, g_choice)
    assert reference > 1e-6
    assert bound == pytest.approx(reference, rel=1e-12)


def test_apx_bound_rejects_bad_witness_name():
    joint = discrete_joint_random((4, 4, 2), seed=20)
    sol = ace_fit(joint, k=2)
    with pytest.raises(ValueError):
        apx_error_bound_eval(sol, joint, "nonsense")


def test_apx_bound_violation_names_the_witness_and_both_errors(monkeypatch):
    joint = discrete_joint_random((7, 6, 3), seed=4)
    sol = ace_fit(joint, k=2)
    bounds = {g: apx_error_bound_eval(sol, joint, g)[0] for g in ("pinv_of_A", "bayes_indicator")}
    solve = operators._least_squares
    monkeypatch.setattr(operators, "_least_squares", lambda a, b: np.zeros_like(solve(a, b)))
    for g_choice, bound in bounds.items():  # a head of zeros still meets the bound
        assert apx_error_bound_eval(sol, joint, g_choice)[0] == bound
    monkeypatch.setattr(operators, "_least_squares", lambda a, b: solve(a, b) + 1.0)
    for g_choice, bound in bounds.items():
        with pytest.raises(AssertionError) as info:
            apx_error_bound_eval(sol, joint, g_choice)
        pattern = rf"g_choice '{g_choice}': achieved error (\S+) exceeds the bound (\S+)"
        actual, named_bound = map(float, re.fullmatch(pattern, str(info.value)).groups())
        assert named_bound == bound and actual > bound + 1e-8


def test_apx_bound_requires_label():
    for joint in (discrete_joint_random((4, 4), seed=21), _joint_with_an_empty_label_class()):
        sol = ace_fit(joint, k=2)
        for g_choice in ("pinv_of_A", "bayes_indicator"):
            with pytest.raises(ValueError):
                apx_error_bound_eval(sol, joint, g_choice)
