"""End-to-end acceptance checks at the documented scales and tolerances.

Each test pins one headline claim of the library: the closed-form identity
under exact conditional independence, the mixture identity, the figure
reproductions at full experiment scale, the 1/n2 scaling law, the operator
suite, the approximation-error bound, the topic-model verification, the
Bayes-gap bound, the agreement of the precision- and covariance-route
conditional maps, and the exact OLS constant of the 1/n2 law.  Every test
also enforces a wall-time budget.
"""

import time
from collections import defaultdict

import numpy as np
from scipy.stats import spearmanr

from sslci import (
    MixtureSpec,
    ace_fit,
    apx_error_bound_eval,
    bayes_gap_check,
    build_operator_t,
    closed_form_f_gaussian,
    closed_form_psi_gaussian,
    closed_form_psi_mixture,
    discrete_joint_random,
    eps_ci_tilde,
    gaussian_ci_population,
    optimal_downstream_map,
    random_gaussian_ci_spec,
)
from sslci.config import ExperimentConfig
from sslci.harness import _experiment_rows, _mixture_trial, summarize
from sslci.learn import mixture_two_class_target
from sslci.linalg import CovarianceBlocks, gaussian_conditionals_from_precision
from sslci.models import derive_seed, make_rng


class _Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"took {elapsed:.1f}s, budget {self.seconds}s"


def _means(rows, method):
    by_grid = defaultdict(list)
    for row in rows:
        if row.method == method:
            by_grid[row.grid_value].append(row.mse)
    grid = sorted(by_grid)
    return grid, [float(np.mean(by_grid[g])) for g in grid]


def test_acceptance_1_exact_ci_zero_approximation_error():
    budget = _Budget(5.0)
    rng = make_rng(42)
    for _ in range(50):
        d1 = int(rng.integers(3, 12))
        k = int(rng.integers(1, 5))
        d2 = int(rng.integers(k, 12))  # full column rank of the x2/label block
        spec = random_gaussian_ci_spec(d1, d2, k, seed=int(rng.integers(1 << 30)))
        blocks = gaussian_ci_population(spec)
        f_map = closed_form_f_gaussian(blocks)
        rep = closed_form_psi_gaussian(blocks)
        w_star = optimal_downstream_map(blocks)
        residual = np.linalg.norm(f_map - w_star.T @ rep.b, "fro")
        assert residual <= 1e-8
    budget.check()


def test_acceptance_2_two_class_mixture_identity():
    budget = _Budget(1.0)
    rng = make_rng(43)
    mu1 = rng.uniform(0.0, 10.0, 8)
    mu2 = rng.uniform(0.0, 10.0, 5)
    spec = MixtureSpec(
        centers1=np.vstack([mu1, -mu1]),
        centers2=np.vstack([mu2, -mu2]),
        alpha=0.0,
    )
    points = rng.standard_normal((1000, 8)) * 3.0
    lhs = mixture_two_class_target(spec, points)
    rhs = closed_form_psi_mixture(spec, points) @ mu2 / (mu2 @ mu2)
    assert np.abs(lhs - rhs).max() <= 1e-10
    budget.check()


def test_acceptance_3_figure_reproduction_full_scale():
    budget = _Budget(600.0)

    # (a) mean MSE of the learned representation grows with the number of
    # mixture components
    rows_k = _experiment_rows(ExperimentConfig(experiment="mse-vs-k", seed=0))
    grid_k, means_k = _means(rows_k, "psi")
    assert grid_k == [2.0, 4.0, 8.0, 16.0]
    rho, _ = spearmanr(grid_k, means_k)
    assert rho >= 0.9

    # (b) mean MSE grows as the second view is interpolated toward the first
    rows_a = _experiment_rows(ExperimentConfig(experiment="mse-vs-eps", seed=0))
    grid_a, means_a = _means(rows_a, "psi")
    assert grid_a == [0.0, 0.25, 0.5, 0.75, 1.0]
    rho, _ = spearmanr(grid_a, means_a)
    assert rho >= 0.9

    # (c) the learned representation beats the raw first view at alpha=0
    # for every downstream sample size up to 1000
    config = ExperimentConfig(seed=0)
    for gi, n2 in enumerate((250, 500, 1000)):
        psi_scores, raw_scores = [], []
        for trial in range(config.trials):
            seed = derive_seed(config.seed, 100 + gi, trial)
            scores, _ = _mixture_trial(
                d1=config.d1,
                d2=config.d2,
                k=config.k,
                alpha=0.0,
                n1=config.n1,
                n2=n2,
                eval_n=config.eval_n,
                seed=seed,
            )
            psi_scores.append(scores["psi"])
            raw_scores.append(scores["raw-x1"])
        assert np.mean(psi_scores) < np.mean(raw_scores), f"n2={n2}"

    # (d) the MSE of the population representation E[X2 | X1] also grows
    # with alpha, on the rows of (b)
    grid_a, means_star = _means(rows_a, "psi-star")
    rho, _ = spearmanr(grid_a, means_star)
    assert rho >= 0.9
    budget.check()


def test_acceptance_4_mse_scales_inversely_with_n2():
    budget = _Budget(300.0)
    rows = _experiment_rows(ExperimentConfig(experiment="mse-vs-n2", seed=0))
    grid, means = _means(rows, "psi-star")
    assert grid == [250.0, 500.0, 1000.0, 2000.0]
    for smaller, larger in zip(means, means[1:]):
        ratio = smaller / larger
        assert 1.6 <= ratio <= 2.5, f"doubling ratio {ratio}"
    budget.check()


def test_acceptance_5_operator_suite():
    budget = _Budget(30.0)
    rng = make_rng(44)
    for index in range(200):
        n1 = int(rng.integers(3, 13))
        n2 = int(rng.integers(3, 13))
        ny = int(rng.integers(2, min(4, min(n1, n2)) + 1))
        ci = index % 2 == 0
        joint = discrete_joint_random(
            (n1, n2, ny), seed=int(rng.integers(1 << 30)), ci_with_y=ci
        )
        u, svals, vt = np.linalg.svd(build_operator_t(joint))
        assert abs(svals[0] - 1.0) <= 1e-10
        assert np.abs(np.abs(u[:, 0]) - np.sqrt(joint.marginal_x1())).max() <= 1e-8
        assert np.abs(np.abs(vt[0]) - np.sqrt(joint.marginal_x2())).max() <= 1e-8
        if ci:
            # the kernel factors through the label, so rank is at most ny
            assert svals[ny:].max(initial=0.0) <= 1e-8
            assert eps_ci_tilde(joint) <= 1e-8
        k = min(3, min(n1, n2) - 1)
        solution = ace_fit(joint, k=k)
        assert np.abs(solution.sigmas - svals[1 : k + 1]).max() <= 1e-8
        p12 = joint.p_x1x2()
        diff = solution.psi[:, None, :] - solution.eta[None, :, :]
        l_ace = float((p12[:, :, None] * diff**2).sum())
        l_cca = float(np.einsum("ab,ak,bk->", p12, solution.psi, solution.eta))
        assert abs(l_ace - (2.0 * k - 2.0 * l_cca)) <= 1e-10
    budget.check()


def test_acceptance_6_approximation_error_bound():
    budget = _Budget(30.0)
    rng = make_rng(45)
    for _ in range(100):
        n1 = int(rng.integers(4, 9))
        n2 = int(rng.integers(4, 9))
        ny = int(rng.integers(2, 4))
        joint = discrete_joint_random((n1, n2, ny), seed=int(rng.integers(1 << 30)))
        k = min(3, min(n1, n2) - 1)
        solution = ace_fit(joint, k=k)
        for g_choice in ("pinv_of_A", "bayes_indicator"):
            bound, actual = apx_error_bound_eval(solution, joint, g_choice)
            assert 0.0 <= actual <= bound + 1e-8
    # exact conditional independence with k = |Y| pairs: zero achieved error
    for seed in range(10):
        joint = discrete_joint_random((6, 7, 3), seed=seed, ci_with_y=True)
        solution = ace_fit(joint, k=3)
        _, actual = apx_error_bound_eval(solution, joint, "pinv_of_A")
        assert actual <= 1e-8
    budget.check()


def test_acceptance_7_topic_model_verification():
    from sslci import random_topic_spec, verify_latent_construction

    budget = _Budget(120.0)
    rng = make_rng(46)
    for _ in range(20):
        vocab = int(rng.integers(3, 7))
        topics = int(rng.integers(1, 4))
        atoms = int(rng.integers(2, 5))
        doc_len = int(rng.choice([4, 6]))
        spec = random_topic_spec(
            vocab, topics, atoms, doc_len, seed=int(rng.integers(1 << 30))
        )
        report = verify_latent_construction(spec)
        assert report.eps_ci <= 1e-10
        assert report.linearity_gap <= 1e-10
        assert report.beta_inv <= report.beta_bound + 1e-12
        assert report.passed
    budget.check()


def test_acceptance_8_bayes_gap_bound():
    budget = _Budget(10.0)
    rng = make_rng(47)
    for _ in range(200):
        n1 = int(rng.integers(2, 9))
        n2 = int(rng.integers(2, 9))
        ny = int(rng.integers(2, 5))
        joint = discrete_joint_random((n1, n2, ny), seed=int(rng.integers(1 << 30)))
        lhs, rhs = bayes_gap_check(joint)
        assert lhs <= rhs + 1e-12
    budget.check()


def test_acceptance_9_precision_vs_covariance_routes():
    budget = _Budget(5.0)
    rng = make_rng(48)
    for _ in range(100):
        d1 = int(rng.integers(2, 7))
        d2 = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        g = rng.standard_normal((d1 + d2 + k, d1 + d2 + k))
        sigma = g @ g.T + 0.5 * np.eye(d1 + d2 + k)
        s11 = sigma[:d1, :d1]
        s12 = sigma[:d1, d1 : d1 + d2]
        s1y = sigma[:d1, d1 + d2 :]
        s22 = sigma[d1 : d1 + d2, d1 : d1 + d2]
        s2y = sigma[d1 : d1 + d2, d1 + d2 :]
        syy = sigma[d1 + d2 :, d1 + d2 :]
        cov_blocks = CovarianceBlocks(
            sigma_x1x1=s11,
            sigma_x1x2=s12,
            sigma_x1y=s1y,
            sigma_x2x2=s22,
            sigma_x2y=s2y,
            sigma_yy=syy,
        )
        map_21, map_y_x, map_y_x1 = gaussian_conditionals_from_precision(cov_blocks)
        # covariance-route oracles
        oracle_21 = s12.T @ np.linalg.inv(s11)
        sxx = sigma[: d1 + d2, : d1 + d2]
        sxy = sigma[: d1 + d2, d1 + d2 :]
        oracle_y_x = sxy.T @ np.linalg.inv(sxx)
        oracle_y_x1 = s1y.T @ np.linalg.inv(s11)
        assert np.abs(map_21 - oracle_21).max() <= 1e-8
        assert np.abs(map_y_x - oracle_y_x).max() <= 1e-8
        assert np.abs(map_y_x1 - oracle_y_x1).max() <= 1e-8
    budget.check()


def test_acceptance_10_n2_law_has_the_exact_ols_constant():
    # ψ* has rank k and the label noise is Gaussian and independent of x1, so
    # the ψ* head is k-feature OLS with risk tr(Σ_{Y|X1})·k/(n2 − k − 1).  ψ̂
    # has rank min(d1, d2), so the same formula with that many features bounds
    # its risk from below.
    budget = _Budget(300.0)
    config = ExperimentConfig(experiment="mse-vs-n2", seed=0)
    rows = _experiment_rows(config)
    summary = {(g, m): (mean, se) for _, g, m, mean, se in summarize(rows)}
    features = {"psi-star": config.k, "psi": min(config.d1, config.d2)}
    for gi, n2 in enumerate(config.n2_grid):
        traces = []
        for trial in range(config.trials):
            spec_seed = derive_seed(derive_seed(config.seed, gi, trial), 11)
            spec = random_gaussian_ci_spec(config.d1, config.d2, config.k, spec_seed)
            b = gaussian_ci_population(spec)
            explained = b.sigma_x1y.T @ np.linalg.solve(b.sigma_x1x1, b.sigma_x1y)
            traces.append(np.trace(b.sigma_yy - explained))
        predicted = {m: np.mean(traces) * p / (n2 - p - 1) for m, p in features.items()}
        mean, se = summary[(float(n2), "psi-star")]
        assert abs(mean - predicted["psi-star"]) <= 3 * se, f"n2={n2}"
        mean, se = summary[(float(n2), "psi")]
        assert mean >= predicted["psi"] - 3 * se, f"n2={n2}"
    budget.check()
