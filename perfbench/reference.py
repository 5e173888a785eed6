"""Independent NumPy reference for the harness experiments the benchmark runs.

Recomputes every (grid value, trial, method) cell of ``results.csv`` for
``mse-vs-k``, ``mse-vs-n2`` and ``ci-report`` from the config alone.  It
follows the harness's documented seeding: a trial's seed is
``derive_seed(master, grid index, trial)`` and the trial draws its model
from sub-seed 11 and its pretext, downstream and evaluation samples from
sub-seeds 1, 2 and 3.  It imports nothing from ``sslci``, so a wrong
number in any layer of the library shows as a mismatch.
"""

from __future__ import annotations

import numpy as np

RANK_TOL = 1e-10


def make_rng(*keys: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(keys))))


def derive_seed(*keys: int) -> int:
    state = np.random.SeedSequence(list(keys)).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


def _lstsq(a, b):
    return np.linalg.lstsq(a, b, rcond=None)[0]


def _mse(target, pred) -> float:
    return float(((target - pred) ** 2).sum(axis=1).mean())


def _cov(a, b):
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    return a.T @ b / a.shape[0]


def _pinv(m):
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    keep = s > RANK_TOL * s[0]
    return (vt[keep].T / s[keep]) @ u[:, keep].T


def _eps_ci(s11, s12, s1y, syy, sy2) -> float:
    """‖Σ11^{-1/2} (Σ12 − Σ1y Σyy^† Σy2)‖_F."""
    cond = s12 - s1y @ (_pinv((syy + syy.T) / 2.0) @ sy2)
    evals, vecs = np.linalg.eigh((s11 + s11.T) / 2.0)
    keep = evals > RANK_TOL * evals.max()
    inv = np.zeros_like(evals)
    inv[keep] = 1.0 / np.sqrt(evals[keep])
    return float(np.linalg.norm((vecs * inv) @ vecs.T @ cond, "fro"))


def _eps_ci_from_data(x1, x2, y) -> float:
    return _eps_ci(_cov(x1, x1), _cov(x1, x2), _cov(x1, y), _cov(y, y), _cov(y, x2))


# -- isotropic Gaussian mixture ------------------------------------------------


def _mixture_spec(k, d1, d2, seed):
    rng = make_rng(seed, 101)
    return rng.uniform(0.0, 10.0, (k, d1)), rng.uniform(0.0, 10.0, (k, d2))


def _mixture_sample(c1, c2, alpha, n, seed):
    rng = make_rng(seed)
    (k, d1), d2 = c1.shape, c2.shape[1]
    labels = rng.integers(0, k, size=n)
    x1 = c1[labels] + rng.standard_normal((n, d1))
    x2_hat = c2[labels] + rng.standard_normal((n, d2))
    x1_fit = x1[:, :d2] if d1 >= d2 else np.pad(x1, ((0, 0), (0, d2 - d1)))
    x2 = (1.0 - alpha) * x2_hat + alpha * x1_fit
    return x1, x2, np.eye(k)[labels]


def _posterior(c1, x):
    logd = np.stack([-0.5 * ((x - c) ** 2).sum(axis=1) for c in c1], axis=1)
    logd -= logd.max(axis=1, keepdims=True)
    post = np.exp(logd)
    return post / post.sum(axis=1, keepdims=True)


def _three_methods(pre, down, ev, target, star):
    """MSE of the learned, raw and population representations."""
    b = _lstsq(pre[0], pre[1])
    fit = _lstsq(down[0] @ b, down[2])
    scores = {"psi": _mse(target, ev[0] @ b @ fit)}
    scores["raw-x1"] = _mse(target, ev[0] @ _lstsq(down[0], down[2]))
    star_fit = _lstsq(star(down[0]), down[2])
    scores["psi-star"] = _mse(target, star(ev[0]) @ star_fit)
    return scores


def mixture_trial(d1, d2, k, alpha, n1, n2, eval_n, seed):
    c1, c2 = _mixture_spec(k, d1, d2, derive_seed(seed, 11))
    pre = _mixture_sample(c1, c2, alpha, n1, derive_seed(seed, 1))
    down = _mixture_sample(c1, c2, alpha, n2, derive_seed(seed, 2))
    ev = _mixture_sample(c1, c2, alpha, eval_n, derive_seed(seed, 3))
    scores = _three_methods(
        pre, down, ev, _posterior(c1, ev[0]), lambda x: _posterior(c1, x) @ c2
    )
    return scores, _eps_ci_from_data(*ev)


# -- linear-Gaussian model with exact conditional independence -----------------


def gaussian_trial(d1, d2, k, n1, n2, eval_n, seed):
    rng = make_rng(derive_seed(seed, 11), 71)
    g = rng.standard_normal((k, k))
    sigma_y = g @ g.T / k + 0.5 * np.eye(k)
    m1 = rng.standard_normal((d1, k))
    m2 = rng.standard_normal((d2, k))
    noise1 = float(rng.uniform(0.5, 1.5))
    noise2 = float(rng.uniform(0.5, 1.5))

    sy = (sigma_y + sigma_y.T) / 2.0
    s11 = m1 @ sy @ m1.T + noise1**2 * np.eye(d1)
    s12 = m1 @ sy @ m2.T
    s1y = m1 @ sy
    s2y = m2 @ sy
    evals, vecs = np.linalg.eigh(sy)
    root = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.T

    def sample(n, sub):
        r = make_rng(derive_seed(seed, sub))
        y = r.standard_normal((n, k)) @ root.T
        x1 = y @ m1.T + noise1 * r.standard_normal((n, d1))
        x2 = y @ m2.T + noise2 * r.standard_normal((n, d2))
        return x1, x2, y

    pre, down, ev = sample(n1, 1), sample(n2, 2), sample(eval_n, 3)
    star_b = np.linalg.solve(s11, s12)
    f_map = np.linalg.solve(s11, s1y)
    scores = _three_methods(pre, down, ev, ev[0] @ f_map, lambda x: x @ star_b)
    return scores, _eps_ci(s11, s12, s1y, sy, s2y.T)


# -- experiment tables ---------------------------------------------------------


def expected_rows(cfg: dict) -> dict:
    """{(grid value, trial, method): (mse, eps_ci, seed)} for one config."""
    exp = cfg["experiment"]
    dims = dict(d1=cfg["d1"], d2=cfg["d2"], n1=cfg["n1"], eval_n=cfg["eval_n"])
    rows = {}
    for gi, value in enumerate(cfg["grid"]):
        for trial in range(cfg["trials"]):
            seed = derive_seed(cfg["seed"], gi, trial)
            if exp == "mse-vs-k":
                scores, eps = mixture_trial(
                    k=value, alpha=cfg["alpha"], n2=cfg["n2"], seed=seed, **dims
                )
            elif exp == "mse-vs-n2":
                scores, eps = gaussian_trial(k=cfg["k"], n2=value, seed=seed, **dims)
            elif exp == "ci-report":
                c1, c2 = _mixture_spec(
                    cfg["k"], cfg["d1"], cfg["d2"], derive_seed(seed, 11)
                )
                eps = _eps_ci_from_data(
                    *_mixture_sample(c1, c2, value, cfg["eval_n"], derive_seed(seed, 3))
                )
                scores = {"eps-ci": eps}
            else:
                raise ValueError(f"no reference for experiment {exp!r}")
            for method, mse in scores.items():
                rows[(float(value), trial, method)] = (mse, eps, seed)
    return rows
