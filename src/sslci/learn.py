"""Two-step learning pipeline on two-view data.

Step one regresses the second view on the first (the pretext task) to learn
a representation ψ(x1) = B·x1; step two fits a linear head Ŵ from ψ(x1) to
the label.  Each map is a plain float array: B is d2×d1, applied to rows as
``x1 @ B.T``, and a head W maps features as ``features @ W``.  Closed forms
for the Gaussian and mixture models sit beside the least-squares fits and
the risk, a mean squared error with no 1/2 factor.
"""

from __future__ import annotations

import numpy as np

from .linalg import Array, CovarianceBlocks, _as_float, pinv, solve_psd
from .models import MixtureSpec, mixture_posterior

__all__ = [
    "closed_form_f_gaussian",
    "closed_form_psi_gaussian",
    "closed_form_psi_mixture",
    "fit_downstream",
    "fit_pretext_linear",
    "mean_squared_error",
    "mixture_two_class_target",
    "optimal_downstream_map",
]


def closed_form_psi_gaussian(blocks: CovarianceBlocks) -> Array:
    """Population representation B = Σ_{X2X1} Σ_{X1X1}⁻¹ (shape d2×d1).

    A singular Σ_{X1X1} falls back to the pseudo-inverse, as in ``solve_psd``.
    """
    solved, _ = solve_psd(blocks.sigma_x1x1, blocks.sigma_x1x2)
    return solved.T


def closed_form_f_gaussian(blocks: CovarianceBlocks) -> Array:
    """Population target map Σ_{YX1} Σ_{X1X1}⁻¹ (shape k×d1)."""
    solved, _ = solve_psd(blocks.sigma_x1x1, blocks.sigma_x1y)
    return solved.T


def optimal_downstream_map(blocks: CovarianceBlocks) -> Array:
    """Population head W (d2×k) with Wᵀψ(x1) = E[Y|x1] under exact CI.

    Wᵀ = Σ_{YY} Σ_{X2Y}†, singular values of Σ_{X2Y} at most
    ``DEFAULT_RANK_TOL`` times the largest dropped; exact whenever the
    views are conditionally independent given y and Σ_{X2Y} has full
    column rank.
    """
    return (blocks.sigma_yy @ pinv(blocks.sigma_x2y)).T


def closed_form_psi_mixture(spec: MixtureSpec, x1) -> Array:
    """Population representation ψ*(x1) = E[X2 | x1] of the mixture, any alpha.

    The second view is X2 = (1 − α)·(centers2[y] + z) + α·pad(x1), with the
    noise z independent of (x1, y) and pad the zero-padding or truncation of
    x1 to d2 coordinates, so ψ*(x1) = (1 − α)·Σ_y P(y|x1)·centers2[y] +
    α·pad(x1).  Takes an n×d1 batch, as ``mixture_posterior`` does.  α·x1 is
    added in place, to min(d1, d2) columns and not at α = 0: no n×d2 copy.
    """
    x = np.asarray(x1)
    psi = mixture_posterior(spec, x) @ ((1.0 - spec.alpha) * spec.centers2)
    if spec.alpha:  # slices clamp to min(d1, d2) columns; pad's zeros would add +0.0
        psi[:, : spec.d1] += spec.alpha * x[:, : spec.d2]
    return psi


def mixture_two_class_target(spec: MixtureSpec, x1) -> Array:
    """Signed ±1 label target P(y=1|x1) − P(y=2|x1) of a two-class spec, on an n×d1 batch."""
    if spec.k != 2:
        raise ValueError("signed target requires k = 2")
    post = mixture_posterior(spec, x1)
    return post[:, 0] - post[:, 1]


def _least_squares(a: Array, b: Array) -> Array:
    """Solve AᵀA W = AᵀB with ``solve_psd``.

    Singular values of A at or below 1e-5·σ_max (AᵀA eigenvalues at or
    below ``DEFAULT_RANK_TOL``·λ_max) are dropped and W is the minimum-norm
    solution on the kept directions, as from
    ``np.linalg.lstsq(a, b, rcond=1e-5)``, not numpy's ``rcond=None``.
    """
    return solve_psd(a.T @ a, a.T @ b)[0]


def _checked_rows(a, b) -> tuple[Array, Array]:
    """``a`` and ``b`` as float arrays; raises unless their row counts agree."""
    a, b = _as_float(a), _as_float(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError("row counts differ")
    return a, b


def fit_pretext_linear(x1_pre, x2) -> Array:
    """Least-squares B (shape d2×d1) with x2 ≈ x1_pre·Bᵀ.

    Singular values of X1 at or below 1e-5·σ_max are dropped and Bᵀ is the
    minimum-norm solution on the kept directions, as from
    ``np.linalg.lstsq(x1_pre, x2, rcond=1e-5)``.
    """
    return _least_squares(*_checked_rows(x1_pre, x2)).T


def fit_downstream(psi_x1, y) -> Array:
    """Least-squares head Ŵ (features × label dims) with y ≈ psi_x1·Ŵ.

    Singular values of the features F at or below 1e-5·σ_max are dropped
    and Ŵ is the minimum-norm solution on the kept directions, as from
    ``np.linalg.lstsq(psi_x1, y, rcond=1e-5)``.
    """
    return _least_squares(*_checked_rows(psi_x1, y))


def mean_squared_error(w, features, f_star, eval_x1) -> float:
    """Monte-Carlo E‖f*(x) − Wᵀψ(x)‖², no 1/2 factor, over the rows of ``eval_x1``;
    ``features`` and ``f_star`` map that n×d1 batch to ψ(x) and to targets,
    and the head ``w`` maps features as ``features(x) @ w``."""
    w, x = _as_float(w), _as_float(eval_x1)
    pred = (features(x) @ w).reshape(x.shape[0], -1)
    target = _as_float(f_star(x)).reshape(x.shape[0], -1)
    return _mean_sq_norm(target - pred)


def _mean_sq_norm(e: Array) -> float:
    """Mean over the rows e_i of ‖e_i‖², as one dot product of ``e`` flattened in C
    order, so an F-ordered ``e`` gives the bits of its C-ordered copy."""
    flat = e.reshape(-1)
    return float(flat @ flat) / e.shape[0]
