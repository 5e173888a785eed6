"""Two-step learning pipeline on two-view data.

Step one regresses the second view on the first (the pretext task) to learn
a representation ψ; step two fits a linear head from ψ(x1) to the label.
Closed-form population representations are provided for the Gaussian and
mixture models, alongside finite-sample ridge/OLS fits, optional principal
component truncation of the downstream features, and risk evaluation as
the mean squared error, with no 1/2 factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Array, CovarianceBlocks, _as_float, pca_top_r, pinv, solve_psd
from .models import MixtureSpec, mixture_posterior

__all__ = [
    "DownstreamFit",
    "LinearRepresentation",
    "closed_form_f_gaussian",
    "closed_form_psi_gaussian",
    "closed_form_psi_mixture",
    "fit_downstream",
    "fit_pretext_linear",
    "mean_squared_error",
    "mixture_two_class_target",
    "optimal_downstream_map",
]

@dataclass(frozen=True)
class LinearRepresentation:
    """Linear representation ψ(x) = B·x."""

    b: Array

    def __post_init__(self):
        object.__setattr__(self, "b", _as_float(self.b))

    def __call__(self, x) -> Array:
        return _as_float(x) @ self.b.T


@dataclass(frozen=True)
class DownstreamFit:
    """Linear head Ŵ mapping representation outputs to label space."""

    w_hat: Array

    def __post_init__(self):
        object.__setattr__(self, "w_hat", _as_float(self.w_hat))

    def predict(self, psi_x) -> Array:
        return _as_float(psi_x) @ self.w_hat


def closed_form_psi_gaussian(blocks: CovarianceBlocks) -> LinearRepresentation:
    """Population representation B = Σ_{X2X1} Σ_{X1X1}⁻¹ as a linear map.

    A singular Σ_{X1X1} falls back to the pseudo-inverse, as in ``solve_psd``.
    """
    solved, _ = solve_psd(blocks.sigma_x1x1, blocks.sigma_x1x2)
    return LinearRepresentation(b=solved.T)


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
    """Population conditional mean E[X2 | x1] of the mixture at alpha = 0.

    Posterior-weighted class means of the second view:
    ψ(x1) = Σ_y P(y|x1)·centers2[y].  Defined for any alpha, but equals
    the true conditional mean only in the conditionally independent case.
    """
    post = mixture_posterior(spec, x1)
    return post @ spec.centers2


def mixture_two_class_target(spec: MixtureSpec, x1) -> Array:
    """Signed ±1 label target P(y=1|x1) − P(y=2|x1) for two-class specs."""
    if spec.k != 2:
        raise ValueError("signed target requires k = 2")
    post = mixture_posterior(spec, x1)
    return post[..., 0] - post[..., 1]


def _least_squares(a: Array, b: Array, ridge: float) -> Array:
    """Solve (AᵀA + n·ridge·I) W = AᵀB with ``solve_psd``.

    With ridge = 0, singular values of A at or below 1e-5·σ_max (AᵀA
    eigenvalues at or below ``DEFAULT_RANK_TOL``·λ_max) are dropped and W is
    the minimum-norm solution on the kept directions, as from
    ``np.linalg.lstsq(a, b, rcond=1e-5)``, not numpy's ``rcond=None``.
    """
    if not 0 <= ridge < np.inf:
        raise ValueError("ridge must be finite and nonnegative")
    n, d = a.shape
    return solve_psd(a.T @ a + n * ridge * np.eye(d), a.T @ b)[0]


def fit_pretext_linear(x1_pre, x2, ridge: float = 0.0) -> LinearRepresentation:
    """Least-squares fit of the second view from the first.

    Solves (X1ᵀX1 + n·ridge·I) Bᵀ = X1ᵀX2.  With ridge = 0, singular
    values of X1 at or below 1e-5·σ_max (X1ᵀX1 eigenvalues at or below
    ``DEFAULT_RANK_TOL``·λ_max) are dropped and Bᵀ is the minimum-norm
    solution on the kept directions; this is not numpy's ``rcond=None``.
    """
    a = _as_float(x1_pre)
    b = _as_float(x2)
    if a.shape[0] != b.shape[0]:
        raise ValueError("row counts differ")
    return LinearRepresentation(b=_least_squares(a, b, ridge).T)


def fit_downstream(
    psi_x1,
    y,
    ridge: float = 0.0,
    pca_rank: int | None = None,
) -> DownstreamFit:
    """Linear head fit on representation outputs.

    With ``pca_rank`` the features are first projected onto their top
    principal directions; the head is fit there and stored back-projected
    into the original coordinates, so ``predict`` always consumes raw
    representation outputs.

    The head solves (FᵀF + n·ridge·I) W = FᵀY.  With ridge = 0, singular
    values of the features F at or below 1e-5·σ_max (FᵀF eigenvalues at or
    below ``DEFAULT_RANK_TOL``·λ_max) are dropped and W is the minimum-norm
    solution on the kept directions; this is not numpy's ``rcond=None``.
    """
    feats = _as_float(psi_x1)
    targets = _as_float(y)
    if feats.shape[0] != targets.shape[0]:
        raise ValueError("row counts differ")
    proj = None
    if pca_rank is not None:
        if pca_rank > feats.shape[1]:
            raise ValueError("pca_rank exceeds feature dimension")
        proj, _ = pca_top_r(feats, pca_rank)
        feats = feats @ proj
    w = _least_squares(feats, targets, ridge)
    if proj is not None:
        w = proj @ w
    return DownstreamFit(w_hat=w)


def mean_squared_error(fit: DownstreamFit, rep, f_star, eval_x1) -> float:
    """Monte-Carlo E‖f*(x) − Ŵᵀψ(x)‖², no 1/2 factor, over the rows of ``eval_x1``;
    ``rep`` and ``f_star`` map that n×d1 batch to features and to targets."""
    x = _as_float(eval_x1)
    pred = fit.predict(rep(x)).reshape(x.shape[0], -1)
    target = _as_float(f_star(x)).reshape(x.shape[0], -1)
    return float(((target - pred) ** 2).sum(axis=1).mean())
