"""Conditional-independence diagnostics.

Quantifies how far two views are from being conditionally independent
given a (possibly latent) discrete variable:

- ``eps_ci_linear``: Frobenius norm of the whitened partial
  cross-covariance of the views given the one-hot latent embedding,
- ``eps_ci_universal``: exact conditional-mean mismatch on finite supports,
- ``beta_inv``: spectral norm coupling the label to the second view
  through the latent,
- ``eps_y_bar``: how well the latent screens the label from the first view,
- ``bayes_gap_check``: gap between predicting from one view versus both,
  bounded by the Bayes error of the single-view problem.

``eps_ci_linear`` and ``beta_inv`` take covariance blocks, analytic or
estimated, and the ``*_from_data`` helpers take raw samples;
``eps_ci_universal``, ``eps_y_bar`` and ``bayes_gap_check`` sum exactly over
a finite-support :class:`~sslci.models.DiscreteJoint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import (
    Array,
    _as_float,
    _kept,
    _singular,
    empirical_cov,
    inv_sqrt,
    partial_cov,
    pinv,
)
from .models import DiscreteJoint, _label_marginal

__all__ = [
    "BetaInvReport",
    "CIReport",
    "bayes_gap_check",
    "beta_inv",
    "ci_report_from_data",
    "eps_ci_linear",
    "eps_ci_linear_from_data",
    "eps_ci_universal",
    "eps_y_bar",
]


@dataclass(frozen=True)
class CIReport:
    """Summary of conditional-independence diagnostics for one model.

    ``rank_sigma_x2ybar`` is the numerical rank of Σ_X2ȳ; ``degenerate``
    flags a singular Σ_ȳȳ or that rank below the latent cardinality k, both
    of which a centred one-hot ȳ always has (its rank is at most k − 1).
    """

    eps_ci: float
    beta_inv: float
    rank_sigma_x2ybar: int
    degenerate: bool

    def __post_init__(self):
        if self.eps_ci < 0 or self.beta_inv < 0:
            raise ValueError("diagnostics must be nonnegative")


class BetaInvReport(NamedTuple):
    """Value of 1/beta plus the rank diagnostics behind it."""

    value: float
    rank: int
    degenerate: bool


def eps_ci_linear(
    sigma_phi1phi1, sigma_phi1x2, sigma_phi1ybar, sigma_ybarybar, sigma_ybarx2
) -> float:
    """Whitened partial cross-covariance norm of the views given the latent.

    Computes the Frobenius norm ‖Σ_{φ1φ1}^{−1/2} · Σ_{φ1 X2 | φ_ȳ}‖_F.
    Zero exactly when the views are conditionally independent given the
    latent (population blocks).  A singular Σ_{ȳȳ} falls back to the
    pseudo-inverse, as in :func:`~sslci.linalg.solve_psd`; eigenvalues of
    Σ_{φ1φ1} at most ``DEFAULT_RANK_TOL`` times their largest count as zero.
    """
    cond = partial_cov(sigma_phi1x2, sigma_phi1ybar, sigma_ybarybar, sigma_ybarx2)
    white = inv_sqrt(sigma_phi1phi1) @ cond
    return float(np.linalg.norm(white, "fro"))


def _sample_blocks(phi1, x2, ybar_onehot) -> tuple[Array, ...]:
    """Σ_φ1φ1, Σ_φ1X2, Σ_φ1ȳ, Σ_ȳȳ, Σ_ȳX2 from samples, each centred once."""
    phi1, x2, ybar_onehot = (
        m - m.mean(axis=0) for m in map(_as_float, (phi1, x2, ybar_onehot))
    )
    return (
        empirical_cov(phi1, phi1, False),
        empirical_cov(phi1, x2, False),
        empirical_cov(phi1, ybar_onehot, False),
        empirical_cov(ybar_onehot, ybar_onehot, False),
        empirical_cov(ybar_onehot, x2, False),
    )


def eps_ci_linear_from_data(phi1, x2, ybar_onehot) -> float:
    """Sample version of :func:`eps_ci_linear` from raw matrices, centred."""
    return eps_ci_linear(*_sample_blocks(phi1, x2, ybar_onehot))


def _conditional_mean_gap(p1, p1t, p1l, ptl, pl) -> float:
    """sqrt( E_{X1} ‖E[T|X1] − E_{Ȳ}[E[T|Ȳ] | X1]‖² ) for one-hot T.

    Takes the marginals p(x1), p(x1, t), p(x1, ȳ), p(t, ȳ) and p(ȳ) of a
    joint over (x1, target t, latent ȳ); the value is evaluated by direct
    summation over the support.  Every entry of p(ȳ) must be positive.
    """
    alt = (p1l / p1[:, None]) @ (ptl / pl).T
    gap2 = ((p1t / p1[:, None] - alt) ** 2).sum(axis=1)
    return float(np.sqrt((p1 * gap2).sum()))


def eps_ci_universal(joint: DiscreteJoint) -> float:
    """Exact conditional-mean mismatch on a finite support.

    With the second view embedded by standard basis vectors, returns
    sqrt( E_{X1} ‖E[X2|X1] − E_{Ȳ}[E[X2|Ȳ] | X1]‖² ) evaluated by direct
    summation over the support.  The tensor axes are (x1, x2, latent).
    """
    p1, p1y, p2y = joint.marginal_x1(), joint.marginal_x1y(), joint.marginal_x2y()
    return _conditional_mean_gap(p1, joint.p_x1x2(), p1y, p2y, _label_marginal(joint))


def beta_inv(sigma_y_phiybar, sigma_x2_phiybar) -> BetaInvReport:
    """Spectral norm ‖Σ_{Yφ_ȳ} Σ_{X2φ_ȳ}†‖₂ with rank diagnostics.

    The returned ``rank`` is the numerical rank of Σ_{X2φ_ȳ} (singular
    values above ``DEFAULT_RANK_TOL`` times the largest); ``degenerate``
    flags rank below the latent cardinality (the pseudo inverse is then
    only a partial left inverse).
    """
    sy = np.atleast_2d(_as_float(sigma_y_phiybar))
    sx = np.atleast_2d(_as_float(sigma_x2_phiybar))
    svals = np.linalg.svd(sx, compute_uv=False)
    rank = int(_kept(svals).sum())
    value = float(np.linalg.norm(sy @ pinv(sx), 2))
    return BetaInvReport(value=value, rank=rank, degenerate=rank < sx.shape[1])


def eps_y_bar(joint: DiscreteJoint) -> float:
    """How well the latent screens the label from the first view.

    The tensor axes are (x1, latent, label).  Returns
    sqrt( E_{X1} ‖E[Y|X1] − E_{Ȳ}[E[Y|Ȳ] | X1]‖² ) with Y one-hot,
    evaluated exactly.  Zero whenever the label is a deterministic
    function of the latent.
    """
    p1, p1y, p2y = joint.marginal_x1(), joint.marginal_x1y(), joint.marginal_x2y()
    return _conditional_mean_gap(p1, p1y, joint.p_x1x2(), p2y.T, joint.marginal_x2())


def bayes_gap_check(joint: DiscreteJoint) -> tuple[float, float]:
    """Single-view versus two-view prediction gap and its Bayes bound.

    Returns ``(lhs, rhs)`` where lhs = E‖E[Y|X1] − E[Y|X1,X2]‖² with
    one-hot labels and rhs = 2·k·E[1 − max_y P(y|X1)], both by exact
    summation; lhs ≤ rhs always holds.  rhs sums p(x1, y) over the non-max
    classes instead of forming 1 − max, so it keeps its relative accuracy
    when those classes hold less than a rounding error of p(x1).
    """
    p1, p1y, p12 = joint.marginal_x1(), joint.marginal_x1y(), joint.p_x1x2()
    py_x1 = p1y / p1[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        py_x1x2 = np.where(p12[:, :, None] > 0, joint.p / p12[:, :, None], 0.0)
    gap2 = ((py_x1[:, None, :] - py_x1x2) ** 2).sum(axis=2)
    lhs = float((p12 * gap2).sum())
    ny = p1y.shape[1]
    non_max = np.where(np.arange(ny) == p1y.argmax(axis=1)[:, None], 0.0, p1y)
    rhs = float(2.0 * ny * non_max.sum())
    return lhs, rhs


def ci_report_from_data(x1, x2, ybar_onehot) -> CIReport:
    """Empirical :class:`CIReport` from raw two-view labeled samples, centred.

    Centred one-hot columns sum to zero, so a one-hot ȳ always gives a
    singular Σ_ȳȳ, rank(Σ_X2ȳ) ≤ k − 1 and ``degenerate``: an expected fallback.
    """
    blocks = _sample_blocks(x1, x2, ybar_onehot)
    sigma_ybarybar, sigma_ybarx2 = blocks[3:]
    beta = beta_inv(sigma_ybarybar, sigma_ybarx2.T)
    return CIReport(
        eps_ci=eps_ci_linear(*blocks),
        beta_inv=beta.value,
        rank_sigma_x2ybar=beta.rank,
        degenerate=_singular((sigma_ybarybar + sigma_ybarybar.T) / 2.0)
        or beta.degenerate,
    )
