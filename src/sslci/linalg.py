"""Dense linear-algebra and covariance primitives.

Everything here operates on plain float64 ``numpy`` arrays.  Covariance
blocks for a three-group random vector (x1, x2, y) are carried by
:class:`CovarianceBlocks`.  All routines are pure functions: no global
state, deterministic output for identical input bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

Array = NDArray[np.float64]

#: Relative cutoff (w.r.t. the largest singular/eigen value) below which a
#: direction is treated as numerically null.
DEFAULT_RANK_TOL = 1e-10

__all__ = [
    "Array",
    "DEFAULT_RANK_TOL",
    "CovarianceBlocks",
    "empirical_cov",
    "gaussian_conditionals_from_precision",
    "inv_sqrt",
    "partial_cov",
    "pca_top_r",
    "pinv",
    "solve_psd",
]


def _as_float(m) -> Array:
    out = np.asarray(m, dtype=np.float64)
    # Σx² is non-finite exactly when an entry is or the sum overflows, so one
    # dot product certifies contiguous input (np.vdot warns on no overflow).
    if out.flags.forc and np.isfinite(np.vdot(flat := out.ravel(order="K"), flat)):
        return out
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite entries")
    return out


def _store_float_fields(obj, dims: dict[str, tuple[str, ...]]) -> None:
    """The one shape rule of the spec containers.

    ``dims`` names the axes of each array field of a frozen dataclass, e.g.
    ``{"centers1": ("k", "d1"), "centers2": ("k", "d2")}``.  Each field is
    stored as ``_as_float`` of itself and needs one axis per name; a named
    dimension must be >= 1 and the same size wherever it appears.  Each size
    is stored as an int attribute of its name, declared ``field(init=False)``.
    Raises ``ValueError`` on non-finite entries or any other shape.
    """
    sizes: dict[str, int] = {}
    for name, axes in dims.items():
        value = _as_float(getattr(obj, name))
        if value.ndim != len(axes):
            raise ValueError(f"{name} has shape {value.shape}, expected axes {axes}")
        for axis, size in zip(axes, value.shape):
            if size < 1 or sizes.setdefault(axis, size) != size:
                want = f"{axis} = {sizes[axis]}" if size else f"{axis} >= 1"
                raise ValueError(f"{name} has shape {value.shape}, expected {want}")
            object.__setattr__(obj, axis, size)
        object.__setattr__(obj, name, value)


def _kept(values: Array) -> Array:
    """Mask of values above ``DEFAULT_RANK_TOL`` times the max; none if the max <= 0."""
    return values > DEFAULT_RANK_TOL * values.max(initial=0.0)


def _softmax_rows(z: Array) -> Array:
    """Softmax of each row of a 2-d float array, computed in place."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _sign_fix_columns(m: Array) -> Array:
    """Signs making the first nonzero component of each column positive."""
    signs = np.ones(m.shape[1])
    for j in range(m.shape[1]):
        col = m[:, j]
        scale = np.abs(col).max()
        if scale == 0.0:
            continue
        nz = np.flatnonzero(np.abs(col) > 1e-12 * scale)
        if nz.size and col[nz[0]] < 0:
            signs[j] = -1.0
    return signs


def empirical_cov(samples_a, samples_b, center: bool = True) -> Array:
    """(1/n) AᵀB cross-covariance of two sample matrices.

    Parameters
    ----------
    samples_a, samples_b:
        n×p and n×q matrices with one observation per row.
    center:
        Subtract column means first (default).  Disable for pre-centered
        data or raw second moments.
    """
    a = _as_float(samples_a)
    b = _as_float(samples_b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("sample matrices must be 2-d")
    if a.shape[0] != b.shape[0]:
        raise ValueError(
            f"row counts differ: {a.shape[0]} vs {b.shape[0]}"
        )
    n = a.shape[0]
    if n < 1:
        raise ValueError("need at least one sample")
    if center:
        a = a - a.mean(axis=0)
        b = b - b.mean(axis=0)
    return a.T @ b / n


def partial_cov(sigma_ab, sigma_az, sigma_zz, sigma_zb) -> Array:
    """Partial covariance Σ_{AB|Z} = Σ_{AB} − Σ_{AZ} Σ_{ZZ}⁻¹ Σ_{ZB}.

    A singular Σ_{ZZ} falls back to the pseudo-inverse, as in :func:`solve_psd`.
    """
    solved, _ = solve_psd(_as_float(sigma_zz), _as_float(sigma_zb))
    return _as_float(sigma_ab) - _as_float(sigma_az) @ solved


def _singular(sym: Array) -> bool:
    """The singular-block rule: ``sym`` is empty or an eigenvalue is not ``_kept``."""
    keep = _kept(np.linalg.eigvalsh(sym))
    return keep.size == 0 or not keep.all()


def solve_psd(sigma: Array, rhs: Array) -> tuple[Array, bool]:
    """Solve Σ X = rhs for a symmetric PSD Σ; returns ``(X, degenerate)``.

    Σ is symmetrized first.  If :func:`_singular`, the one singular-block
    rule, holds, the solve falls back to the pseudo-inverse and sets ``degenerate``.
    """
    sym = (sigma + sigma.T) / 2.0
    if _singular(sym):
        return pinv(sym) @ rhs, True
    return np.linalg.solve(sym, rhs), False


def pinv(m) -> Array:
    """Moore–Penrose pseudo-inverse via SVD.

    Singular values at most ``DEFAULT_RANK_TOL`` times the largest are
    treated as zero.  Total function: any real matrix is accepted.
    """
    mat = np.atleast_2d(_as_float(m))
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    keep = _kept(s)
    return (vt[keep].T / s[keep]) @ u[:, keep].T


def inv_sqrt(m) -> Array:
    """M^{−1/2} of a symmetric PSD matrix on its positive eigenspace.

    Eigenvalues at most ``DEFAULT_RANK_TOL`` times the largest count as
    zero.  Satisfies M^{−1/2} · M · M^{−1/2} = projector onto range(M).
    Accepts M when |m − mᵀ| ≤ 1e-10 + 1e-5·|mᵀ| entrywise (``np.allclose``'s
    default rtol included), then symmetrizes it; otherwise raises.
    """
    mat = _as_float(m)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("square matrix required")
    if not np.allclose(mat, mat.T, atol=1e-10):
        raise ValueError("matrix must be symmetric")
    evals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
    keep = _kept(evals)
    inv = np.zeros_like(evals)
    inv[keep] = 1.0 / np.sqrt(evals[keep])
    return (vecs * inv) @ vecs.T


def pca_top_r(samples, r: int) -> tuple[Array, Array]:
    """Top-r principal directions of a sample matrix.

    Returns ``(projection, spectrum)`` where the d×r projection has
    orthonormal columns (deterministic sign convention) and ``spectrum``
    holds the top r singular values of the centered samples divided by √n,
    in non-increasing order.
    """
    x = _as_float(samples)
    if x.ndim != 2:
        raise ValueError("sample matrix must be 2-d")
    n, d = x.shape
    if not 1 <= r <= d:
        raise ValueError(f"r must be in [1, {d}], got {r}")
    _, s, vt = np.linalg.svd((x - x.mean(axis=0)) / np.sqrt(n), full_matrices=False)
    proj = vt.T[:, :r]
    if proj.shape[1] < r:
        # fewer samples than r: QR of [proj, I] extends proj to an orthonormal basis
        q, _ = np.linalg.qr(np.hstack([proj, np.eye(d)]))
        proj = np.hstack([proj, q[:, proj.shape[1] : r]])
    proj = proj * _sign_fix_columns(proj)
    spectrum = np.zeros(r)
    spectrum[: min(r, s.size)] = s[:r]
    return proj, spectrum


@dataclass(frozen=True)
class CovarianceBlocks:
    """Joint covariance of (x1, x2, y) stored blockwise.

    The same container carries analytic population blocks and empirical
    estimates; every diagonal block is symmetric PSD and the assembled
    joint matrix is PSD.  Blocks are stored as finite float64 arrays;
    ``d1``, ``d2`` and ``k`` are read from their shapes.
    """

    sigma_x1x1: Array
    sigma_x1x2: Array
    sigma_x1y: Array
    sigma_x2x2: Array
    sigma_x2y: Array
    sigma_yy: Array
    d1: int = field(init=False)
    d2: int = field(init=False)
    k: int = field(init=False)

    def __post_init__(self):
        _store_float_fields(
            self,
            {
                "sigma_x1x1": ("d1", "d1"),
                "sigma_x1x2": ("d1", "d2"),
                "sigma_x1y": ("d1", "k"),
                "sigma_x2x2": ("d2", "d2"),
                "sigma_x2y": ("d2", "k"),
                "sigma_yy": ("k", "k"),
            },
        )

    def joint(self) -> Array:
        """Assemble the full (d1+d2+k)-square covariance matrix."""
        return np.block(
            [
                [self.sigma_x1x1, self.sigma_x1x2, self.sigma_x1y],
                [self.sigma_x1x2.T, self.sigma_x2x2, self.sigma_x2y],
                [self.sigma_x1y.T, self.sigma_x2y.T, self.sigma_yy],
            ]
        )


def gaussian_conditionals_from_precision(
    blocks: CovarianceBlocks,
) -> tuple[Array, Array, Array]:
    """Conditional-expectation maps computed through the precision matrix.

    Inverts the joint covariance, extracts the precision blocks
    A12, A22, ρ1, ρ2, B, sets ρ̄i = ρi B^{−1/2}, and returns

    - ``map_x2_given_x1`` = (A22 − ρ̄2ρ̄2ᵀ)⁻¹ (ρ̄2ρ̄1ᵀ − A21),
    - ``map_y_given_x``  = −B^{−1/2} [ρ̄1ᵀ, ρ̄2ᵀ],
    - ``map_y_given_x1`` = −B^{−1/2} (ρ̄1ᵀ + ρ̄2ᵀ · map_x2_given_x1).

    Each map equals the direct covariance-route map (e.g.
    Σ_{X2X1} Σ_{X1X1}⁻¹) up to numerical error.  Raises on a singular
    joint covariance.
    """
    joint = blocks.joint()
    sym = (joint + joint.T) / 2.0
    if _singular(sym):
        raise ValueError("joint covariance is singular")
    prec = np.linalg.inv(sym)
    d1, d2 = blocks.d1, blocks.d2
    a12 = prec[:d1, d1 : d1 + d2]
    a21 = a12.T
    a22 = prec[d1 : d1 + d2, d1 : d1 + d2]
    rho1 = prec[:d1, d1 + d2 :]
    rho2 = prec[d1 : d1 + d2, d1 + d2 :]
    b = prec[d1 + d2 :, d1 + d2 :]
    b_inv_sqrt = inv_sqrt(b)
    rb1 = rho1 @ b_inv_sqrt
    rb2 = rho2 @ b_inv_sqrt
    map_x2_given_x1 = np.linalg.solve(a22 - rb2 @ rb2.T, rb2 @ rb1.T - a21)
    map_y_given_x = -b_inv_sqrt @ np.concatenate([rb1.T, rb2.T], axis=1)
    map_y_given_x1 = -b_inv_sqrt @ (rb1.T + rb2.T @ map_x2_given_x1)
    return map_x2_given_x1, map_y_given_x, map_y_given_x1
