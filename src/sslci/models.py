"""Seeded synthetic data models.

Analytic population quantities plus finite-sample draws for three model
families:

- jointly Gaussian two-view models in which the views are conditionally
  independent given the label by construction,
- Gaussian mixtures with an interpolation knob ``alpha`` that breaks
  conditional independence continuously,
- finite-support discrete joints used as exact test beds for the operator
  machinery.

All sampling goes through a counter-based Philox generator keyed by the
caller's integer seed, so identical (spec, n, seed) triples reproduce the
same bits and parallel trials never share state.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_RANK_TOL, Array, CovarianceBlocks, _as_float, _softmax_columns
from .linalg import _store_float_fields, _symmetrized

__all__ = [
    "DiscreteJoint",
    "GaussianCISpec",
    "LabeledDataset",
    "MixtureSpec",
    "derive_seed",
    "discrete_joint_random",
    "gaussian_ci_population",
    "gaussian_ci_sample",
    "make_rng",
    "mixture_posterior",
    "mixture_sample",
    "random_gaussian_ci_spec",
    "random_mixture_spec",
]


def make_rng(*keys: int) -> np.random.Generator:
    """Counter-based Philox generator keyed by one or more integers."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(keys))))


def derive_seed(*keys: int) -> int:
    """Deterministic 63-bit sub-seed from a tuple of integers."""
    state = np.random.SeedSequence(list(keys)).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


class _Deferred:
    """``fn()``, run once by whichever thread asks first; a failure re-raises on each ask."""

    def __init__(self, fn):
        self.fn, self.lock, self.exc = fn, threading.Lock(), None

    def get(self):
        with self.lock:
            if self.fn is not None:
                try:
                    self.value = self.fn()
                except BaseException as exc:
                    self.exc = exc
                self.fn = None  # frees the generator and the draw's inputs
            if self.exc is not None:
                raise self.exc
            return self.value


@dataclass(frozen=True)
class LabeledDataset:
    """Row-aligned sample blocks: views x1/x2 and labels y.  An x2 passed as a
    private ``_Deferred`` is computed and stored when first read; repr,
    ``dataclasses.replace``, pickle and deepcopy read it like any caller."""

    x1: Array
    x2: Array
    y: Array

    def __post_init__(self):
        if isinstance(self.x2, _Deferred):  # x2 then has x1's rows by construction
            object.__setattr__(self, "_x2", vars(self).pop("x2"))
        n = self.x1.shape[0]
        for name in ("x2", "y"):
            block = vars(self).get(name, self.x1)
            if block.shape[0] != n:
                raise ValueError(f"{name} has {block.shape[0]} rows, expected {n}")

    def __getattr__(self, name):
        if name != "x2" or "_x2" not in vars(self):  # no deferred x2 left to read
            raise AttributeError(name)
        object.__setattr__(self, "x2", x2 := self._x2.get())
        return x2

    def __reduce__(self):
        return LabeledDataset, (self.x1, self.x2, self.y)


@dataclass(frozen=True)
class GaussianCISpec:
    """Linear-Gaussian two-view model X1 = M1·Y + ε1, X2 = M2·Y + ε2.

    Y ~ N(0, sigma_y), ε_i ~ N(0, noise_i²·I) independent, so the views
    are conditionally independent given Y by construction.  The arrays are
    stored as finite float64 arrays, whose shapes give ``d1``, ``d2``, ``k``;
    ``sigma_y`` must be a covariance (symmetric as for ``inv_sqrt``, no
    eigenvalue below −``DEFAULT_RANK_TOL``·max|eig|) and is stored symmetrized.
    """

    m1: Array
    m2: Array
    noise1: float
    noise2: float
    sigma_y: Array
    d1: int = field(init=False)
    d2: int = field(init=False)
    k: int = field(init=False)

    def __post_init__(self):
        if not self.noise1 > 0 or not self.noise2 > 0:
            raise ValueError("noise scales must be positive")
        _store_float_fields(
            self, {"m1": ("d1", "k"), "m2": ("d2", "k"), "sigma_y": ("k", "k")}
        )
        sy = _symmetrized(self.sigma_y, "sigma_y")
        evals = np.linalg.eigvalsh(sy)
        if evals.min() < -DEFAULT_RANK_TOL * np.abs(evals).max():
            raise ValueError(f"sigma_y has eigenvalue {evals.min():g}: not a covariance")
        object.__setattr__(self, "sigma_y", sy)


def gaussian_ci_population(spec: GaussianCISpec) -> CovarianceBlocks:
    """Analytic covariance blocks of the linear-Gaussian model."""
    m1, m2, sy = spec.m1, spec.m2, spec.sigma_y
    return CovarianceBlocks(
        sigma_x1x1=m1 @ sy @ m1.T + spec.noise1**2 * np.eye(spec.d1),
        sigma_x1x2=m1 @ sy @ m2.T,
        sigma_x1y=m1 @ sy,
        sigma_x2x2=m2 @ sy @ m2.T + spec.noise2**2 * np.eye(spec.d2),
        sigma_x2y=m2 @ sy,
        sigma_yy=sy,
    )


def _gaussian_ci_draw(spec: GaussianCISpec, n: int, rng) -> tuple[Array, Array]:
    """``gaussian_ci_sample``'s y and x1, bit for bit; its x2 is ``rng``'s next
    draw, so a caller that reads no x2 stops here.  Calls no public function."""
    if n < 1:
        raise ValueError("n must be >= 1")
    evals, vecs = np.linalg.eigh(spec.sigma_y)
    root = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.T
    y = rng.standard_normal((n, spec.k)) @ root.T
    x1 = y @ spec.m1.T + spec.noise1 * rng.standard_normal((n, spec.d1))
    return y, x1


def gaussian_ci_sample(spec: GaussianCISpec, n: int, seed: int) -> LabeledDataset:
    """n i.i.d. draws from the linear-Gaussian model, deterministic in seed."""
    rng = make_rng(seed)
    y, x1 = _gaussian_ci_draw(spec, n, rng)
    x2 = y @ spec.m2.T + spec.noise2 * rng.standard_normal((n, spec.d2))
    return LabeledDataset(x1=x1, x2=x2, y=y)


def random_gaussian_ci_spec(d1: int, d2: int, k: int, seed: int) -> GaussianCISpec:
    """Random well-conditioned spec; Σ_{X2Y} has full column rank a.s."""
    rng = make_rng(seed, 71)
    g = rng.standard_normal((k, k))
    sigma_y = g @ g.T / k + 0.5 * np.eye(k)
    return GaussianCISpec(
        m1=rng.standard_normal((d1, k)),
        m2=rng.standard_normal((d2, k)),
        noise1=float(rng.uniform(0.5, 1.5)),
        noise2=float(rng.uniform(0.5, 1.5)),
        sigma_y=sigma_y,
    )


@dataclass(frozen=True)
class MixtureSpec:
    """Isotropic Gaussian mixture with a shared-class second view.

    Class labels are uniform on {1..k}; X1 ~ N(centers1[y], I),
    X̂2 ~ N(centers2[y], I), and X2 = (1−alpha)·X̂2 + alpha·X1 after padding
    X1 with zeros (d1 < d2) or truncating to its first d2 coordinates
    (d1 > d2).  alpha = 0 gives exact conditional independence given the
    label; alpha = 1 makes X2 a deterministic function of X1.  The centres
    are stored as finite float64 arrays, whose shapes give ``k``, ``d1``, ``d2``.
    """

    centers1: Array
    centers2: Array
    alpha: float
    k: int = field(init=False)
    d1: int = field(init=False)
    d2: int = field(init=False)

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        _store_float_fields(self, {"centers1": ("k", "d1"), "centers2": ("k", "d2")})


def random_mixture_spec(
    k: int, d1: int, d2: int, alpha: float, seed: int
) -> MixtureSpec:
    """Centers drawn once, uniformly from [0, 10)^d, keyed by seed."""
    rng = make_rng(seed, 101)
    return MixtureSpec(
        centers1=rng.uniform(0.0, 10.0, (k, d1)),
        centers2=rng.uniform(0.0, 10.0, (k, d2)),
        alpha=alpha,
    )


def _fit_width(x: Array, d: int) -> Array:
    """Zero-pad on the right or truncate to the first d coordinates."""
    return np.pad(x, ((0, 0), (0, d - x.shape[1]))) if x.shape[1] < d else x[:, :d]


def _mixture_x2(spec: MixtureSpec, labels: Array, x1: Array, rng) -> Array:
    """centers2[y] + z, z drawn last, then ·(1−α) and + α·fit(x1) in place, unless α = 0."""
    x2, noise = spec.centers2[labels], rng.standard_normal((labels.size, spec.d2))
    x2 += noise
    if spec.alpha:  # at α = 0 these steps would only multiply by 1 and add ±0
        x2 *= 1.0 - spec.alpha
        x2 += np.multiply(spec.alpha, _fit_width(x1, spec.d2), out=noise)
    return x2


def mixture_sample(spec: MixtureSpec, n: int, seed: int) -> LabeledDataset:
    """n draws; labels emitted one-hot (so y has k columns).  x2 is drawn, with
    the same bits, when first read; x1 is read-only, so no write reaches x2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = make_rng(seed)
    labels = rng.integers(0, spec.k, size=n)
    x1 = rng.standard_normal((n, spec.d1))
    x1 += spec.centers1[labels]
    x1.setflags(write=False)
    x2 = _Deferred(lambda: _mixture_x2(spec, labels, x1, rng))
    return LabeledDataset(x1=x1, x2=x2, y=np.eye(spec.k)[labels])


def mixture_posterior(spec: MixtureSpec, x1) -> Array:
    """Class posterior P(y | x1) under the unit-covariance mixture.

    Takes an n×d1 batch; rows sum to one.  Builds k×n log-densities in the GEMM
    form C·xᵀ − ½‖c‖²: the dropped −½‖x‖² is constant per column and cancels
    in the softmax's max-subtraction, so no n×k×d1 difference tensor is built.
    Returns their F-ordered n×k transpose: no caller may assume C order.
    """
    x = _as_float(x1)
    if x.ndim != 2:
        raise ValueError(f"x1 must be an n×d1 batch, got shape {x.shape}")
    centers = spec.centers1
    logd = centers @ x.T
    logd -= 0.5 * np.einsum("kd,kd->k", centers, centers)[:, None]
    return _softmax_columns(logd).T


@dataclass(frozen=True)
class DiscreteJoint:
    """Finite-support joint p(x1, x2) or p(x1, x2, y).

    Entries sum to one within 1e-12 and both view marginals are strictly
    positive (required by the density-ratio operators).  The tensor is
    validated and summed once, at construction: ``p`` and the arrays the
    ``marginal_*`` accessors return are read-only, and the array passed in
    must not be mutated afterwards.  Only ``p_x1x2`` sums the tensor again on each
    call, to keep the |X1|×|X2| marginal out of memory between uses.  It adds
    the label slices p(·, ·, y) in index order y = 0, 1, …, |Y|−1, which is
    bit-for-bit ``p.sum(axis=2)`` below 8 labels (numpy reduces 8 or more
    contiguous terms through eight partial sums, so there the last bits may
    differ).
    """

    p: Array

    def __post_init__(self):
        p = _as_float(self.p)
        if p.ndim not in (2, 3):
            raise ValueError("probability tensor must have 2 or 3 axes")
        if p.min() < 0:
            raise ValueError("negative probability entry")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        if p.ndim == 3:
            p1y, p2y = p.sum(axis=1), p.sum(axis=0)
            marginals = dict(x1=p1y.sum(axis=1), x2=p2y.sum(axis=1))
            marginals.update(y=p1y.sum(axis=0), x1y=p1y, x2y=p2y)
        else:
            marginals = dict(x1=p.sum(axis=1), x2=p.sum(axis=0))
        if marginals["x1"].min() <= 0 or marginals["x2"].min() <= 0:
            raise ValueError("all x1 and x2 marginals must be positive")
        p = p.view()  # locks the joint's own view, not the caller's array
        for m in (p, *marginals.values()):
            m.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_marginals", marginals)

    def __reduce__(self):
        # pickle and deepcopy rebuild from the tensor, so the copy's
        # marginals are summed and locked again
        return DiscreteJoint, (self.p,)

    def _marginal(self, key: str) -> Array:
        if key not in self._marginals:
            raise ValueError("joint has no label axis")
        return self._marginals[key]

    @property
    def has_y(self) -> bool:
        return self.p.ndim == 3

    def p_x1x2(self) -> Array:
        """p(x1, x2).  Without a label axis this is ``p`` itself: read-only."""
        if not self.has_y:
            return self.p
        # one vectorized add per label, not one short inner loop per cell
        out = self.p[:, :, 0].copy()
        for y in range(1, self.p.shape[2]):
            out += self.p[:, :, y]
        return out

    def marginal_x1(self) -> Array:
        return self._marginal("x1")

    def marginal_x2(self) -> Array:
        return self._marginal("x2")

    def marginal_y(self) -> Array:
        return self._marginal("y")

    def marginal_x1y(self) -> Array:
        """p(x1, y) as an |X1|×|Y| array."""
        return self._marginal("x1y")

    def marginal_x2y(self) -> Array:
        """p(x2, y) as an |X2|×|Y| array."""
        return self._marginal("x2y")


def _label_marginal(joint: DiscreteJoint) -> Array:
    """p(y), raising unless the joint has a label axis with no empty class."""
    py = joint.marginal_y()
    if py.min() <= 0:
        raise ValueError("empty label class")
    return py


def discrete_joint_random(
    sizes: tuple[int, ...], seed: int, ci_with_y: bool = False
) -> DiscreteJoint:
    """Random discrete joint with strictly positive marginals.

    With ``ci_with_y`` (requires a y axis) the tensor factors as
    p(y)·p(x1|y)·p(x2|y), so the views are conditionally independent given
    y exactly; otherwise the tensor is a floor-bounded uniform draw.
    """
    if any(s < 2 for s in sizes):
        raise ValueError("each support size must be >= 2")
    rng = make_rng(seed, 202)
    if ci_with_y:
        if len(sizes) != 3:
            raise ValueError("ci_with_y requires sizes (|x1|, |x2|, |y|)")
        n1, n2, ny = sizes
        py = rng.uniform(0.2, 1.0, ny)
        py /= py.sum()
        px1_y = rng.uniform(0.05, 1.0, (n1, ny))
        px1_y /= px1_y.sum(axis=0)
        px2_y = rng.uniform(0.05, 1.0, (n2, ny))
        px2_y /= px2_y.sum(axis=0)
        p = np.einsum("y,ay,by->aby", py, px1_y, px2_y)
    else:
        p = rng.uniform(0.05, 1.0, sizes)
        p /= p.sum()
    p /= p.sum()
    return DiscreteJoint(p=p)
