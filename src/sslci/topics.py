"""Bag-of-words topic models with a finite topic-mixture prior.

A document of N words is generated by drawing a topic mixture μ from a
finite prior over the simplex, then sampling the words i.i.d. from A·μ
where the columns of A are per-topic word distributions.  The two views
are the normalized bags of words of the two halves of the document; the
scalar label is a linear function of the posterior mean of μ given the
whole document, plus Gaussian noise.

With a finite prior all conditional expectations are exact finite sums, so
the latent-variable construction (a k-valued latent whose posterior given
the first half equals the posterior mean of μ) can be verified by full
enumeration of the half-document count space at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .independence import beta_inv
from .linalg import Array, _softmax_columns, _store_float_fields
from .models import LabeledDataset, make_rng

__all__ = [
    "BarYModel",
    "TopicModelSpec",
    "TopicReport",
    "build_bar_y",
    "random_topic_spec",
    "sample_documents",
    "verify_latent_construction",
]

#: Exact enumeration limits: beyond these the half-document count space
#: grows combinatorially and verification refuses to run.
MAX_VOCAB = 8
MAX_DOC_LEN = 8
MAX_TOPICS = 3


@dataclass(frozen=True)
class TopicModelSpec:
    """Topic model with word matrix ``a`` (V×k, columnwise stochastic),
    finite mixture prior (``tau_weights`` over ``tau_atoms`` on the
    simplex), even document length, downstream weights ``w`` and label
    noise scale.  The arrays are stored as finite float64 arrays;
    ``vocab`` (V), ``topics`` (k) and ``atoms`` are read from their shapes."""

    a: Array
    tau_weights: Array
    tau_atoms: Array
    doc_len: int
    w: Array
    noise_sigma: float
    vocab: int = field(init=False)
    topics: int = field(init=False)
    atoms: int = field(init=False)

    def __post_init__(self):
        _store_float_fields(
            self,
            {
                "a": ("vocab", "topics"),
                "tau_weights": ("atoms",),
                "tau_atoms": ("atoms", "topics"),
                "w": ("topics",),
            },
        )
        a, weights, atoms = self.a, self.tau_weights, self.tau_atoms
        if np.abs(a.sum(axis=0) - 1.0).max() > 1e-10 or a.min() < 0:
            raise ValueError("columns of a must be distributions")
        if abs(weights.sum() - 1.0) > 1e-10 or weights.min() < 0:
            raise ValueError("tau weights must be a distribution")
        if np.abs(atoms.sum(axis=1) - 1.0).max() > 1e-10 or atoms.min() < -1e-12:
            raise ValueError("tau atoms must lie on the simplex")
        if self.doc_len < 2 or self.doc_len % 2 != 0:
            raise ValueError("doc_len must be even and >= 2")
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma must be nonnegative")


def random_topic_spec(
    vocab: int, topics: int, atoms: int, doc_len: int, seed: int
) -> TopicModelSpec:
    """Random desk-scale spec whose word matrix has rank min(vocab, topics)
    (below k when vocab < topics, so the coupling bound is ``inf``)."""
    rng = make_rng(seed, 303)
    a = rng.uniform(0.1, 1.0, (vocab, topics)) + np.eye(vocab, topics)
    a /= a.sum(axis=0)
    atoms_m = rng.uniform(0.05, 1.0, (atoms, topics))
    atoms_m /= atoms_m.sum(axis=1, keepdims=True)
    weights = rng.uniform(0.2, 1.0, atoms)
    weights /= weights.sum()
    return TopicModelSpec(
        a=a,
        tau_weights=weights,
        tau_atoms=atoms_m,
        doc_len=doc_len,
        w=rng.uniform(-1.0, 1.0, topics),
        noise_sigma=0.1,
    )


def _count_vectors(total: int, vocab: int) -> Array:
    """All word-count vectors over a vocabulary summing to ``total``."""
    rows = []
    for combo in combinations_with_replacement(range(vocab), total):
        counts = np.bincount(combo, minlength=vocab)
        rows.append(counts)
    return np.asarray(rows, dtype=np.float64)


def _multinomial_log_pmf(counts: Array, probs: Array) -> Array:
    """log pmf of each count row under each probability column.

    counts: S×V, probs: m×V; returns S×m.  The log factorials come from
    a table of log(n!) for n up to the row total, the largest possible
    count, each the logarithm of the exact integer factorial.
    """
    total = int(counts[0].sum())
    log_fact = np.array([math.log(math.factorial(n)) for n in range(total + 1)])
    log_coef = log_fact[total] - log_fact[counts.astype(int)].sum(axis=1)
    with np.errstate(divide="ignore"):
        logp = np.log(probs)
    terms = counts @ np.where(np.isfinite(logp), logp, 0.0).T
    impossible = counts @ (probs == 0).T > 0
    out = log_coef[:, None] + terms
    out[impossible] = -np.inf
    return out


@dataclass(frozen=True)
class BarYModel:
    """Exact half-document tables for the latent-variable construction.

    ``counts`` enumerates the half-document support; ``p_x1`` is its
    marginal; ``p_ybar_given_x1`` is the posterior mean of μ given the
    first half (the latent's conditional law); ``p_x2_given_ybar`` is the
    half-document law under each pure topic; ``atom_posterior`` is the
    posterior over prior atoms given the first half.
    """

    counts: Array
    p_x1: Array
    p_ybar_given_x1: Array
    p_x2_given_ybar: Array
    atom_posterior: Array
    likelihood: Array


def build_bar_y(spec: TopicModelSpec) -> BarYModel:
    """Enumerate half-documents and build the latent-variable tables."""
    half = spec.doc_len // 2
    counts = _count_vectors(half, spec.vocab)
    word_probs = spec.tau_atoms @ spec.a.T  # m×V
    lik = np.exp(_multinomial_log_pmf(counts, word_probs))  # S×m
    p_x1 = lik @ spec.tau_weights
    atom_post = lik * spec.tau_weights[None, :] / p_x1[:, None]
    p_ybar_given_x1 = atom_post @ spec.tau_atoms  # S×k
    pure = np.exp(_multinomial_log_pmf(counts, spec.a.T))  # S×k
    return BarYModel(
        counts=counts,
        p_x1=p_x1,
        p_ybar_given_x1=p_ybar_given_x1,
        p_x2_given_ybar=pure,
        atom_posterior=atom_post,
        likelihood=lik,
    )


@dataclass(frozen=True)
class TopicReport:
    """Outcome of the exact latent-variable verification."""

    latent_size: int
    eps_ci: float
    linearity_gap: float
    beta_inv: float
    beta_bound: float
    kappa: float
    passed: bool


def verify_latent_construction(spec: TopicModelSpec) -> TopicReport:
    """Exact verification of the latent-variable construction.

    Checks, by full enumeration of the half-document space:

    1. the latent size: the numerical rank of AΓ that :func:`beta_inv`
       reports, k when the k topics are distinguishable through X2,
    2. the conditional mean of the second view given the first computed
       through the true model equals the one computed through the latent
       channel (conditional independence surrogate), to 1e-10,
    3. the optimal label predictor from the first view is exactly linear
       in the latent posterior,
    4. 1/β = ‖(wᵀΓ)(AΓ)†‖₂ is at most κ·‖w‖₂ / s_min(A) where
       Γ = E[μμᵀ], κ is Γ's condition number and s_min(A) is the k-th
       singular value of the V×k word matrix; the bound is inf whenever
       the latent size is below k.

    Refuses specs beyond the enumeration limits.
    """
    if spec.vocab > MAX_VOCAB or spec.doc_len > MAX_DOC_LEN or spec.topics > MAX_TOPICS:
        raise ValueError(
            "spec exceeds exact-enumeration limits "
            f"(vocab <= {MAX_VOCAB}, doc_len <= {MAX_DOC_LEN}, topics <= {MAX_TOPICS})"
        )
    model = build_bar_y(spec)
    x_vec = (2.0 / spec.doc_len) * model.counts  # bag-of-words embedding

    # route 1: E[X2 | x1] by atom posterior and enumeration of the half space
    mean_x2_by_atom = model.likelihood.T @ x_vec  # m×V: Σ_s p(s|μ_j)·x(s)
    lhs = model.atom_posterior @ mean_x2_by_atom
    # route 2: through the latent channel, E[X2 | latent=i] enumerated
    mean_x2_by_topic = model.p_x2_given_ybar.T @ x_vec  # k×V
    rhs = model.p_ybar_given_x1 @ mean_x2_by_topic
    eps_ci = float(
        np.sqrt((model.p_x1 * ((lhs - rhs) ** 2).sum(axis=1)).sum())
    )

    # linearity: E[label | x1] vs wᵀ·(latent posterior).  Summed over every
    # second half s2, p(s2 | s1)·E[label | s1, s2] is the tower sum
    # Σ_j p(atom j | s1)·wᵀμ_j·Σ_s2 p(s2 | atom j), O(S·m); it matches the
    # direct route only if the enumerated likelihood sums to one per atom.
    w, atoms, weights = spec.w, spec.tau_atoms, spec.tau_weights
    via_pairs = model.atom_posterior @ ((atoms @ w) * model.likelihood.sum(axis=0))
    direct = model.p_ybar_given_x1 @ w
    linearity_gap = float(np.abs(via_pairs - direct).max())

    # coupling bound
    gamma = (atoms.T * weights) @ atoms  # E[μ μᵀ]
    evals = np.linalg.eigvalsh((gamma + gamma.T) / 2.0)
    kappa = float(evals.max() / evals.min()) if evals.min() > 0 else float("inf")
    beta = beta_inv((w @ gamma)[None, :], spec.a @ gamma)
    s_min_a = float(np.linalg.svd(spec.a, compute_uv=False)[-1])
    beta_bound = float("inf") if beta.degenerate else kappa * float(np.linalg.norm(w)) / s_min_a

    passed = (
        eps_ci <= 1e-10
        and linearity_gap <= 1e-10
        and beta.value <= beta_bound + 1e-12
    )
    return TopicReport(
        latent_size=beta.rank,
        eps_ci=eps_ci,
        linearity_gap=linearity_gap,
        beta_inv=beta.value,
        beta_bound=beta_bound,
        kappa=kappa,
        passed=passed,
    )


def sample_documents(spec: TopicModelSpec, n: int, seed: int) -> LabeledDataset:
    """n documents: half-document bag-of-words views and noisy labels.

    Each view is (2/N)·counts of its half, so entries sum to one.  The
    label is wᵀE[μ | whole document] plus Gaussian noise.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = make_rng(seed)
    half = spec.doc_len // 2
    weights, atoms, a = spec.tau_weights, spec.tau_atoms, spec.a
    which = rng.choice(weights.size, size=n, p=weights)
    word_probs = atoms[which] @ a.T  # n×V
    c1 = rng.multinomial(half, word_probs)
    c2 = rng.multinomial(half, word_probs)
    x1 = (2.0 / spec.doc_len) * c1
    x2 = (2.0 / spec.doc_len) * c2
    full = (c1 + c2).astype(np.float64)
    with np.errstate(divide="ignore"):
        log_word = np.log(atoms @ a.T)
    log_word = np.where(np.isfinite(log_word), log_word, -1e300)
    loglik = full @ log_word.T + np.log(weights)[None, :]
    labels = (_softmax_columns(loglik.T).T @ atoms) @ spec.w
    y = labels[:, None] + spec.noise_sigma * rng.standard_normal((n, 1))
    return LabeledDataset(x1=x1, x2=x2, y=y)
