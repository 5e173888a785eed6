"""Topic-model latent-variable construction, verified by enumeration."""

import dataclasses

import numpy as np
import pytest
from scipy.special import comb

from sslci import (
    TopicModelSpec,
    build_bar_y,
    random_topic_spec,
    sample_documents,
    verify_latent_construction,
)
from sslci import topics
from sslci.models import make_rng
from sslci.topics import _count_vectors, _multinomial_log_pmf


def _single_topic_spec(vocab: int = 3, doc_len: int = 4) -> TopicModelSpec:
    a = np.full((vocab, 1), 1.0 / vocab)
    return TopicModelSpec(
        a=a,
        tau_weights=np.array([1.0]),
        tau_atoms=np.array([[1.0]]),
        doc_len=doc_len,
        w=np.array([0.7]),
        noise_sigma=0.0,
    )


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_nonstochastic_word_matrix():
    with pytest.raises(ValueError):
        TopicModelSpec(
            a=np.array([[0.5, 0.5], [0.4, 0.5]]),
            tau_weights=np.array([1.0]),
            tau_atoms=np.array([[0.5, 0.5]]),
            doc_len=4,
            w=np.zeros(2),
            noise_sigma=0.1,
        )


def test_spec_rejects_odd_doc_len():
    a = np.eye(2)
    with pytest.raises(ValueError):
        TopicModelSpec(
            a=a,
            tau_weights=np.array([1.0]),
            tau_atoms=np.array([[0.5, 0.5]]),
            doc_len=3,
            w=np.zeros(2),
            noise_sigma=0.1,
        )


def test_spec_rejects_off_simplex_atoms():
    a = np.eye(2)
    with pytest.raises(ValueError):
        TopicModelSpec(
            a=a,
            tau_weights=np.array([1.0]),
            tau_atoms=np.array([[0.7, 0.7]]),
            doc_len=4,
            w=np.zeros(2),
            noise_sigma=0.1,
        )


def test_spec_rejects_nan_noise_sigma():
    spec = random_topic_spec(4, 2, 3, 4, seed=0)
    with pytest.raises(ValueError):
        dataclasses.replace(spec, noise_sigma=float("nan"))


def test_random_spec_is_valid_and_deterministic():
    spec = random_topic_spec(4, 2, 3, 4, seed=0)
    again = random_topic_spec(4, 2, 3, 4, seed=0)
    assert np.array_equal(spec.a, again.a)
    assert np.array_equal(spec.tau_atoms, again.tau_atoms)
    assert np.linalg.matrix_rank(spec.a) == 2


# ---------------------------------------------------------------------------
# enumeration helpers


def test_count_vectors_complete():
    counts = _count_vectors(3, 4)
    assert counts.shape[0] == comb(3 + 4 - 1, 3, exact=True)
    assert np.all(counts.sum(axis=1) == 3)
    assert len({tuple(row) for row in counts.astype(int)}) == counts.shape[0]


def test_multinomial_log_pmf_sums_to_one():
    counts = _count_vectors(3, 3)
    probs = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    pmf = np.exp(_multinomial_log_pmf(counts, probs))
    assert np.abs(pmf.sum(axis=0) - 1.0).max() < 1e-12


def test_multinomial_log_pmf_impossible_counts():
    counts = np.array([[1.0, 1.0]])
    probs = np.array([[1.0, 0.0]])
    assert _multinomial_log_pmf(counts, probs)[0, 0] == -np.inf


def test_multinomial_log_pmf_hand_value():
    # Binomial(2, 0.25): P(X = 1) = 2 · 0.25 · 0.75
    counts = np.array([[1.0, 1.0]])
    probs = np.array([[0.25, 0.75]])
    assert np.exp(_multinomial_log_pmf(counts, probs)[0, 0]) == pytest.approx(0.375)


# ---------------------------------------------------------------------------
# latent tables


def test_bar_y_tables_are_distributions():
    spec = random_topic_spec(4, 2, 3, 4, seed=1)
    model = build_bar_y(spec)
    assert model.p_x1.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(model.p_ybar_given_x1.sum(axis=1) - 1.0).max() < 1e-10
    assert np.abs(model.p_x2_given_ybar.sum(axis=0) - 1.0).max() < 1e-10
    assert np.abs(model.atom_posterior.sum(axis=1) - 1.0).max() < 1e-10


def test_bar_y_single_atom_posterior_is_that_atom():
    spec = _single_topic_spec()
    model = build_bar_y(spec)
    assert np.abs(model.atom_posterior - 1.0).max() < 1e-12
    assert np.abs(model.p_ybar_given_x1 - 1.0).max() < 1e-12


def test_bar_y_likelihood_brute_force():
    # compare the marginal of x1 against a word-sequence enumeration
    spec = random_topic_spec(3, 2, 2, 4, seed=2)
    model = build_bar_y(spec)
    half = spec.doc_len // 2
    word_probs = spec.tau_atoms @ spec.a.T
    totals = np.zeros(model.counts.shape[0])
    index = {tuple(row.astype(int)): i for i, row in enumerate(model.counts)}
    for w1 in range(3):
        for w2 in range(3):
            key = tuple(np.bincount([w1, w2], minlength=3))
            seq_p = (spec.tau_weights * word_probs[:, w1] * word_probs[:, w2]).sum()
            totals[index[key]] += seq_p
    assert half == 2
    assert np.abs(totals - model.p_x1).max() < 1e-14


# ---------------------------------------------------------------------------
# verification


def test_verify_latent_construction_random_specs():
    # (vocab, topics, atoms, doc_len); the second is at the enumeration
    # limits, a 330-row half-document support
    shapes = [(4, 2, 3, 4)] * 5 + [(8, 3, 4, 8)] * 3
    for seed, shape in enumerate(shapes):
        spec = random_topic_spec(*shape, seed=seed)
        report = verify_latent_construction(spec)
        assert report.passed
        assert report.latent_size == shape[1]
        assert report.eps_ci <= 1e-10
        assert report.linearity_gap <= 1e-10
        assert report.beta_inv <= report.beta_bound + 1e-12


@pytest.mark.parametrize("drop", [0, -1])
def test_linearity_gap_catches_an_incomplete_enumeration(monkeypatch, drop):
    complete = topics._count_vectors

    def one_row_short(total, vocab):
        return np.delete(complete(total, vocab), drop, axis=0)

    monkeypatch.setattr(topics, "_count_vectors", one_row_short)
    report = verify_latent_construction(random_topic_spec(8, 3, 4, 8, seed=1))
    assert report.linearity_gap > 1e-10
    assert not report.passed


def test_verify_latent_construction_zero_weights():
    spec = random_topic_spec(4, 2, 3, 4, seed=6)
    zeroed = TopicModelSpec(
        a=spec.a,
        tau_weights=spec.tau_weights,
        tau_atoms=spec.tau_atoms,
        doc_len=spec.doc_len,
        w=np.zeros(2),
        noise_sigma=spec.noise_sigma,
    )
    report = verify_latent_construction(zeroed)
    assert report.beta_inv == pytest.approx(0.0, abs=1e-14)
    assert report.passed


def test_verify_latent_construction_refuses_large_specs():
    spec = random_topic_spec(4, 2, 3, 4, seed=7)
    big = TopicModelSpec(
        a=spec.a,
        tau_weights=spec.tau_weights,
        tau_atoms=spec.tau_atoms,
        doc_len=10,
        w=spec.w,
        noise_sigma=spec.noise_sigma,
    )
    with pytest.raises(ValueError):
        verify_latent_construction(big)


def test_verify_latent_construction_kappa_one_for_single_topic():
    report = verify_latent_construction(_single_topic_spec())
    assert report.kappa == pytest.approx(1.0)
    assert report.passed


# ---------------------------------------------------------------------------
# sampling


def test_sample_documents_views_are_normalized_bags():
    spec = random_topic_spec(4, 2, 3, 6, seed=8)
    data = sample_documents(spec, 200, seed=9)
    assert np.abs(data.x1.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(data.x2.sum(axis=1) - 1.0).max() < 1e-12
    counts = data.x1 * (spec.doc_len / 2)
    assert np.abs(counts - np.round(counts)).max() < 1e-9


def test_sample_documents_deterministic():
    spec = random_topic_spec(4, 2, 3, 4, seed=10)
    a = sample_documents(spec, 50, seed=11)
    b = sample_documents(spec, 50, seed=11)
    assert np.array_equal(a.x1, b.x1)
    assert np.array_equal(a.x2, b.x2)
    assert np.array_equal(a.y, b.y)


class _RowByRowRng:
    """Generator proxy that draws a batch of multinomials one row at a time."""

    def __init__(self, rng):
        self._rng = rng
        self.batched_rows = 0

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def multinomial(self, n, pvals):
        self.batched_rows += len(pvals)
        return np.vstack([self._rng.multinomial(n, row) for row in pvals])


def test_sample_documents_matches_row_by_row_multinomials(monkeypatch):
    spec = random_topic_spec(6, 3, 4, 8, seed=15)
    fast = sample_documents(spec, 500, seed=16)
    made = []

    def row_by_row(*keys):
        made.append(_RowByRowRng(make_rng(*keys)))
        return made[-1]

    monkeypatch.setattr(topics, "make_rng", row_by_row)
    slow = sample_documents(spec, 500, seed=16)
    assert made[0].batched_rows == 2 * 500
    for name in ("x1", "x2", "y"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_sample_documents_word_marginal():
    # empirical first-view word frequencies match E[A μ]
    spec = random_topic_spec(4, 2, 3, 4, seed=12)
    data = sample_documents(spec, 100_000, seed=13)
    expected = spec.a @ (spec.tau_weights @ spec.tau_atoms)
    assert np.abs(data.x1.mean(axis=0) - expected).max() < 0.01


def test_sample_documents_single_topic_label_constant():
    spec = _single_topic_spec()
    data = sample_documents(spec, 100, seed=14)
    assert np.abs(data.y - 0.7).max() < 1e-12
