"""Synthetic data models: analytic blocks, sampling, determinism."""

import copy
import dataclasses
import pickle
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslci import (
    GaussianCISpec,
    MixtureSpec,
    derive_seed,
    discrete_joint_random,
    empirical_cov,
    gaussian_ci_population,
    gaussian_ci_sample,
    mixture_posterior,
    mixture_sample,
    random_gaussian_ci_spec,
    random_mixture_spec,
    random_topic_spec,
)
import sslci.models
from sslci.models import DiscreteJoint, LabeledDataset, _gaussian_ci_draw, make_rng


# ---------------------------------------------------------------------------
# Gaussian model


def test_gaussian_population_zero_loading():
    spec = GaussianCISpec(
        m1=np.zeros((2, 2)),
        m2=np.ones((3, 2)),
        noise1=1.0,
        noise2=1.0,
        sigma_y=np.eye(2),
    )
    blocks = gaussian_ci_population(spec)
    assert np.array_equal(blocks.sigma_x1x2, np.zeros((2, 3)))
    assert np.array_equal(blocks.sigma_x1y, np.zeros((2, 2)))


def test_gaussian_population_scalar_hand_case():
    spec = GaussianCISpec(
        m1=np.array([[1.0]]),
        m2=np.array([[1.0]]),
        noise1=1.0,
        noise2=1.0,
        sigma_y=np.array([[1.0]]),
    )
    blocks = gaussian_ci_population(spec)
    assert blocks.sigma_x1x1[0, 0] == pytest.approx(2.0)
    assert blocks.sigma_x1x2[0, 0] == pytest.approx(1.0)
    assert blocks.sigma_x2y[0, 0] == pytest.approx(1.0)


def _spec_with_sigma_y(sigma_y):
    return GaussianCISpec(
        m1=np.ones((2, 2)), m2=np.ones((3, 2)), noise1=1.0, noise2=1.0, sigma_y=sigma_y
    )


@pytest.mark.parametrize(
    "sigma_y, message",
    [([[1.0, 2.0], [2.0, 1.0]], "eigenvalue -1"), ([[1.0, 0.5], [0.0, 1.0]], "symmetric")],
    ids=["indefinite", "asymmetric"],
)
def test_gaussian_spec_rejects_a_sigma_y_that_is_not_a_covariance(sigma_y, message):
    with pytest.raises(ValueError, match=f"sigma_y.*{message}"):
        _spec_with_sigma_y(np.array(sigma_y))


def test_gaussian_spec_stores_sigma_y_symmetrized():
    # within inv_sqrt's symmetry rule, and singular but PSD
    spec = _spec_with_sigma_y(np.array([[1.0, 1.0 + 1e-12], [1.0, 1.0]]))
    assert np.array_equal(spec.sigma_y, spec.sigma_y.T)
    assert spec.sigma_y[0, 1] == (1.0 + (1.0 + 1e-12)) / 2.0


def test_gaussian_sample_matches_population():
    spec = random_gaussian_ci_spec(3, 2, 2, seed=5)
    blocks = gaussian_ci_population(spec)
    data = gaussian_ci_sample(spec, 200_000, seed=1)
    n = data.x1.shape[0]
    # SD of a product of two Gaussians is at most ~sqrt(2)·(max variance);
    # allow five such standard errors entrywise.
    tol = 5 * np.sqrt(2) * np.diag(blocks.joint()).max() / np.sqrt(n)
    for emp, pop in [
        (empirical_cov(data.x1, data.x1), blocks.sigma_x1x1),
        (empirical_cov(data.x1, data.x2), blocks.sigma_x1x2),
        (empirical_cov(data.x1, data.y), blocks.sigma_x1y),
        (empirical_cov(data.x2, data.y), blocks.sigma_x2y),
        (empirical_cov(data.y, data.y), blocks.sigma_yy),
    ]:
        assert np.abs(emp - np.asarray(pop)).max() < tol


def test_gaussian_sample_deterministic():
    spec = random_gaussian_ci_spec(2, 2, 1, seed=9)
    a = gaussian_ci_sample(spec, 100, seed=3)
    b = gaussian_ci_sample(spec, 100, seed=3)
    c = gaussian_ci_sample(spec, 100, seed=4)
    assert np.array_equal(a.x1, b.x1)
    assert np.array_equal(a.y, b.y)
    assert not np.array_equal(a.x1, c.x1)


@settings(max_examples=40, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4)),
    spec_seed=st.integers(0, 10_000),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**63 - 1),
)
def test_gaussian_head_is_bit_equal_to_the_sample_y_and_x1(dims, spec_seed, n, seed):
    spec = random_gaussian_ci_spec(*dims, seed=spec_seed)
    y, x1 = _gaussian_ci_draw(spec, n, make_rng(seed))
    full = gaussian_ci_sample(spec, n, seed)
    # the model's first two draws: y, then the x1 noise
    rng = make_rng(seed)
    evals, vecs = np.linalg.eigh((spec.sigma_y + spec.sigma_y.T) / 2.0)
    want_y = rng.standard_normal((n, spec.k)) @ ((vecs * np.sqrt(evals)) @ vecs.T).T
    want_x1 = want_y @ spec.m1.T + spec.noise1 * rng.standard_normal((n, spec.d1))
    for head, whole, want in ((y, full.y, want_y), (x1, full.x1, want_x1)):
        assert head.shape == whole.shape and head.dtype == whole.dtype
        assert head.tobytes() == whole.tobytes()
        np.testing.assert_allclose(head, want, rtol=1e-12, atol=1e-12)


def test_gaussian_head_rejects_empty_samples():
    spec = random_gaussian_ci_spec(2, 2, 1, seed=9)
    with pytest.raises(ValueError, match="n must be >= 1"):
        _gaussian_ci_draw(spec, 0, make_rng(1))
    with pytest.raises(ValueError, match="n must be >= 1"):
        gaussian_ci_sample(spec, 0, 1)


# ---------------------------------------------------------------------------
# mixture model


def test_mixture_alpha_one_copies_first_view():
    spec = random_mixture_spec(3, 5, 3, alpha=1.0, seed=2)
    data = mixture_sample(spec, 50, seed=1)
    assert np.array_equal(data.x2, data.x1[:, :3])

    spec_pad = random_mixture_spec(3, 2, 4, alpha=1.0, seed=2)
    data_pad = mixture_sample(spec_pad, 50, seed=1)
    assert np.array_equal(data_pad.x2[:, :2], data_pad.x1)
    assert np.array_equal(data_pad.x2[:, 2:], np.zeros((50, 2)))


def test_mixture_class_conditional_means():
    spec = random_mixture_spec(2, 1, 1, alpha=0.0, seed=3)
    data = mixture_sample(spec, 100_000, seed=7)
    labels = data.y.argmax(axis=1)
    for cls in range(2):
        mean = data.x1[labels == cls].mean(axis=0)
        count = (labels == cls).sum()
        assert np.abs(mean - spec.centers1[cls]).max() < 5 / np.sqrt(count)


def test_mixture_conditional_cross_cov_small_at_alpha_zero():
    spec = random_mixture_spec(2, 3, 3, alpha=0.0, seed=4)
    data = mixture_sample(spec, 50_000, seed=8)
    labels = data.y.argmax(axis=1)
    for cls in range(2):
        sel = labels == cls
        cross = empirical_cov(data.x1[sel], data.x2[sel])
        assert np.abs(cross).max() < 5 / np.sqrt(sel.sum())


def test_mixture_posterior_symmetry_and_concentration():
    centers1 = np.array([[0.0, 0.0], [4.0, 0.0]])
    centers2 = np.array([[1.0], [2.0]])
    spec = MixtureSpec(centers1=centers1, centers2=centers2, alpha=0.0)
    midpoint = np.array([[2.0, 0.0]])
    assert np.allclose(mixture_posterior(spec, midpoint), [[0.5, 0.5]], atol=1e-12)
    at_center = mixture_posterior(spec, np.array([[0.0, 0.0]]))
    assert at_center[0, 0] > 0.99


def test_mixture_posterior_matches_density_ratio_oracle():
    spec = random_mixture_spec(3, 2, 2, alpha=0.0, seed=6)
    rng = make_rng(20)
    x = rng.uniform(0, 10, 2)
    dens = np.array(
        [np.exp(-0.5 * np.sum((x - c) ** 2)) for c in spec.centers1], dtype=np.float64
    )
    oracle = dens / dens.sum()
    assert np.allclose(mixture_posterior(spec, x[None, :]), [oracle], atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_mixture_posterior_rows_sum_to_one(seed):
    spec = random_mixture_spec(4, 3, 2, alpha=0.5, seed=seed)
    rng = make_rng(seed, 30)
    pts = rng.uniform(-5, 15, (8, 3))
    post = mixture_posterior(spec, pts)
    assert np.abs(post.sum(axis=1) - 1.0).max() < 1e-12
    assert post.min() >= 0


def _tensor_form_posterior(centers: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Posterior from −½‖x − c‖² over the full n×k×d1 difference tensor."""
    diff = x[:, None, :] - centers[None, :, :]
    logd = -0.5 * np.einsum("nkd,nkd->nk", diff, diff)
    logd -= logd.max(axis=1, keepdims=True)
    post = np.exp(logd)
    return post / post.sum(axis=1, keepdims=True)


def _overlapping_mixture(k: int, d1: int, rng) -> MixtureSpec:
    return MixtureSpec(
        centers1=0.5 * rng.standard_normal((k, d1)),
        centers2=np.zeros((k, 1)),
        alpha=0.0,
    )


def test_mixture_posterior_matches_tensor_form_on_overlapping_centers():
    worst = 0.0
    for seed in range(200):
        rng = make_rng(seed, 40)
        spec = _overlapping_mixture(int(rng.integers(2, 17)), int(rng.integers(1, 61)), rng)
        x = 3.0 * rng.standard_normal((50, spec.d1))
        oracle = _tensor_form_posterior(spec.centers1, x)
        worst = max(worst, float(np.abs(mixture_posterior(spec, x) - oracle).max()))
    assert worst <= 1e-12


@pytest.mark.parametrize("shape", [(3,), (2, 2, 3)], ids=["vector", "3-axis"])
def test_mixture_posterior_takes_only_a_batch(shape):
    spec = random_mixture_spec(2, 3, 2, alpha=0.5, seed=41)
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        mixture_posterior(spec, np.zeros(shape))


def test_mixture_posterior_builds_no_difference_tensor():
    # the n×k×d1 tensor alone would take 64 MB at this size
    spec = random_mixture_spec(16, 50, 40, alpha=0.0, seed=42)
    x = mixture_sample(spec, 10_000, seed=43).x1
    tracemalloc.start()
    try:
        mixture_posterior(spec, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _eager_mixture_sample(spec, n, seed):
    """Reference: the whole mixture sample drawn at once, x2 last."""
    rng = make_rng(seed)
    labels = rng.integers(0, spec.k, size=n)
    x1 = spec.centers1[labels] + rng.standard_normal((n, spec.d1))
    x2_hat = spec.centers2[labels] + rng.standard_normal((n, spec.d2))
    if spec.d1 < spec.d2:
        x1_fit = np.concatenate([x1, np.zeros((n, spec.d2 - spec.d1))], axis=1)
    else:
        x1_fit = x1[:, : spec.d2]
    x2 = (1.0 - spec.alpha) * x2_hat + spec.alpha * x1_fit
    return x1, x2, np.eye(spec.k)[labels]


def _read_on_a_helper(data):
    helper = threading.Thread(target=getattr, args=(data, "x2"))
    helper.start()
    helper.join(timeout=30)
    assert not helper.is_alive() and "x2" in vars(data)  # drawn and stored there


def _assert_same_bytes(data, reference):
    for block, want in zip((data.x1, data.x2, data.y), reference):
        assert type(block) is np.ndarray and block.dtype == np.float64
        assert block.shape == want.shape and block.tobytes() == want.tobytes()


@pytest.mark.parametrize("reader", ["main", "helper"])
@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("d1, d2", [(2, 5), (4, 4), (6, 3)])
def test_mixture_x2_drawn_on_first_read_equals_the_eager_draw(d1, d2, alpha, reader):
    spec = random_mixture_spec(3, d1, d2, alpha, seed=9)
    data = mixture_sample(spec, 500, seed=21)
    assert "x2" not in vars(data)
    if reader == "helper":
        _read_on_a_helper(data)
    _assert_same_bytes(data, _eager_mixture_sample(spec, 500, seed=21))


def test_threads_reading_x2_at_once_share_one_draw(monkeypatch):
    draws = []

    def counted(*args, draw=sslci.models._mixture_x2):
        draws.append(threading.current_thread())
        return draw(*args)

    monkeypatch.setattr(sslci.models, "_mixture_x2", counted)
    spec = random_mixture_spec(4, 30, 20, 0.3, seed=2)
    reference = _eager_mixture_sample(spec, 20_000, seed=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            data, read = mixture_sample(spec, 20_000, seed=3), []
            start = threading.Barrier(4)  # more readers than cores

            def reader(data=data, read=read, start=start):
                start.wait()
                read.append(data.x2)

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert len(read) == 4 and all(block is data.x2 for block in read)
            _assert_same_bytes(data, reference)
    finally:
        sys.setswitchinterval(interval)
    assert len(draws) == 5


@pytest.mark.parametrize(
    "clone",
    [
        lambda data: pickle.loads(pickle.dumps(data)),
        copy.deepcopy,
        lambda data: dataclasses.replace(data, y=data.y.copy()),
    ],
    ids=["pickle", "deepcopy", "replace"],
)
def test_unread_mixture_sample_copies_with_its_drawn_x2(clone):
    spec = random_mixture_spec(3, 5, 4, 0.3, seed=1)
    data = mixture_sample(spec, 50, seed=8)
    copied = clone(data)
    assert type(copied) is LabeledDataset and "_x2" not in vars(copied)
    reference = _eager_mixture_sample(spec, 50, seed=8)
    _assert_same_bytes(copied, reference)
    _assert_same_bytes(data, reference)
    assert repr(copied) == repr(data)


def test_write_into_x1_before_the_x2_read_cannot_change_x2():
    spec = random_mixture_spec(3, 4, 4, 1.0, seed=1)
    data = mixture_sample(spec, 50, seed=8)
    with pytest.raises(ValueError, match="read-only"):
        data.x1[0, 0] = 1e9
    _assert_same_bytes(data, _eager_mixture_sample(spec, 50, seed=8))


def test_failed_x2_draw_re_raises_on_every_read(monkeypatch):
    calls = []

    def fails_once(*args, draw=sslci.models._mixture_x2):
        calls.append(args)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("draw failed")
        return draw(*args)  # a retry would draw from a generator already advanced

    monkeypatch.setattr(sslci.models, "_mixture_x2", fails_once)
    data = mixture_sample(random_mixture_spec(2, 3, 3, 0.5, seed=1), 10, seed=2)
    for read in (lambda: data.x2, lambda: repr(data), lambda: pickle.dumps(data)):
        with pytest.raises(np.linalg.LinAlgError, match="draw failed"):
            read()
    assert len(calls) == 1


def test_labeled_dataset_keeps_its_arrays_and_row_check():
    x1, x2, y = np.zeros((3, 2)), np.ones((3, 1)), np.eye(3)
    data = LabeledDataset(x1=x1, x2=x2, y=y)
    assert data.x1 is x1 and data.x2 is x2 and data.y is y
    with pytest.raises(AttributeError):
        data.x3
    with pytest.raises(ValueError, match="x2 has 2 rows"):
        LabeledDataset(x1=x1, x2=x2[:2], y=y)


def test_mixture_rejects_bad_alpha():
    with pytest.raises(ValueError):
        random_mixture_spec(2, 2, 2, alpha=1.5, seed=0)


@pytest.mark.parametrize("field", ["noise1", "noise2"])
def test_gaussian_spec_rejects_nan_noise(field):
    spec = random_gaussian_ci_spec(3, 2, 2, seed=0)
    with pytest.raises(ValueError):
        dataclasses.replace(spec, **{field: float("nan")})


# ---------------------------------------------------------------------------
# array fields are checked once, at construction

SPEC_ARRAY_FIELDS = {
    "CovarianceBlocks": (
        "sigma_x1x1",
        "sigma_x1x2",
        "sigma_x1y",
        "sigma_x2x2",
        "sigma_x2y",
        "sigma_yy",
    ),
    "MixtureSpec": ("centers1", "centers2"),
    "GaussianCISpec": ("m1", "m2", "sigma_y"),
    "TopicModelSpec": ("a", "tau_weights", "tau_atoms", "w"),
}


def _valid_specs() -> dict:
    gaussian = random_gaussian_ci_spec(3, 2, 2, seed=0)
    return {
        "CovarianceBlocks": gaussian_ci_population(gaussian),
        "MixtureSpec": random_mixture_spec(2, 3, 2, 0.0, seed=0),
        "GaussianCISpec": gaussian,
        "TopicModelSpec": random_topic_spec(4, 2, 3, 4, seed=0),
    }


@pytest.mark.parametrize(
    "kind, field",
    [(kind, field) for kind, names in SPEC_ARRAY_FIELDS.items() for field in names],
)
def test_spec_rejects_non_finite_array_field(kind, field):
    valid = _valid_specs()[kind]
    for bad in (np.nan, np.inf, -np.inf):
        value = np.array(getattr(valid, field), dtype=np.float64)
        value.flat[-1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            dataclasses.replace(valid, **{field: value})


@pytest.mark.parametrize(
    "kind, field",
    [(kind, field) for kind, names in SPEC_ARRAY_FIELDS.items() for field in names],
)
def test_spec_rejects_extra_axis_on_array_field(kind, field):
    valid = _valid_specs()[kind]
    value = np.asarray(getattr(valid, field))[..., None]
    with pytest.raises(ValueError, match="has shape"):
        dataclasses.replace(valid, **{field: value})


def test_mixture_spec_rejects_zero_classes():
    with pytest.raises(ValueError, match="has shape"):
        MixtureSpec(centers1=np.zeros((0, 3)), centers2=np.zeros((0, 2)), alpha=0.0)


def test_covariance_blocks_reject_a_0d_block():
    blocks = _valid_specs()["CovarianceBlocks"]
    with pytest.raises(ValueError, match="has shape"):
        dataclasses.replace(blocks, sigma_x1x1=np.array(1.0))


def test_spec_dimensions_are_read_from_the_arrays():
    specs = _valid_specs()
    for kind in ("CovarianceBlocks", "MixtureSpec", "GaussianCISpec"):
        assert (specs[kind].d1, specs[kind].d2) == (3, 2)
        assert specs[kind].k == 2
    topic = specs["TopicModelSpec"]
    assert (topic.vocab, topic.topics, topic.atoms) == (4, 2, 3)
    wider = dataclasses.replace(specs["MixtureSpec"], centers2=np.zeros((2, 5)))
    assert wider.d2 == 5
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(specs["MixtureSpec"], k=3)
    with pytest.raises(ValueError, match="has shape .* expected k = 2"):
        dataclasses.replace(specs["MixtureSpec"], centers2=np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# discrete joints


def test_discrete_joint_random_sums_to_one():
    joint = discrete_joint_random((4, 5), seed=1)
    assert abs(joint.p.sum() - 1.0) < 1e-12
    assert joint.marginal_x1().min() > 0
    assert joint.marginal_x2().min() > 0


def test_discrete_joint_ci_construction_factorizes():
    joint = discrete_joint_random((4, 3, 2), seed=2, ci_with_y=True)
    p = joint.p
    py = joint.marginal_y()
    for y in range(2):
        cond = p[:, :, y] / py[y]
        outer = cond.sum(axis=1)[:, None] * cond.sum(axis=0)[None, :]
        assert np.abs(cond - outer).max() < 1e-12


def test_discrete_joint_requires_valid_tensor():
    with pytest.raises(ValueError):
        DiscreteJoint(p=np.full((2, 2), 0.3))
    with pytest.raises(ValueError):
        DiscreteJoint(p=np.array([[0.5, 0.5], [0.0, 0.0]]))


@pytest.mark.parametrize("labels", range(2, 8))
def test_p_x1x2_is_bit_equal_to_the_label_sum_below_eight_labels(labels):
    joint = discrete_joint_random((23, 17, labels), seed=labels)
    assert joint.p_x1x2().tobytes() == joint.p.sum(axis=2).tobytes()


@pytest.mark.parametrize("labels", (8, 9, 16))
def test_p_x1x2_matches_the_label_sum_to_rounding_from_eight_labels(labels):
    # numpy reduces 8 or more contiguous terms through eight partial sums
    joint = discrete_joint_random((23, 17, labels), seed=labels)
    ref = joint.p.sum(axis=2)
    assert np.abs(joint.p_x1x2() - ref).max() <= 1e-14 * np.abs(ref).max()


def test_p_x1x2_returns_a_fresh_writable_array():
    joint = discrete_joint_random((5, 4, 3), seed=3)
    p12 = joint.p_x1x2()
    assert p12.flags.writeable and p12.flags.c_contiguous
    assert not np.shares_memory(p12, joint.p)
    p12[0, 0] = -1.0
    assert joint.p_x1x2()[0, 0] > 0
    two_axis = discrete_joint_random((5, 4), seed=3)
    assert two_axis.p_x1x2() is two_axis.p


def test_discrete_joint_determinism():
    a = discrete_joint_random((3, 3, 2), seed=5)
    b = discrete_joint_random((3, 3, 2), seed=5)
    c = discrete_joint_random((3, 3, 2), seed=6)
    assert np.array_equal(a.p, b.p)
    assert not np.array_equal(a.p, c.p)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
