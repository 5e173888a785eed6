"""The ``finite-support`` workload: operator and topic-model library calls.

Each pass solves the same seeded problems, with no harness involved:

- random joints p(x1, x2, y) over |X1| = |X2| ∈ {12, 200, 800} and three
  labels, each given to ``ace_fit`` (k = 3), the dense route
  ``maximal_correlation``, ``eps_ci_tilde`` and ``apx_error_bound_eval``
  (both witness choices);
- exact ``verify_latent_construction`` at the enumeration limits
  (vocabulary 8, document length 8, 3 topics: a 330-row support);
- ``sample_documents`` batches of 20,000 documents.

The joints have a prescribed weighted spectrum: p(x1, x2) =
(1 + Σ_i σ_i f_i(x1) g_i(x2)) / n² with seeded, row-permuted cosine
functions f_i, g_i and σ = SPECTRUM, times a seeded label channel
q(y | x1, x2).  On a uniform random joint the top correlations sit at the
edge of the random-matrix bulk, where their gaps, and with them the ACE
sweep count, change several-fold from seed to seed (372 to 2,935 sweeps at
|X| = 800); a fixed spectrum keeps the work per pass nearly independent of
the seed while the seed still sets every function and the label channel.
Cosines are bounded by √2, so Σσ < 1/2 keeps every probability positive.
"""

from __future__ import annotations

import hashlib

import numpy as np

SPECTRUM = (0.14, 0.11, 0.085, 0.08, 0.04, 0.02)
#: (support size, joints per pass)
JOINTS = ((12, 32), (200, 12), (800, 1))
LABELS = 3
ACE_K = 3
TOPIC_SPECS = 8
TOPIC_SHAPE = dict(vocab=8, topics=3, atoms=4, doc_len=8)
DOC_BATCHES = 5
DOCS_PER_BATCH = 20_000

SIGMA_TOL = 1e-8


def _rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


def joint_array(n: int, seed: int, index: int) -> np.ndarray:
    rng = _rng(seed, 1, n, index)
    grid = (np.arange(n) + 0.5) / n

    def functions():
        freqs = rng.choice(np.arange(1, n), size=len(SPECTRUM), replace=False)
        return (np.sqrt(2.0) * np.cos(np.pi * np.outer(grid, freqs)))[rng.permutation(n)]

    f, g = functions(), functions()
    p12 = (1.0 + (f * np.asarray(SPECTRUM)) @ g.T) / n**2
    q = rng.uniform(0.05, 1.0, (n, n, LABELS))
    p = p12[:, :, None] * (q / q.sum(axis=2, keepdims=True))
    return p / p.sum()


def topic_arrays(seed: int, index: int) -> dict:
    vocab, topics, atoms = (TOPIC_SHAPE[key] for key in ("vocab", "topics", "atoms"))
    rng = _rng(seed, 2, index)
    a = rng.uniform(0.1, 1.0, (vocab, topics)) + np.eye(vocab, topics)
    tau_atoms = rng.uniform(0.05, 1.0, (atoms, topics))
    weights = rng.uniform(0.2, 1.0, atoms)
    return dict(
        a=a / a.sum(axis=0),
        tau_weights=weights / weights.sum(),
        tau_atoms=tau_atoms / tau_atoms.sum(axis=1, keepdims=True),
        doc_len=TOPIC_SHAPE["doc_len"],
        w=rng.uniform(-1.0, 1.0, topics),
        noise_sigma=0.1,
    )


def make_problems(sslci, seed: int) -> list[tuple]:
    """The pass's inputs, built from the seed: (kind, payload) pairs."""
    problems = []
    for n, count in JOINTS:
        for index in range(count):
            problems.append(("joint", sslci.DiscreteJoint(p=joint_array(n, seed, index))))
    for index in range(TOPIC_SPECS):
        problems.append(("topic", sslci.TopicModelSpec(**topic_arrays(seed, index))))
    docs_spec = sslci.TopicModelSpec(**topic_arrays(seed, TOPIC_SPECS))
    for batch in range(DOC_BATCHES):
        seed_b = int(_rng(seed, 3, batch).integers(2**62))
        problems.append(("docs", (docs_spec, DOCS_PER_BATCH, seed_b)))
    return problems


def solve(sslci, problems, mark_item=lambda: None) -> list:
    """The timed part of a pass: one library result per problem."""
    out = []
    for kind, payload in problems:
        mark_item()
        if kind == "joint":
            solution = sslci.ace_fit(payload, k=ACE_K)
            out.append(
                (
                    solution,
                    sslci.maximal_correlation(payload, ACE_K),
                    sslci.eps_ci_tilde(payload),
                    [
                        sslci.apx_error_bound_eval(solution, payload, choice)
                        for choice in ("pinv_of_A", "bayes_indicator")
                    ],
                )
            )
        elif kind == "topic":
            out.append(sslci.verify_latent_construction(payload))
        else:
            out.append(sslci.sample_documents(*payload))
    return out


def _check_joint(joint, result) -> tuple[list[str], float, float]:
    """Failures, ACE residual and σ error of one joint, from NumPy alone."""
    solution, top_k, eps_tilde, bounds = result
    p12 = joint.p.sum(axis=2)
    d1, d2 = p12.sum(axis=1), p12.sum(axis=0)
    root1, root2 = np.sqrt(d1), np.sqrt(d2)
    weighted = p12 / np.outer(root1, root2)
    dense = np.linalg.svd(weighted, compute_uv=False)
    psi, eta, sigmas = solution.psi, solution.eta, solution.sigmas
    notes = []
    if not solution.converged:
        notes.append(f"ace_fit did not converge in {solution.iterations} sweeps")
    sigma_err = float(np.abs(sigmas - dense[1 : ACE_K + 1]).max())
    if not sigma_err <= SIGMA_TOL:
        notes.append(f"ACE sigma differs from the dense SVD by {sigma_err:.3e}")
    if not abs(top_k - dense[ACE_K]) <= 1e-10:
        notes.append(f"maximal_correlation {top_k!r} != dense {dense[ACE_K]!r}")
    # residual ‖M_def η − σ ψ‖ in the weighted geometry (reported, not gated)
    m_def = weighted - np.outer(root1, root2)
    residual = float(
        np.linalg.norm(m_def @ (eta * root2[:, None]) - psi * root1[:, None] * sigmas, axis=0).max()
    )
    # ACE/CCA identity: l_ace = 2k − 2 l_cca for an orthonormal pair
    gram_psi = psi.T @ (psi * d1[:, None])
    gram_eta = eta.T @ (eta * d2[:, None])
    eye = np.eye(ACE_K)
    if max(np.abs(gram_psi - eye).max(), np.abs(gram_eta - eye).max()) > 1e-8:
        notes.append("ACE functions are not orthonormal under the marginals")
    l_ace = float((p12[:, :, None] * (psi[:, None, :] - eta[None, :, :]) ** 2).sum())
    l_cca = float(np.einsum("ab,ak,bk->", p12, psi, eta))
    if abs(l_ace - (2.0 * ACE_K - 2.0 * l_cca)) > 1e-10:
        notes.append(f"ACE/CCA identity off by {abs(l_ace - 2 * ACE_K + 2 * l_cca):.3e}")
    if not 0.0 <= eps_tilde <= 2.0:
        notes.append(f"eps_ci_tilde {eps_tilde!r} outside [0, 2]")
    for bound, actual in bounds:
        if not 0.0 <= actual <= bound + 1e-8:
            notes.append(f"apx error {actual!r} exceeds bound {bound!r}")
    return notes, residual, sigma_err


def _check_docs(payload, data) -> list[str]:
    spec, n, _ = payload
    notes = []
    for name in ("x1", "x2"):
        x = getattr(data, name)
        if x.shape != (n, spec.vocab) or np.abs(x.sum(axis=1) - 1.0).max() > 1e-12:
            notes.append(f"{name} is not a batch of normalised half-document bags")
    if data.y.shape != (n, 1) or not np.isfinite(data.y).all():
        notes.append("labels are not a finite n×1 column")
    return notes


def check(problems, results) -> dict:
    """Correctness gate of one pass, plus the digest of everything it returned."""
    digest = hashlib.sha256()
    failed, notes = 0, []
    residual_max = sigma_err_max = 0.0
    for (kind, payload), result in zip(problems, results, strict=True):
        if kind == "joint":
            item_notes, residual, sigma_err = _check_joint(payload, result)
            residual_max = max(residual_max, residual)
            sigma_err_max = max(sigma_err_max, sigma_err)
            solution, top_k, eps_tilde, bounds = result
            for array in (solution.psi, solution.eta, solution.sigmas):
                digest.update(array.tobytes())
            digest.update(np.array([top_k, eps_tilde, *np.ravel(bounds)]).tobytes())
        elif kind == "topic":
            item_notes = [] if result.passed and result.latent_size == payload.topics else [
                f"topic report failed: {result}"
            ]
            digest.update(repr(result).encode())
        else:
            item_notes = _check_docs(payload, result)
            for array in (result.x1, result.x2, result.y):
                digest.update(array.tobytes())
        failed += bool(item_notes)
        notes += [f"{kind}: {note}" for note in item_notes]
    return dict(
        items=len(problems),
        failed=failed,
        notes=notes,
        digest=digest.hexdigest(),
        residual_max=residual_max,
        sigma_err_max=sigma_err_max,
    )
