"""Experiment runner: seeded trials, CSV output, optional SVG plots.

An experiment is one row of ``EXPERIMENTS``: the config field holding its grid
(label dimension, interpolation coefficient, or downstream sample size;
single-point experiments use the grid ``(0.0,)``) and a trial function.
Every trial takes the config's fields as keywords, ignoring those it does
not read, and returns ``({method: mse}, eps_ci)``.  The grid value replaces
the field named by the grid field without its ``_grid`` suffix (``k_grid``
sets ``k``), and ``seed`` is the trial's derived seed, not the master seed.
A trial's rows are a pure function of (config, grid index, trial), with its
seed derived from (master seed, grid index, trial), so trials could run in
any order.  ``results.csv`` holds them in (grid index, trial) order, one row
per method in the order of the trial's scores; ``summary.csv`` holds the
mean and standard error per grid point and method.  Trials pin numpy's
OpenBLAS to one thread, so outputs are byte-identical for identical config at
any thread count; another BLAS is not pinned (with a warning).
"""

from __future__ import annotations

import csv
import ctypes
import time
import warnings
from dataclasses import asdict, astuple, dataclass, fields
from functools import cache, partial
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .independence import eps_ci_linear, eps_ci_linear_from_data
from .learn import (
    closed_form_f_gaussian,
    closed_form_psi_gaussian,
    closed_form_psi_mixture,
    fit_downstream,
    fit_pretext_linear,
    mean_squared_error,
    optimal_downstream_map,
)
from .models import (
    _gaussian_ci_draw,
    derive_seed,
    discrete_joint_random,
    gaussian_ci_population,
    gaussian_ci_sample,
    make_rng,
    mixture_posterior,
    mixture_sample,
    random_gaussian_ci_spec,
    random_mixture_spec,
)
from .operators import (
    ace_fit,
    ace_objective_identity_check,
    apx_error_bound_eval,
    build_operator_l,
    build_operator_t,
    eps_ci_tilde,
    maximal_correlation,
)
from .topics import random_topic_spec, verify_latent_construction

if TYPE_CHECKING:
    from .config import ExperimentConfig

__all__ = ["RunResult", "TrialRow", "run", "selfcheck_checks", "write_line_plot_svg"]


@dataclass(frozen=True)
class TrialRow:
    """One measurement: a method's score at one grid point and trial."""

    experiment: str
    grid_value: float
    trial: int
    method: str
    mse: float
    eps_ci: float
    seed: int


@dataclass(frozen=True)
class RunResult:
    """All rows, the elapsed wall time and the paths of the written CSVs."""

    rows: tuple[TrialRow, ...]
    wall_time: float
    results_path: Path
    summary_path: Path


def _fit_heads(pre, down_x1, down_y, star) -> dict:
    """{method: (features, head)} for ψ̂ (B̂ fit on ``pre``), ψ* (``star``) and raw x1.  A
    linear map B (B̂, or a d2×d1 array ``star`` such as B*) fits Ŵ on ``down_x1 @ B.T`` and
    gives the composed d1×k head BᵀŴ on identity features; a callable keeps its features."""
    heads, same = {}, lambda x: x
    for m, f in (("psi", fit_pretext_linear(pre.x1, pre.x2)), ("psi-star", star), ("raw-x1", same)):
        w = fit_downstream(f(down_x1) if callable(f) else down_x1 @ f.T, down_y)
        heads[m] = (f, w) if callable(f) else (same, f.T @ w)
    return heads


def _eval_heads(heads, target, ev_x1) -> dict[str, float]:
    """MSE vs ``target`` of each ``_fit_heads`` head, scored as ``features(ev_x1) @ head``."""
    return {m: mean_squared_error(w, f, target, ev_x1) for m, (f, w) in heads.items()}


def _mixture_trial(*, d1, d2, k, alpha, n1, n2, eval_n, seed, **_):
    """One mixture trial; returns per-method MSE and an eps_ci estimate.  One
    helper thread draws the pretext and then the evaluation x2 (drawn on first
    read) while this thread samples, fits and scores; the downstream x2 is
    never read, so never drawn.  The helper calls no public function:
    perfbench's tracer wraps those and keeps one span stack for all threads."""
    from concurrent.futures import ThreadPoolExecutor  # pulls in logging: import on use
    spec = random_mixture_spec(k, d1, d2, alpha, derive_seed(seed, 11))
    pre = mixture_sample(spec, n1, derive_seed(seed, 1))
    with ThreadPoolExecutor(1) as helper:
        helper.submit(getattr, pre, "x2")
        ev = mixture_sample(spec, eval_n, derive_seed(seed, 3))
        helper.submit(getattr, ev, "x2")
        down = mixture_sample(spec, n2, derive_seed(seed, 2))
        star = partial(closed_form_psi_mixture, spec)
        target = partial(mixture_posterior, spec)
        scores = _eval_heads(_fit_heads(pre, down.x1, down.y, star), target, ev.x1)
        return scores, eps_ci_linear_from_data(ev.x1, ev.x2, ev.y)


def _gaussian_population(d1: int, d2: int, k: int, seed: int):
    """Exact-CI Gaussian spec, its blocks, target map E[Y|x1] and analytic eps_ci."""
    spec = random_gaussian_ci_spec(d1, d2, k, seed)
    blocks = gaussian_ci_population(spec)
    eps = eps_ci_linear(
        blocks.sigma_x1x1,
        blocks.sigma_x1x2,
        blocks.sigma_x1y,
        blocks.sigma_yy,
        blocks.sigma_x2y.T,
    )
    return spec, blocks, closed_form_f_gaussian(blocks), eps


def _gaussian_n2_trial(*, d1, d2, k, n1, n2, eval_n, seed, **_):
    """One exact-CI trial at downstream sample size n2.

    The linear-Gaussian model satisfies conditional independence exactly and
    its label noise is Gaussian and independent of x1.  On ψ* (rank k) the
    head is then k-feature OLS, whose MSE is pure estimation noise with mean
    tr(Σ_{Y|X1})·k/(n2 − k − 1), where Σ_{Y|X1} = Σ_YY − Σ_YX1·Σ_X1X1⁻¹·Σ_X1Y.
    The downstream and evaluation samples stop before their x2 draw, which
    nothing reads.  One helper thread draws the downstream and then the
    evaluation sample while this thread draws the pretext sample and fits ψ̂
    and the heads.  The helper calls no public function: perfbench's tracer
    wraps those and keeps one span stack for all threads.
    """
    from concurrent.futures import ThreadPoolExecutor  # pulls in logging: import on use
    spec, blocks, f_map, eps = _gaussian_population(d1, d2, k, derive_seed(seed, 11))
    with ThreadPoolExecutor(1) as helper:
        down = helper.submit(_gaussian_ci_draw, spec, n2, make_rng(derive_seed(seed, 2)))
        ev = helper.submit(_gaussian_ci_draw, spec, eval_n, make_rng(derive_seed(seed, 3)))
        pre = gaussian_ci_sample(spec, n1, derive_seed(seed, 1))
        b_star = closed_form_psi_gaussian(blocks)
        down_y, down_x1 = down.result()
        heads = _fit_heads(pre, down_x1, down_y, b_star)
        return _eval_heads(heads, lambda x: x @ f_map.T, ev.result()[1]), eps


def _gaussian_identity_trial(*, d1, d2, k, seed, **_):
    """Residual of the closed-form identity plus the analytic eps_ci."""
    _, blocks, f_map, eps = _gaussian_population(d1, d2, k, seed)
    b_star, w_star = closed_form_psi_gaussian(blocks), optimal_downstream_map(blocks)
    return {"identity-residual": np.linalg.norm(f_map - w_star.T @ b_star, "fro")}, eps


def _ace_demo_trial(*, seed, **_):
    joint = discrete_joint_random((8, 7, 3), seed)
    solution = ace_fit(joint, k=3)
    svals = np.linalg.svd(build_operator_t(joint), compute_uv=False)
    gap = float(np.abs(solution.sigmas - svals[1:4]).max())
    return {"sigma-gap": gap}, eps_ci_tilde(joint)


def _topic_check_trial(*, seed, **_):
    report = verify_latent_construction(random_topic_spec(5, 2, 3, 4, seed))
    eps = report.eps_ci
    return {
        "eps-ci": eps,
        "linearity-gap": report.linearity_gap,
        "beta-slack": report.beta_bound - report.beta_inv,
    }, eps


def _ci_report_trial(*, k, d1, d2, alpha, eval_n, seed, **_):
    """eps_ci of one mixture sample; x2 is read here, as a helper would only add a handoff."""
    spec = random_mixture_spec(k, d1, d2, alpha, derive_seed(seed, 11))
    data = mixture_sample(spec, eval_n, derive_seed(seed, 3))
    eps = eps_ci_linear_from_data(data.x1, data.x2, data.y)
    return {"eps-ci": eps}, eps


EXPERIMENTS = {
    "mse-vs-k": ("k_grid", _mixture_trial),
    "mse-vs-eps": ("alpha_grid", _mixture_trial),
    "mse-vs-n2": ("n2_grid", _gaussian_n2_trial),
    "exact-ci-gaussian": (None, _gaussian_identity_trial),
    "ace-demo": (None, _ace_demo_trial),
    "topic-check": (None, _topic_check_trial),
    "ci-report": ("alpha_grid", _ci_report_trial),
}


def _grid(config: ExperimentConfig) -> tuple:
    grid_field = EXPERIMENTS[config.experiment][0]
    return getattr(config, grid_field) if grid_field else (0.0,)


def _trial_rows(config: ExperimentConfig, gi: int, trial: int) -> list[TrialRow]:
    """Trial ``trial`` at grid index ``gi``; a ``LinAlgError`` gives one NaN row."""
    grid_field, trial_fn = EXPERIMENTS[config.experiment]
    value = _grid(config)[gi]
    seed = derive_seed(config.seed, gi, trial)
    params = {**asdict(config), "seed": seed}
    if grid_field:
        params[grid_field.removesuffix("_grid")] = value
    try:
        scores, eps = trial_fn(**params)
    except np.linalg.LinAlgError as exc:
        warnings.warn(
            f"{config.experiment} grid value {value} trial {trial} (seed {seed}): "
            f"{exc}; recorded as one NaN 'degenerate' row",
            UserWarning,
            stacklevel=2,
        )
        scores, eps = {"degenerate": float("nan")}, float("nan")
    return [
        TrialRow(config.experiment, float(value), trial, m, float(mse), float(eps), seed)
        for m, mse in scores.items()
    ]


@cache
def _openblas():
    """numpy's OpenBLAS (get, set) thread-count calls; else no-ops, get reading None."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)  # dlsym searches its BLAS too
    for name in ("scipy_openblas{}64_", "scipy_openblas{}", "openblas{}64_", "openblas{}"):
        if hasattr(lib, name.format("_set_num_threads")):
            get, put = (getattr(lib, name.format(f"_{op}_num_threads")) for op in ("get", "set"))
            get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
            return get, put
    warnings.warn("no OpenBLAS thread-count call: output bits can depend on BLAS threads")
    return (lambda: None), (lambda threads: None)


def _experiment_rows(config: ExperimentConfig) -> list[TrialRow]:
    """Every trial's rows in (grid index, trial) order, on one OpenBLAS thread."""
    # glibc raises its mmap and trim thresholds to the size of the largest
    # mmapped block freed so far.  Freeing one 16 MiB block first keeps the
    # trials' multi-megabyte arrays on the heap, where they are reused,
    # instead of being unmapped or trimmed after each trial and faulted in
    # again by the next.  np.empty touches no page, so this costs no memory.
    np.empty(2 << 20)
    points = [(gi, t) for gi in range(len(_grid(config))) for t in range(config.trials)]
    get, put = _openblas()
    threads = get()
    put(1)
    try:
        return [row for gi, t in points for row in _trial_rows(config, gi, t)]
    finally:
        put(threads)


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def summarize(rows: list[TrialRow]) -> list[tuple[str, float, str, float, float]]:
    """Per (grid point, method): mean and standard error of the MSE."""
    groups: dict[tuple[float, str], list[float]] = {}
    for row in rows:
        groups.setdefault((row.grid_value, row.method), []).append(row.mse)
    out = []
    for (grid_value, method), mses in groups.items():
        values = np.asarray(mses)
        mean = float(values.mean())
        stderr = (
            float(values.std(ddof=1) / np.sqrt(values.size)) if values.size > 1 else 0.0
        )
        out.append((rows[0].experiment, grid_value, method, mean, stderr))
    return out


def write_line_plot_svg(path: Path, summary: list[tuple], title: str) -> None:
    """Deterministic SVG of ``summarize`` rows: a line + stderr band per method.

    Rows with a non-finite mean or stderr (degenerate trials) are not drawn
    and do not set the axis ranges; with none left the plot has axes only.
    """
    methods: dict[str, list[tuple[float, float, float]]] = {}
    for _, grid_value, method, mean, stderr in summary:
        if np.isfinite(mean) and np.isfinite(stderr):
            methods.setdefault(method, []).append((grid_value, mean, stderr))
    width, height, margin = 640, 420, 60
    drawn = [pt for pts in methods.values() for pt in pts] or [(0.0, 0.0, 0.0)]
    x_lo, x_hi = min(g for g, _, _ in drawn), max(g for g, _, _ in drawn)
    y_lo = min(m - s for _, m, s in drawn)
    y_hi = max(m + s for _, m, s in drawn)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for idx, (method, pts) in enumerate(sorted(methods.items())):
        pts = sorted(pts)
        color = palette[idx % len(palette)]
        upper = [f"{sx(g):.2f},{sy(m + s):.2f}" for g, m, s in pts]
        lower = [f"{sx(g):.2f},{sy(m - s):.2f}" for g, m, s in reversed(pts)]
        parts.append(
            f'<polygon points="{" ".join(upper + lower)}" fill="{color}" '
            f'fill-opacity="0.15" stroke="none"/>'
        )
        line = " ".join(f"{sx(g):.2f},{sy(m):.2f}" for g, m, _ in pts)
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * idx}" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{method}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def run(config: ExperimentConfig) -> RunResult:
    """Execute the configured experiment and write its CSV artifacts."""
    start = time.perf_counter()
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unusable path fails before any trial
    rows = _experiment_rows(config)
    results_path = out_dir / "results.csv"
    summary_path = out_dir / "summary.csv"
    _write_csv(results_path, [f.name for f in fields(TrialRow)], map(astuple, rows))
    summary = summarize(rows)
    header = ["experiment", "grid_value", "method", "mean", "stderr"]
    _write_csv(summary_path, header, summary)
    if config.plot:
        write_line_plot_svg(out_dir / "plot.svg", summary, config.experiment)
    return RunResult(
        rows=tuple(rows),
        wall_time=time.perf_counter() - start,
        results_path=results_path,
        summary_path=summary_path,
    )


# ---------------------------------------------------------------------------
# self-check suite


def _require(what: str, value, op: str, bound) -> None:
    """Raise, naming ``what`` and both numbers, unless ``value op bound``; kept under -O."""
    if not {"<": value < bound, "<=": value <= bound, ">": value > bound, "==": value == bound}[op]:
        raise AssertionError(f"{what} = {value}, expected {op} {bound}")


def _check_cov_primitives() -> None:
    rng = np.random.default_rng(5)
    from .linalg import empirical_cov, inv_sqrt, partial_cov, pinv

    a = rng.standard_normal((40, 3))
    b = rng.standard_normal((40, 2))
    ca = a - a.mean(axis=0)
    cb = b - b.mean(axis=0)
    oracle = np.array([[(ca[:, i] * cb[:, j]).mean() for j in range(2)] for i in range(3)])
    gap = np.abs(empirical_cov(a, b) - oracle).max()
    _require("max |empirical_cov − oracle|", gap, "<", 1e-12)

    sab = rng.standard_normal((3, 2))
    gap = np.abs(partial_cov(sab, np.zeros((3, 2)), np.eye(2), np.zeros((2, 2))) - sab).max()
    _require("max |partial_cov with zero cross blocks − Σ_ab|", gap, "==", 0)

    m = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3))
    _require("max |m·pinv(m)·m − m|", np.abs(m @ pinv(m) @ m - m).max(), "<", 1e-8)

    g = rng.standard_normal((4, 4))
    psd = g @ g.T
    half = inv_sqrt(psd)
    proj = half @ psd @ half
    _require("max |P² − P|, P = Σ^-½·Σ·Σ^-½", np.abs(proj @ proj - proj).max(), "<", 1e-8)


def _check_least_squares() -> None:
    # κ = 1e3 on the kept directions; the second design adds a singular value
    # of 1e-7, below the 1e-5·σ_max cutoff, which both solves must drop
    rng = np.random.default_rng(17)
    u, _ = np.linalg.qr(rng.standard_normal((60, 8)))
    v, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    b = rng.standard_normal((60, 3))
    tol = 64 * 1e3**2 * np.finfo(np.float64).eps * np.linalg.norm(b)
    for spectrum in (np.logspace(0, -3, 8), np.append(np.logspace(0, -3, 7), 1e-7)):
        a = (u * spectrum) @ v.T
        want = a @ np.linalg.lstsq(a, b, rcond=1e-5)[0]
        gap = np.abs(a @ fit_pretext_linear(a, b).T - want).max()
        _require(f"max |fit − lstsq| at σ_min {spectrum[-1]:g}", gap, "<=", tol)


def _check_precision_routes() -> None:
    from .linalg import gaussian_conditionals_from_precision

    spec = random_gaussian_ci_spec(3, 2, 2, seed=7)
    blocks = gaussian_ci_population(spec)
    m21, my_x, my_x1 = gaussian_conditionals_from_precision(blocks)
    s11 = blocks.sigma_x1x1
    direct_21 = blocks.sigma_x1x2.T @ np.linalg.inv(s11)
    _require("max |M_21 − Σ_21·Σ_11⁻¹|", np.abs(m21 - direct_21).max(), "<", 1e-8)
    direct_y1 = blocks.sigma_x1y.T @ np.linalg.inv(s11)
    _require("max |M_Y1 − Σ_Y1·Σ_11⁻¹|", np.abs(my_x1 - direct_y1).max(), "<", 1e-8)
    joint_xx = np.block([[s11, blocks.sigma_x1x2], [blocks.sigma_x1x2.T, blocks.sigma_x2x2]])
    sigma_yx = np.concatenate([blocks.sigma_x1y.T, blocks.sigma_x2y.T], axis=1)
    direct_yx = sigma_yx @ np.linalg.inv(joint_xx)
    _require("max |M_YX − Σ_YX·Σ_XX⁻¹|", np.abs(my_x - direct_yx).max(), "<", 1e-8)


def _check_gaussian_identity() -> None:
    for seed in range(3):
        scores, eps = _gaussian_identity_trial(d1=6, d2=5, k=2, seed=seed)
        _require(f"identity residual (seed {seed})", scores["identity-residual"], "<", 1e-8)
        _require(f"eps_ci (seed {seed})", eps, "<", 1e-8)


def _check_mixture_identity() -> None:
    from .learn import mixture_two_class_target
    from .models import MixtureSpec

    rng = make_rng(99)
    mu1 = rng.uniform(0, 10, 4)
    mu2 = rng.uniform(0, 10, 3)
    spec = MixtureSpec(np.vstack([mu1, -mu1]), np.vstack([mu2, -mu2]), alpha=0.0)
    points = rng.standard_normal((200, 4)) * 3
    psi = closed_form_psi_mixture(spec, points)
    lhs = mixture_two_class_target(spec, points)
    rhs = psi @ mu2 / (mu2 @ mu2)
    _require("max |two-class target − ψ*·μ2/‖μ2‖²|", np.abs(lhs - rhs).max(), "<", 1e-10)


def _check_operator_suite() -> None:
    joint = discrete_joint_random((6, 5, 2), seed=3, ci_with_y=True)
    t_matrix = build_operator_t(joint)
    svals = np.linalg.svd(t_matrix, compute_uv=False)
    _require("|σ_0(T) − 1|", abs(svals[0] - 1.0), "<", 1e-10)
    _require("σ_2(T) under CI (rank ≤ |Y|)", svals[2], "<", 1e-8)
    _require("max |T − L| under CI", np.abs(t_matrix - build_operator_l(joint)).max(), "<", 1e-10)
    _require("eps_ci_tilde under CI", eps_ci_tilde(joint), "<", 1e-10)

    joint2 = discrete_joint_random((7, 6, 3), seed=4)
    t_matrix2 = build_operator_t(joint2)
    top = np.linalg.svd(t_matrix2 - build_operator_l(joint2), compute_uv=False)[0]
    gap = abs(eps_ci_tilde(joint2) - top)  # the Gram route
    _require("|eps_ci_tilde − σ_max(T − L)|", gap, "<=", 1e-12 * top)
    solution = ace_fit(joint2, k=2)
    dense = np.linalg.svd(t_matrix2, compute_uv=False)
    _require("max |ACE σ − SVD σ|", np.abs(solution.sigmas - dense[1:3]).max(), "<", 1e-8)
    for j in (1, 2):  # the ACE route of maximal_correlation
        gap = abs(maximal_correlation(joint2, j) - dense[j])
        _require(f"|maximal_correlation(j={j}) − σ_{j}|", gap, "<=", 1e-10)
    ace_objective_identity_check(solution, joint2)
    for g_choice in ("pinv_of_A", "bayes_indicator"):  # raises if the error exceeds the bound
        apx_error_bound_eval(solution, joint2, g_choice)


def _check_bayes_gap() -> None:
    from .independence import bayes_gap_check

    lhs, rhs = bayes_gap_check(discrete_joint_random((5, 4, 3), seed=11))
    _require("Bayes gap", lhs, "<=", rhs + 1e-12)


def _check_latent_screening() -> None:
    from .independence import eps_ci_universal, eps_y_bar
    from .models import DiscreteJoint

    ci = eps_ci_universal(discrete_joint_random((5, 4, 3), seed=21, ci_with_y=True))
    _require("eps_ci_universal under CI", ci, "<=", 1e-12)
    generic = eps_ci_universal(discrete_joint_random((5, 4, 3), seed=22))
    _require("eps_ci_universal on a generic joint", generic, ">", 1e-4)
    p = np.zeros((3, 4, 2))  # axes (x1, latent, label), label = latent mod 2
    for s in range(4):
        p[:, s, s % 2] = make_rng(7, s).uniform(0.1, 1.0, 3)
    latent = eps_y_bar(DiscreteJoint(p=p / p.sum()))
    _require("eps_y_bar with label = latent mod 2", latent, "<=", 1e-12)
    generic = eps_y_bar(discrete_joint_random((3, 4, 2), seed=8))
    _require("eps_y_bar on a generic joint", generic, ">", 1e-4)


def _check_topic_model() -> None:
    report = verify_latent_construction(random_topic_spec(4, 2, 3, 4, seed=2))
    _require("topic-model report.passed", report.passed, "==", True)


def _check_determinism() -> None:
    spec = random_mixture_spec(2, 3, 3, 0.0, seed=1)
    a, b, c = (mixture_sample(spec, 50, seed=s) for s in (42, 42, 43))
    same = np.array_equal(a.x1, b.x1) and np.array_equal(a.x2, b.x2)
    _require("x1 and x2 equal at one seed", same, "==", True)
    _require("x1 equal at two seeds", np.array_equal(a.x1, c.x1), "==", False)


def selfcheck_checks() -> list[tuple[str, callable]]:
    """Named fast invariant checks covering every module."""
    return [
        ("covariance-primitives", _check_cov_primitives),
        ("least-squares-rank-cutoff", _check_least_squares),
        ("precision-vs-covariance-routes", _check_precision_routes),
        ("gaussian-closed-form-identity", _check_gaussian_identity),
        ("mixture-two-class-identity", _check_mixture_identity),
        ("operator-suite", _check_operator_suite),
        ("bayes-gap", _check_bayes_gap),
        ("latent-screening", _check_latent_screening),
        ("topic-model", _check_topic_model),
        ("sampling-determinism", _check_determinism),
    ]
