"""Configuration loading, the experiment harness, and the command line."""

import csv
import os
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import sslci
from sslci.cli import main, read_joint_file, read_topic_spec_file
from sslci.config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config_file,
)
from sslci.harness import (
    EXPERIMENTS,
    TrialRow,
    _eval_heads,
    _experiment_rows,
    _fit_heads,
    _gaussian_n2_trial,
    _gaussian_population,
    _mixture_trial,
    _openblas,
    _trial_rows,
    run,
    selfcheck_checks,
    summarize,
    write_line_plot_svg,
)
from sslci.learn import (
    closed_form_psi_gaussian,
    closed_form_psi_mixture,
    fit_downstream,
    fit_pretext_linear,
    mean_squared_error,
)
from sslci.models import (
    derive_seed,
    gaussian_ci_sample,
    mixture_posterior,
    mixture_sample,
    random_mixture_spec,
)

JOINT_CI = """3 3 2
0.05 0.05 0.05 0.05 0.10 0.05 0.05 0.05 0.10
0.04 0.06 0.04 0.06 0.04 0.06 0.04 0.06 0.05
"""

TOPIC_SPEC = """# two topics over four words
a = 0.4,0.1; 0.3,0.2; 0.2,0.3; 0.1,0.4
tau_weights = 0.5, 0.5
tau_atoms = 0.8,0.2; 0.3,0.7
doc_len = 4
w = 1.0, -1.0
noise_sigma = 0.05
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults():
    config = ExperimentConfig()
    assert config.experiment == "mse-vs-k"
    assert config.d1 == 50 and config.d2 == 40
    assert config.n1 == 4000 and config.n2 == 1000
    assert config.trials == 30


def test_parse_config_file(tmp_path):
    path = _write(
        tmp_path,
        "cfg.txt",
        "experiment = mse-vs-eps\n# comment\nd1=6\nalpha_grid = 0.0, 0.5, 1.0\n",
    )
    values = parse_config_file(path)
    assert values["experiment"] == "mse-vs-eps"
    assert values["d1"] == 6
    assert values["alpha_grid"] == (0.0, 0.5, 1.0)


def test_load_config_precedence(tmp_path):
    path = _write(tmp_path, "cfg.txt", "seed = 5\ntrials = 7\n")
    config = load_config(path, {"seed": 9})
    assert config.seed == 9  # command line wins
    assert config.trials == 7  # file beats default
    assert config.d1 == 50  # default


def test_load_config_rejects_unknown_key(tmp_path):
    path = _write(tmp_path, "cfg.txt", "bogus = 1\n")
    with pytest.raises(ConfigError):
        load_config(path, {})


def test_load_config_rejects_unknown_experiment(tmp_path):
    path = _write(tmp_path, "cfg.txt", "experiment = nope\n")
    with pytest.raises(ConfigError):
        load_config(path, {})


def test_load_config_rejects_bad_int(tmp_path):
    path = _write(tmp_path, "cfg.txt", "d1 = few\n")
    with pytest.raises(ConfigError):
        load_config(path, {})


def test_load_config_parses_grids(tmp_path):
    path = _write(tmp_path, "cfg.txt", "k_grid = 2, 3\nalpha_grid = 0.0, 1.0\n")
    config = load_config(path, {})
    assert config.k_grid == (2, 3)
    assert config.alpha_grid == (0.0, 1.0)


def test_repeated_config_key_is_a_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "cfg.txt", "trials = 3\n# comment\nseed = 1\ntrials = 1\n")
    with pytest.raises(ConfigError, match=r"cfg\.txt:4: key 'trials' already set on line 1"):
        load_config(path, {})
    assert main(["run", path, "--out", str(tmp_path)]) == 2
    assert "key 'trials' already set on line 1" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize(
    "raw, expected",
    [("true", True), ("YES", True), ("1", True), ("False", False), ("no", False), ("0", False)],
)
def test_load_config_parses_plot_flag(tmp_path, raw, expected):
    path = _write(tmp_path, "cfg.txt", f"plot = {raw}\n")
    assert load_config(path, {}).plot is expected


@pytest.mark.parametrize(
    "text, message",
    [
        ("plot = maybe\n", "bad value for 'plot'"),
        ("trials = 0\n", "trials must be >= 1"),
        ("k_grid = ,\n", "k_grid must be nonempty"),
        ("seed = 1\njust a line\n", "cfg.txt:2: expected key=value"),
        # ridge and pca are not keys: every fit is plain least squares
        ("seed = 1\nridge = 0.0\n", "cfg.txt:2: unknown key 'ridge'"),
        ("pca =\n", "cfg.txt:1: unknown key 'pca'"),
    ],
)
def test_load_config_rejects_bad_file_line(tmp_path, text, message):
    path = _write(tmp_path, "cfg.txt", text)
    with pytest.raises(ConfigError, match=message):
        load_config(path, {})


def test_load_config_rejects_unknown_override():
    with pytest.raises(ConfigError, match="unknown option 'nope'"):
        load_config(None, {"nope": 1})


def test_readme_config_block_loads_as_the_defaults(tmp_path):
    # the key/default block under "### `sslci run`", saved as a config file
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### `sslci run`", 1)[1]
    block = section.split("```\n", 2)[1]
    assert "experiment = mse-vs-k" in block
    path = _write(tmp_path, "readme.cfg", block)
    # every key once: a repeated key is a ConfigError, a missing one fails here
    assert set(parse_config_file(path)) == {f.name for f in fields(ExperimentConfig)}
    assert load_config(path, {}) == ExperimentConfig()


@pytest.mark.parametrize(
    "line",
    [
        "d1 = 0",
        "d2 = 0",
        "k = 0",
        "n1 = 0",
        "n2 = 0",
        "eval_n = 0",
        "n2_grid = 250, 0",
        "k_grid = 1, 2",
        # a repeated point repeats (grid_value, trial) keys in results.csv
        "k_grid = 2, 3, 2",
        "alpha_grid = 0.5, 0.5",
        "n2_grid = 100, 100",
        "alpha = 1.5",
        "alpha = nan",
        "alpha_grid = 0.0, -0.25",
        "seed = -1",
    ],
)
def test_out_of_range_config_exits_2_before_compute(tmp_path, capsys, line):
    cfg = _write(tmp_path, "cfg.txt", f"experiment = mse-vs-k\ntrials = 1\n{line}\n")
    with pytest.raises(ConfigError):
        load_config(cfg, {})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# harness output


def _tiny_config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        experiment="mse-vs-k",
        d1=6,
        d2=5,
        n1=400,
        n2=200,
        eval_n=500,
        trials=2,
        k_grid=(2, 3),
        seed=7,
        output_dir=str(tmp_path),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_writes_expected_csv_structure(tmp_path):
    result = run(_tiny_config(tmp_path))
    with open(result.results_path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["experiment", "grid_value", "trial", "method", "mse",
                       "eps_ci", "seed"]
    body = rows[1:]
    # 2 grid values x 2 trials x 3 methods
    assert len(body) == 2 * 2 * 3
    assert {row[3] for row in body} == {"psi", "raw-x1", "psi-star"}
    assert all(np.isfinite(float(row[4])) for row in body)
    with open(result.summary_path) as handle:
        summary = list(csv.reader(handle))
    assert summary[0] == ["experiment", "grid_value", "method", "mean", "stderr"]
    assert len(summary[1:]) == 2 * 3


def test_run_is_byte_deterministic(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    res_a = run(_tiny_config(out_a))
    res_b = run(_tiny_config(out_b))
    assert res_a.results_path.read_bytes() == res_b.results_path.read_bytes()
    assert res_a.summary_path.read_bytes() == res_b.summary_path.read_bytes()


def test_run_plot_output(tmp_path):
    config = _tiny_config(tmp_path, plot=True)
    run(config)
    svg = (tmp_path / "plot.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


PLOT_SUMMARY = [
    ("e", g, method, mean + 0.1 * g, 0.05)
    for method, mean in (("psi", 1.0), ("raw-x1", 2.0))
    for g in (1.0, 2.0, 4.0)
]


def _svg_points(text):
    root = ET.fromstring(text)
    return [el.get("points") for el in root.iter() if el.get("points") is not None]


@pytest.mark.parametrize(
    "degenerate",
    [
        ("e", 2.0, "degenerate", float("nan"), float("nan")),
        ("e", 4.0, "psi", float("nan"), 0.0),
    ],
    ids=["own-method", "inside-a-series"],
)
def test_plot_skips_degenerate_rows(tmp_path, degenerate):
    kept = [row for row in PLOT_SUMMARY if row[1:3] != degenerate[1:3]]
    write_line_plot_svg(tmp_path / "with.svg", kept + [degenerate], "e")
    write_line_plot_svg(tmp_path / "without.svg", kept, "e")
    text = (tmp_path / "with.svg").read_text()
    assert "nan" not in text
    assert text == (tmp_path / "without.svg").read_text()
    assert len(_svg_points(text)) == 4  # a band and a line per finite series


def test_plot_of_an_all_degenerate_summary_is_valid_svg(tmp_path):
    nan = float("nan")
    summary = [("e", g, "degenerate", nan, nan) for g in (1.0, 2.0)]
    write_line_plot_svg(tmp_path / "plot.svg", summary, "e")
    text = (tmp_path / "plot.svg").read_text()
    assert "nan" not in text
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert _svg_points(text) == []


def test_summarize_mean_and_stderr():
    rows = [
        TrialRow("e", 1.0, t, "m", mse, 0.0, 0) for t, mse in enumerate([1.0, 2.0, 3.0])
    ]
    ((exp, grid, method, mean, stderr),) = summarize(rows)
    assert (exp, grid, method) == ("e", 1.0, "m")
    assert mean == pytest.approx(2.0)
    assert stderr == pytest.approx(np.std([1, 2, 3], ddof=1) / np.sqrt(3))


def test_summarize_single_trial_zero_stderr():
    ((_, _, _, mean, stderr),) = summarize([TrialRow("e", 0.0, 0, "m", 5.0, 0.0, 0)])
    assert mean == 5.0
    assert stderr == 0.0


def test_selfcheck_checks_all_pass():
    for name, check in selfcheck_checks():
        check()


def test_gaussian_identity_experiment(tmp_path):
    config = ExperimentConfig(
        experiment="exact-ci-gaussian",
        d1=6,
        d2=5,
        k=2,
        trials=3,
        output_dir=str(tmp_path),
    )
    result = run(config)
    for row in result.rows:
        assert row.method == "identity-residual"
        assert row.mse <= 1e-8
        assert row.eps_ci <= 1e-8


def test_ci_report_experiment_monotone(tmp_path):
    config = ExperimentConfig(
        experiment="ci-report",
        d1=4,
        d2=4,
        k=2,
        eval_n=20_000,
        trials=2,
        alpha_grid=(0.0, 1.0),
        output_dir=str(tmp_path),
    )
    result = run(config)
    by_alpha = {}
    for row in result.rows:
        by_alpha.setdefault(row.grid_value, []).append(row.eps_ci)
    assert np.mean(by_alpha[0.0]) < np.mean(by_alpha[1.0])


# every entry of the experiment table at tiny sizes: methods in row order
TABLE_METHODS = {
    "mse-vs-k": ("psi", "psi-star", "raw-x1"),
    "mse-vs-eps": ("psi", "psi-star", "raw-x1"),
    "mse-vs-n2": ("psi", "psi-star", "raw-x1"),
    "exact-ci-gaussian": ("identity-residual",),
    "ace-demo": ("sigma-gap",),
    "topic-check": ("eps-ci", "linearity-gap", "beta-slack"),
    "ci-report": ("eps-ci",),
}
TINY = dict(
    d1=4,
    d2=3,
    k=2,
    n1=120,
    n2=60,
    eval_n=200,
    trials=2,
    seed=5,
    k_grid=(2, 3),
    alpha_grid=(0.0, 0.5, 1.0),
    n2_grid=(40, 80),
)


def test_experiment_table_matches_config_names():
    assert tuple(TABLE_METHODS) == tuple(EXPERIMENTS)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_experiment_table_entry(tmp_path, experiment):
    grid_field, _ = EXPERIMENTS[experiment]
    grid = TINY[grid_field] if grid_field else (0.0,)
    methods = TABLE_METHODS[experiment]
    outputs = []
    for name in ("a", "b"):
        config = ExperimentConfig(
            experiment=experiment, output_dir=str(tmp_path / name), **TINY
        )
        result = run(config)
        outputs.append(result.results_path.read_bytes())
    assert outputs[0] == outputs[1]
    assert len(result.rows) == len(grid) * TINY["trials"] * len(methods)
    point = iter(result.rows)
    for value in grid:
        for trial in range(TINY["trials"]):
            rows = [next(point) for _ in methods]
            assert tuple(row.method for row in rows) == methods
            assert {(row.grid_value, row.trial) for row in rows} == {(value, trial)}
            assert all(np.isfinite(row.mse) and np.isfinite(row.eps_ci) for row in rows)


def test_grid_fields_name_the_field_their_value_replaces():
    names = {f.name for f in fields(ExperimentConfig)}
    gridded = [grid_field for grid_field, _ in EXPERIMENTS.values() if grid_field]
    assert gridded
    for grid_field in gridded:
        assert grid_field.endswith("_grid")
        assert {grid_field, grid_field.removesuffix("_grid")} <= names


def test_gaussian_n2_trial_matches_scores_on_three_full_samples():
    params = dict(d1=6, d2=5, k=2, n1=300, n2=80, eval_n=500)
    seed = derive_seed(7, 1, 2)
    scores, eps = _gaussian_n2_trial(**params, seed=seed)
    spec, blocks, f_map, want_eps = _gaussian_population(6, 5, 2, derive_seed(seed, 11))
    pre, down, ev = (
        gaussian_ci_sample(spec, params[size], derive_seed(seed, sub))
        for sub, size in ((1, "n1"), (2, "n2"), (3, "eval_n"))
    )
    b_star = closed_form_psi_gaussian(blocks)
    heads = _fit_heads(pre, down.x1, down.y, b_star)
    want = _eval_heads(heads, lambda x: x @ f_map.T, ev.x1)
    assert list(scores) == list(want) == ["psi", "psi-star", "raw-x1"]
    assert scores == want and eps == want_eps


def _two_step_scores(pre, down, star, target, ev_x1) -> dict[str, float]:
    """Each head scored as ``features(x) @ Ŵ``, with ψ̂ and an array ψ* as feature maps."""
    b = fit_pretext_linear(pre.x1, pre.x2)
    maps = {
        "psi": lambda x: x @ b.T,
        "psi-star": star if callable(star) else lambda x: x @ star.T,
        "raw-x1": lambda x: x,
    }
    return {
        m: mean_squared_error(fit_downstream(f(down.x1), down.y), f, target, ev_x1)
        for m, f in maps.items()
    }


@pytest.mark.parametrize("model", ["mixture", "gaussian"])
def test_composed_heads_score_as_the_two_step_pipeline(model):
    sizes = dict(n1=300, n2=80, eval_n=500)
    seed = derive_seed(7, 1, 2)
    if model == "mixture":
        k, spec = 3, random_mixture_spec(3, 6, 5, 0.25, derive_seed(seed, 11))
        draw = mixture_sample
        star, target = partial(closed_form_psi_mixture, spec), partial(mixture_posterior, spec)
        scores, _ = _mixture_trial(d1=6, d2=5, k=k, alpha=0.25, **sizes, seed=seed)
        star_shape = (5, k)  # the mixture ψ* is a callable: its head stays d2×k
    else:
        k, (spec, blocks, f_map, _) = 2, _gaussian_population(6, 5, 2, derive_seed(seed, 11))
        draw = gaussian_ci_sample
        star, target = closed_form_psi_gaussian(blocks), lambda x: x @ f_map.T
        scores, _ = _gaussian_n2_trial(d1=6, d2=5, k=k, **sizes, seed=seed)
        star_shape = (6, k)  # B* is an array: its head is the composed d1×k map
    pre, down, ev = (
        draw(spec, sizes[size], derive_seed(seed, sub))
        for sub, size in ((1, "n1"), (2, "n2"), (3, "eval_n"))
    )
    heads = _fit_heads(pre, down.x1, down.y, star)
    shapes = {m: w.shape for m, (_, w) in heads.items()}
    assert shapes == {"psi": (6, k), "psi-star": star_shape, "raw-x1": (6, k)}
    composed = _eval_heads(heads, target, ev.x1)
    assert scores == composed
    two_step = _two_step_scores(pre, down, star, target, ev.x1)
    assert list(two_step) == list(composed)
    for m, want in two_step.items():
        assert abs(composed[m] - want) <= 1e-12 * want, m


def test_experiment_rows_match_direct_trial_calls():
    config = ExperimentConfig(experiment="mse-vs-k", **TINY)
    rows = iter(_experiment_rows(config))
    for gi, value in enumerate(config.k_grid):
        for trial in range(config.trials):
            seed = derive_seed(config.seed, gi, trial)
            scores, eps = _mixture_trial(
                d1=config.d1,
                d2=config.d2,
                k=value,
                alpha=config.alpha,
                n1=config.n1,
                n2=config.n2,
                eval_n=config.eval_n,
                seed=seed,
            )
            for method, mse in scores.items():
                row = next(rows)
                assert (row.grid_value, row.trial, row.seed) == (value, trial, seed)
                assert (row.method, row.mse, row.eps_ci) == (method, mse, eps)
    assert next(rows, None) is None


@pytest.mark.parametrize(
    "experiment, solver",
    [("mse-vs-k", "fit_pretext_linear"), ("topic-check", "verify_latent_construction")],
)
def test_singular_trial_gives_one_degenerate_row(monkeypatch, experiment, solver):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(f"sslci.harness.{solver}", singular)
    rows = _experiment_rows(ExperimentConfig(experiment=experiment, **TINY))
    grid_field, _ = EXPERIMENTS[experiment]
    grid = TINY[grid_field] if grid_field else (0.0,)
    points = [(float(value), trial) for value in grid for trial in range(TINY["trials"])]
    assert [(row.grid_value, row.trial) for row in rows] == points
    for row in rows:
        assert row.method == "degenerate"
        assert np.isnan(row.mse) and np.isnan(row.eps_ci)


def test_singular_trial_warns_with_its_message(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr("sslci.harness.fit_pretext_linear", singular)
    config = ExperimentConfig(experiment="mse-vs-k", **TINY)
    with pytest.warns(UserWarning, match="singular matrix") as record:
        rows = _trial_rows(config, 1, 0)
    seed = derive_seed(config.seed, 1, 0)
    assert len(record) == 1
    message = str(record[0].message)
    for part in ("mse-vs-k", "grid value 3", "trial 0", f"seed {seed}"):
        assert part in message
    [row] = rows
    assert (row.grid_value, row.trial, row.seed) == (3.0, 0, seed)
    assert row.method == "degenerate"
    assert np.isnan(row.mse) and np.isnan(row.eps_ci)


@pytest.mark.parametrize("experiment", ["mse-vs-k", "ci-report"])
def test_trial_rows_do_not_depend_on_trial_order(experiment):
    config = ExperimentConfig(experiment=experiment, **TINY)
    grid_field, _ = EXPERIMENTS[experiment]
    grid = range(len(TINY[grid_field]))
    points = [(gi, trial) for gi in grid for trial in range(TINY["trials"])]
    reversed_rows = {point: _trial_rows(config, *point) for point in reversed(points)}
    in_order = [row for point in points for row in reversed_rows[point]]
    assert in_order == _experiment_rows(config)


def _failing_draw(exc_type):
    """``_gaussian_ci_draw`` that raises ``exc_type`` on the evaluation sample."""
    draw = sslci.harness._gaussian_ci_draw

    def fails_on_eval(spec, n, rng):
        if n == TINY["eval_n"]:
            raise exc_type("singular matrix")
        return draw(spec, n, rng)

    return fails_on_eval


def _slow_draw(spec, n, rng):
    """``_gaussian_ci_draw`` that is still running when the main thread fails."""
    time.sleep(0.2)
    return sslci.models._gaussian_ci_draw(spec, n, rng)


def _singular(*args, **kwargs):
    raise np.linalg.LinAlgError("singular matrix")


@pytest.fixture
def two_blas_threads():
    """Run the test with OpenBLAS at two threads, a count the harness must restore."""
    get, put = _openblas()
    threads = get()
    if threads is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread-count call")
    put(2)
    yield get
    put(threads)


@pytest.mark.parametrize(
    "patches",
    [
        {"_gaussian_ci_draw": _failing_draw(np.linalg.LinAlgError)},
        {"_gaussian_ci_draw": _slow_draw, "fit_pretext_linear": _singular},
    ],
    ids=["helper-raises", "main-raises"],
)
def test_gaussian_trial_failure_joins_helpers_and_gives_one_row(
    monkeypatch, two_blas_threads, patches
):
    for name, fn in patches.items():
        monkeypatch.setattr(f"sslci.harness.{name}", fn)
    config = ExperimentConfig(
        experiment="mse-vs-n2", **{**TINY, "trials": 1, "n2_grid": (40,)}
    )
    threads = threading.active_count()
    with pytest.warns(UserWarning, match="singular matrix"):
        [row] = _experiment_rows(config)
    assert (row.grid_value, row.trial, row.method) == (40.0, 0, "degenerate")
    assert np.isnan(row.mse) and np.isnan(row.eps_ci)
    assert threading.active_count() == threads
    assert two_blas_threads() == 2


def _failing_x2(spec, labels, x1, rng, draw=sslci.models._mixture_x2):
    """``models._mixture_x2`` that raises on the evaluation sample's x2."""
    if labels.size == TINY["eval_n"]:
        raise np.linalg.LinAlgError("singular matrix")
    return draw(spec, labels, x1, rng)


def _slow_x2(spec, labels, x1, rng, draw=sslci.models._mixture_x2):
    """``models._mixture_x2`` that is still running when the main thread fails."""
    time.sleep(0.2)
    return draw(spec, labels, x1, rng)


def _singular_downstream_sample(spec, n, seed, sample=sslci.models.mixture_sample):
    """``mixture_sample`` that fails on the downstream sample, after both helpers start."""
    if n == TINY["n2"]:
        _singular()
    return sample(spec, n, seed)


@pytest.mark.parametrize(
    "patches",
    [
        {"models._mixture_x2": _failing_x2},
        {"models._mixture_x2": _slow_x2, "harness.mixture_sample": _singular_downstream_sample},
    ],
    ids=["helper-raises", "main-raises"],
)
def test_mixture_trial_failure_joins_helpers_and_gives_one_row(
    monkeypatch, two_blas_threads, patches
):
    for name, fn in patches.items():
        monkeypatch.setattr(f"sslci.{name}", fn)
    config = ExperimentConfig(experiment="mse-vs-k", **{**TINY, "trials": 1, "k_grid": (3,)})
    threads = threading.active_count()
    with pytest.warns(UserWarning, match="singular matrix"):
        [row] = _experiment_rows(config)
    assert (row.grid_value, row.trial, row.method) == (3.0, 0, "degenerate")
    assert np.isnan(row.mse) and np.isnan(row.eps_ci)
    assert threading.active_count() == threads
    assert two_blas_threads() == 2


def test_gaussian_trial_draws_both_heads_on_one_helper_thread(monkeypatch):
    draws = []

    def recorded(spec, n, rng, draw=sslci.harness._gaussian_ci_draw):
        draws.append((n, threading.get_ident()))
        return draw(spec, n, rng)

    monkeypatch.setattr("sslci.harness._gaussian_ci_draw", recorded)
    _gaussian_n2_trial(**TINY)
    [(n2, down), (eval_n, ev)] = draws
    assert (n2, eval_n) == (TINY["n2"], TINY["eval_n"])
    assert down == ev != threading.main_thread().ident


def test_mixture_trial_draws_its_x2_on_at_most_one_helper_thread(monkeypatch):
    readers = []

    def recorded(spec, labels, x1, rng, draw=sslci.models._mixture_x2):
        readers.append(threading.get_ident())
        return draw(spec, labels, x1, rng)

    monkeypatch.setattr("sslci.models._mixture_x2", recorded)
    for seed in range(4):
        readers.clear()
        _mixture_trial(**{**TINY, "alpha": 0.5, "seed": seed})
        # pretext and evaluation x2; the main thread draws one if it reads first
        assert len(readers) == 2
        assert len(set(readers) - {threading.main_thread().ident}) <= 1


def test_blas_thread_count_is_restored_when_a_trial_raises(
    monkeypatch, two_blas_threads
):
    monkeypatch.setattr("sslci.harness._gaussian_ci_draw", _failing_draw(ValueError))
    config = ExperimentConfig(experiment="mse-vs-n2", **TINY)
    threads = threading.active_count()
    with pytest.raises(ValueError, match="singular matrix"):
        _experiment_rows(config)
    assert threading.active_count() == threads
    assert two_blas_threads() == 2


# ---------------------------------------------------------------------------
# joint / topic file readers


def test_read_joint_file(tmp_path):
    joint = read_joint_file(_write(tmp_path, "j.txt", JOINT_CI))
    assert joint.p.shape == (3, 3, 2)
    assert joint.p.sum() == pytest.approx(1.0)


def test_read_joint_file_two_axes(tmp_path):
    text = "2 2 0\n0.25 0.25 0.25 0.25\n"
    joint = read_joint_file(_write(tmp_path, "j.txt", text))
    assert joint.p.shape == (2, 2)
    assert not joint.has_y


def test_read_joint_file_bad_count(tmp_path):
    text = "2 2 0\n0.5 0.5\n"
    with pytest.raises(ValueError):
        read_joint_file(_write(tmp_path, "j.txt", text))


def test_read_joint_file_bad_total(tmp_path):
    text = "2 2 0\n0.5 0.5 0.5 0.5\n"
    with pytest.raises(ValueError):
        read_joint_file(_write(tmp_path, "j.txt", text))


@pytest.mark.parametrize("header", ["2 2 -3", "2 2 -1", "-2 2 -1"])
def test_read_joint_file_negative_size(tmp_path, capsys, header):
    # each header's product of sizes matches the four probabilities given
    path = _write(tmp_path, "j.txt", f"{header}\n0.25 0.25 0.25 0.25\n")
    with pytest.raises(ValueError, match="negative size"):
        read_joint_file(path)
    assert main(["ace", "--joint", path]) == 2
    assert "negative size" in capsys.readouterr().err


def test_read_topic_spec_file(tmp_path):
    spec = read_topic_spec_file(_write(tmp_path, "t.txt", TOPIC_SPEC))
    assert spec.vocab == 4 and spec.topics == 2
    assert spec.doc_len == 4
    assert spec.noise_sigma == 0.05


def test_read_topic_spec_file_missing_key(tmp_path):
    with pytest.raises(ValueError):
        read_topic_spec_file(_write(tmp_path, "t.txt", "doc_len = 4\n"))


# "vocab" names a dimension that TopicModelSpec reads from its word matrix.
@pytest.mark.parametrize("bad", ["noise_sgima", "vocab"])
def test_read_topic_spec_file_unknown_key(tmp_path, capsys, bad):
    path = _write(tmp_path, "t.txt", TOPIC_SPEC.replace("noise_sigma", bad))
    with pytest.raises(ValueError, match=rf"t\.txt:7: unknown key '{bad}'"):
        read_topic_spec_file(path)
    assert main(["topic", "--spec", path]) == 2
    assert f"unknown key '{bad}'" in capsys.readouterr().err


def test_read_topic_spec_file_repeated_key(tmp_path, capsys):
    path = _write(tmp_path, "t.txt", TOPIC_SPEC + "w = -1.0, 1.0\n")
    with pytest.raises(ValueError, match=r"t\.txt:8: key 'w' already set on line 6"):
        read_topic_spec_file(path)
    assert main(["topic", "--spec", path]) == 2
    assert "key 'w' already set on line 6" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# command line


def test_cli_run(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "cfg.txt",
        "experiment = mse-vs-k\nd1=6\nd2=5\nn1=300\nn2=150\neval_n=400\n"
        "trials=1\nk_grid=2,3\n",
    )
    code = main(["run", cfg, "--out", str(tmp_path), "--seed", "3"])
    assert code == 0
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "summary.csv").exists()
    assert "rows" in capsys.readouterr().out


def test_cli_run_plot_flag(tmp_path):
    cfg = _write(
        tmp_path,
        "cfg.txt",
        "experiment = mse-vs-k\nd1=5\nd2=4\nn1=200\nn2=100\neval_n=200\n"
        "trials=1\nk_grid=2,3\n",
    )
    assert main(["run", cfg, "--out", str(tmp_path), "--plot"]) == 0
    assert (tmp_path / "plot.svg").exists()


def test_cli_run_missing_config_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.txt")]) == 2
    assert "error" in capsys.readouterr().err


def test_unusable_output_dir_exits_2_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_trials(config):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("sslci.harness._experiment_rows", no_trials)
    cfg = _write(tmp_path, "cfg.txt", "experiment = mse-vs-k\ntrials = 1\n")
    out = Path(_write(tmp_path, "file", "")) / "x"
    assert main(["run", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert str(out) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv", [["run", "{}"], ["ace", "--joint", "{}"], ["topic", "--spec", "{}"]],
    ids=["config", "joint", "spec"],
)
def test_a_directory_as_the_input_file_exits_2(tmp_path, capsys, argv):
    assert main([arg.format(tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert str(tmp_path) in captured.err
    assert captured.out == ""


def test_cli_run_bad_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.txt", "nope = 1\n")
    assert main(["run", cfg]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_selfcheck(capsys):
    assert main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_cli_selfcheck_injected_failure(capsys, monkeypatch):
    def _always_fails():
        raise AssertionError("injected failure")

    checks = sslci.cli.selfcheck_checks() + [("injected", _always_fails)]
    monkeypatch.setattr(sslci.cli, "selfcheck_checks", lambda: checks)
    assert main(["selfcheck"]) == 1
    assert "FAIL injected" in capsys.readouterr().out


def test_python_m_sslci_selfcheck():
    env = dict(os.environ)
    src = str(Path(sslci.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "sslci", "selfcheck"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "all checks passed" in done.stdout


def test_run_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    if _openblas()[0]() is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread-count call to pin")
    cfg = _write(tmp_path, "cfg.txt", "experiment = mse-vs-k\n")
    src = str(Path(sslci.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads-{threads}"
        done = subprocess.run(
            [sys.executable, "-m", "sslci", "run", cfg, "--trials", "3", "--out", out],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        outputs.append([(out / f).read_bytes() for f in ("results.csv", "summary.csv")])
    assert outputs[0] == outputs[1]


def test_cli_ace(tmp_path, capsys):
    joint = _write(tmp_path, "j.txt", JOINT_CI)
    assert main(["ace", "--joint", joint, "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "ace sigmas" in out
    assert "eps_ci_tilde" in out


def test_cli_ace_rejects_k_below_one_before_any_output(tmp_path, capsys):
    joint = _write(tmp_path, "j.txt", JOINT_CI)
    assert main(["ace", "--joint", joint, "--k", "0"]) == 2
    captured = capsys.readouterr()
    assert "--k" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "header, message",
    [
        ("1 3 2", "|X1| = 1, |X2| = 3"),
        ("3 1 2", "|X1| = 3, |X2| = 1"),
        ("0 3 2", "empty view in joint file header: 0 3 2"),
        ("3 0 0", "empty view in joint file header: 3 0 0"),
    ],
)
def test_cli_ace_rejects_a_view_below_two_points_before_any_output(
    tmp_path, capsys, header, message
):
    n1, n2, ny = (int(t) for t in header.split())
    size = n1 * n2 * max(ny, 1)
    probs = " ".join([str(1.0 / size)] * size) if size else ""
    joint = _write(tmp_path, "j.txt", f"{header}\n{probs}\n")
    assert main(["ace", "--joint", joint]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_cli_ace_prints_residual(tmp_path, capsys):
    joint = _write(tmp_path, "j.txt", JOINT_CI)
    assert main(["ace", "--joint", joint, "--k", "2"]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if "ace sigmas" in l)
    residual = float(line.split("residual=")[1].split()[0])
    assert 0.0 <= residual < sslci.operators.ACE_TOL


def test_cli_topic(tmp_path, capsys):
    spec = _write(tmp_path, "t.txt", TOPIC_SPEC)
    assert main(["topic", "--spec", spec]) == 0
    assert "status               : ok" in capsys.readouterr().out


def test_cli_topic_bad_spec_exits_2(tmp_path, capsys):
    spec = _write(tmp_path, "t.txt", "a = 1.0\n")
    assert main(["topic", "--spec", spec]) == 2
    assert "error" in capsys.readouterr().err
