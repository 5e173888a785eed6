"""Coverage of the benchmark's tracer and correctness gate.

Run by explicit path (the file name keeps the repository's own test run
from collecting it):

    python3 -m pytest -q perfbench/tests/check_tracer.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import finite  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import run_pass  # noqa: E402

OUT = run.OUT / "tests"


def _harness_pass(workload: str, trace: bool, trials: int = 1, seed: int = 5):
    cfg = workloads.harness_config(workload, seed, trials=trials)
    out = OUT / f"{workload}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workloads.write_config(cfg, out / "input.cfg")
    return cfg, out, run_pass(workload, seed, out, out / "input.cfg", trace)


@pytest.fixture(scope="module")
def mixture_k():
    cfg, out, rec = _harness_pass("mixture-k", trace=True)
    _, plain_out, plain = _harness_pass("mixture-k", trace=False)
    return cfg, out, rec, plain_out, plain


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(workloads.WHY.items())
    assert all(len(why) <= 200 for why in workloads.WHY.values())


def test_mixture_k_counts_follow_the_config(mixture_k):
    cfg, _, rec, _, _ = mixture_k
    trials = len(cfg["grid"]) * cfg["trials"]
    summary = rec["summary"]

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    assert calls("models.mixture_sample") == 3 * trials
    assert summary["models.mixture_sample"]["rows"] == trials * (
        cfg["n1"] + cfg["n2"] + cfg["eval_n"]
    )
    # target on three evaluations, ψ* on the downstream and evaluation sets
    assert calls("models.mixture_posterior") == 5 * trials
    assert summary["models.mixture_posterior"]["rows"] == trials * (4 * cfg["eval_n"] + cfg["n2"])
    assert calls("learn.fit_pretext_linear") == trials
    assert calls("learn.fit_downstream") == 3 * trials
    assert calls("learn.mean_squared_error") == 3 * trials
    assert calls("independence.eps_ci_linear_from_data") == trials
    assert calls("linalg.empirical_cov") == 5 * trials
    assert calls("models.gaussian_ci_sample") == 0
    assert calls("harness.run") == calls("config.load_config") == 1


def test_spans_nest_and_items_are_trials(mixture_k):
    cfg, out, rec, _, _ = mixture_k
    spans = json.loads((out / "spans.json").read_text())
    trials = len(cfg["grid"]) * cfg["trials"]
    samples = [s for s in spans if s[0] == "models.mixture_sample"]
    assert sorted({s[4] for s in samples}) == list(range(1, trials + 1))
    for name, start, end, parent, _ in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    self_total = sum(entry["self_s"] for entry in rec["summary"].values())
    assert self_total == pytest.approx(roots, rel=1e-9)


def test_traced_and_untraced_outputs_are_identical(mixture_k):
    cfg, out, rec, plain_out, plain = mixture_k
    for name in ("results.csv", "summary.csv"):
        assert (out / name).read_bytes() == (plain_out / name).read_bytes()
    assert rec["digest"] == plain["digest"]
    failed, notes = workloads.failed_items(
        workloads.read_results(out / "results.csv"), reference.expected_rows(cfg)
    )
    assert not failed, notes


def test_ci_sweep_counts_follow_the_config():
    cfg, _, rec = _harness_pass("ci-sweep", trace=True)
    points = len(cfg["grid"]) * cfg["trials"]
    summary = rec["summary"]
    assert summary["linalg.empirical_cov"]["calls"] == 5 * points
    assert summary["independence.eps_ci_linear_from_data"]["calls"] == points
    assert summary["models.mixture_sample"]["calls"] == points
    assert "models.mixture_posterior" not in summary
    assert "learn.fit_downstream" not in summary


def test_finite_support_counts_and_gate():
    out = OUT / "finite-support"
    shutil.rmtree(out, ignore_errors=True)
    rec = run_pass("finite-support", 3, out / "traced", None, True)
    plain = run_pass("finite-support", 3, out / "plain", None, False)
    joints = sum(count for _, count in finite.JOINTS)
    summary = rec["summary"]
    assert rec["failed"] == plain["failed"] == 0, rec["notes"]
    assert rec["digest"] == plain["digest"]
    assert summary["operators.ace_fit"]["calls"] == joints
    assert summary["operators.ace_fit"]["converged"] == joints
    assert summary["operators.ace_fit"]["sweeps"] >= joints
    # ace_fit, maximal_correlation, eps_ci_tilde and two bound evaluations
    assert summary["operators.build_operator_t"]["calls"] == 5 * joints
    assert summary["topics.verify_latent_construction"]["calls"] == finite.TOPIC_SPECS
    assert summary["topics.build_bar_y"]["support_rows"] == 330 * finite.TOPIC_SPECS
    assert summary["topics.sample_documents"]["docs"] == finite.DOC_BATCHES * finite.DOCS_PER_BATCH
    assert 0.0 < rec["residual_max"] < 1e-3
    layer = tracer.layer_metrics(summary, {})
    assert layer["operators.ace_fit.converged_ratio"] == 1.0
    assert layer["topics.support_rows"] == 330 * finite.TOPIC_SPECS


def test_gate_catches_a_wrong_cell_and_passes_low_order_bits():
    cfg = workloads.harness_config("ci-sweep", 2, trials=1)
    expected = reference.expected_rows(cfg)
    key = sorted(expected)[2]
    mse, eps, seed = expected[key]
    nudged = dict(expected)
    nudged[key] = (mse * (1 + 1e-12), eps * (1 - 1e-12), seed)
    assert workloads.failed_items(nudged, expected) == (set(), [])
    wrong = dict(expected)
    wrong[key] = (mse * (1 + 1e-4), eps, seed)
    assert workloads.failed_items(wrong, expected)[0] == {key[:2]}
    missing = {k: v for k, v in expected.items() if k != key}
    assert workloads.failed_items(missing, expected)[0] == {key[:2]}
