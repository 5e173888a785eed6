"""Span tracer for the traced pass, and the per-layer metrics it yields.

The tracer replaces every public ``sslci`` function at every module
binding that holds it: ``sslci.harness.mixture_sample`` and
``sslci.models.mixture_sample`` both point at one wrapper.  Modules
``from``-import each other's functions, so patching only the defining
module would miss the calls.  A span records name, start, end, parent span
and item id; spans stay in memory until the pass writes them out.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import time

MODULES = (
    "sslci",
    "sslci.config",
    "sslci.harness",
    "sslci.models",
    "sslci.learn",
    "sslci.linalg",
    "sslci.independence",
    "sslci.operators",
    "sslci.topics",
    "sslci.cli",
)


#: Work counted at a span, from the call's arguments and result.
COUNTERS = {
    "models.mixture_posterior": lambda args, result: {
        "rows": result.shape[0] if result.ndim == 2 else 1
    },
    "models.mixture_sample": lambda args, result: {"rows": args["n"]},
    "models.gaussian_ci_sample": lambda args, result: {"rows": args["n"]},
    "topics.sample_documents": lambda args, result: {"docs": args["n"]},
    "topics.build_bar_y": lambda args, result: {"support_rows": result.counts.shape[0]},
    "operators.ace_fit": lambda args, result: {
        "sweeps": result.iterations,
        "converged": int(result.converged),
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, item]
        self.counts: dict[str, dict[str, float]] = {}
        self.item = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def next_item(self) -> None:
        self.item += 1

    def install(self, modules) -> None:
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("sslci.")
                ):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                setattr(module, attr, wrappers[obj])
                self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn):
        name = f"{fn.__module__.removeprefix('sslci.')}.{fn.__name__}"
        counter = COUNTERS.get(name)
        # a harness trial starts by deriving its seed from (master, grid index, trial)
        starts_item = name == "models.derive_seed"
        signature = inspect.signature(fn) if counter or starts_item else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments if signature else None
            if starts_item and len(bound["keys"]) == 3:
                self.item += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter:
                totals = self.counts.setdefault(name, {})
                for key, value in counter(bound, result).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed self time, and the counted work."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered
        for name, totals in self.counts.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0}).update(totals)
        return out


#: (metric, unit): every per-layer metric the traced run prints.
PER_LAYER = [
    ("models.mixture_posterior.calls", "count"),
    ("models.mixture_posterior.rows", "count"),
    ("models.mixture_posterior.self_s", "s"),
    ("models.mixture_sample.calls", "count"),
    ("models.mixture_sample.rows", "count"),
    ("models.mixture_sample.self_s", "s"),
    ("models.gaussian_ci_sample.calls", "count"),
    ("models.gaussian_ci_sample.rows", "count"),
    ("models.gaussian_ci_sample.self_s", "s"),
    ("learn.fit_pretext_linear.calls", "count"),
    ("learn.fit_pretext_linear.self_s", "s"),
    ("learn.fit_downstream.calls", "count"),
    ("learn.fit_downstream.self_s", "s"),
    ("learn.mean_squared_error.self_s", "s"),
    ("learn.closed_form.self_s", "s"),
    ("linalg.empirical_cov.calls", "count"),
    ("linalg.empirical_cov.self_s", "s"),
    ("linalg.partial_cov.self_s", "s"),
    ("linalg.inv_sqrt.self_s", "s"),
    ("linalg.pinv.calls", "count"),
    ("independence.eps_ci_linear_from_data.calls", "count"),
    ("independence.eps_ci_linear_from_data.self_s", "s"),
    ("independence.eps_ci_linear.self_s", "s"),
    ("operators.ace_fit.calls", "count"),
    ("operators.ace_fit.self_s", "s"),
    ("operators.ace_fit.sweeps", "count"),
    ("operators.ace_fit.converged_ratio", "ratio"),
    ("operators.ace_fit.residual_max", "norm"),
    ("operators.ace_fit.sigma_err_max", "abs"),
    ("operators.maximal_correlation.self_s", "s"),
    ("operators.eps_ci_tilde.self_s", "s"),
    ("operators.apx_error_bound_eval.self_s", "s"),
    ("operators.build_operator_t.calls", "count"),
    ("operators.build_operator_t.self_s", "s"),
    ("topics.verify_latent_construction.calls", "count"),
    ("topics.verify_latent_construction.self_s", "s"),
    ("topics.build_bar_y.self_s", "s"),
    ("topics.support_rows", "count"),
    ("topics.sample_documents.calls", "count"),
    ("topics.sample_documents.docs", "count"),
    ("topics.sample_documents.self_s", "s"),
    ("harness.run.calls", "count"),
    ("harness.run.self_s", "s"),
    ("harness.results_bytes", "bytes"),
    ("harness.degenerate_rows", "count"),
    ("sslci.import_s", "s"),
    ("config.load_config.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

#: Metrics that do not come from a span; the pass or the run supplies them.
EXTERNAL = {
    "operators.ace_fit.residual_max",
    "operators.ace_fit.sigma_err_max",
    "harness.results_bytes",
    "harness.degenerate_rows",
    "sslci.import_s",
    "trace.overhead_ratio",
}


def layer_metrics(summary: dict, external: dict) -> dict[str, float]:
    """Per-layer values of one traced pass (``trace.overhead_ratio`` excepted)."""
    out = {}
    for metric, _ in PER_LAYER:
        if metric in EXTERNAL:
            if metric in external:
                out[metric] = external[metric]
        elif metric == "learn.closed_form.self_s":
            out[metric] = sum(
                v["self_s"] for k, v in summary.items() if k.startswith("learn.closed_form_")
            )
        elif metric == "topics.support_rows":
            out[metric] = summary.get("topics.build_bar_y", {}).get("support_rows", 0)
        elif metric == "operators.ace_fit.converged_ratio":
            ace = summary.get("operators.ace_fit", {})
            out[metric] = ace["converged"] / ace["calls"] if ace.get("calls") else 0.0
        else:
            span, stat = metric.rsplit(".", 1)
            out[metric] = summary.get(span, {}).get(stat, 0)
    return out
