"""sslci benchmark: seeded workloads, closed-loop passes, correctness gate.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one table

Run from the root of a checkout.  One caller runs passes back to back (a
closed loop, no concurrency of its own) until S seconds have passed and at
least three passes are done.  Each pass is a fresh worker process, so its
set-up time and peak memory are its own; BLAS keeps its default threading.
Every pass is checked (see README.md), and the last line of standard output
is one JSON object: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced passes, which alternate with
untraced ones.  The exit code is 0 only if every item passed its check.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import finite  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

#: (metric, unit): the end-to-end metrics, each the median over untraced passes.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
MIN_PASSES = 3
WORKER_TIMEOUT_S = 150
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _blas_threads() -> dict:
    """Threads each bundled OpenBLAS will use, asked through its own API."""
    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(path).name] = fn()
                    break
    return found


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _without_paths(value):
    """Drop absolute paths: numpy's config names directories of the machine that built it."""
    if isinstance(value, dict):
        return {k: _without_paths(v) for k, v in value.items()
                if not (isinstance(v, str) and v.startswith("/"))}
    return value


def environment(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "sslci").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_config": _without_paths(numpy.show_config(mode="dicts")),
        "blas_threads": _blas_threads(),
        "blas_env": {key: os.environ[key] for key in BLAS_ENV if key in os.environ},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _run_worker(workload, seed, pass_dir, config, traced) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(pass_dir)]
    if config is not None:
        cmd += ["--config", str(config)]
    if traced:
        cmd.append("--trace")
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {WORKER_TIMEOUT_S} s"}
    if done.returncode != 0:
        return {"error": f"worker exited {done.returncode}: {done.stderr[-2000:]}"}
    return json.loads((pass_dir / "pass.json").read_text())


def _expected_items(cfg: dict | None) -> int:
    if cfg is not None:
        return len(cfg["grid"]) * cfg["trials"]
    return sum(count for _, count in finite.JOINTS) + finite.TOPIC_SPECS + finite.DOC_BATCHES


def _check_harness_pass(rec: dict, pass_dir: Path, expected: dict) -> None:
    results = pass_dir / "results.csv"
    rows = workloads.read_results(results)
    failed, notes = workloads.failed_items(rows, expected)
    rec["failed"] = len(failed)
    rec["notes"] = notes[:20]
    rec["results_bytes"] = results.stat().st_size
    rec["degenerate_rows"] = sum(method == "degenerate" for _, _, method in rows)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run passes until ``seconds`` have passed; return (result line, result set)."""
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    compileall.compile_dir(str(SRC / "sslci"), quiet=1)
    env = environment(seed)
    cfg = config = expected = None
    if workload in workloads.HARNESS:
        cfg = workloads.harness_config(workload, seed)
        config = run_dir / "input.cfg"
        workloads.write_config(cfg, config)
        expected = reference.expected_rows(cfg)
    passes: list[dict] = []
    started = time.perf_counter()
    while True:
        index = len(passes)
        traced = trace and index % 2 == 1
        pass_dir = run_dir / f"pass-{index:02d}"
        rec = _run_worker(workload, seed, pass_dir, config, traced)
        rec["traced"] = traced
        if "error" in rec:
            items = _expected_items(cfg)
            rec.update(items=items, failed=items, notes=[rec["error"]])
            passes.append(rec)
            break
        if cfg is not None:
            rec["items"] = _expected_items(cfg)
            _check_harness_pass(rec, pass_dir, expected)
        if passes and rec["digest"] != passes[0]["digest"]:
            rec["failed"] = rec["items"]
            rec["notes"].append("outputs differ from the first pass of this run")
        passes.append(rec)
        done = len(passes) >= (2 * MIN_PASSES - 2 if trace else MIN_PASSES)
        if done and time.perf_counter() - started >= seconds:
            break

    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    ok = all("error" not in p for p in passes)
    plain = [p for p in passes if not p["traced"] and "error" not in p]
    samples: dict[str, list[float]] = {}
    if ok and trace:
        traced_passes = [p for p in passes if p["traced"]]
        for p in traced_passes:
            external = {
                "sslci.import_s": p["import_s"],
                "harness.results_bytes": p.get("results_bytes", 0),
                "harness.degenerate_rows": p.get("degenerate_rows", 0),
                "operators.ace_fit.residual_max": p.get("residual_max", 0.0),
                "operators.ace_fit.sigma_err_max": p.get("sigma_err_max", 0.0),
            }
            for name, value in tracer.layer_metrics(p["summary"], external).items():
                samples.setdefault(name, []).append(value)
        wall_t = statistics.median(p["wall_s"] for p in traced_passes)
        wall_u = statistics.median(p["wall_s"] for p in plain)
        samples["trace.overhead_ratio"] = [(wall_t - wall_u) / wall_u]
    elif ok:
        samples = {
            "setup_s": [p["setup_s"] for p in plain],
            "wall_s": [p["wall_s"] for p in plain],
            "items_per_s": [p["items"] / p["wall_s"] for p in plain],
            "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        }
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in (tracer.PER_LAYER if trace else END_TO_END)
        if ok
    }
    line = {"correct": ok and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    result_set = {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "config": cfg and {k: v for k, v in cfg.items() if k != "grid_key"},
        "samples": samples,
        "failed_ratio": failed / attempted,
        "result": line,
        "passes": [{k: v for k, v in p.items() if k != "summary"} for p in passes],
    }
    (run_dir / "result.json").write_text(json.dumps(result_set, indent=1))
    return line, result_set


def print_report(result_set: dict) -> None:
    line = result_set["result"]
    env = result_set["environment"]
    passes = result_set["passes"]
    print(
        f"workload {result_set['workload']}  seed {result_set['seed']}  "
        f"passes {len(passes)} ({sum(p['traced'] for p in passes)} traced)"
    )
    print(
        f"environment: nproc {env['nproc']}  cpu {env['cpu_model']!r}  python {env['python']}  "
        f"numpy {env['numpy']}  scipy {env['scipy']}  blas threads {env['blas_threads']}  "
        f"blas env {env['blas_env']}  commit {env['git_commit']}  src {env['src_sha256'][:12]}"
    )
    print(f"{'metric':46s} {'unit':6s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}")
    for name, metric in line["metrics"].items():
        values = result_set["samples"][name]
        q1, _, q3 = _quartiles(values)
        print(f"{name:46s} {metric['unit']:6s} {metric['value']:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{len(values):3d}")
    print(f"{'failed_ratio':46s} {'ratio':6s} {result_set['failed_ratio']:14.6g} "
          f"({line['failed']} of {line['attempted']} items)")
    for index, p in enumerate(passes):
        for note in p.get("notes", []):
            print(f"FAIL pass {index}: {note}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, then one table of every metric."""
    lines, sets = {}, {}
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        out = done.stdout.strip().splitlines()
        lines[workload] = json.loads(out[-1]) if out and out[-1].startswith("{") else None
        result_file = OUT / f"{workload}-seed{seed}-trace{int(trace)}" / "result.json"
        if result_file.is_file():
            sets[workload] = json.loads(result_file.read_text())
    (OUT / f"all-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(sets, indent=1))
    names = [name for name, _ in (tracer.PER_LAYER if trace else END_TO_END)]
    print()
    print(f"{'metric':46s}" + "".join(f"{w:>16s}" for w in workloads.WORKLOADS))
    for name in names + ["failed_ratio"]:
        cells = []
        for workload in workloads.WORKLOADS:
            rs = sets.get(workload)
            if rs is None:
                cells.append("-")
            elif name == "failed_ratio":
                cells.append(f"{rs['failed_ratio']:.6g}")
            else:
                metric = rs["result"]["metrics"].get(name)
                cells.append("-" if metric is None else f"{metric['value']:.6g}")
        print(f"{name:46s}" + "".join(f"{c:>16s}" for c in cells))
    ok = all(line is not None and line["correct"] for line in lines.values())
    print(json.dumps({"correct": ok, "workloads": lines}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sslci" / "__init__.py").is_file():
        print(f"error: no sslci sources at {SRC / 'sslci'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    line, result_set = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(result_set)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
