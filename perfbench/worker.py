"""One benchmark pass, run in a fresh process so its peak memory is its own.

    python3 perfbench/worker.py --workload W --seed N --out DIR [--config FILE] [--trace]

The pass imports sslci from the checkout's ``src``, reads the generated
config (harness workloads) or builds the seeded problems
(``finite-support``), then times the library calls.  It writes
``pass.json`` (timings, peak RSS, digest, checks, and with ``--trace`` the
per-layer metrics) and, when traced, ``spans.json`` into DIR.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def run_pass(workload: str, seed: int, out: Path, config: Path | None, trace: bool,
             started: float | None = None) -> dict:
    started = time.perf_counter() if started is None else started
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    t0 = time.perf_counter()
    import sslci
    import sslci.config
    import sslci.harness

    import_s = time.perf_counter() - t0
    if Path(sslci.__file__).resolve().parent != SRC / "sslci":
        raise RuntimeError(f"imported sslci from {sslci.__file__}, not from {SRC}")
    tracer = None
    if trace:
        from tracer import MODULES, Tracer

        tracer = Tracer()
        tracer.install([importlib.import_module(name) for name in MODULES])
    out.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": trace, "import_s": import_s}
    try:
        if workload == "finite-support":
            import finite

            problems = finite.make_problems(sslci, seed)
            t1 = time.perf_counter()
            results = finite.solve(
                sslci, problems, tracer.next_item if tracer else lambda: None
            )
            t2 = time.perf_counter()
            gate = finite.check(problems, results)
            record.update(gate)
        else:
            cfg = sslci.config.load_config(config, {"output_dir": str(out)})
            t1 = time.perf_counter()
            result = sslci.harness.run(cfg)
            t2 = time.perf_counter()
            digest = hashlib.sha256()
            for path in (result.results_path, result.summary_path):
                digest.update(path.read_bytes())
            record["digest"] = digest.hexdigest()
    finally:
        if tracer:
            tracer.uninstall()
    record["setup_s"] = t1 - started
    record["wall_s"] = t2 - t1
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        record["summary"] = tracer.summary()
        (out / "spans.json").write_text(json.dumps(tracer.spans))
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--config", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    record = run_pass(args.workload, args.seed, args.out, args.config, args.trace, STARTED)
    (args.out / "pass.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
