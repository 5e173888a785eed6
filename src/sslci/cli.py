"""Command-line interface.

Subcommands:

- ``sslci run <config> [--plot] [--out DIR] [--seed N] [--trials N]
  [--experiment TAG]``: execute a configured experiment, writing
  results.csv / summary.csv (and plot.svg with ``--plot``); each flag
  overrides its config key.
- ``sslci selfcheck``: run the fast invariant suite, printing each check's
  wall time; nonzero exit on any failure.
- ``sslci ace --joint FILE [--k K]``: operator diagnostics for a discrete
  joint given as a text file (header "x1_size x2_size y_size", then
  probabilities in x1-major order); ``--k`` (default 3, at least 1) is the
  number of ACE function pairs.
- ``sslci topic --spec FILE``: exact verification of a finite-prior topic
  model described by a key=value file.

Exit codes: 0 success, 1 check failure, 2 usage error (a bad flag, config,
input file or output path).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import _read_key_values, load_config
from .harness import run, selfcheck_checks
from .models import DiscreteJoint
from .operators import (
    ace_fit,
    ace_objective_identity_check,
    build_operator_t,
    eps_ci_tilde,
)
from .topics import TopicModelSpec, verify_latent_construction

__all__ = ["entry", "main", "read_joint_file", "read_topic_spec_file"]


def read_joint_file(path: str | Path) -> DiscreteJoint:
    """Parse a joint-distribution file.

    First line: three integers "x1_size x2_size y_size" (y_size 0 means no
    label axis); remaining tokens: the probabilities in x1-major order.
    """
    tokens = Path(path).read_text().split()
    if len(tokens) < 3:
        raise ValueError("joint file needs a 3-integer header")
    n1, n2, ny = (int(t) for t in tokens[:3])
    if min(n1, n2, ny) < 0:
        raise ValueError(f"negative size in joint file header: {n1} {n2} {ny}")
    values = np.asarray([float(t) for t in tokens[3:]])
    shape = (n1, n2, ny) if ny > 0 else (n1, n2)
    expected = int(np.prod(shape))
    if values.size != expected:
        raise ValueError(f"expected {expected} probabilities, got {values.size}")
    total = values.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"probabilities sum to {total}, expected 1")
    return DiscreteJoint(p=values.reshape(shape) / total)


def read_topic_spec_file(path: str | Path) -> TopicModelSpec:
    """Parse a key=value topic-model spec.

    Matrix values use ';' between rows and ',' between entries.  Keys:
    ``a`` (V rows of k entries), ``tau_weights``, ``tau_atoms`` (one row
    per atom), ``w``, ``doc_len``, ``noise_sigma``; any other key is an
    error.
    """
    keys = {f.name for f in fields(TopicModelSpec) if f.init}  # not the dimensions
    values = dict(_read_key_values(path, keys))

    def matrix(raw: str) -> np.ndarray:
        return np.asarray(
            [[float(v) for v in row.split(",")] for row in raw.split(";")]
        )

    def vector(raw: str) -> np.ndarray:
        return np.asarray([float(v) for v in raw.split(",")])

    try:
        return TopicModelSpec(
            a=matrix(values["a"]),
            tau_weights=vector(values["tau_weights"]),
            tau_atoms=matrix(values["tau_atoms"]),
            doc_len=int(values["doc_len"]),
            w=vector(values["w"]),
            noise_sigma=float(values.get("noise_sigma", "0.0")),
        )
    except KeyError as exc:
        raise ValueError(f"missing topic spec key: {exc}") from exc


def _cmd_run(args) -> int:
    overrides = {
        "experiment": args.experiment,
        "seed": args.seed,
        "trials": args.trials,
        "output_dir": args.out,
        "plot": True if args.plot else None,
    }
    config = load_config(args.config, overrides)
    result = run(config)
    print(f"wrote {result.results_path} and {result.summary_path}")
    print(f"{len(result.rows)} rows in {result.wall_time:.2f}s")
    return 0


def _cmd_selfcheck(args) -> int:
    failures = 0
    for name, check in selfcheck_checks():
        start = time.perf_counter()
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name} ({(time.perf_counter() - start) * 1e3:.1f} ms)")
    if failures:
        print(f"{failures} check(s) failed")
        return 1
    print("all checks passed")
    return 0


def _cmd_ace(args) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    joint = read_joint_file(args.joint)
    svals = np.linalg.svd(build_operator_t(joint), compute_uv=False)
    print("weighted singular values:", " ".join(f"{s:.6f}" for s in svals[:8]))
    k = min(args.k, min(joint.p.shape[:2]) - 1)
    solution = ace_fit(joint, k=k)
    print(
        f"ace sigmas (k={k}):",
        " ".join(f"{s:.6f}" for s in solution.sigmas),
        f"converged={solution.converged} iters={solution.iterations}"
        f" residual={solution.residual:.1e}",
    )
    gap = float(np.abs(solution.sigmas - svals[1 : k + 1]).max())
    print(f"max |ace sigma - svd sigma| = {gap:.3e}")
    l_ace, l_cca = ace_objective_identity_check(solution, joint)
    print(f"matching loss = {l_ace:.6f}, correlation objective = {l_cca:.6f}")
    if joint.has_y:
        print(f"eps_ci_tilde = {eps_ci_tilde(joint):.6e}")
    return 0 if gap < 1e-6 else 1


def _cmd_topic(args) -> int:
    spec = read_topic_spec_file(args.spec)
    report = verify_latent_construction(spec)
    print(f"latent size          : {report.latent_size}")
    print(f"eps_ci               : {report.eps_ci:.3e}")
    print(f"linearity gap        : {report.linearity_gap:.3e}")
    print(f"1/beta               : {report.beta_inv:.6f}")
    print(f"coupling bound       : {report.beta_bound:.6f}")
    print(f"prior condition kappa: {report.kappa:.6f}")
    print("status               :", "ok" if report.passed else "FAIL")
    return 0 if report.passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sslci",
        description="Two-view representation learning experiments and checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config", help="key=value config file")
    p_run.add_argument("--plot", action="store_true", help="also write plot.svg")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--experiment", default=None, help="override experiment tag")
    p_run.add_argument("--seed", type=int, default=None, help="override master seed")
    p_run.add_argument("--trials", type=int, default=None, help="override trial count")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("selfcheck", help="run the fast invariant suite")
    p_check.set_defaults(func=_cmd_selfcheck)

    p_ace = sub.add_parser("ace", help="operator diagnostics for a discrete joint")
    p_ace.add_argument("--joint", required=True, help="joint-distribution file")
    p_ace.add_argument("--k", type=int, default=3, help="number of function pairs")
    p_ace.set_defaults(func=_cmd_ace)

    p_topic = sub.add_parser("topic", help="verify a finite-prior topic model")
    p_topic.add_argument("--spec", required=True, help="topic spec file")
    p_topic.set_defaults(func=_cmd_topic)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script shim
    sys.exit(main())
