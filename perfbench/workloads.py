"""The benchmark's workloads and the correctness gate for the harness ones.

Three workloads drive ``sslci.harness.run`` through a generated config file
at the README defaults; only the trial count is the benchmark's choice,
sized so one pass takes a few seconds.  ``finite-support`` calls the
operator and topic-model layers directly (see ``finite.py``).  An item is
one trial (a grid point's trial) on the harness workloads and one solved
problem on ``finite-support``.
"""

from __future__ import annotations

import csv
from pathlib import Path

WHY = {
    "mixture-k": "mse-vs-k over k=2..16: the posterior, sampling, lstsq and "
    "covariance layers of the mixture trial; where posterior and trial-level "
    "changes show",
    "gaussian-n2": "mse-vs-n2: Gaussian sampling and lstsq with no posterior "
    "or empirical covariance calls; control for posterior and covariance changes",
    "ci-sweep": "ci-report over alpha: mixture sampling plus five centred "
    "covariance blocks per point, no fits; the workload of the linalg and "
    "independence layers",
    "finite-support": "ace_fit, dense SVD, eps_ci_tilde, bound evaluation, exact "
    "topic enumeration and document sampling with no harness; control for "
    "every harness change",
}
WORKLOADS = tuple(WHY)

#: README defaults, written out so a changed default cannot change a workload.
BASE = dict(d1=50, d2=40, n1=4000, n2=1000, k=2, alpha=0.0, eval_n=10_000)

HARNESS = {
    "mixture-k": dict(experiment="mse-vs-k", grid_key="k_grid", grid=(2, 4, 8, 16), trials=2),
    "gaussian-n2": dict(
        experiment="mse-vs-n2", grid_key="n2_grid", grid=(250, 500, 1000, 2000), trials=5
    ),
    "ci-sweep": dict(
        experiment="ci-report",
        grid_key="alpha_grid",
        grid=(0.0, 0.25, 0.5, 0.75, 1.0),
        trials=6,
    ),
}

#: |a − b| ≤ ATOL + RTOL·|b| per cell.  Loose enough for a reordered
#: floating-point sum (such as a GEMM form of the posterior), tight enough
#: that any wrong formula, sample or seed fails.
RTOL = 1e-6
ATOL = 1e-10


def harness_config(workload: str, seed: int, trials: int | None = None) -> dict:
    spec = HARNESS[workload]
    return dict(
        BASE,
        experiment=spec["experiment"],
        grid_key=spec["grid_key"],
        grid=spec["grid"],
        trials=spec["trials"] if trials is None else trials,
        seed=seed,
    )


def write_config(cfg: dict, path: Path) -> None:
    """The flat key = value file that ``sslci.config.load_config`` reads."""
    lines = [f"experiment = {cfg['experiment']}"]
    lines += [f"{key} = {cfg[key]}" for key in BASE]
    lines.append(f"{cfg['grid_key']} = {','.join(str(v) for v in cfg['grid'])}")
    lines += [f"trials = {cfg['trials']}", f"seed = {cfg['seed']}"]
    path.write_text("\n".join(lines) + "\n")


def read_results(path: Path) -> dict:
    """{(grid value, trial, method): (mse, eps_ci, seed)} from results.csv."""
    with path.open(newline="") as handle:
        return {
            (float(row["grid_value"]), int(row["trial"]), row["method"]): (
                float(row["mse"]),
                float(row["eps_ci"]),
                int(row["seed"]),
            )
            for row in csv.DictReader(handle)
        }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ATOL + RTOL * abs(b)


def failed_items(rows: dict, expected: dict) -> tuple[set, list[str]]:
    """Items (grid value, trial) whose rows are missing, extra or wrong."""
    failed, notes = set(), []
    for key in sorted(set(rows) | set(expected), key=repr):
        got, want = rows.get(key), expected.get(key)
        if got is None or want is None:
            failed.add(key[:2])
            notes.append(f"{key}: {'missing' if got is None else 'unexpected'} row")
        elif got[2] != want[2] or not (_close(got[0], want[0]) and _close(got[1], want[1])):
            failed.add(key[:2])
            notes.append(f"{key}: got {got}, reference {want}")
    return failed, notes
