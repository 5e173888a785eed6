"""Package-level properties: the public namespace, runtime dependencies and
the README examples."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sslci
from sslci.config import EXPERIMENTS

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(sslci.__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(SRC)}
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
LIBRARY = ("linalg", "models", "learn", "independence", "operators", "topics")
APPLICATION = ("config", "harness", "cli")
TINY_CONFIG = """\
d1 = 6
d2 = 5
n1 = 400
n2 = 200
eval_n = 500
trials = 1
k_grid = 2, 3
alpha_grid = 0.0, 0.5
n2_grid = 100, 200
seed = 7
"""


def test_package_exports_exactly_the_library_modules_all():
    modules = [importlib.import_module(f"sslci.{name}") for name in LIBRARY]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(sslci.__all__) == sorted(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(sslci, name) is getattr(module, name), name


def _names_read(path: Path) -> set[str]:
    """Names, attributes and imported names in ``path``; a def or docstring reads none."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_exported_function_has_a_reader():
    # functions and classes of the library and of config, harness and cli; a
    # reader is library code or the benchmark, and the tests alone do not count
    library = [f for f in SRC.joinpath("sslci").glob("*.py") if f.name != "__init__.py"]
    read = set().union(*map(_names_read, library + [*README.parent.glob("perfbench/*.py")]))
    kinds = (inspect.isfunction, inspect.isclass)
    modules = [sslci, *(importlib.import_module(f"sslci.{m}") for m in APPLICATION)]
    exported = {
        name
        for module in modules
        for name in module.__all__
        if any(kind(getattr(module, name)) for kind in kinds)
    }
    assert sorted(exported - read) == []


def test_library_has_no_assert_statement():
    # python -O strips assert statements; a check must raise to hold there
    for path in SRC.joinpath("sslci").glob("*.py"):
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert on lines {lines}"


def test_failed_selfcheck_fails_under_python_O():
    code = (
        "import sys, sslci.independence as ind\n"
        "exact = ind.eps_ci_universal\n"
        "ind.eps_ci_universal = lambda joint: exact(joint) + 1e-3\n"
        "from sslci.cli import main\n"
        "sys.exit(main(['selfcheck']))\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=ENV
    )
    assert out.returncode == 1, out.stdout + out.stderr
    [failure] = [line for line in out.stdout.splitlines() if line.startswith("FAIL")]
    name, reason = failure.removeprefix("FAIL ").split(": ", 1)
    assert name == "latent-screening"
    assert "eps_ci_universal" in reason and "1e-12" in reason


def test_import_leaves_concurrent_futures_and_logging_unloaded():
    # concurrent.futures imports logging; the trials that use it import it
    code = (
        "import sys, sslci.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=ENV
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("first", ["sslci.config", "sslci.harness"])
def test_harness_does_not_import_config(first):
    # config validates experiment names against harness.EXPERIMENTS, so the
    # dependency must run one way: a runtime import back would be a cycle
    code = f"import sys, {first}; print('sslci.config' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=ENV
    )
    assert out.stdout.strip() == str(first == "sslci.config")


def test_import_leaves_scipy_unloaded():
    code = "import sys, sslci; print(sorted(m for m in sys.modules if m[:5] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=ENV
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["selfcheck", *EXPERIMENTS])
def test_cli_runs_with_scipy_blocked(tmp_path, command):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(TINY_CONFIG)
    argv = ["run", str(cfg), "--experiment", command, "--out", str(tmp_path), "--plot"]
    if command == "selfcheck":
        argv = ["selfcheck"]
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from sslci.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert out.returncode == 0, out.stdout + out.stderr
    assert (tmp_path / "plot.svg").exists() or command == "selfcheck"


def test_readme_has_python_examples():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=lambda b: b.splitlines()[0][:40])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
