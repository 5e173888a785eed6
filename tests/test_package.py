"""Package-level properties: runtime dependencies and the README examples."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sslci

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(sslci.__file__).resolve().parents[1]
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_import_leaves_scipy_unloaded():
    code = "import sys, sslci; print(sorted(m for m in sys.modules if m[:5] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


def test_readme_has_python_examples():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=lambda b: b.splitlines()[0][:40])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
