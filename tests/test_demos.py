"""Smoke test: every demo script, and the README's library example, runs
to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # full_run.py writes its tables under a fresh temporary directory,
    # here inside tmp_path.
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    snippet = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    # The snippet works on a caller's fully observed matrix `x`.
    exec(snippet, {"x": np.random.default_rng(0).random((60, 4))})
    assert "rmse" in capsys.readouterr().out
