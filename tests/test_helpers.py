"""Helper processes: the `lending` blocks that own them and `map`, their one
entry point."""

import ast
import os
import threading
from pathlib import Path

import pytest

from misslab import helpers
from misslab.helpers import lending


def _pids(items):
    """The id of the process that ran each item; module-level, so that it
    pickles."""
    return [os.getpid()] * len(items)


def test_nested_blocks_reap_their_own_helpers():
    # The inner block's helper is reaped when the block ends, here on an
    # exception; the outer block's helper keeps serving `map` after that.
    tokens, here = threading.Semaphore(1), os.getpid()
    with lending(tokens) as outer:
        served = helpers.map(_pids, (), range(2))
        assert [pid for pid, _ in outer.live] == served[1:] and served[0] == here
        with pytest.raises(RuntimeError, match="inner block"):
            with lending(tokens) as inner:
                got = helpers.map(_pids, (), range(3))
                assert [pid for pid, _ in inner.live] == got[1:2] != served[1:]
                raise RuntimeError("inner block")
        assert inner.live == [] and len(inner.peak_rss_mb) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(got[1], os.WNOHANG)
        assert helpers.map(_pids, (), range(2)) == served
    assert outer.live == [] and len(outer.peak_rss_mb) == 1
    assert (outer.maps, inner.maps) == (2, 1)
    assert tokens._value == 1                   # every token came back
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_only_helpers_forks_and_no_module_names_a_helpers_class():
    package = Path(__file__).resolve().parent.parent / "src" / "misslab"
    forks, named = set(), set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "os.fork":
                forks.add(path.name)
            if isinstance(node, ast.ClassDef) and node.name == "Helpers":
                named.add(path.name)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    alias.name.split(".")[-1] == "Helpers" for alias in node.names):
                named.add(path.name)
    assert forks == {"helpers.py"}
    assert named == set()
