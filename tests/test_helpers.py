"""Helper processes: the `lending` blocks that own them, their two entry
points, `map`, which splits items into shares, and `each`, which hands out
one item at a time, and the tokens that a lost helper held."""

import ast
import multiprocessing
import os
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

from misslab import helpers
from misslab.helpers import lending


_TEST_PID = os.getpid()      # a forked helper inherits it


def _pids(items):
    """The id of the process that ran each item; module-level, so that it
    pickles."""
    return [os.getpid()] * len(items)


def _pid_of(item):
    """(item, the id of the process that ran it), a little later, so that
    the items spread over the helpers; item 1 kills its helper with status 3
    when `_EXITS` is set."""
    if _EXITS and item == 1 and os.getpid() != _TEST_PID:
        os._exit(3)
    time.sleep(0.02)
    return item, os.getpid()


_EXITS = False


def _alone(item, lost):
    return item, os.getpid(), lost


_TOKENS = None      # a semaphore shared with forked helpers, for `_holds_and_dies`


def _holds_and_dies(item):
    """Item 1 holds a token of `_TOKENS`, borrows what is free for a `map`,
    and kills its helper while its share runs."""
    with helpers.holding(_TOKENS), lending(_TOKENS):
        return helpers.map(_killed_on_one, (), [item] * 3)


def _killed_on_one(items):
    if items[0] == 1 and os.getpid() != _TEST_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return [os.getpid()] * len(items)


def _raises_on_two(item):
    if item == 2:
        raise ValueError("item two")
    return item, os.getpid()


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
    # One way to fork: no module names a `Helpers` class or imports a
    # process pool.
    package = Path(__file__).resolve().parent.parent / "src" / "misslab"
    forks, named, pools = set(), set(), set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "os.fork":
                forks.add(path.name)
            if isinstance(node, ast.ClassDef) and node.name == "Helpers":
                named.add(path.name)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    alias.name.split(".")[-1] == "Helpers" for alias in node.names):
                named.add(path.name)
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name.startswith(("concurrent.futures", "multiprocessing.pool"))
                   for name in imported):
                pools.add(path.name)
    assert forks == {"helpers.py"}
    assert named == set()
    assert pools == set()


def test_each_returns_results_in_item_order_from_several_helpers():
    here = os.getpid()
    with lending(None) as loan:
        got = helpers.each(_pid_of, range(8), 2, _alone)
        assert [item for item, _ in got] == list(range(8))
        pids = {pid for _, pid in got}
        assert len(pids) == 2 and here not in pids
        assert {pid for pid, _ in loan.live} == pids
        # A second call reuses the block's helpers.
        assert {pid for _, pid in helpers.each(_pid_of, range(4), 2, _alone)} == pids
    assert loan.live == [] and len(loan.peak_rss_mb) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_each_runs_a_lost_helpers_item_alone_and_keeps_the_others(monkeypatch):
    # Item 1's helper exits with status 3: only that item comes back from
    # `alone` in this process, saying how the helper ended, and every later
    # item still runs on the surviving helper.
    monkeypatch.setattr(sys.modules[__name__], "_EXITS", True)
    here = os.getpid()
    with lending(None) as loan:
        got = helpers.each(_pid_of, range(6), 2, _alone)
        survivor = got[0][1]
        assert [pid for pid, _ in loan.live] == [survivor] != [here]
        assert len(loan.peak_rss_mb) == 1                       # the lost one, reaped
    item, pid, lost = got[1]
    assert (item, pid) == (1, here)
    assert lost.startswith("process ") and lost.endswith(" exited with status 3")
    assert got[:1] + got[2:] == [(i, survivor) for i in (0, 2, 3, 4, 5)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_each_on_one_process_or_no_items_forks_nothing():
    here = os.getpid()
    with lending(None) as loan:
        assert helpers.each(_pid_of, range(3), 1, _alone) == [
            (0, here, None), (1, here, None), (2, here, None)]
        assert helpers.each(_pid_of, [], 2, _alone) == []
        assert loan.live == []
    assert loan.peak_rss_mb == []


def test_each_gives_back_the_tokens_of_a_helper_killed_holding_them(monkeypatch):
    # A semaphore keeps what a killed process took: without the helper's
    # tally the block would be owed its token, and the borrowed ones, for good.
    tokens = multiprocessing.get_context("fork").Semaphore(2)
    monkeypatch.setattr(sys.modules[__name__], "_TOKENS", tokens)
    with lending(tokens) as loan:
        got = helpers.each(_holds_and_dies, range(4), 2, _alone)
        assert len(loan.live) == 1
    assert got[1][2].endswith("killed by SIGKILL")
    assert [tokens.acquire(False) for _ in range(3)] == [True, True, False]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_each_runs_an_item_that_raised_alone_and_keeps_its_helper():
    here = os.getpid()
    with lending(None) as loan:
        got = helpers.each(_raises_on_two, range(6), 2, _alone)
        pids = {pid for pid, _ in loan.live}
    assert got[2] == (2, here, "ValueError: item two")
    assert [item for item, *_ in got] == list(range(6))
    assert len(pids) == 2 and {pid for _, pid in got[:2] + got[3:]} <= pids
    assert loan.peak_rss_mb and len(loan.peak_rss_mb) == 2       # reaped at the end


def _spans(item):
    """(item, pid, start, end) on the monotonic clock, which every process
    shares; item 0 takes half a second, the others a moment."""
    start = time.monotonic()
    time.sleep(0.5 if item == 0 else 0.02)
    return item, os.getpid(), start, time.monotonic()


def _spans_alone(item, lost):
    return _spans(item)


def _after_one(item, result):
    """Item 1's result lets items 10 and 11 start; no other result adds any."""
    return [10, 11] if item == 1 else []


def test_each_serves_appended_items_on_idle_helpers_while_others_run():
    # Items 10 and 11 exist only once item 1's result is in. The helper that
    # ran item 1 serves them, before items 2 and 3 of the first list, while
    # item 0 still runs on the other; every result comes back in item order.
    with lending(None):
        got = helpers.each(_spans, range(4), 2, _alone, _after_one)
    assert [item for item, *_ in got] == [0, 1, 2, 3, 10, 11]
    (_, slow, _, slow_end), *quick = got
    assert all(pid != slow and end < slow_end for _, pid, _, end in quick)
    started = {item: start for item, _, start, _ in got}
    assert started[1] < started[10] < started[11] < started[2] < started[3]
    # One process walks the same list in the same order.
    with lending(None):
        alone = helpers.each(_spans, range(4), 1, _spans_alone, _after_one)
    assert [item for item, *_ in alone] == [0, 1, 2, 3, 10, 11]
    started = {item: start for item, _, start, _ in alone}
    assert sorted(started, key=started.get) == [0, 1, 10, 11, 2, 3]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _after_two(item, result):
    return [20] if item == 2 else []


def test_each_appends_what_an_item_rerun_alone_lets_start():
    # Item 2 raises in its helper and runs again in this process; item 20,
    # which needs its result, is still appended and runs on a helper.
    here = os.getpid()
    with lending(None) as loan:
        got = helpers.each(_raises_on_two, range(4), 2, _alone, _after_two)
        pids = {pid for pid, _ in loan.live}
    assert got[2] == (2, here, "ValueError: item two")
    assert [item for item, *_ in got] == [0, 1, 2, 3, 20]
    assert got[4][1] in pids
