"""Shared pytest wiring: the acceptance suite reports one line per criterion,
and no test may leave a child process running."""

import glob
import os
import signal
import time

import pytest

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Sink for per-criterion pass/fail lines, printed after the run."""
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def _live_children() -> dict[int, str]:
    """This process's children that have not exited, pid -> command line,
    read from /proc (so none where there is no /proc)."""
    live = {}
    for listing in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(listing, encoding="ascii") as fh:
                pids = fh.read().split()
        except FileNotFoundError:    # the thread has just ended; its children moved
            continue
        for pid in pids:
            try:
                with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
                    state = fh.read().rsplit(")", 1)[1].split()[0]
                with open(f"/proc/{pid}/cmdline", "rb") as fh:
                    cmdline = fh.read().replace(b"\0", b" ").decode(errors="replace")
            except (OSError, IndexError):            # it has just been reaped
                continue
            if state != "Z":
                live[int(pid)] = cmdline.strip()
    return live


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a child of the pytest process running 10 s
    after it ends, naming each such child; then kill and reap them, so that
    the next test starts clean."""
    before = _live_children()
    yield
    deadline = time.monotonic() + 10
    while True:
        left = {pid: cmd for pid, cmd in _live_children().items() if pid not in before}
        if not left or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    for pid in left:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if left:
        pytest.fail("left child processes running: " + "; ".join(
            f"pid {pid} ({cmd})" for pid, cmd in left.items()), pytrace=False)
