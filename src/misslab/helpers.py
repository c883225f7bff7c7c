"""Helper processes that run independent items of one call on idle cores.

Inside a `lending` block, which grants a semaphore with one token per core
that no work holds, `Helpers.map(fn, shared, items)` takes up to
len(items) - 1 free tokens without waiting. With P - 1 taken, process p of P
runs `fn(*shared, items[p::P])`: the caller is process 0, and each other
share goes to a forked helper. Taking every P-th item evens out items whose
cost grows along the list. The results come back in item order, so they do
not depend on which process ran an item; a helper that fails leaves its
items to the caller, and a helper dies with the process that forked it.
Users: a forest's trees (`forest.train_forest`) and the mixture search's
EM fits (`gmm.select_generator`).
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import signal
import sys
from dataclasses import dataclass, field


@dataclass
class Loan:
    """The free-core tokens a `lending` block grants (a semaphore, or None
    for none), and what the helpers that used them cost."""

    tokens: object = None
    maps: int = 0                       # `Helpers.map` calls a helper ran items of
    cpu_s: float = 0.0                  # the helpers' user + system CPU seconds
    peak_rss_mb: list = field(default_factory=list)    # one per helper reaped


_LOAN = Loan()


@contextlib.contextmanager
def lending(tokens):
    """Let the `Helpers` made in this block borrow `tokens`, a semaphore
    with one token per free core (None lends none). Yields the block's
    `Loan`. Helpers are forked, so lend only in a process that runs no other
    thread."""
    global _LOAN
    before, _LOAN = _LOAN, Loan(tokens)
    try:
        yield _LOAN
    finally:
        _LOAN = before


class Helpers:
    """Helper processes of one caller, each forked on first need, that run
    shares of its maps on the cores the enclosing `lending` block lends.
    On exit every helper is killed and reaped, its CPU seconds and peak RSS
    added to that block's loan."""

    def __init__(self):
        self.loan = _LOAN
        self.live: list[tuple] = []         # (pid, its pipe end)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self.live:
            self._reap(self.live[0])

    def map(self, fn, shared: tuple, items) -> list:
        """The results of `fn(*shared, share)`, which returns one result per
        item of its share, for every item of `items`, in item order. Share p
        of P is items[p::P]; the helpers run shares 1 to P - 1 and this
        process share 0. `fn` and what it takes and returns must pickle."""
        items = list(items)
        taken = 0
        tokens = self.loan.tokens
        while tokens is not None and taken < len(items) - 1 and tokens.acquire(False):
            taken += 1
        try:
            while len(self.live) < taken and self._fork():
                pass
            step = taken + 1
            sent = {}
            for p, helper in enumerate(self.live[:taken], start=1):
                if self._exchange(helper, (fn, shared, items[p::step])) is not None:
                    sent[p] = helper
            results, helped = [None] * len(items), False
            for p in range(step):
                got = self._exchange(sent[p]) if p in sent else None
                helped = helped or got is not None
                results[p::step] = got if got is not None else fn(*shared, items[p::step])
            self.loan.maps += helped
            return results
        finally:
            for _ in range(taken):
                tokens.release()

    def _fork(self) -> bool:
        from multiprocessing.connection import Pipe     # only a lender pays its import
        here, there = Pipe()
        caller = os.getpid()
        try:
            pid = os.fork()
        except OSError:
            here.close()
            there.close()
            return False
        if pid == 0:                                # the helper
            try:
                _die_with(caller)
                here.close()
                for _, other in self.live:
                    other.close()
                with contextlib.suppress(EOFError):     # its caller closed the pipe
                    while True:
                        fn, shared, share = there.recv()
                        there.send(fn(*shared, share))
            finally:
                os._exit(0)
        there.close()
        self.live.append((pid, here))
        return True

    def _exchange(self, helper, job=None):
        """Send `job` to `helper` (True once sent), or with no job receive
        its results; None, with the helper reaped, when it fails."""
        try:
            if job is None:
                return helper[1].recv()
            helper[1].send(job)
            return True
        except (OSError, EOFError):
            self._reap(helper)
            return None

    def _reap(self, helper) -> None:
        pid, conn = helper
        self.live.remove(helper)
        conn.close()
        os.kill(pid, signal.SIGKILL)        # a zombie takes it silently
        _, _, usage = os.wait4(pid, 0)
        self.loan.cpu_s += usage.ru_utime + usage.ru_stime
        self.loan.peak_rss_mb.append(usage.ru_maxrss / 1024.0)   # KiB on Linux


def _die_with(parent: int) -> None:
    """Have the kernel kill this helper as soon as `parent`, the process that
    forked it, dies (Linux), so that a helper never outlives a worker killed
    without cleanup, nor holds the worker's inherited pipes open. Elsewhere a
    helper whose caller died exits once it has run its current share: its
    send fails, or its receive meets the end of the pipe."""
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:                      # it died before the prctl
        os._exit(0)


_PR_SET_PDEATHSIG = 1
