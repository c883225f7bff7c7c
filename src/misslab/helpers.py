"""Helper processes that run independent items of one call on idle cores.

A `lending` block grants a semaphore with one token per core that no work
holds, and owns the helpers forked in it: it kills and reaps them when it
ends, also on an exception. `map(fn, shared, items)` borrows from the
innermost block, or runs every item in the caller outside any. It takes up
to len(items) - 1 free tokens without waiting; with P - 1 taken, process p
of P runs `fn(*shared, items[p::P])`: the caller is process 0, and each
other share goes to a helper of the block, forked on first need. Taking
every P-th item evens out items whose cost grows along the list. The
results come back in item order, so they do not depend on which process ran
an item; a helper that fails leaves its items to the caller, and a helper
dies with the process that forked it. Users: a forest's trees
(`forest.train_forest`) and the mixture search's EM fits
(`gmm.select_generator`).
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
    for none), the helpers forked in it, and what the reaped ones cost."""

    tokens: object = None
    live: list = field(default_factory=list)            # (pid, its pipe end)
    maps: int = 0                       # `map` calls a helper ran items of
    cpu_s: float = 0.0                  # the helpers' user + system CPU seconds
    peak_rss_mb: list = field(default_factory=list)    # one per helper reaped

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
                for loan in _LOANS:
                    for _, other in loan.live:
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
        self.cpu_s += usage.ru_utime + usage.ru_stime
        self.peak_rss_mb.append(usage.ru_maxrss / 1024.0)   # KiB on Linux


_LOANS = [Loan()]       # the open blocks' loans, innermost last; the first lends none


@contextlib.contextmanager
def lending(tokens):
    """Let `map` calls in this block borrow `tokens`, a semaphore with one
    token per free core (None lends none). Yields the block's `Loan`; its
    helpers are killed and reaped when the block ends. Helpers are forked,
    so lend only in a process that runs no other thread."""
    loan = Loan(tokens)
    _LOANS.append(loan)
    try:
        yield loan
    finally:
        _LOANS.pop()
        while loan.live:
            loan._reap(loan.live[0])


def map(fn, shared: tuple, items) -> list:
    """The results of `fn(*shared, share)`, which returns one result per item
    of its share, for every item of `items`, in item order. Share p of P is
    items[p::P]; the innermost block's helpers run shares 1 to P - 1 and this
    process share 0. `fn` and what it takes and returns must pickle."""
    loan = _LOANS[-1]
    items = list(items)
    taken = 0
    tokens = loan.tokens
    while tokens is not None and taken < len(items) - 1 and tokens.acquire(False):
        taken += 1
    try:
        while len(loan.live) < taken and loan._fork():
            pass
        step = taken + 1
        sent = {}
        for p, helper in enumerate(loan.live[:taken], start=1):
            if loan._exchange(helper, (fn, shared, items[p::step])) is not None:
                sent[p] = helper
        results, helped = [None] * len(items), False
        for p in range(step):
            got = loan._exchange(sent[p]) if p in sent else None
            helped = helped or got is not None
            results[p::step] = got if got is not None else fn(*shared, items[p::step])
        loan.maps += helped
        return results
    finally:
        for _ in range(taken):
            tokens.release()


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
