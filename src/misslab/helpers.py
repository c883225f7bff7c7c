"""Helper processes that run independent items of one call on idle cores.

A `lending` block grants a semaphore with one token per core that no work
holds, and owns the helpers forked in it: it kills and reaps them when it
ends, also on an exception. `map(fn, shared, items)` borrows from the
innermost block, or runs every item in the caller outside any. It takes up
to len(items) - 1 free tokens without waiting; with P - 1 taken, process p
of P runs `fn(*shared, items[p::P])`: the caller is process 0, and each
other share goes to a helper of the block, forked on first need. Taking
every P-th item evens out items whose cost grows along the list.
`each(fn, items, processes, alone)` takes no token: up to `processes`
helpers of the block each run `fn(item)` for the next item as soon as they
return a result, and the caller runs an item whose helper is lost or raised
once the others are done. A helper tallies the block's tokens it holds
(`holding`, `map`) in memory shared with its caller, which gives them back
when it reaps the helper: a semaphore keeps what a killed process took.
The results come back in item order, so they do not depend on which
process ran an item; a helper that fails leaves its items to the caller,
and a helper dies with the process that forked it. Users: a forest's
trees (`forest.train_forest`), the mixture search's EM fits
(`gmm.select_generator`) and a run's cells (`pipeline.run_cells`).
"""

from __future__ import annotations

import contextlib
import ctypes
import mmap
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
    held: dict = field(default_factory=dict)    # pid: the tally of tokens it holds
    maps: int = 0                       # `map` calls a helper ran items of
    cpu_s: float = 0.0                  # the helpers' user + system CPU seconds
    peak_rss_mb: list = field(default_factory=list)    # one per helper reaped

    def _fork(self) -> bool:
        from multiprocessing.connection import Pipe     # only a lender pays its import
        here, there = Pipe()
        caller = os.getpid()
        held = ctypes.c_int.from_buffer(mmap.mmap(-1, 4))  # its `_HELD`, shared with us
        try:
            pid = os.fork()
        except OSError:
            here.close()
            there.close()
            return False
        if pid == 0:                                # the helper
            global _HELD
            _HELD = held
            try:
                _die_with(caller)
                here.close()
                for loan in _LOANS:
                    for _, other in loan.live:
                        other.close()
                with contextlib.suppress(EOFError):     # its caller closed the pipe
                    while True:
                        fn, shared, share = there.recv()
                        try:
                            there.send((True, fn(*shared, share)))
                        except Exception as exc:        # its caller runs the share
                            there.send((False, f"{type(exc).__name__}: {exc}"))
            finally:
                os._exit(0)
        there.close()
        self.live.append((pid, here))
        self.held[pid] = held
        return True

    def _result(self, helper) -> tuple:
        """(True, what `helper` sent back), (False, the error its share
        raised), or, with the helper lost and reaped, (False, how it ended)."""
        try:
            return helper[1].recv()
        except (OSError, EOFError):
            return False, self._reap(helper)

    def _reap(self, helper) -> str:
        """Kill and reap `helper`; says how it ended."""
        pid, conn = helper
        self.live.remove(helper)
        conn.close()
        os.kill(pid, signal.SIGKILL)        # a zombie takes it silently
        _, status, usage = os.wait4(pid, 0)
        for _ in range(self.held.pop(pid).value):   # what it held, even if killed
            self.tokens.release()
        self.cpu_s += usage.ru_utime + usage.ru_stime
        self.peak_rss_mb.append(usage.ru_maxrss / 1024.0)   # KiB on Linux
        code = os.waitstatus_to_exitcode(status)
        return (f"process {pid} exited with status {code}" if code >= 0
                else f"process {pid} killed by {signal.Signals(-code).name}")


_LOANS = [Loan()]       # the open blocks' loans, innermost last; the first lends none
_HELD = ctypes.c_int()  # the tokens this process holds; a helper's is shared (`_fork`)


@contextlib.contextmanager
def lending(tokens):
    """Let `map` calls in this block borrow `tokens`, a semaphore with one
    token per free core (None lends none), and `each` calls fork into it.
    Yields the block's `Loan`; its helpers are killed and reaped when the
    block ends. Helpers are forked, so lend only in a process that runs no
    other thread."""
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
        _HELD.value += 1        # from just after it is taken to just before it goes back
    try:
        while len(loan.live) < taken and loan._fork():
            pass
        step, helping = taken + 1, loan.live[:taken]
        for p, helper in enumerate(helping, start=1):
            with contextlib.suppress(OSError):  # a lost helper's pipe reads as ended
                helper[1].send((fn, shared, items[p::step]))
        results, helped = [None] * len(items), False
        for p in range(step):
            ok, got = loan._result(helping[p - 1]) if 0 < p <= len(helping) else (False, None)
            helped = helped or ok
            results[p::step] = got if ok else fn(*shared, items[p::step])
        loan.maps += helped
        return results
    finally:
        for _ in range(taken):
            _HELD.value -= 1
            tokens.release()


@contextlib.contextmanager
def holding(tokens):
    """Hold one of `tokens` in this block, waiting for it if it is lent,
    tallied as `map` tallies what it borrows. A helper holds only tokens of
    the block it was forked in."""
    with tokens:
        _HELD.value += 1
        try:
            yield
        finally:
            _HELD.value -= 1


def each(fn, items, processes: int, alone) -> list:
    """fn(item) for every item of `items`, in item order. Up to `processes`
    helpers of the innermost block, forked if it has fewer, each run the
    next item as soon as they return a result. Once they are done, the
    caller runs `alone(item, lost)` for an item whose helper was lost or
    raised, `lost` saying how it ended or what it raised, and with `lost`
    None every item once no helper is left, or all of them when `processes`
    is below 2. `fn` and the items and results must pickle."""
    from multiprocessing.connection import wait
    loan, items = _LOANS[-1], list(items)
    results, order, busy = [None] * len(items), iter(range(len(items))), {}
    wanted = min(processes, len(items)) if processes > 1 else 0
    while len(loan.live) < wanted and loan._fork():
        pass

    def give(helper):               # its next item, if any is left
        at = next(order, None)
        if at is not None:
            with contextlib.suppress(OSError):  # a lost helper's pipe reads as ended
                helper[1].send((fn, (), items[at]))
            busy[helper[1]] = helper, at

    for helper in loan.live[:wanted]:
        give(helper)
    lost = []                       # items whose result is how their helper failed
    while busy:                     # wait([]) would block for good
        for conn in wait(list(busy)):
            helper, at = busy.pop(conn)
            ok, results[at] = loan._result(helper)
            if not ok:
                lost.append(at)
            if helper in loan.live:
                give(helper)
    for at in lost + list(order):   # an item never given out has None
        results[at] = alone(items[at], results[at])
    return results


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
