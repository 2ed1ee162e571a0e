"""Host-speed reference: times the benchmark reports are scaled to one host speed.

The benchmark runs on a few cores of a shared host.  Load from outside the
guest makes the same code run at levels up to about 1.8x apart, switching
every few seconds, and the CPU time of the process slows with the wall time
(it is contention, not stolen time).  A run's medians and tails then follow
how much of it fell at each level rather than the program.

So every timed operation is bracketed by two runs of a fixed reference loop
that does not touch colo: small numpy matmuls and elementwise work plus
interpreted Python, the mix colo's layers run.  The operation's time at
reference speed is its wall time times ``REFERENCE_MS`` over the mean of
the two reference times.  A change to colo moves the operation and not the
reference, so it shows in full; a change of host speed moves both.  Wall
times are kept in the record next to the scaled ones.
"""

import statistics
from time import perf_counter

import numpy as np

# the loop's wall time at the fast level of the 2-vCPU x86-64 KVM guest the
# benchmark was tuned on (numpy 2.4, one BLAS thread), so that scaled times
# read like wall times there
REFERENCE_MS = 1.8
_PIECES = 3  # the loop runs in this many pieces; their median resists a one-off stall
_ROUNDS = 100  # per piece

_rng = np.random.default_rng(0)
_W = _rng.standard_normal((64, 64)) * 0.1
_X = _rng.standard_normal((8, 64))


def _piece_s():
    t0 = perf_counter()
    x = _X
    for _ in range(_ROUNDS):
        x = np.tanh(x @ _W)
        _ = {i: i * i for i in range(20)}
    return perf_counter() - t0


def reference_ms():
    """Time of one run of the reference loop, in ms: pieces x their median wall time."""
    return 1000.0 * _PIECES * statistics.median(_piece_s() for _ in range(_PIECES))


def scale(before_ms, after_ms):
    """Factor from wall time to time at reference speed, given the reference runs around it."""
    return 2.0 * REFERENCE_MS / (before_ms + after_ms)


class Clock:
    """Times calls back to back; each shares its leading reference run with the previous call's end."""

    def __init__(self):
        reference_ms()  # warm-up
        self.last = reference_ms()
        self.refs = [self.last]

    def time(self, fn, *args, **kwargs):
        """(result, wall seconds, seconds at reference speed) of one call."""
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        wall = perf_counter() - t0
        before, self.last = self.last, reference_ms()
        self.refs.append(self.last)
        return out, wall, wall * scale(before, self.last)

    def mark(self):
        """Run the reference now, so the next call is bracketed closely; returns its ms."""
        self.last = reference_ms()
        self.refs.append(self.last)
        return self.last
