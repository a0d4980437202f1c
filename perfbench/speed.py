"""CPU-speed normalisation of op times.

This machine's speed drifts by up to a third over tens of seconds (a
virtual machine whose host is shared), so the median wall time of a 20 s
run moves with the drift.  The benchmark times a fixed piece of reference
work after every op and scales the op's wall time by NOMINAL_S over the
mean of the reference times taken just before and just after it.  A change
to the program moves the scaled time as it moves the wall time; a change of
machine speed moves both the op and the reference work, and cancels as far
as the reference work slows down with the workload's code.
"""

import time

import numpy as np

# the reference work's typical duration on the machine the bounds were set
# on (2-core KVM guest, Xeon 2.0 GHz, numpy 2.4.6 / scipy-openblas 0.3.31)
NOMINAL_S = 0.0029

_START = np.random.default_rng(0).standard_normal((300, 200))
_A = np.empty_like(_START)
_B = np.empty_like(_START)
_ROW_MEAN = np.empty((300, 1))


def reference_work():
    """Element-wise numpy passes over a 300 x 200 array, into preallocated
    buffers so that the allocator's state cannot change its cost.  Of the
    candidate units tried (integer loops, small-array loops, this), this kind
    tracked the four workloads' drift best on the whole."""
    np.copyto(_A, _START)
    for _ in range(10):
        np.clip(_A, -5.0, 5.0, out=_B)
        np.exp(_B, out=_B)
        np.mean(_B, axis=1, keepdims=True, out=_ROW_MEAN)
        np.subtract(_B, _ROW_MEAN, out=_A)


def measure():
    """Seconds for the reference work, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(seconds, reference_before, reference_after):
    """Wall seconds scaled to the nominal speed of the reference work."""
    return seconds * NOMINAL_S / ((reference_before + reference_after) / 2.0)
