"""Machine-speed calibration: a fixed pure-Python chunk timed next to every op.

On a shared 2-core host the same pure-Python work takes up to 1.6x longer
from one minute to the next, and CPU time tracks wall time, so the slowdown
cannot be read from the process itself.  The chunk below is a small
level-by-level DP over nested lists of multi-digit ints, the kind of work the
table fill does, and it slows down with the ops.  Op times are reported at
reference speed: each pass's wall times are multiplied by REFERENCE_NS over
the mean chunk time measured between that pass's ops.  The chunk is
benchmark code, so a change to the program moves the scaled times exactly as
much as the wall times.

Over seven minutes of varying load, the log-log slope of op time against
chunk time was 0.79 to 0.89 on the three workloads.  A plain small-int
loop gave 0.49 to 0.99, and it over-corrected `multiset` when the host was
slow.
"""

from __future__ import annotations

from time import perf_counter_ns

# Chunk time on the reference machine (2-core Intel Xeon at 2.1 GHz,
# CPython 3.11), so that scaled times read as wall times there.
REFERENCE_NS = 1_300_000


# Set-up probes are scaled by baseline starts instead: a fresh interpreter
# that imports numpy alone, run just before and after each probe.  Starting
# an interpreter is mostly imports and kernel work, which the chunk does not
# track.  Between the starts of one run, chunk-scaled set-up times varied
# about twice as much as baseline-scaled ones.
BASELINE_ARGS = ("-c", "import numpy")
BASELINE_REFERENCE_S = 0.185


def chunk() -> int:
    n = 40
    prev = [[(i * 7919 + j * 104729) << 32 for j in range(n)] for i in range(n)]
    for _ in range(2):
        cur = []
        for p in range(n):
            row = [0] * n
            prow = prev[p]
            for r in range(n):
                best = prow[r]
                for d in (1, 2, 3):
                    if p >= d and r + d < n:
                        v = prev[p - d][r + d]
                        if v > best:
                            best = v
                row[r] = best + ((p * (n - r) + r) << 12)
            cur.append(row)
        prev = cur
    return prev[-1][-1]


def timed_chunk() -> int:
    start = perf_counter_ns()
    chunk()
    return perf_counter_ns() - start


def scale(chunk_times_ns) -> float:
    """Factor from wall time to reference-speed time for the given chunk timings."""
    return REFERENCE_NS * len(chunk_times_ns) / sum(chunk_times_ns)
