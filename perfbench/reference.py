"""Exact optimal cut values computed without any linecut code.

For sorted points x_0 <= ... <= x_{n-1}, the pairwise distances inside a set X
sum to W(X) = sum_r x_(r) * (2r - |X| + 1) over its members in sorted order.
Every pair lies inside A, inside B or across the cut, so a partition (A, B)
cuts S - W(A) - W(B), where S = W(all points).  With |A| = k fixed, placing
the j-th point adds a term that depends only on (j, i, k), where i counts the
earlier points already in A.  A DP over i therefore gives both the minimum
and the maximum cut at every k; it runs for all requested k at once as rows
of one numpy array.  Equal coordinates may be visited in any order, because
swapping two equal values leaves W unchanged.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

# Sentinel for unreachable states; every reachable W stays far below it.
_UNREACHABLE = 1 << 62


def cut_extremes(points: Sequence[int], ks: Iterable[int]) -> dict[int, tuple[int, int]]:
    """Map each k in ``ks`` to (minimum cut, maximum cut) over partitions with |A| = k."""
    xs = sorted(points)
    n = len(xs)
    ks = sorted(set(ks))
    if not ks or ks[0] < 0 or ks[-1] > n:
        raise ValueError(f"every k must lie in 0..{n}, got {ks}")
    # |W| <= n^2 * max|x|; with this bound int64 sums are exact and the
    # sentinel plus one step's term cannot wrap.
    if n * n * max(abs(x) for x in xs) >= 1 << 60:
        raise ValueError("coordinates too large for the int64 reference")

    k_col = np.array(ks, dtype=np.int64)[:, None]
    i_row = np.arange(n + 1, dtype=np.int64)[None, :]
    w_min = np.full((len(ks), n + 1), _UNREACHABLE, dtype=np.int64)
    w_max = np.full((len(ks), n + 1), -_UNREACHABLE, dtype=np.int64)
    w_min[:, 0] = 0
    w_max[:, 0] = 0
    for j, x in enumerate(xs):
        # To B: rank j - i among |B| = n - k.  To A: rank i among k, and i grows.
        to_b = x * (2 * (j - i_row) - (n - k_col) + 1)
        to_a = x * (2 * i_row - k_col + 1)
        next_min = w_min + to_b
        next_max = w_max + to_b
        np.minimum(next_min[:, 1:], w_min[:, :-1] + to_a[:, :-1], out=next_min[:, 1:])
        np.maximum(next_max[:, 1:], w_max[:, :-1] + to_a[:, :-1], out=next_max[:, 1:])
        placed = j + 1
        reachable = (i_row <= k_col) & (i_row <= placed) & (placed - i_row <= n - k_col)
        w_min = np.where(reachable, next_min, _UNREACHABLE)
        w_max = np.where(reachable, next_max, -_UNREACHABLE)

    total = sum(x * (2 * r - n + 1) for r, x in enumerate(xs))
    return {
        k: (total - int(w_max[row, k]), total - int(w_min[row, k]))
        for row, k in enumerate(ks)
    }


def pairwise_cut(xs: Sequence[int], first: Sequence[int], second: Sequence[int]) -> int:
    """Cut value straight from the definition, over distinct values with per-side counts."""
    total = 0
    for xa, a in zip(xs, first):
        if a:
            for xb, b in zip(xs, second):
                if b:
                    total += a * b * abs(xa - xb)
    return total
