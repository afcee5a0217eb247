"""Size-k optimum and its profile from the rank-coefficient recurrence.

This is the only dynamic program behind a minimisation, whose profile
``model.exchange_gain`` then certifies.  For a maximisation it is the second
exact algorithm behind ``solve``: it shares no code with the level fill in
``solver.py`` and imports nothing from it, so the score it finds checks the
fill's.

Over its members in sorted order, a set X's pairwise distances sum to W(X) =
sum_r x_(r) * (2r - |X| + 1), and every pair lies inside A, inside B or
across the cut, so Cut = S - W(A) - W(B) with S = W(all points).  Walk the
distinct values j in order, with P = prefix[j] points before j and c =
mult[j] copies of x_j.  If i of the first P points are in A, and a of the c
copies join them, so that i' = i + a and b = c - a, then value j adds x_j * T
to W(A) + W(B), where

    T = a(2i + a - k) + b(2(P - i) + b - (n - k)).

With D = 2P + c - (n - k) and E = k + c + D the cross term cancels:

    T = (2i'^2 - E*i') + (-2i^2 + (E - 2c)*i + c*D),

a choice term in i' alone plus a state term in i alone.  The score, sign *
cut, is sign * S plus the best sum of t * T over the values, where t =
-sign * x_j.  Boundary j, before value j, has the states i in
max(0, prefix[j] - (n - k))..min(k, prefix[j]).  The choice term of value
j - 1 and the state term of value j both depend on that state alone, so
together they are one quadratic gain g_j(i).  A backward pass gives every
state the best of the next boundary's values over its window i' in
[i, i + c], clipped to that boundary's states, plus its own gain; the single
state i = 0 of boundary 0 then holds the optimum.  A forward pass takes,
from i = 0, the smallest i' reaching each window's best, so each count is
the smallest that still reaches the optimum: the lexicographically smallest
optimal profile of size k.  A window of one or two entries, as all of
all-distinct input's are, costs O(1), so that input costs
O(n * min(k, n - k)).
"""

from __future__ import annotations

from .model import CompressedInstance, Objective


def solve_size(
    ci: CompressedInstance, k: int, objective: Objective
) -> tuple[int, tuple[int, ...]]:
    """Return ``(score, profile)``: the optimal score of first-set size k,
    sign * cut, and the lexicographically smallest profile reaching it.

    ``k`` must lie in 0..n.  A window of one or two entries is decided by
    one comparison, the smaller i' winning a tie, and only a wider one is
    passed to ``max``.
    """
    n = ci.n
    m = n - k
    sign = -1 if objective is Objective.MIN else 1
    total = 0  # S = W(all points)
    terms = []  # (t, E, c, D) per value
    for x, c, big in zip(ci.xs, ci.mult, ci.prefix):
        total += x * c * (2 * big + c - n)
        d = 2 * big + c - m
        terms.append((-sign * x, k + c + d, c, d))
    # Past the last value, and (as terms[-1]) before the first, no term.
    terms.append((0, 0, 0, 0))

    # h holds the next boundary's values over its states lo1..hi1.  The first
    # pass starts from a boundary past the last, whose one state k holds 0;
    # the zero entry terms[l] leads to it by the one-entry window k..k.
    h, lo1, hi1 = [0], k, k
    levels = []
    for j in range(ci.l, -1, -1):
        t, e, c, d = terms[j]
        tp, ep, _, _ = terms[j - 1]
        # g_j(i) = tp * (2i - ep) * i + t * ((e - 2c - 2i) * i + c * d)
        qa, qb, qc = 2 * (tp - t), t * (e - 2 * c) - tp * ep, t * c * d
        big = ci.prefix[j]
        lo = big - m if big > m else 0
        hi = big if big < k else k
        values = []
        for i in range(lo, hi + 1):
            # The window i..i + c clipped to lo1..hi1, as offsets into h.
            first = i - lo1 if i > lo1 else 0
            last = i + c - lo1 if i + c < hi1 else hi1 - lo1
            if last <= first + 1:
                best = h[first]
                if h[last] > best:
                    best = h[last]
            else:
                best = max(h[first : last + 1])
            values.append(best + (qa * i + qb) * i + qc)
        levels.append((h, lo1, hi1))
        h, lo1, hi1 = values, lo, hi

    profile = []
    i = 0
    for c, (h, lo1, hi1) in zip(ci.mult, reversed(levels)):
        first = i - lo1 if i > lo1 else 0
        last = i + c - lo1 if i + c < hi1 else hi1 - lo1
        if last <= first + 1:
            at = first if h[first] >= h[last] else last
        else:
            at = h.index(max(h[first : last + 1]), first, last + 1)
        profile.append(lo1 + at - i)
        i = lo1 + at
    return sign * total + values[0], tuple(profile)
