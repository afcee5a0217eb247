"""Exact dynamic program for optimal cuts and size-constrained partitions on the line.

The solver walks the distinct coordinates left to right.  A state at level i
fixes how many points strictly left of the level's coordinate go to the first
set (p) and how many of the points at or collapsed onto that coordinate do
(r); the second-set counts q and t follow from the totals.  Collapsing a level
onto its left neighbour changes the cut value by exactly ``gap * (p*t + q*r)``
because interval lengths add along the line, so level values can be filled
bottom-up from a zero base.  Every row is filled at once from shifted slices
of the previous level: a one-entry window adds one slice to the gap term,
and a wider one keeps the better of two slices of a doubling table, each
the best over a span of the window, by one comparison per state in a list
comprehension.  Swapping the two sets maps state (p, r) to (q, t) and
leaves ``gap * (p*t + q*r)`` unchanged, so every level table is centrally
symmetric, and only its rows with p <= q are computed; each other row is
its mirror's, read backwards.

The table fill keeps values only.  Every transition keeps p + r, the size of
the first set, fixed, so each level is n + 1 independent diagonals, one per
size k.  The assignment is taken from diagonal k alone, re-filled on the
reflected instance (coordinates negated, levels reversed) with each state's
smallest optimizing r0.  Backtracking from the optimal root with the
smallest r then fixes the counts from the original left end onwards, each
the smallest that still reaches the optimum: the lexicographically smallest
optimal profile of size k.  Max-cut re-fills every size whose diagonal
reaches the optimum and reports the smallest of their profiles, the profile
the exhaustive oracle returns too.

Total work is about half of
``sum_i (|left_i|+1) * (n-|left_i|+1) * ceil(log2(m_i+1))``, at most on the
order of ``n^2 * l * log(n/l + 1)``, which is ``n^3`` for all-distinct
input; the bench harness measures the empirical exponent.  Table values are
Python integers, so the fill is exact for every coordinate span.
"""

from __future__ import annotations

from itertools import repeat
from operator import add

from .errors import InternalInconsistency
from .model import (
    CompressedInstance,
    Objective,
    ProblemSpec,
    Solution,
    cut_value_sweep,
)


def transition_bounds(p: int, q: int, m_prev: int) -> tuple[int, int]:
    """Feasible counts r0 of the previous coordinate's copies in the first set.

    Of its m_prev copies, r0 join the first set (so r0 <= p) and the rest the
    second (so m_prev - r0 <= q).  Returns (lo, hi); the range is empty
    (lo > hi) only if p + q < m_prev, which cannot happen for well-formed
    levels.
    """
    lo = m_prev - q
    if lo < 0:
        lo = 0
    hi = p if p < m_prev else m_prev
    return lo, hi


def base_level(n: int) -> list[list[int]]:
    """Level-1 value table: single state p = 0, one column per r = 0..n, all zero."""
    return [[0] * (n + 1)]


def fill_level(
    ci: CompressedInstance,
    level: int,
    prev: list[list[int]],
    objective: Objective,
) -> list[list[int]]:
    """Fill one level (>= 2) from the previous level's values.

    Returns ``values`` where ``values[p][r]`` is the optimal cut value of the
    level's subproblem.  Exact for arbitrarily large coordinates (Python
    ints).

    The candidates of a whole row are shifted slices of ``prev``, one per r0
    in the window, and the gap term is an arithmetic progression in r.  A
    one-entry window adds the two with ``map``.  A wider one is answered
    from a doubling table whose row pp holds, per column c, the best of
    ``prev[pp - d][c + d]`` over d < span: the row keeps the better of the
    span starting at lo and the span ending at hi, which overlap but cover
    the window because span <= width <= 2 * span (max and min are
    idempotent).  When a window is wider than 2 * span, span doubles, by
    one comparison per table entry; so a window of width w costs
    ceil(log2 w) - 1 doublings in all, shared by the level's rows, and one
    comparison per state.  This relies on the window width never falling
    as p runs up to big // 2, which holds for the windows that
    ``transition_bounds`` returns: p + 1, then prev_big + 1 or m_prev + 1.
    ``prev`` is not modified.

    ``prev`` must be centrally symmetric, ``prev[p][r] ==
    prev[-1 - p][-1 - r]``; ``base_level`` and every level this returns
    are.  Then so is the new level, whose state (p, r) mirrors (q, t) with
    q = big - p the second-set points left of the level's coordinate: only
    rows p <= q are computed, and row q is row p reversed.
    """
    if not 2 <= level <= ci.l:
        raise InternalInconsistency(f"level {level} outside 2..{ci.l}")
    big = ci.prefix[level - 1]
    prev_big = ci.prefix[level - 2]
    if len(prev) != prev_big + 1 or len(prev[0]) != ci.n - prev_big + 1:
        raise InternalInconsistency("previous level table has wrong shape")
    m_prev = ci.mult[level - 2]
    gap = ci.xs[level - 1] - ci.xs[level - 2]
    rowlen = ci.n - big + 1
    maximize = objective is Objective.MAX

    values = [None] * (big + 1)
    # The doubling table (see docstring).  Only its rows span - 1 <= pp <=
    # min(big // 2, prev_big) are read, and doubling replaces rows rather
    # than editing them, so prev is left as it was.
    best = prev[: big // 2 + 1]
    span = 1
    # Rows p > big // 2 are the mirrors of rows q = big - p (see docstring).
    for p in range(big // 2 + 1):
        q = big - p
        lo, hi = transition_bounds(p, q, m_prev)
        if lo > hi:
            raise InternalInconsistency(
                f"empty transition window at level {level}, state p={p}, q={q}"
            )
        # gap * (p * t + q * r) with t = rowlen - 1 - r is start + step * r
        start = gap * p * (rowlen - 1)
        step = gap * (q - p)
        terms = (
            range(start, start + step * rowlen, step)
            if step
            else repeat(start, rowlen)
        )
        if hi == lo:
            row = list(map(add, terms, prev[p - lo][lo : lo + rowlen]))
        else:
            # Afterwards span <= hi - lo + 1 <= 2 * span (see docstring).
            while 2 * span < hi - lo + 1:
                # Top down, so best[pp - span] still holds the shorter span.
                for pp in range(len(best) - 1, 2 * span - 2, -1):
                    pairs = zip(best[pp], best[pp - span][span:])
                    if maximize:
                        best[pp] = [y if y > x else x for x, y in pairs]
                    else:
                        best[pp] = [y if y < x else x for x, y in pairs]
                span *= 2
            # The spans r0 = lo..lo+span-1 and s..hi.  Comparisons in a
            # comprehension, not max()/min() calls, which parse keywords on
            # every call and cost about three times as much.
            s = hi - span + 1
            a = best[p - lo][lo : lo + rowlen]
            b = best[p - s][s : s + rowlen]
            if maximize:
                row = [t + (v if v > u else u) for t, u, v in zip(terms, a, b)]
            else:
                row = [t + (v if v < u else u) for t, u, v in zip(terms, a, b)]
        values[p] = row
        if q != p:
            values[q] = row[::-1]
    return values


def fill_tables(ci: CompressedInstance, objective: Objective) -> list[list[int]]:
    """Fill every level bottom-up and return the last level's value table.

    ``top[p][r]`` is the optimal value of state (p, r) at the last level;
    earlier levels are rolled over.
    """
    top = base_level(ci.n)
    for level in range(2, ci.l + 1):
        top = fill_level(ci, level, top, objective)
    return top


def scan_roots(
    ci: CompressedInstance, top: list[list[int]], spec: ProblemSpec
) -> tuple[list[int], int]:
    """Return ``(sizes, value)``: the optimum and the first-set sizes reaching it.

    Last-level state (p, r) has first-set size p + r.  Exact size k: the
    optimum of the states with p + r = k, and the sizes ``[k]``.
    Unconstrained: the optimum of every state, and the sizes of all the
    states that reach it, ascending.
    """
    spec.validate_for(ci.n)
    better = max if spec.objective is Objective.MAX else min
    k = spec.k
    if k is not None:
        m_last = ci.mult[-1]
        states = range(max(0, k - m_last), min(ci.n - m_last, k) + 1)
        return [k], better(top[p][k - p] for p in states)
    value = better(map(better, top))
    sizes = {p + r for p, row in enumerate(top) for r, v in enumerate(row) if v == value}
    return sorted(sizes), value


def fill_diagonal(
    ci: CompressedInstance, k: int, objective: Objective
) -> tuple[list[int], list[list[int]]]:
    """Fill diagonal k, the states (p, k - p), of every level.

    Returns ``(values, picks)``: ``values[p]`` is the last level's value of
    state (p, k - p), and ``picks[level - 2][p]`` the smallest optimizing r0
    of that state at each level >= 2.  The predecessors (p - r0, k - p + r0)
    of a state lie on the same diagonal, so each level reads only the
    diagonal below it.  Rows are indexed by p from 0: where p < k - (n - big)
    no state exists, and the entry is a 0 that no window reaches.
    """
    n = ci.n
    better = max if objective is Objective.MAX else min
    values = [0]  # level 1: the single state (0, k)
    picks = []
    for level in range(2, ci.l + 1):
        big = ci.prefix[level - 1]
        m_prev = ci.mult[level - 2]
        gap = ci.xs[level - 1] - ci.xs[level - 2]
        slack = n - big - k  # state (p, k - p) has t = slack + p
        p_lo = max(0, -slack)
        row = [0] * p_lo
        pick = [0] * p_lo
        for p in range(p_lo, min(big, k) + 1):
            q = big - p
            lo, hi = transition_bounds(p, q, m_prev)
            if lo > hi:
                raise InternalInconsistency(
                    f"empty transition window at level {level}, state p={p}, q={q}"
                )
            # The candidates for r0 = lo..hi, in that order.
            window = values[p - hi : p - lo + 1]
            window.reverse()
            best = better(window)
            pick.append(lo + window.index(best))
            row.append(gap * (p * (slack + p) + q * (k - p)) + best)
        values = row
        picks.append(pick)
    return values, picks


def reconstruct(
    ci: CompressedInstance, k: int, objective: Objective, value: int
) -> tuple[int, ...]:
    """Lexicographically smallest optimal profile of first-set size k.

    ``value`` is the optimum of size k.  Diagonal k is re-filled on the
    reflected instance, whose last level is the original first coordinate.
    Its root is the optimal state with the smallest r, the count at that
    coordinate; each step down takes the state's smallest optimizing r0, the
    count at the next coordinate, and moves to state (p - r0, k - p + r0).
    """
    # A tuple from a list, not a generator: a tuple built from a generator is
    # resized, and each call would leave one more block on the tuple free list.
    mirror = CompressedInstance(
        xs=tuple([-x for x in reversed(ci.xs)]), mult=ci.mult[::-1]
    )
    values, picks = fill_diagonal(mirror, k, objective)
    better = max if objective is Objective.MAX else min
    if better(values[max(0, k - ci.mult[0]) :]) != value:
        raise InternalInconsistency(f"re-filled diagonal {k} misses the optimum {value}")
    # The largest p reaching the optimum is the root with the smallest r.
    p = len(values) - 1 - values[::-1].index(value)
    profile = [k - p]
    for pick in reversed(picks):
        r0 = pick[p]
        profile.append(r0)
        p -= r0
    if p != 0:
        raise InternalInconsistency("backtracking did not land on the base level")
    return tuple(profile)


def solve(ci: CompressedInstance, spec: ProblemSpec) -> Solution:
    """Solve the cut problem exactly.

    The profile is the lexicographically smallest optimal one; for max-cut,
    the smallest over every optimal first-set size.
    """
    spec.validate_for(ci.n)
    sizes, value = scan_roots(ci, fill_tables(ci, spec.objective), spec)
    profile = min(reconstruct(ci, k, spec.objective, value) for k in sizes)
    if cut_value_sweep(ci, profile) != value:
        raise InternalInconsistency("reconstructed profile does not evaluate to the optimum")
    return Solution(
        ci=ci, spec=spec, value=value, k_actual=sum(profile), profile=profile
    )
