"""Exact dynamic program for optimal cuts and size-constrained partitions on the line.

The solver walks the distinct coordinates left to right.  A state at level i
fixes how many points strictly left of the level's coordinate go to the first
set (p) and how many of the points at or collapsed onto that coordinate do
(r); the second-set counts q and t follow from the totals.  Collapsing a level
onto its left neighbour changes the cut value by exactly ``gap * (p*t + q*r)``
because interval lengths add along the line, so level values can be filled
bottom-up from a zero base.  Every row is filled at once from shifted slices
of the previous level: a one-entry window adds one slice to the gap term,
a two-entry one keeps the better of two slices, and a wider one is read
from prefix and suffix maxima over blocks of the previous level's rows, a
sliding-window maximum along its diagonals, by list comprehensions that
make at most three comparisons per state.  Swapping the two sets maps
state (p, r) to (q, t) and leaves ``gap * (p*t + q*r)`` unchanged, so every
level table is centrally symmetric, and only its rows with p <= q are
computed; each other row is its mirror's, read backwards.

The table fill keeps values only.  Every transition keeps p + r, the size of
the first set, fixed, so each level is n + 1 independent diagonals, one per
size k.  The assignment is taken from diagonal k alone, re-filled on the
reflected instance (coordinates negated, levels reversed) with each state's
smallest optimizing r0.  The re-fill handles a state by the width of its
window: one entry is read, two are decided by one comparison, a tie keeping
the smaller r0, and only a wider window, which all-distinct input never
has, is scanned with ``max`` and ``index``.  Backtracking from the optimal
root with the smallest r then fixes the counts from the original left end
onwards, each the smallest that still reaches the optimum: the
lexicographically smallest optimal profile of size k.  Max-cut re-fills
every size whose diagonal reaches the optimum and reports the smallest of
their profiles, the profile the exhaustive oracle returns too.

Total work is about half of ``sum_i (|left_i|+1) * (n-|left_i|+1)``
states, a few comparisons each whatever the window's width, so on the order
of ``n^2 * l``, which is ``n^3`` for all-distinct input; the bench harness
measures the empirical exponent.  Table values are Python integers, so the
fill is exact for every coordinate span.  They are scores, sign * cut with
sign -1 for a min-partition: every step maximises, and only ``solve`` turns
the optimal score back into a cut value.
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

    Returns ``values`` where ``values[p][r]`` is the optimal score, sign *
    cut, of the level's subproblem.  Exact for arbitrarily large
    coordinates (Python ints).

    The candidates of a whole row are shifted slices of ``prev``, one per r0
    in the window, and the gap term is an arithmetic progression in r.  A
    one-entry window adds the two with ``map``, and a two-entry window
    keeps the better of two slices, by one comparison per state.

    A wider window is a sliding-window maximum along the diagonals of
    ``prev`` (van Herk; Gil and Werman): state (p, r) reads ``prev[pp][p +
    r - pp]`` over the source rows pp = p - r0 in x..y = p - hi..p - lo.
    The source rows are cut into blocks of w = m_prev + 1 rows, and two
    kinds of row hold, per diagonal, the best over part of a block: pre(y)
    from y's block start to y, indexed by the column of row y, and suf(x)
    from x to its block's end e, indexed by the column of row e.  pre is
    one running row, since y never falls as p grows: each source row
    advances it by one comparison per entry.  A block's suf rows are built
    from e down to x when x enters the block, and each is dropped once
    read, so at most w of them are live.  A window starting at a block
    start lies in that block, and its row is pre(y) plus the gap terms.
    Any other window is no narrower than w, so it runs from x's block into
    the next, and its row keeps the better of pre(y) and suf(x).  That
    covers every window, because only a window narrower than w can lie in
    one block without starting at its start, and every such window starts
    at x = 0: a window is narrower than w only when x = 0, or when y =
    prev_big < p, and then p <= big // 2 forces p < m_prev, so x = 0 again.
    So every state costs at most three comparisons, whatever its window's
    width.  ``prev`` is not modified.

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
    if objective is Objective.MIN:
        gap = -gap  # the score is -cut
    rowlen = ci.n - big + 1

    values = [None] * (big + 1)
    # Block maxima over the source rows pp = p - r0 (see docstring): pre is
    # pre(pre_y), and sufs holds suf(x) for the rest of x's block, the next
    # x on top.  Both are built as new lists, so prev is left as it was.
    w = m_prev + 1
    pre = None
    pre_y = -1
    sufs = []
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
        # One r0 (row 0, and all of level 2): map(add) is faster here than
        # a comprehension, by about 3% of a multiset solve.
        if hi == lo:
            row = list(map(add, terms, prev[p - lo][lo : lo + rowlen]))
        elif hi == lo + 1:
            # Comparisons in a comprehension, not max() calls, which parse
            # keywords on every call and cost about three times as much.
            a = prev[p - lo][lo : lo + rowlen]
            b = prev[p - hi][hi : hi + rowlen]
            row = [t + (v if v > u else u) for t, u, v in zip(terms, a, b)]
        else:
            # The source window x..y; y never falls as p grows.
            x = p - hi
            y = p - lo
            if pre_y < y:
                if pre_y < y - y % w:
                    pre_y = y - y % w
                    pre = prev[pre_y]
                # pre(pp)[j] is the best of pre(pp - 1)[j + 1] and prev[pp][j].
                for pp in range(pre_y + 1, y + 1):
                    pairs = zip(prev[pp], pre[1:])
                    pre = [v if v > u else u for u, v in pairs]
                pre_y = y
            a = pre[lo : lo + rowlen]
            if x % w:
                if not sufs:
                    # x has just entered its block: suf(pp) for the rows
                    # from the block's end e down to x, each indexed by the
                    # column of row e.
                    e = x - x % w + m_prev
                    suf = prev[e]
                    sufs.append(suf)
                    for pp in range(e - 1, x - 1, -1):
                        pairs = zip(prev[pp][e - pp :], suf)
                        suf = [v if v > u else u for u, v in pairs]
                        sufs.append(suf)
                b = sufs.pop()[x % w : x % w + rowlen]
                row = [t + (v if v > u else u) for t, u, v in zip(terms, a, b)]
            else:
                row = list(map(add, terms, a))
        values[p] = row
        if q != p:
            values[q] = row[::-1]
    return values


def fill_tables(ci: CompressedInstance, objective: Objective) -> list[list[int]]:
    """Fill every level bottom-up and return the last level's score table.

    ``top[p][r]`` is the optimal score, sign * cut, of state (p, r) at the
    last level; earlier levels are rolled over.
    """
    top = base_level(ci.n)
    for level in range(2, ci.l + 1):
        top = fill_level(ci, level, top, objective)
    return top


def scan_roots(
    ci: CompressedInstance, top: list[list[int]], spec: ProblemSpec
) -> tuple[list[int], int]:
    """Return ``(sizes, score)``: the optimal score and the sizes reaching it.

    ``top`` and the score are sign * cut.  Last-level state (p, r) has
    first-set size p + r.  Exact size k: the best of the states with
    p + r = k, and the sizes ``[k]``.  Unconstrained: the best of every
    state, and the sizes of all the states that reach it, ascending.
    """
    spec.validate_for(ci.n)
    k = spec.k
    if k is not None:
        m_last = ci.mult[-1]
        states = range(max(0, k - m_last), min(ci.n - m_last, k) + 1)
        return [k], max(top[p][k - p] for p in states)
    score = max(map(max, top))
    sizes = {p + r for p, row in enumerate(top) for r, v in enumerate(row) if v == score}
    return sorted(sizes), score


def fill_diagonal(
    ci: CompressedInstance, k: int, objective: Objective
) -> tuple[list[int], list[list[int]]]:
    """Fill diagonal k, the states (p, k - p), of every level.

    Returns ``(values, picks)``: ``values[p]`` is the last level's score,
    sign * cut, of state (p, k - p), and ``picks[level - 2][p]`` the smallest
    optimizing r0 of that state at each level >= 2.  The predecessors
    (p - r0, k - p + r0) of a state lie on the same diagonal, so each level
    reads only the diagonal below it.  Rows are indexed by p from 0: where
    p < k - (n - big) no state exists, and the entry is a 0 that no window
    reaches.

    Each state is handled by the width of its window lo..hi, which
    ``transition_bounds`` gives.  One entry (hi == lo) picks lo.  Two
    entries (hi == lo + 1) are decided by one ``>`` comparison, and a tie
    picks lo.  A wider window is sliced, reversed and scanned with ``max``
    and ``index``, which also pick the smallest optimizing r0.  Every
    window of all-distinct input has one or two entries.  An empty window
    (lo > hi) raises ``InternalInconsistency``.
    """
    n = ci.n
    sign = -1 if objective is Objective.MIN else 1
    values = [0]  # level 1: the single state (0, k)
    picks = []
    for level in range(2, ci.l + 1):
        big = ci.prefix[level - 1]
        m_prev = ci.mult[level - 2]
        gap = sign * (ci.xs[level - 1] - ci.xs[level - 2])
        slack = n - big - k  # state (p, k - p) has t = slack + p
        p_lo = -slack if slack < 0 else 0
        row = [0] * p_lo
        pick = [0] * p_lo
        for p in range(p_lo, (big if big < k else k) + 1):
            q = big - p
            lo, hi = transition_bounds(p, q, m_prev)
            # The candidate for r0 is values[p - r0].  Windows of one or two
            # entries, every window of all-distinct input, are decided
            # without building a list.
            if hi == lo + 1:
                best = values[p - lo]
                other = values[p - hi]
                if other > best:  # a tie keeps lo
                    best = other
                    pick.append(hi)
                else:
                    pick.append(lo)
            elif hi == lo:
                best = values[p - lo]
                pick.append(lo)
            elif hi < lo:
                raise InternalInconsistency(
                    f"empty transition window at level {level}, state p={p}, q={q}"
                )
            else:
                # The candidates for r0 = lo..hi, in that order.
                window = values[p - hi : p - lo + 1]
                window.reverse()
                best = max(window)
                pick.append(lo + window.index(best))
            row.append(gap * (p * (slack + p) + q * (k - p)) + best)
        values = row
        picks.append(pick)
    return values, picks


def reconstruct(
    ci: CompressedInstance, k: int, objective: Objective, value: int
) -> tuple[int, ...]:
    """Lexicographically smallest optimal profile of first-set size k.

    ``value`` is the optimal score of size k, sign * cut.  Diagonal k is
    re-filled on the reflected instance, whose last level is the original
    first coordinate.  Its root is the optimal state with the smallest r,
    the count at that coordinate; each step down takes the state's smallest
    optimizing r0, the count at the next coordinate, and moves to state
    (p - r0, k - p + r0).
    """
    # A tuple from a list, not a generator: a tuple built from a generator is
    # resized, and each call would leave one more block on the tuple free list.
    mirror = CompressedInstance(
        xs=tuple([-x for x in reversed(ci.xs)]), mult=ci.mult[::-1]
    )
    values, picks = fill_diagonal(mirror, k, objective)
    if max(values[max(0, k - ci.mult[0]) :]) != value:
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
    sizes, score = scan_roots(ci, fill_tables(ci, spec.objective), spec)
    profile = min(reconstruct(ci, k, spec.objective, score) for k in sizes)
    value = score if spec.objective is Objective.MAX else -score
    if cut_value_sweep(ci, profile) != value:
        raise InternalInconsistency("reconstructed profile does not evaluate to the optimum")
    return Solution(
        ci=ci, spec=spec, value=value, k_actual=sum(profile), profile=profile
    )
