"""Exact dynamic program for optimal cuts and size-constrained partitions on the line.

The solver walks the distinct coordinates left to right.  A state at level i
fixes how many points strictly left of the level's coordinate go to the first
set (p) and how many of the points at or collapsed onto that coordinate do
(r); the second-set counts q and t follow from the totals.  Collapsing a level
onto its left neighbour changes the cut value by exactly ``gap * (p*t + q*r)``
because interval lengths add along the line, so level values can be filled
bottom-up from a zero base and an optimal partition recovered by backtracking
the stored choices.  A choice is stored as the offset ``r0 - lo`` of the
chosen r0 within the state's transition window [lo, hi].  Every row is
filled at once with C builtins from shifted slices of the previous level,
one slice per r0 in the window, and choice rows of windows up to 256 wide
are stored as one byte per state.  Swapping the two sets maps state (p, r)
to (q, t) and leaves ``gap * (p*t + q*r)`` unchanged, so every level table
is centrally symmetric, and only its rows with p <= q are computed; each
other row is its mirror's, read backwards.

Total work is about half of ``sum_i (|left_i|+1) * (n-|left_i|+1) * (m_i+1)``,
at most on the order of ``n^2 * (n + l)``; the bench harness measures the
empirical exponent.  Table values are Python integers, so the fill is exact
for every coordinate span.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, gt, lt
from typing import Optional, Sequence

from .errors import InternalInconsistency
from .model import (
    CompressedInstance,
    Objective,
    ProblemSpec,
    Solution,
    complement_profile,
    cut_value_sweep,
)


def gap_term(gap: int, p: int, q: int, r: int, t: int) -> int:
    """Exact cut-value change when a level collapses onto its left neighbour.

    p/q count first/second-set points left of the gap, r/t first/second-set
    points at or beyond it; each of the p*t + q*r crossing pairs stretches by
    the gap length.
    """
    return gap * (p * t + q * r)


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
    want_choices: bool = True,
) -> tuple[list[list[int]], Optional[list[Sequence[int]]]]:
    """Fill one level (>= 2) from the previous level's values.

    Returns ``(values, choices)`` where ``values[p][r]`` is the optimal cut
    value of the level's subproblem and ``lo + choices[p][r]`` the smallest
    optimizing r0, with ``lo`` the lower end of the state's transition
    window; ``choices`` is ``None`` when ``want_choices`` is false.  Exact
    for arbitrarily large coordinates (Python ints).

    The candidates of a whole row are shifted slices of ``prev``, one per r0
    in the window, and the gap term is an arithmetic progression in r, so
    every row is built with C builtins.  Choice rows are ``bytes`` when the
    window holds at most 256 entries (offsets fit a byte) and lists
    otherwise.

    ``prev`` must be centrally symmetric, ``prev[p][r] ==
    prev[-1 - p][-1 - r]``; ``base_level`` and every level this returns
    are.  Then so is the new level, whose state (p, r) mirrors (q, t) with
    q = big - p the second-set points left of the level's coordinate: only
    rows p <= q are computed, and row q is row p reversed.  The mirror
    state's window holds m_prev - r0 for each r0 in [lo, hi], so its
    smallest optimizing r0 comes from the largest one here, and its offset
    is ``hi - lo`` minus that r0's offset.
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
    better = max if maximize else min
    # Strict comparison: on a tie the smaller r0 (offset 0) wins.
    beats = gt if maximize else lt
    # Immutable, so every width-1 row of the level can share it.
    zeros = bytes(rowlen)

    values = [None] * (big + 1)
    choices = [None] * (big + 1) if want_choices else None
    # Rows p > big // 2 are the mirrors of rows q = big - p (see docstring).
    for p in range(big // 2 + 1):
        q = big - p
        lo, hi = transition_bounds(p, q, m_prev)
        if lo > hi:
            raise InternalInconsistency(
                f"empty transition window at level {level}, state p={p}, q={q}"
            )
        # gap_term(gap, p, q, r, rowlen - 1 - r) = start + step * r
        start = gap * p * (rowlen - 1)
        step = gap * (q - p)
        terms = (
            range(start, start + step * rowlen, step)
            if step
            else repeat(start, rowlen)
        )
        a = prev[p - lo][lo : lo + rowlen]
        if hi == lo:
            row = list(map(add, terms, a))
            if want_choices:
                choices[p] = choices[q] = zeros
        elif hi == lo + 1:
            # Its own path: these rows take about 40% longer on the general one.
            b = prev[p - hi][hi : hi + rowlen]
            row = list(map(add, terms, map(better, a, b)))
            if want_choices:
                choices[p] = bytes(map(beats, b, a))
                if q != p:
                    # The mirror's offset is 1 where r0 = lo strictly beats hi.
                    choices[q] = bytes(map(beats, a, b))[::-1]
        else:
            slices = [prev[p - r0][r0 : r0 + rowlen] for r0 in range(lo, hi + 1)]
            best = list(map(better, *slices))
            row = list(map(add, terms, best))
            if want_choices:
                store = bytes if hi - lo < 256 else list
                # tuple.index finds the first, so smallest, optimizing offset.
                choices[p] = store(map(tuple.index, zip(*slices), best))
                if q != p:
                    # Over reversed slices the first optimizing index is the
                    # mirror's offset: hi - lo minus the largest one here.
                    slices.reverse()
                    choices[q] = store(map(tuple.index, zip(*slices), best))[::-1]
        values[p] = row
        if q != p:
            values[q] = row[::-1]
    return values, choices


def fill_tables(
    ci: CompressedInstance, objective: Objective, want_choices: bool
) -> tuple[list[list[int]], Optional[dict[int, list[Sequence[int]]]]]:
    """Fill every level bottom-up; return ``(top, choices)``.

    ``top[p][r]`` is the last level's value table; earlier levels are rolled
    over.  ``choices[level][p][r]`` is the offset ``r0 - lo`` of each state's
    smallest optimizing r0 within its transition window at levels >= 2 (a
    ``bytes`` row where the window has at most 256 entries, a list
    otherwise), or ``choices`` is ``None`` in value-only mode, which builds
    no choice rows at all.
    """
    top = base_level(ci.n)
    choices = {} if want_choices else None
    for level in range(2, ci.l + 1):
        top, level_choices = fill_level(ci, level, top, objective, want_choices)
        if want_choices:
            choices[level] = level_choices
    return top, choices


def scan_roots(
    ci: CompressedInstance, top: list[list[int]], spec: ProblemSpec
) -> tuple[tuple[int, int], int]:
    """Pick the optimal final-level state ``(p, r)`` and its value.

    Unconstrained: scan every state.  Exact size k: scan the states with
    p + r = k.  Ties break to the lexicographically smallest (p, r).
    """
    spec.validate_for(ci.n)
    big = ci.prefix[ci.l - 1]
    rowlen = ci.n - big + 1
    maximize = spec.objective is Objective.MAX

    best = None
    best_state = None
    if spec.k is None:
        candidates = ((p, r) for p in range(big + 1) for r in range(rowlen))
    else:
        p_lo = max(0, spec.k - (rowlen - 1))
        p_hi = min(big, spec.k)
        candidates = ((p, spec.k - p) for p in range(p_lo, p_hi + 1))
    for p, r in candidates:
        v = top[p][r]
        if best is None or ((v > best) if maximize else (v < best)):
            best = v
            best_state = (p, r)
    if best_state is None:
        raise InternalInconsistency("no feasible root state")
    return best_state, best


def reconstruct(
    ci: CompressedInstance,
    choices: dict[int, list[Sequence[int]]],
    root: tuple[int, int],
) -> tuple[int, ...]:
    """Walk the stored choices from a root state ``(p, r)`` back to level 1.

    The root's r gives the last coordinate's first-set count; each step down
    reads the offset r0 - lo from the choice table, adds the window's lower
    end lo back, and moves to state (p - r0, r0 + r), which keeps p + r
    invariant, so the profile sums to the root's p + r.
    """
    profile = [0] * ci.l
    p, r = root
    profile[ci.l - 1] = r
    for level in range(ci.l, 1, -1):
        lo, hi = transition_bounds(p, ci.prefix[level - 1] - p, ci.mult[level - 2])
        r0 = lo + choices[level][p][r]
        if not lo <= r0 <= hi:
            raise InternalInconsistency(
                f"stored choice {r0} outside window [{lo}, {hi}] at level {level}"
            )
        profile[level - 2] = r0
        p, r = p - r0, r0 + r
    if p != 0:
        raise InternalInconsistency("backtracking did not land on the base level")
    return tuple(profile)


def _canonical_unconstrained(ci, profile):
    # The two sides are interchangeable; report the lexicographically smaller
    # of the profile and its complement so output never depends on internals.
    comp = complement_profile(ci, profile)
    return comp if comp < profile else profile


def solve(
    ci: CompressedInstance,
    spec: ProblemSpec,
    *,
    with_assignment: bool = True,
) -> Solution:
    """Solve the cut problem exactly.

    ``with_assignment=False`` skips choice storage and reconstruction, cutting
    memory from one small integer per state to two rolling value levels.
    """
    spec.validate_for(ci.n)
    top, choices = fill_tables(ci, spec.objective, with_assignment)
    root, value = scan_roots(ci, top, spec)
    size = sum(root)
    if not with_assignment:
        return Solution(ci=ci, spec=spec, value=value, k_actual=size)

    profile = reconstruct(ci, choices, root)
    if sum(profile) != size:
        raise InternalInconsistency("reconstructed profile size disagrees with root")
    if spec.k is not None and sum(profile) != spec.k:
        raise InternalInconsistency("reconstructed profile misses the size constraint")
    if cut_value_sweep(ci, profile) != value:
        raise InternalInconsistency("reconstructed profile does not evaluate to the optimum")
    if spec.k is None:
        profile = _canonical_unconstrained(ci, profile)
    return Solution(
        ci=ci, spec=spec, value=value, k_actual=sum(profile), profile=profile
    )
