"""Independent ground-truth solvers for small instances.

``oracle_solve`` walks every count profile of the requested size (every size
for max-cut) depth-first, level by level, and shares no code with the level
recurrence.  The bounds on each level's count only keep the walk on profiles
of that size; nothing is pruned by value.  As a level is fixed, the walk adds
that gap's term of ``cut_value_sweep``, so each visited node costs O(1) and the
extra memory is O(l).  The winner, the lexicographically smallest optimal
profile, is re-evaluated once through ``cut_value_sweep`` itself, which is
cross-checked against the pairwise definition.  ``best_threshold`` scores the
n+1 sorted-prefix cuts as a cheap baseline bound.  Neither prunes; being
obviously correct is the point.
"""

from __future__ import annotations

import math

from .errors import InternalInconsistency, TooLargeForOracle
from .model import (
    CompressedInstance,
    Objective,
    ProblemSpec,
    Solution,
    cut_value_sweep,
)

# Cap on the number of enumerated profiles, prod(mult[i] + 1); read per call.
PROFILE_CAP = 1 << 22


def profile_space(ci: CompressedInstance) -> int:
    """Number of distinct count profiles of the instance."""
    return math.prod(m + 1 for m in ci.mult)


def oracle_solve(ci: CompressedInstance, spec: ProblemSpec) -> Solution:
    """Exhaustive optimum over the count profiles of the requested size.

    Returns the lexicographically smallest optimal profile; for max-cut the
    smallest over all sizes.  Enumerating profiles instead of per-point labels
    shrinks the search from 2**n to prod(mult[i] + 1), so heavily duplicated
    instances stay in reach.
    """
    spec.validate_for(ci.n)
    size = profile_space(ci)
    if size > PROFILE_CAP:
        raise TooLargeForOracle(f"{size} profiles exceed the cap of {PROFILE_CAP}")

    n, mult, prefix = ci.n, ci.mult, ci.prefix
    gaps = [b - a for a, b in zip(ci.xs, ci.xs[1:])]
    k_lo, k_hi = (0, n) if spec.k is None else (spec.k, spec.k)
    sign = 1 if spec.objective is Objective.MAX else -1
    last = ci.l - 1
    right = [n - p for p in prefix[1:]]  # points after each level
    current = [0] * ci.l
    best = best_profile = None  # sign * value, so larger is better

    # With FL first-set points up to gap i and K in total, the sweep's term
    # g*(FL*SR + SL*FR) expands to g*(2*FL**2 + (n - 2*P)*FL) + K*g*(P - 2*FL),
    # P = prefix[i+1].  The walk sums both parts, so cut = acc + K*slope even
    # when K is only known at the last level.  Counts run in ascending order at
    # every level, so profiles are met in lexicographic order and only a strict
    # improvement replaces the best.
    def walk(i: int, fl: int, acc: int, slope: int) -> None:
        """Fix level i (fl first-set points before it) and every level after it."""
        nonlocal best, best_profile
        # Bounds by comparison: a max()/min() call per node costs more here.
        lo = k_lo - fl - right[i]
        if lo < 0:
            lo = 0
        hi = k_hi - fl
        if hi > mult[i]:
            hi = mult[i]
        g = gaps[i]
        p = prefix[i + 1]
        c = n - 2 * p
        if i + 1 < last:
            for a in range(lo, hi + 1):
                f = fl + a
                current[i] = a
                walk(i + 1, f, acc + g * (2 * f * f + c * f), slope + g * (p - 2 * f))
            return
        # Level i + 1 is the last one and adds no gap term: score it in place.
        m_last = mult[last]
        for a in range(lo, hi + 1):
            f = fl + a
            current[i] = a
            acc_f = acc + g * (2 * f * f + c * f)
            slope_f = slope + g * (p - 2 * f)
            b = k_lo - f
            if b < 0:
                b = 0
            b_hi = k_hi - f
            if b_hi > m_last:
                b_hi = m_last
            while b <= b_hi:  # one pass for a partition: no range to build
                v = sign * (acc_f + (f + b) * slope_f)
                if best is None or v > best:
                    current[last] = b
                    best, best_profile = v, tuple(current)
                b += 1

    # Some profile always fits the constraint (0 <= k <= n was validated), and
    # the bounds above never enter a level that cannot reach it.
    if last == 0:
        # One distinct value: every profile cuts nothing.
        best, best_profile = 0, (k_lo,)
    else:
        walk(0, 0, 0, 0)
    del walk  # it refers to itself through its cell: break that cycle
    value, profile = sign * best, best_profile
    if cut_value_sweep(ci, profile) != value:
        raise InternalInconsistency(
            f"oracle walk scored {profile} as {value}; the sweep disagrees"
        )
    return Solution(ci=ci, spec=spec, value=value, k_actual=sum(profile), profile=profile)


def _prefix_profile(ci: CompressedInstance, j: int) -> tuple[int, ...]:
    """Profile whose first set is the j smallest points of the sorted multiset."""
    remaining = j
    counts = []
    for m in ci.mult:
        take = min(m, remaining)
        counts.append(take)
        remaining -= take
    return tuple(counts)


def best_threshold(ci: CompressedInstance, spec: ProblemSpec) -> Solution:
    """Best cut whose first set is a prefix of the sorted multiset.

    Under an exact size k only the k-prefix is feasible; unconstrained, all
    n+1 prefixes are scored and ties go to the smallest prefix.  A baseline
    bound only: thresholds are not optimal in general.
    """
    spec.validate_for(ci.n)
    if spec.k is not None:
        js = (spec.k,)
    else:
        js = range(ci.n + 1)
    sign = 1 if spec.objective is Objective.MAX else -1
    best = best_profile = None  # sign * value, so larger is better
    for j in js:
        profile = _prefix_profile(ci, j)
        v = sign * cut_value_sweep(ci, profile)
        if best is None or v > best:
            best, best_profile = v, profile
    value, profile = sign * best, best_profile
    return Solution(ci=ci, spec=spec, value=value, k_actual=sum(profile), profile=profile)
