"""Independent ground-truth solvers for small instances.

``oracle_solve`` answers every problem on an instance from one exhaustive
walk.  The walk visits every count profile, depth-first and level by level,
and shares no code with the level recurrence; nothing is pruned by value.  As
a level is fixed it adds that gap's term of ``cut_value_sweep``, so each
visited node costs O(1) and the extra memory is O(l).  At each size k it
keeps the best MAX and the best MIN profile, replaced only on a strict
improvement, so each is the lexicographically smallest optimum.

The winners are held for the most recent instance only, in a one-entry
table keyed by the instance.  The first call on an instance walks all
prod(mult + 1) profiles, even when it asks for one size; the calls after it
on the same instance walk nothing.  Every call, the first or a later one,
checks the profile cap, looks its winner up and re-evaluates it through
``cut_value_sweep``, which is cross-checked against the pairwise definition.
``best_threshold`` scores the n+1 sorted-prefix cuts as a cheap baseline
bound.  Neither prunes; being obviously correct is the point.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType

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


@functools.lru_cache(maxsize=1)
def _winners(ci: CompressedInstance):
    """Per objective, the best cut value and its profile's rank at each size k.

    A profile's rank is its mixed-radix number, sum a[i] * prod(mult[j] + 1
    for j > i), so numeric order of ranks is lexicographic profile order.
    """
    n, mult, prefix = ci.n, ci.mult, ci.prefix
    last = ci.l - 1
    if last == 0:
        # One distinct value: every profile cuts nothing, and (k,) is the
        # only profile of size k.
        sizes = tuple(range(n + 1))
        zeros = (0,) * (n + 1)
        return MappingProxyType({Objective.MAX: (zeros, sizes), Objective.MIN: (zeros, sizes)})
    gaps = [b - a for a, b in zip(ci.xs, ci.xs[1:])]
    # Every cut lies in 0..span * n**2, so these sentinels lose to any profile.
    max_v = [-1] * (n + 1)
    min_v = [(ci.xs[-1] - ci.xs[0]) * n * n + 1] * (n + 1)
    max_r = [0] * (n + 1)
    min_r = [0] * (n + 1)
    base_last = mult[last] + 1

    # With FL first-set points up to gap i and K in total, the sweep's term
    # g*(FL*SR + SL*FR) expands to g*(2*FL**2 + (n - 2*P)*FL) + K*g*(P - 2*FL),
    # P = prefix[i+1].  The walk sums both parts, so cut = acc + K*slope even
    # when K is only known at the last level.  Counts run in ascending order at
    # every level, so profiles are met in rank order and only a strict
    # improvement replaces a winner.
    def walk(i: int, fl: int, acc: int, slope: int, rank: int) -> None:
        """Fix level i (fl first-set points before it) and every level after it."""
        g = gaps[i]
        p = prefix[i + 1]
        c = n - 2 * p
        base = mult[i] + 1
        rank *= base
        if i + 1 < last:
            for a in range(base):
                f = fl + a
                walk(i + 1, f, acc + g * (2 * f * f + c * f), slope + g * (p - 2 * f), rank + a)
            return
        # Level i + 1 is the last one and adds no gap term: score it in place,
        # one size K = f + b per count b.
        for a in range(base):
            f = fl + a
            slope_f = slope + g * (p - 2 * f)
            v = acc + g * (2 * f * f + c * f) + f * slope_f
            r = (rank + a) * base_last
            for k in range(f, f + base_last):
                if v > max_v[k]:
                    max_v[k] = v
                    max_r[k] = r
                if v < min_v[k]:
                    min_v[k] = v
                    min_r[k] = r
                v += slope_f
                r += 1

    walk(0, 0, 0, 0, 0)
    del walk  # it refers to itself through its cell: break that cycle
    return MappingProxyType({
        Objective.MAX: (tuple(max_v), tuple(max_r)),
        Objective.MIN: (tuple(min_v), tuple(min_r)),
    })


def oracle_solve(ci: CompressedInstance, spec: ProblemSpec) -> Solution:
    """Exhaustive optimum over the count profiles of the requested size.

    Returns the lexicographically smallest optimal profile; for max-cut the
    smallest over all sizes.  Enumerating profiles instead of per-point labels
    shrinks the search from 2**n to prod(mult[i] + 1), so heavily duplicated
    instances stay in reach.  The first call on an instance walks every
    profile once for all sizes; later calls on it look their winner up, and
    every call re-evaluates its winner.
    """
    spec.validate_for(ci.n)
    size = profile_space(ci)
    if size > PROFILE_CAP:
        raise TooLargeForOracle(f"{size} profiles exceed the cap of {PROFILE_CAP}")

    values, ranks = _winners(ci)[spec.objective]
    if spec.k is None:
        value = max(values)
        rank = min(r for v, r in zip(values, ranks) if v == value)
    else:
        value, rank = values[spec.k], ranks[spec.k]
    counts = [0] * ci.l
    for i in range(ci.l - 1, -1, -1):
        rank, counts[i] = divmod(rank, ci.mult[i] + 1)
    profile = tuple(counts)
    if cut_value_sweep(ci, profile) != value:
        raise InternalInconsistency(
            f"oracle walk scored {profile} as {value}; the sweep disagrees"
        )
    return Solution(ci=ci, spec=spec, value=value, k_actual=sum(profile), profile=profile)


def best_threshold(ci: CompressedInstance, spec: ProblemSpec) -> Solution:
    """Best cut whose first set is a prefix of the sorted multiset.

    The j-prefix, the j smallest points, holds ``min(m_i, max(0, j -
    prefix[i]))`` copies of the i-th distinct value, since prefix[i] points
    lie below it.  Under an exact size k only the k-prefix is feasible;
    unconstrained, all n+1 prefixes are scored and ties go to the smallest
    prefix.  A baseline bound only: thresholds are not optimal in general.
    """
    spec.validate_for(ci.n)
    js = range(ci.n + 1) if spec.k is None else (spec.k,)
    sign = 1 if spec.objective is Objective.MAX else -1
    levels = tuple(zip(ci.mult, ci.prefix))
    # max keeps the first of tied profiles, the smallest prefix.
    profile = max(
        (tuple(min(m, max(0, j - below)) for m, below in levels) for j in js),
        key=lambda a: sign * cut_value_sweep(ci, a),
    )
    value = cut_value_sweep(ci, profile)
    return Solution(ci=ci, spec=spec, value=value, k_actual=sum(profile), profile=profile)
