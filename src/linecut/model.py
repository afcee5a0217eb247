"""Core domain types and exact cut-value evaluation for point multisets on a line.

Coordinates are decimal fixed-point: every coordinate of an instance is stored
as an integer ``scaled = value * 10**scale_exp`` with one shared ``scale_exp``
per instance.  All arithmetic downstream is plain integer arithmetic, so
optimal values and equality checks are exact.

The *cut value* of a two-set partition is the total length of the intervals
spanned by pairs with endpoints in different sets, i.e. the sum of ``|a - b|``
over all crossing pairs.  Partitions are encoded canonically as a count
profile: how many copies of each distinct coordinate sit in the first set.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional, Sequence

from .errors import (
    InstanceEmpty,
    InternalInconsistency,
    InvalidK,
    InvalidProfile,
    RangeError,
    UnsupportedProblem,
)

# Largest instance the parser accepts, counting multiplicities; it refuses a
# larger one before expanding any multiplicity.
MAX_POINTS = 10**5

# |scaled| <= 2**40 bounds every cut value below 2**74 for n <= MAX_POINTS;
# Python's unbounded ints hold that exactly.
MAX_ABS_COORD = 1 << 40

# At most nine fractional digits; wider decimals are rejected at parse time.
MAX_SCALE_EXP = 9


class Objective(enum.Enum):
    MAX = "max"
    MIN = "min"


@dataclass(frozen=True)
class ProblemSpec:
    """Objective plus optional exact first-set size (``k=None`` = unconstrained)."""

    objective: Objective
    k: Optional[int] = None

    @classmethod
    def max_cut(cls) -> "ProblemSpec":
        return cls(Objective.MAX)

    @classmethod
    def max_partition(cls, k: int) -> "ProblemSpec":
        return cls(Objective.MAX, k)

    @classmethod
    def min_partition(cls, k: int) -> "ProblemSpec":
        return cls(Objective.MIN, k)

    @classmethod
    def bisection(cls, objective: Objective, n: int) -> "ProblemSpec":
        """Equal-halves split; defined only for even n."""
        if n % 2 != 0:
            raise UnsupportedProblem(
                f"bisection needs an even number of points, got n={n}; "
                f"use an exact partition with k={n // 2} instead"
            )
        return cls(objective, n // 2)

    def validate_for(self, n: int) -> None:
        """Check this spec against an instance of n points."""
        if self.objective is Objective.MIN and self.k is None:
            raise UnsupportedProblem(
                "unconstrained minimisation is trivially 0 (one side empty); "
                "give an exact first-set size k"
            )
        if self.k is not None and not 0 <= self.k <= n:
            raise InvalidK(f"first-set size k={self.k} outside 0..{n}")

    def canonical_name(self) -> str:
        if self.k is None:
            return "max-cut"
        return "max-partition" if self.objective is Objective.MAX else "min-partition"


@dataclass(frozen=True)
class Instance:
    """Raw multiset of fixed-point coordinates; order-insensitive, duplicates allowed."""

    scaled: tuple[int, ...]
    scale_exp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "scaled", tuple(self.scaled))
        if len(self.scaled) == 0:
            raise InstanceEmpty("an instance needs at least one point")
        if not 0 <= self.scale_exp <= MAX_SCALE_EXP:
            raise RangeError(
                f"scale_exp={self.scale_exp} outside 0..{MAX_SCALE_EXP}"
            )
        for c in self.scaled:
            if abs(c) > MAX_ABS_COORD:
                raise RangeError(f"scaled coordinate {c} exceeds 2**40 in magnitude")

    @property
    def n(self) -> int:
        return len(self.scaled)


@dataclass(frozen=True)
class CompressedInstance:
    """Sorted distinct coordinates with multiplicities.

    ``xs`` is strictly increasing.  ``prefix`` and ``n`` are derived:
    ``prefix[i]`` counts the points at the first i distinct coordinates, so
    ``prefix[0] == 0`` and ``prefix[l] == n``.
    """

    xs: tuple[int, ...]
    mult: tuple[int, ...]
    scale_exp: int = 0
    prefix: tuple[int, ...] = field(init=False)
    n: int = field(init=False)

    def __post_init__(self):
        l = len(self.xs)
        ok = (
            l >= 1
            and len(self.mult) == l
            and all(m >= 1 for m in self.mult)
            and all(b > a for a, b in zip(self.xs, self.xs[1:]))
        )
        if not ok:
            raise InternalInconsistency("compressed instance fields are inconsistent")
        prefix = (0, *accumulate(self.mult))
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "n", prefix[-1])

    @property
    def l(self) -> int:
        return len(self.xs)


def compress(instance: Instance) -> CompressedInstance:
    """Group an instance into sorted distinct values with multiplicities."""
    counts = Counter(instance.scaled)
    xs = tuple(sorted(counts))
    return CompressedInstance(
        xs=xs, mult=tuple([counts[x] for x in xs]), scale_exp=instance.scale_exp
    )


def validate_profile(ci: CompressedInstance, a: Sequence[int]) -> None:
    """Raise InvalidProfile unless 0 <= a[i] <= mult[i] for every distinct value."""
    if len(a) != ci.l:
        raise InvalidProfile(f"profile length {len(a)} != {ci.l} distinct values")
    for i, (count, m) in enumerate(zip(a, ci.mult)):
        if not 0 <= count <= m:
            raise InvalidProfile(f"profile[{i}]={count} outside 0..{m}")


def complement_profile(ci: CompressedInstance, a: Sequence[int]) -> tuple[int, ...]:
    """Counts of the second set, i.e. the profile with the sides swapped."""
    return tuple(m - c for m, c in zip(ci.mult, a))


def cut_value_sweep(ci: CompressedInstance, a: Sequence[int]) -> int:
    """Cut value via one left-to-right sweep over the gaps, O(l).

    Each gap g between consecutive distinct values is crossed by every pair
    with one endpoint on each side of it, so it contributes
    ``g * (first_left * second_right + second_left * first_right)``.
    """
    validate_profile(ci, a)
    total_first = sum(a)
    first_left = 0
    acc = 0
    for i in range(ci.l - 1):
        g = ci.xs[i + 1] - ci.xs[i]
        first_left += a[i]
        second_left = ci.prefix[i + 1] - first_left
        first_right = total_first - first_left
        second_right = (ci.n - ci.prefix[i + 1]) - first_right
        acc += g * (first_left * second_right + second_left * first_right)
    return acc


def cut_value_naive(ci: CompressedInstance, a: Sequence[int]) -> int:
    """Cut value straight from the definition: sum |x_i - x_j| over crossing pairs, O(l^2)."""
    validate_profile(ci, a)
    acc = 0
    for i in range(ci.l):
        if a[i] == 0:
            continue
        for j in range(ci.l):
            other = ci.mult[j] - a[j]
            if other:
                acc += a[i] * other * abs(ci.xs[i] - ci.xs[j])
    return acc


@dataclass(frozen=True)
class Solution:
    """An optimal partition: its cut value, first-set size and (optionally) the profile.

    ``profile`` is None when the caller dropped it, as ``linecut solve
    --no-assignment`` does before rendering.
    """

    ci: CompressedInstance
    spec: ProblemSpec
    value: int
    k_actual: int
    profile: Optional[tuple[int, ...]] = None
