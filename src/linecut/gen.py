"""Seeded random instance generators.

All randomness flows through splitmix64, a tiny fixed PRNG, so a given
``GenSpec`` yields byte-identical instances on every platform and Python
version.  Three families: all-distinct-ish uniform draws, duplicate-heavy
multisets with a chosen support size, and tight clusters.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidGenSpec
from .model import MAX_ABS_COORD, MAX_POINTS, Instance

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 PRNG (Steele, Lea & Flood's SplittableRandom finalizer)."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), bias-free via rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        # Largest multiple of bound that fits in 64 bits.
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound


def check_seed(seed: int) -> None:
    """Refuse a seed outside 0..2**64 - 1, which ``SplitMix64`` would alias."""
    if not 0 <= seed <= _MASK64:
        raise InvalidGenSpec("seed must fit in 64 bits")


def derive_seed(seed: int, *salts: int) -> int:
    """Stable per-trial seed from a master seed and integer salts."""
    rng = SplitMix64(seed)
    out = rng.next_u64()
    for salt in salts:
        rng = SplitMix64(out ^ (salt & _MASK64))
        out = rng.next_u64()
    return out


class GenKind(enum.Enum):
    UNIFORM = "uniform"
    DUPLICATES = "duplicates"
    CLUSTERED = "clustered"


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one random instance; equal specs generate equal bytes."""

    kind: GenKind
    n: int
    span: int
    seed: int
    distinct_target: Optional[int] = None  # DUPLICATES only
    clusters: Optional[int] = None  # CLUSTERED only

    def __post_init__(self):
        if not isinstance(self.kind, GenKind):
            raise InvalidGenSpec(f"unknown generator kind: {self.kind!r}")
        if not 1 <= self.n <= MAX_POINTS:
            raise InvalidGenSpec(f"n must be in [1, {MAX_POINTS}], got {self.n}")
        if self.span < 1:
            raise InvalidGenSpec(f"span must be >= 1, got {self.span}")
        # Clustered points can overshoot [0, span] by the cluster radius.
        if self.span + self.span // 1000 > MAX_ABS_COORD:
            raise InvalidGenSpec(f"span {self.span} exceeds the coordinate range")
        check_seed(self.seed)
        if self.distinct_target is not None:
            if self.kind is not GenKind.DUPLICATES:
                raise InvalidGenSpec("distinct_target applies to DUPLICATES only")
            if not 1 <= self.distinct_target <= self.n:
                raise InvalidGenSpec(
                    f"distinct_target must be in [1, n], got {self.distinct_target}"
                )
        if self.clusters is not None:
            if self.kind is not GenKind.CLUSTERED:
                raise InvalidGenSpec("clusters applies to CLUSTERED only")
            # More clusters than points is allowed; some centres then go unused.
            if not 1 <= self.clusters <= MAX_POINTS:
                raise InvalidGenSpec(
                    f"clusters must be in [1, {MAX_POINTS}], got {self.clusters}"
                )


def _composition(rng: SplitMix64, total: int, parts: int) -> list[int]:
    """Uniform random composition of ``total`` into ``parts`` positive parts.

    Samples parts-1 distinct cut points from {1..total-1} with a partial
    Fisher-Yates over a sparse dict, so only O(parts) state is touched.
    """
    if parts == 1:
        return [total]
    picked = []
    perm: dict[int, int] = {}
    top = total - 1
    for _ in range(parts - 1):
        j = rng.below(top)
        picked.append(perm.get(j, j) + 1)
        perm[j] = perm.get(top - 1, top - 1)
        top -= 1
    picked.sort()
    cuts = [0] + picked + [total]
    return [b - a for a, b in zip(cuts, cuts[1:])]


def generate(spec: GenSpec) -> Instance:
    """Produce the instance named by ``spec``; deterministic across platforms."""
    rng = SplitMix64(spec.seed)
    width = spec.span + 1  # draws are inclusive of both endpoints

    if spec.kind is GenKind.UNIFORM:
        coords = [rng.below(width) for _ in range(spec.n)]
    elif spec.kind is GenKind.DUPLICATES:
        target = spec.distinct_target
        if target is None:
            target = max(1, math.isqrt(spec.n))
        values = [rng.below(width) for _ in range(target)]
        counts = _composition(rng, spec.n, target)
        coords = []
        for v, c in zip(values, counts):
            coords.extend([v] * c)
    else:
        count = spec.clusters if spec.clusters is not None else max(1, min(3, spec.n))
        centers = [rng.below(width) for _ in range(count)]
        radius = spec.span // 1000
        coords = []
        for _ in range(spec.n):
            c = centers[rng.below(count)]
            offset = rng.below(2 * radius + 1) - radius
            coords.append(c + offset)

    return Instance(scaled=tuple(coords), scale_exp=0)
