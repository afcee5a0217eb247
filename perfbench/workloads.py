"""Seeded decks for the three workloads, and the checks every op's output must pass.

The decks are drawn by the benchmark's own splitmix64, never by
``linecut.gen``, so a change to the program cannot change what is measured.
Only the coordinates and the order of the input lines depend on the seed.
Sizes, problems and multiplicities are fixed below, which keeps the work of a
deck nearly the same for every seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from typing import Optional

from reference import cut_extremes, pairwise_cut

_MASK64 = (1 << 64) - 1

# Coordinates are written with three fractional digits and drawn from
# [-SPAN/2, SPAN/2) in those units, i.e. from [-500, 500).
SCALE_DIGITS = 3
SPAN = 10**6
CLUSTERS = 3
CLUSTER_HALF_WIDTH = SPAN // 200

PROBLEMS = ("max-cut", "max-bisection", "min-bisection", "max-partition", "min-partition")

# distinct: l = n; table fill is over 99% of each op.
DISTINCT_SIZES = (80, 96, 112)

# multiset: n = 240 on few levels with wide transition windows.  The fill's
# cost depends on the order of the multiplicities as well as on their values,
# so both are fixed; a ramp puts the widest windows on the last levels.
MULTISET_MULTS = (
    (10, 16, 22, 28, 32, 36, 44, 52),  # l = 8
    (3, 6, 9, 12, 15, 18, 22, 25, 28, 31, 34, 37),  # l = 12
    (2, 4, 5, 7, 9, 11, 12, 14, 16, 18, 19, 21, 23, 25, 26, 28),  # l = 16
)  # each sums to n = 240

# crosscheck: (kind, n or multiplicities); the oracle's profile count is
# prod(m + 1), so it does not depend on the seed.
CROSSCHECK_SHAPES = (
    ("uniform", 11),
    ("clustered", 12),
    ("duplicates", (3, 2, 2, 2, 1, 1, 1, 1)),  # n = 13, 1728 profiles
    ("uniform", 12),
    ("clustered", 11),
    ("duplicates", (3, 2, 2, 1, 1, 1, 1, 1)),  # n = 12, 1152 profiles
)

WORKLOADS = ("distinct", "multiset", "crosscheck")


class SplitMix64:
    """splitmix64 with bias-free bounded draws."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def shuffled(self, seq) -> list:
        out = list(seq)
        for i in range(len(out) - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


@dataclass(frozen=True)
class Item:
    """One deck entry: an instance, its problem and its exact reference values.

    ``problem`` is None for a crosscheck item, which poses every problem.
    ``ref`` maps k to the (minimum, maximum) cut over partitions with |A| = k.
    """

    kind: str
    xs: tuple[int, ...]
    mult: tuple[int, ...]
    problem: Optional[str]
    k: Optional[int]
    text: str
    ref: dict

    @property
    def n(self) -> int:
        return sum(self.mult)


def _distinct_values(rng: SplitMix64, kind: str, count: int) -> list[int]:
    centres = [rng.below(SPAN) - SPAN // 2 for _ in range(CLUSTERS)]
    seen: set[int] = set()
    while len(seen) < count:
        if kind == "clustered":
            centre = centres[rng.below(CLUSTERS)]
            x = centre + rng.below(2 * CLUSTER_HALF_WIDTH) - CLUSTER_HALF_WIDTH
            x = min(max(x, -SPAN // 2), SPAN // 2 - 1)
        else:
            x = rng.below(SPAN) - SPAN // 2
        seen.add(x)
    return sorted(seen)


def _decimal(x: int) -> str:
    sign = "-" if x < 0 else ""
    whole, frac = divmod(abs(x), 10**SCALE_DIGITS)
    return f"{sign}{whole}.{frac:0{SCALE_DIGITS}d}"


def _instance(rng: SplitMix64, kind: str, shape) -> tuple[tuple, tuple, str]:
    """Draw (xs, mult, text) for a shape: a point count, or multiplicities in order."""
    mult = [1] * shape if isinstance(shape, int) else list(shape)
    xs = _distinct_values(rng, kind, len(mult))
    lines = [_decimal(x) if m == 1 else f"{_decimal(x)} {m}" for x, m in zip(xs, mult)]
    # Unsorted input, so parsing and compression do their full job.
    text = "\n".join(rng.shuffled(lines)) + "\n"
    return tuple(xs), tuple(mult), text


def _k_for(problem: str, n: int) -> Optional[int]:
    if problem == "max-cut":
        return None
    return n // 2 if problem.endswith("bisection") else n // 4


def _item(rng, kind, shape, problem) -> Item:
    xs, mult, text = _instance(rng, kind, shape)
    n = sum(mult)
    k = None if problem is None else _k_for(problem, n)
    ks = range(n + 1) if k is None else (k,)
    points = [x for x, m in zip(xs, mult) for _ in range(m)]
    return Item(kind, xs, mult, problem, k, text, cut_extremes(points, ks))


def build_deck(workload: str, seed: int) -> list[Item]:
    """The fixed deck of one workload at one seed; references computed here, untimed."""
    rng = SplitMix64(seed ^ (WORKLOADS.index(workload) + 1) * 0x9E3779B97F4A7C15)
    if workload == "distinct":
        shapes = [(("uniform", "clustered")[i % 2], n, p)
                  for i, (n, p) in enumerate((n, p) for n in DISTINCT_SIZES for p in PROBLEMS)]
    elif workload == "multiset":
        shapes = [("duplicates", m, p) for m in MULTISET_MULTS for p in PROBLEMS]
    elif workload == "crosscheck":
        shapes = [(kind, shape, None) for kind, shape in CROSSCHECK_SHAPES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [_item(rng, kind, shape, problem) for kind, shape, problem in shapes]


def crosscheck_problems(n: int) -> list[tuple[str, Optional[int]]]:
    """Max-cut, then max- and min-partition at every k."""
    out: list[tuple[str, Optional[int]]] = [("max-cut", None)]
    for k in range(n + 1):
        out += [("max-partition", k), ("min-partition", k)]
    return out


def expected_value(item: Item, problem: str, k: Optional[int]) -> int:
    if k is None:
        return max(best for _, best in item.ref.values())
    low, high = item.ref[k]
    return low if problem.startswith("min") else high


def check_rendered(item: Item, problem: str, k: Optional[int], rendered: str) -> list[str]:
    """Mismatches between one rendered JSON solution and the item's reference."""
    out = json.loads(rendered)
    scale = 10**SCALE_DIGITS
    errors = []
    value = Decimal(out["value"]) * scale
    if value != expected_value(item, problem, k):
        errors.append(f"{problem} k={k}: value {out['value']} is not the reference optimum")
    xs = [Decimal(a["x"]) * scale for a in out["assignment"]]
    first = [a["count_first"] for a in out["assignment"]]
    second = [a["count_second"] for a in out["assignment"]]
    if xs != list(item.xs) or [a + b for a, b in zip(first, second)] != list(item.mult):
        errors.append(f"{problem} k={k}: per-x counts do not match the multiplicities")
    if sum(first) != out["k"] or (k is not None and out["k"] != k):
        errors.append(f"{problem} k={k}: first-set counts sum to {sum(first)}, k={out['k']}")
    if pairwise_cut(item.xs, first, second) != value:
        errors.append(f"{problem} k={k}: assignment does not evaluate to {out['value']}")
    return errors
