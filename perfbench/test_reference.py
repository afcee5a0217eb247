"""The benchmark's reference against exhaustive enumeration.

Run with ``python3 -m pytest perfbench``.
"""

import itertools
import random

import pytest

from reference import cut_extremes, pairwise_cut


def brute_force(points):
    """(min, max) cut at every k, from every subset of point indices."""
    n = len(points)
    out = {}
    for k in range(n + 1):
        values = []
        for chosen in itertools.combinations(range(n), k):
            inside = set(chosen)
            values.append(
                sum(
                    abs(points[a] - points[b])
                    for a in inside
                    for b in range(n)
                    if b not in inside
                )
            )
        out[k] = (min(values), max(values))
    return out


def random_points(rng, n):
    # Narrow ranges force ties and duplicates; wide ones give distinct points.
    span = rng.choice((1, 3, 10, 10**6))
    return [rng.randrange(-span, span + 1) for _ in range(n)]


@pytest.mark.parametrize("n", range(1, 11))
def test_every_k_matches_enumeration(n):
    rng = random.Random(n)
    for _ in range(6 if n < 10 else 2):
        points = random_points(rng, n)
        assert cut_extremes(points, range(n + 1)) == brute_force(points)


def test_subset_of_ks_matches_full_run():
    rng = random.Random(99)
    points = random_points(rng, 9)
    full = cut_extremes(points, range(10))
    assert cut_extremes(points, [4, 2]) == {2: full[2], 4: full[4]}


def test_rejects_bad_k_and_huge_coordinates():
    with pytest.raises(ValueError):
        cut_extremes([0, 1], [3])
    with pytest.raises(ValueError):
        cut_extremes([0, 1 << 60], [1])


def test_pairwise_cut_counts_copies():
    # Two copies at 0 against one at 3 and one at 5: 2*3 + 2*5.
    assert pairwise_cut([0, 3, 5], [2, 0, 0], [0, 1, 1]) == 16
    # Copies of one value on both sides add nothing.
    assert pairwise_cut([7], [2], [3]) == 0
