from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from linecut.errors import (
    InstanceEmpty,
    InternalInconsistency,
    InvalidK,
    InvalidProfile,
    RangeError,
    UnsupportedProblem,
)
from linecut.model import (
    MAX_ABS_COORD,
    CompressedInstance,
    Instance,
    Objective,
    ProblemSpec,
    complement_profile,
    compress,
    cut_value_naive,
    cut_value_sweep,
    exchange_gain,
    validate_profile,
)
from linecut.oracle import oracle_solve

from conftest import (
    ci_of,
    compressed_instances,
    compressed_with_profile,
    instances,
    wide_coords,
)


class TestInstance:
    def test_counts(self):
        inst = Instance((3, 1, 1))
        assert inst.n == 3

    def test_empty_rejected(self):
        with pytest.raises(InstanceEmpty):
            Instance(())

    def test_coord_range_enforced(self):
        Instance((MAX_ABS_COORD,))
        with pytest.raises(RangeError):
            Instance((MAX_ABS_COORD + 1,))
        with pytest.raises(RangeError):
            Instance((-MAX_ABS_COORD - 1,))

    def test_scale_range_enforced(self):
        Instance((1,), scale_exp=9)
        with pytest.raises(RangeError):
            Instance((1,), scale_exp=10)
        with pytest.raises(RangeError):
            Instance((1,), scale_exp=-1)


class TestCompress:
    def test_all_distinct(self):
        ci = ci_of(0, 1, 2)
        assert ci.xs == (0, 1, 2)
        assert ci.mult == (1, 1, 1)
        assert ci.prefix == (0, 1, 2, 3)

    def test_single_value(self):
        ci = ci_of(5, 5, 5)
        assert ci.xs == (5,)
        assert ci.mult == (3,)
        assert ci.prefix == (0, 3)

    def test_duplicate_grouping(self):
        ci = ci_of(0, 0, 0, 1)
        assert ci.xs == (0, 1)
        assert ci.mult == (3, 1)
        assert ci.prefix == (0, 3, 4)

    def test_input_order_irrelevant(self):
        assert ci_of(2, 0, 1, 0) == ci_of(0, 0, 1, 2)

    @given(instances(max_n=16, coord=wide_coords))
    def test_invariants(self, inst):
        ci = compress(inst)
        assert all(a < b for a, b in zip(ci.xs, ci.xs[1:]))
        assert all(m >= 1 for m in ci.mult)
        assert sum(ci.mult) == ci.n == inst.n
        assert ci.prefix[0] == 0 and ci.prefix[-1] == ci.n
        assert all(
            ci.prefix[i + 1] - ci.prefix[i] == ci.mult[i] for i in range(ci.l)
        )
        rebuilt = sorted(
            x for x, m in zip(ci.xs, ci.mult) for _ in range(m)
        )
        assert rebuilt == sorted(inst.scaled)


class TestCompressedInstance:
    def test_prefix_and_n_are_derived(self):
        ci = CompressedInstance(xs=(0, 2), mult=(1, 3))
        assert ci.prefix == (0, 1, 4)
        assert ci.n == 4
        with pytest.raises(TypeError):
            CompressedInstance(xs=(0, 2), mult=(1, 3), prefix=(0, 1, 4), n=4)

    @pytest.mark.parametrize(
        "xs, mult",
        [((), ()), ((0, 1), (1,)), ((0, 1), (1, 0)), ((0, 0), (1, 1)), ((1, 0), (1, 1))],
        ids=["empty", "length-mismatch", "zero-multiplicity", "repeated", "decreasing"],
    )
    def test_inconsistent_fields_rejected(self, xs, mult):
        with pytest.raises(InternalInconsistency):
            CompressedInstance(xs=xs, mult=mult)


class TestProblemSpec:
    def test_bisection_requires_even_n(self):
        assert ProblemSpec.bisection(Objective.MAX, 4).k == 2
        with pytest.raises(UnsupportedProblem, match="k=1"):
            ProblemSpec.bisection(Objective.MIN, 3)

    def test_min_unconstrained_rejected(self):
        with pytest.raises(UnsupportedProblem):
            ProblemSpec(Objective.MIN, None).validate_for(5)

    def test_k_bounds(self):
        ProblemSpec.max_partition(0).validate_for(3)
        ProblemSpec.max_partition(3).validate_for(3)
        with pytest.raises(InvalidK):
            ProblemSpec.max_partition(4).validate_for(3)
        with pytest.raises(InvalidK):
            ProblemSpec.min_partition(-1).validate_for(3)

    def test_names(self):
        assert ProblemSpec.max_cut().canonical_name() == "max-cut"
        assert ProblemSpec.max_partition(2).canonical_name() == "max-partition"
        assert ProblemSpec.min_partition(2).canonical_name() == "min-partition"


class TestProfiles:
    def test_length_checked(self):
        with pytest.raises(InvalidProfile):
            validate_profile(ci_of(0, 1), (1,))

    def test_bounds_checked(self):
        with pytest.raises(InvalidProfile):
            validate_profile(ci_of(0, 1), (2, 0))
        with pytest.raises(InvalidProfile):
            validate_profile(ci_of(0, 1), (0, -1))

    def test_complement(self):
        assert complement_profile(ci_of(0, 0, 1), (1, 1)) == (1, 0)


class TestEvaluators:
    def test_sweep_examples(self):
        assert cut_value_sweep(ci_of(0, 1, 2, 3), (1, 0, 0, 1)) == 6
        assert cut_value_sweep(ci_of(5, 5, 5), (1,)) == 0
        assert cut_value_sweep(ci_of(0, 1, 2), (1, 1, 1)) == 0

    def test_naive_examples(self):
        assert cut_value_naive(ci_of(0, 10), (1, 0)) == 10
        assert cut_value_naive(ci_of(0, 1, 2, 3), (1, 0, 1, 0)) == 6
        assert cut_value_naive(ci_of(0, 0, 0, 1), (0, 1)) == 3

    def test_invalid_profile_rejected(self):
        with pytest.raises(InvalidProfile):
            cut_value_sweep(ci_of(0, 1), (3, 0))
        with pytest.raises(InvalidProfile):
            cut_value_naive(ci_of(0, 1), (0,))

    @given(compressed_with_profile(max_n=14, coord=wide_coords))
    def test_agreement(self, pair):
        ci, a = pair
        assert cut_value_sweep(ci, a) == cut_value_naive(ci, a)

    @given(compressed_with_profile())
    def test_complement_symmetry(self, pair):
        ci, a = pair
        assert cut_value_sweep(ci, a) == cut_value_sweep(ci, complement_profile(ci, a))

    @given(compressed_with_profile(), st.sampled_from((-(10**6), -3, 1, 10**6)))
    def test_translation_invariance(self, pair, c):
        ci, a = pair
        shifted = compress(
            Instance(
                tuple(x + c for x, m in zip(ci.xs, ci.mult) for _ in range(m)),
                ci.scale_exp,
            )
        )
        assert cut_value_sweep(shifted, a) == cut_value_sweep(ci, a)

    @given(compressed_with_profile(), st.integers(1, 9))
    def test_scale_equivariance(self, pair, s):
        ci, a = pair
        scaled = compress(
            Instance(
                tuple(x * s for x, m in zip(ci.xs, ci.mult) for _ in range(m)),
                ci.scale_exp,
            )
        )
        assert cut_value_sweep(scaled, a) == s * cut_value_sweep(ci, a)

    @given(compressed_with_profile())
    def test_reflection_invariance(self, pair):
        ci, a = pair
        mirrored = compress(
            Instance(
                tuple(-x for x, m in zip(ci.xs, ci.mult) for _ in range(m)),
                ci.scale_exp,
            )
        )
        assert cut_value_sweep(mirrored, tuple(reversed(a))) == cut_value_sweep(ci, a)

    @given(compressed_with_profile())
    def test_zero_cases(self, pair):
        ci, _ = pair
        assert cut_value_sweep(ci, (0,) * ci.l) == 0
        assert cut_value_sweep(ci, ci.mult) == 0


def best_single_move(ci, a):
    """The largest cut decrease over every move of one first-set point from
    one level to another, each scored by ``cut_value_naive``; 0 if none
    lowers the cut."""
    cut = cut_value_naive(ci, a)
    best = 0
    for i, j in itertools.permutations(range(ci.l), 2):
        if a[i] > 0 and a[j] < ci.mult[j]:
            moved = list(a)
            moved[i] -= 1
            moved[j] += 1
            best = max(best, cut - cut_value_naive(ci, moved))
    return best


class TestExchangeGain:
    def test_moves_in_each_direction(self):
        ci = ci_of(0, 1, 2, 3)
        # Every level left of a first-set point is full, so only moves to the
        # right exist, and the best one, 1 -> 3, lowers the cut from 8 to 6.
        assert exchange_gain(ci, (1, 1, 0, 0)) == 2
        # The mirror image: only moves to the left exist.
        assert exchange_gain(ci, (0, 0, 1, 1)) == 2
        # Minima of sizes 2 and 0.
        assert exchange_gain(ci, (0, 1, 0, 1)) == 0
        assert exchange_gain(ci, (0, 0, 0, 0)) == 0
        # A maximum: one move of a copy, 0 -> 1, lowers the cut from 9 to 5.
        assert exchange_gain(ci_of(0, 0, 0, 1, 1, 1), (3, 0)) == 4

    @given(
        st.one_of(
            compressed_with_profile(max_n=14, coord=wide_coords),
            compressed_with_profile(max_n=24, coord=st.integers(0, 3)),
        )
    )
    @example((ci_of(*range(8)), (1, 0, 1, 1, 0, 0, 1, 0)))
    @example((ci_of(0, 0, 0, 1, 1, 5, 9, 9, 9, 9), (0, 2, 1, 3)))
    def test_matches_single_move_search(self, pair):
        ci, a = pair
        assert exchange_gain(ci, a) == best_single_move(ci, a)

    @given(compressed_instances(max_n=12))
    @example(ci_of(*range(12)))
    @example(ci_of(0, 0, 0, 1, 1, 2, 2, 2, 2, 7, 7, 7))
    def test_zero_exactly_on_minimum_profiles(self, ci):
        # Every profile of every size k: it passes exactly when its cut is the
        # oracle's minimum of size k.
        minima = [
            oracle_solve(ci, ProblemSpec.min_partition(k)).value
            for k in range(ci.n + 1)
        ]
        for a in itertools.product(*[range(m + 1) for m in ci.mult]):
            optimal = cut_value_sweep(ci, a) == minima[sum(a)]
            assert (exchange_gain(ci, a) == 0) == optimal
