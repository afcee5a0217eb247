from __future__ import annotations

import pytest
from hypothesis import given
import hypothesis.strategies as st

import linecut.solver as solver
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
    validate_profile,
)

from conftest import compressed_with_profile, instances, wide_coords


def ci_of(*xs: int, scale: int = 0) -> CompressedInstance:
    return compress(Instance(tuple(xs), scale))


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

    @given(instances(max_n=10, coord=wide_coords))
    def test_reflection_equals_compress_of_negated(self, inst):
        # The instance reconstruct re-fills, caught on its way to fill_diagonal.
        seen = []
        exact = solver.fill_diagonal

        def spy(ci, k, objective):
            seen.append(ci)
            return exact(ci, k, objective)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "fill_diagonal", spy)
            solver.solve(compress(inst), ProblemSpec.max_cut())
        assert seen
        negated = compress(Instance(tuple([-x for x in inst.scaled])))
        assert all(mirror == negated for mirror in seen)


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
