from __future__ import annotations

import gc
import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given

import linecut.oracle as oracle
from linecut.errors import InternalInconsistency, TooLargeForOracle, UnsupportedProblem
from linecut.model import (
    Objective,
    ProblemSpec,
    cut_value_naive,
    cut_value_sweep,
)
from linecut.oracle import best_threshold, oracle_solve, profile_space
from linecut.solver import solve

from conftest import all_specs, ci_of, compressed_instances, wide_coords


class TestOracleSolve:
    def test_examples(self):
        assert oracle_solve(ci_of(0, 1, 2), ProblemSpec.max_cut()).value == 3
        assert oracle_solve(ci_of(0, 1, 2, 3), ProblemSpec.min_partition(2)).value == 6
        assert oracle_solve(ci_of(5, 5, 5), ProblemSpec.max_partition(1)).value == 0

    def test_cap(self, monkeypatch):
        ci = ci_of(0, 1, 2, 3)
        assert profile_space(ci) == 16
        monkeypatch.setattr(oracle, "PROFILE_CAP", 15)
        with pytest.raises(TooLargeForOracle):
            oracle_solve(ci, ProblemSpec.max_cut())
        monkeypatch.setattr(oracle, "PROFILE_CAP", 16)
        oracle_solve(ci, ProblemSpec.max_cut())
        ci = ci_of(0, 0, 0, 1, 1, 7)  # (3+1) * (2+1) * (1+1) profiles
        assert profile_space(ci) == 24
        monkeypatch.setattr(oracle, "PROFILE_CAP", 23)
        with pytest.raises(TooLargeForOracle):
            oracle_solve(ci, ProblemSpec.max_partition(3))
        monkeypatch.setattr(oracle, "PROFILE_CAP", 24)
        oracle_solve(ci, ProblemSpec.max_partition(3))
        # The walk behind that call answers every size, but the cap is still
        # checked on each later call.
        monkeypatch.setattr(oracle, "PROFILE_CAP", 23)
        for spec in all_specs(ci.n):
            with pytest.raises(TooLargeForOracle):
                oracle_solve(ci, spec)

    def test_leaves_no_cyclic_garbage(self):
        # Every call's garbage must go by reference counting alone, so the
        # cyclic collector has nothing to find afterwards.
        cis = [ci_of(0, 0, 1, 3, 3, 3, 7, 12), ci_of(4, 4, 4)]
        gc.collect()
        gc.disable()
        try:
            for ci in cis:
                for spec in all_specs(ci.n):
                    oracle_solve(ci, spec)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_min_unconstrained_rejected(self):
        with pytest.raises(UnsupportedProblem):
            oracle_solve(ci_of(0, 1), ProblemSpec(Objective.MIN, None))

    @given(compressed_instances(max_n=9))
    def test_profile_reevaluates(self, ci):
        for spec in all_specs(ci.n):
            sol = oracle_solve(ci, spec)
            assert cut_value_sweep(ci, sol.profile) == sol.value
            if spec.k is not None:
                assert sol.k_actual == spec.k

    @given(compressed_instances(max_n=8))
    def test_returns_lex_smallest_optimum(self, ci):
        for spec in all_specs(ci.n):
            sol = oracle_solve(ci, spec)
            # No profile before the returned one (in lexicographic profile
            # order) may match the optimum.
            for a in itertools.product(*(range(m + 1) for m in ci.mult)):
                if a >= sol.profile:
                    break
                if spec.k is not None and sum(a) != spec.k:
                    continue
                assert cut_value_sweep(ci, a) != sol.value


def reference_solve(ci, spec):
    """The oracle's definition: every profile of the requested size, scored
    pairwise; the first optimum in lexicographic order wins."""
    maximize = spec.objective is Objective.MAX
    best = best_profile = None
    for a in itertools.product(*(range(m + 1) for m in ci.mult)):
        if spec.k is not None and sum(a) != spec.k:
            continue
        v = cut_value_naive(ci, a)
        if best is None or ((v > best) if maximize else (v < best)):
            best, best_profile = v, a
    return best, best_profile


def assert_matches_reference(ci):
    for spec in all_specs(ci.n):
        sol = oracle_solve(ci, spec)
        assert (sol.value, sol.profile) == reference_solve(ci, spec), spec
        assert sol.k_actual == sum(sol.profile)


class TestOracleAgainstReference:
    @given(compressed_instances(max_n=8))
    def test_small_coords(self, ci):
        assert_matches_reference(ci)

    @given(compressed_instances(max_n=8, coord=st.integers(-3, 3)))
    def test_duplicate_heavy(self, ci):
        assert_matches_reference(ci)

    @given(compressed_instances(max_n=8, coord=wide_coords))
    def test_wide_coords(self, ci):
        assert_matches_reference(ci)

    def test_winner_rechecked_by_sweep(self, monkeypatch):
        ci = ci_of(0, 1, 2, 3)
        oracle._winners.cache_clear()
        monkeypatch.setattr(oracle, "cut_value_sweep", lambda ci, a: -1)
        with pytest.raises(InternalInconsistency):
            oracle_solve(ci, ProblemSpec.max_cut())
        # Winners looked up from the walk of an earlier call are re-swept too.
        for spec in all_specs(ci.n):
            with pytest.raises(InternalInconsistency):
                oracle_solve(ci, spec)
        assert oracle._winners.cache_info().misses == 1

    def test_one_sweep_per_call(self, monkeypatch):
        calls = []

        def counting(ci, a):
            calls.append(a)
            return cut_value_sweep(ci, a)

        monkeypatch.setattr(oracle, "cut_value_sweep", counting)
        sol = oracle_solve(ci_of(0, 1, 2, 3, 5, 8), ProblemSpec.min_partition(3))
        assert calls == [sol.profile]

    def test_counts_above_255(self):
        # 300 copies of 0, so winners hold counts up to 300: a profile stored
        # as bytes could not.
        assert_matches_reference(ci_of(*[0] * 300, 5, 5, 9))


class TestOneWalkPerInstance:
    def test_all_specs_walk_once(self):
        ci, other = ci_of(0, 0, 1, 3, 3, 3, 7, 12), ci_of(4, 4, 9)
        oracle._winners.cache_clear()
        for spec in all_specs(ci.n):
            oracle_solve(ci, spec)
        assert oracle._winners.cache_info().misses == 1
        oracle_solve(other, ProblemSpec.max_cut())
        info = oracle._winners.cache_info()
        assert (info.misses, info.currsize) == (2, 1)

    @given(compressed_instances(max_n=9))
    def test_answers_do_not_depend_on_call_order(self, ci):
        specs = all_specs(ci.n)

        def answers(order, clear):
            out = {}
            for spec in order:
                if clear:
                    oracle._winners.cache_clear()
                sol = oracle_solve(ci, spec)
                out[spec] = (sol.value, sol.profile)
            return out

        oracle._winners.cache_clear()
        forwards = answers(specs, clear=False)
        assert answers(specs[::-1], clear=False) == forwards
        assert answers(specs, clear=True) == forwards


class TestSolveAgainstOracle:
    @given(compressed_instances(max_n=10))
    def test_values_agree(self, ci):
        for spec in all_specs(ci.n):
            assert solve(ci, spec).value == oracle_solve(ci, spec).value


class TestBestThreshold:
    def test_examples(self):
        assert best_threshold(ci_of(0, 1, 2), ProblemSpec.max_cut()).value == 3
        assert best_threshold(ci_of(0, 1, 2, 3), ProblemSpec.max_partition(2)).value == 8
        assert best_threshold(ci_of(0, 1, 2, 3), ProblemSpec.min_partition(2)).value == 8

    def test_ties_go_to_the_smallest_prefix(self):
        # Prefixes {0} and {0, 1} both cut 3.
        sol = best_threshold(ci_of(0, 1, 2), ProblemSpec.max_cut())
        assert (sol.value, sol.profile) == (3, (1, 0, 0))

    def test_prefix_shape(self):
        sol = best_threshold(ci_of(0, 0, 5, 9), ProblemSpec.max_partition(3))
        assert sol.profile == (2, 1, 0)
        assert sol.k_actual == 3

    def test_min_threshold_can_be_beaten(self):
        ci = ci_of(0, 1, 2, 3)
        spec = ProblemSpec.min_partition(2)
        assert solve(ci, spec).value == 6
        assert best_threshold(ci, spec).value == 8

    @given(compressed_instances(max_n=10))
    def test_bounds_oracle(self, ci):
        for spec in all_specs(ci.n):
            sol = best_threshold(ci, spec)
            opt = oracle_solve(ci, spec).value
            if spec.objective is Objective.MAX:
                assert sol.value <= opt
            else:
                assert sol.value >= opt
            # The sorted prefix of its size: full counts, then at most one
            # partial count, then zeros.
            a = sol.profile
            assert sum(a) == sol.k_actual
            assert spec.k is None or sol.k_actual == spec.k
            full = next((i for i, (c, m) in enumerate(zip(a, ci.mult)) if c < m), ci.l)
            assert not any(a[full + 1:])
