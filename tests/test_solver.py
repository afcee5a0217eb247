from __future__ import annotations

import copy
import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

import linecut
import linecut.solver as solver
from linecut.cli import run_verify
from linecut.errors import InternalInconsistency, InvalidK, UnsupportedProblem
from linecut.gen import GenKind, GenSpec, derive_seed, generate
from linecut.model import (
    Objective,
    ProblemSpec,
    complement_profile,
    compress,
    cut_value_naive,
    cut_value_sweep,
)
from linecut.oracle import oracle_solve
from linecut.solver import (
    base_level,
    fill_diagonal,
    fill_level,
    fill_tables,
    scan_roots,
    solve,
    transition_bounds,
)

from conftest import all_specs, ci_of, compressed_instances, wide_coords


class TestTransitionBounds:
    def test_examples(self):
        assert transition_bounds(1, 0, 1) == (1, 1)
        assert transition_bounds(2, 3, 4) == (1, 2)
        assert transition_bounds(0, 5, 3) == (0, 0)

    @given(st.integers(0, 30), st.integers(0, 30), st.integers(1, 30))
    def test_window_matches_enumeration(self, p, q, m_prev):
        lo, hi = transition_bounds(p, q, m_prev)
        feasible = [
            r0
            for r0 in range(m_prev + 1)
            if r0 <= p and (m_prev - r0) <= q
        ]
        if feasible:
            assert (lo, hi) == (feasible[0], feasible[-1])
        else:
            assert lo > hi


class TestFillLevel:
    def test_level2_values(self):
        # Instance {0,1,2}: collapsing to two locations 0 and 1, with two
        # extra copies sitting at 1.
        ci = ci_of(0, 1, 2)
        values = fill_level(ci, 2, base_level(ci.n), Objective.MAX)
        assert values[1][0] == 2
        assert values[0][2] == 2
        # State (1, 0) lies on diagonal 1; its only r0 is 1.
        assert fill_diagonal(ci, 1, Objective.MAX)[1][0][1] == 1

    def test_base_level_zero(self):
        assert base_level(3) == [[0, 0, 0, 0]]

    def test_min_objective_differs(self):
        # Level 2 transitions are forced; the first real choice is at level 3.
        ci = ci_of(0, 1, 2)
        hi = fill_level(ci, 3, fill_level(ci, 2, base_level(ci.n), Objective.MAX),
                        Objective.MAX)
        lo = fill_level(ci, 3, fill_level(ci, 2, base_level(ci.n), Objective.MIN),
                        Objective.MIN)
        # Tables hold scores, sign * cut: a min-partition's cut 2 is -2.
        assert hi[1][0] == 3
        assert lo[1][0] == -2


def scalar_fill_level(ci, level, prev, objective, largest=False):
    """Reference: the state-by-state scan, storing each state's smallest
    optimizing r0, or its largest where ``largest`` is true.  Values are
    scores, sign * cut, as in ``fill_level``: the largest is the best."""
    big = ci.prefix[level - 1]
    m_prev = ci.mult[level - 2]
    sign = 1 if objective is Objective.MAX else -1
    gap = sign * (ci.xs[level - 1] - ci.xs[level - 2])
    rowlen = ci.n - big + 1
    values, choices = [], []
    for p in range(big + 1):
        q = big - p
        lo, hi = transition_bounds(p, q, m_prev)
        vrow = [0] * rowlen
        crow = [0] * rowlen
        for r in range(rowlen):
            best = prev[p - lo][lo + r]
            br = lo
            for r0 in range(lo + 1, hi + 1):
                v = prev[p - r0][r0 + r]
                if v > best or (largest and v == best):
                    best = v
                    br = r0
            vrow[r] = gap * (p * (rowlen - 1 - r) + q * r) + best
            crow[r] = br
        values.append(vrow)
        choices.append(crow)
    return values, choices


def largest_r0_diagonal(ci, k, objective):
    """``fill_diagonal`` with the opposite tie-break, from the scalar scan."""

    def diagonal(table):
        return [row[k - p] if k - p < len(row) else 0 for p, row in enumerate(table[: k + 1])]

    table, picks = base_level(ci.n), []
    for level in range(2, ci.l + 1):
        table, r0s = scalar_fill_level(ci, level, table, objective, largest=True)
        picks.append(diagonal(r0s))
    return diagonal(table), picks


def assert_matches_scalar_scan(ci):
    """The rows and, on every diagonal, the re-fill's smallest optimizing r0."""
    for objective in Objective:
        picks = [fill_diagonal(ci, k, objective)[1] for k in range(ci.n + 1)]
        prev = base_level(ci.n)
        for level in range(2, ci.l + 1):
            want_values, want_r0 = scalar_fill_level(ci, level, prev, objective)
            values = fill_level(ci, level, prev, objective)
            assert values == want_values
            for p, row in enumerate(want_r0):
                for r, r0 in enumerate(row):
                    assert picks[p + r][level - 2][p] == r0
            prev = values


def diagonal_windows(ci, k, objective):
    """Yield ``(level, p, lo, candidates)`` for each state (p, k - p) of
    diagonal k at every level >= 2, with the scores of its candidates for
    r0 = lo..hi in that order, read from the scalar scan's level tables."""
    prev = base_level(ci.n)
    for level in range(2, ci.l + 1):
        big = ci.prefix[level - 1]
        for p in range(max(0, k - (ci.n - big)), min(big, k) + 1):
            lo, hi = transition_bounds(p, big - p, ci.mult[level - 2])
            yield level, p, lo, [prev[p - r0][r0 + k - p] for r0 in range(lo, hi + 1)]
        prev, _ = scalar_fill_level(ci, level, prev, objective)


@pytest.fixture
def builtin_calls(monkeypatch):
    """Record every max() and min() call that the solver module makes."""
    calls = []

    def counting(builtin):
        def wrapper(*args, **kwargs):
            calls.append(builtin)
            return builtin(*args, **kwargs)

        return wrapper

    # Module globals shadow the builtins that the solver looks up.
    monkeypatch.setattr(solver, "max", counting(max), raising=False)
    monkeypatch.setattr(solver, "min", counting(min), raising=False)
    return calls


distinct_cis = st.lists(
    st.integers(-1000, 1000), min_size=1, max_size=14, unique=True
).map(lambda xs: ci_of(*xs))
# Few values, many copies: transition windows wider than two entries.
duplicate_heavy_cis = st.lists(st.integers(0, 3), min_size=1, max_size=24).map(
    lambda xs: ci_of(*xs)
)
wide_cis = compressed_instances(max_n=12, coord=wide_coords)


class TestRowWiseFill:
    @given(st.one_of(distinct_cis, duplicate_heavy_cis, wide_cis))
    # Equally spaced points, with and without copies: many candidates tie,
    # and mirrored rows must still hold the smallest optimizing r0.
    @example(ci_of(*range(12)))
    @example(ci_of(0, 0, 1, 1, 2, 2, 3, 3, 4, 4))
    @example(ci_of(*range(8), 2, 2, 5, 5, 5))
    @example(ci_of(*[0] * 5, *[1] * 5, *[2] * 5, *[3] * 5))
    @example(ci_of(*range(0, 30, 3), 0, 9, 9, 27, 27, 27, 27))
    def test_matches_scalar_scan(self, ci):
        assert_matches_scalar_scan(ci)

    @given(st.one_of(distinct_cis, duplicate_heavy_cis, wide_cis))
    @example(ci_of(*range(12)))
    @example(ci_of(*[0] * 5, *[1] * 5, *[2] * 5, *[3] * 5))
    def test_diagonals_match_row_fill(self, ci):
        # Diagonal k of the top table holds the states (p, k - p).
        for objective in Objective:
            top = fill_tables(ci, objective)
            big = len(top) - 1
            for k in range(ci.n + 1):
                values, _ = fill_diagonal(ci, k, objective)
                feasible = range(max(0, k - (ci.n - big)), min(big, k) + 1)
                assert len(values) == feasible.stop
                assert [values[p] for p in feasible] == [top[p][k - p] for p in feasible]

    @given(st.one_of(distinct_cis, duplicate_heavy_cis, wide_cis))
    def test_level_tables_are_centrally_symmetric(self, ci):
        # Swapping the sets maps state (p, r) to (big - p, rowlen - 1 - r).
        for objective in Objective:
            table = scalar_table = base_level(ci.n)
            for level in range(2, ci.l + 1):
                table = fill_level(ci, level, table, objective)
                scalar_table, _ = scalar_fill_level(ci, level, scalar_table, objective)
                for values in (table, scalar_table):
                    big = len(values) - 1
                    assert all(
                        values[p] == values[big - p][::-1] for p in range(big + 1)
                    )
            assert table == fill_tables(ci, objective)

    @pytest.mark.parametrize("objective", list(Objective))
    def test_all_tied_wide_window_fills_values(self, objective):
        # State p = 4 of level 3 has the 5-wide window r0 = 0..4.
        ci = ci_of(*[0] * 4, *[1] * 4, 2)
        assert transition_bounds(4, ci.prefix[2] - 4, ci.mult[1]) == (0, 4)
        prev = [[5] * (ci.n - ci.prefix[1] + 1) for _ in range(ci.prefix[1] + 1)]
        assert fill_level(ci, 3, prev, objective) == scalar_fill_level(
            ci, 3, prev, objective
        )[0]

    @pytest.mark.parametrize("objective", list(Objective))
    def test_best_far_into_a_wide_window_fills_values(self, objective):
        # State (p, r) = (300, 0) of level 3 sees r0 = 0..300; the only
        # distinct candidate is prev[20][280], reached through r0 = 280.
        # Its mirror prev[280][21] keeps prev centrally symmetric, as
        # fill_level requires, and lies outside that state's window.  prev
        # holds scores, sign * cut, so the best candidate is the largest
        # under either objective.
        ci = ci_of(*[0] * 300, *[1] * 300, 2)
        prev = [[0] * (ci.n - ci.prefix[1] + 1) for _ in range(ci.prefix[1] + 1)]
        prev[20][280] = prev[280][21] = 1
        want_values, want_r0 = scalar_fill_level(ci, 3, prev, objective)
        assert want_r0[300][0] == 280
        assert fill_level(ci, 3, prev, objective) == want_values

    @pytest.mark.parametrize(
        "spec",
        [ProblemSpec.max_cut(), ProblemSpec.min_partition(300), ProblemSpec.max_partition(301)],
        ids=ProblemSpec.canonical_name,
    )
    def test_wide_windows_match_oracle(self, spec):
        ci = ci_of(*[0] * 300, *[7] * 300, 20)
        got = solve(ci, spec)
        want = oracle_solve(ci, spec)
        assert (got.value, got.profile) == (want.value, want.profile)

    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize("width", [3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33])
    def test_single_best_at_every_offset(self, objective, width):
        # State p = width - 1 of level 3, the middle row, has the window
        # r0 = 0..width - 1.  Its source rows 0..width - 1 start at a block
        # start, so pre alone must reach each offset.
        ci = ci_of(*[0] * (width - 1), *[1] * (width - 1), 2)
        p = width - 1
        assert transition_bounds(p, ci.prefix[2] - p, ci.mult[1]) == (0, p)
        for r0 in range(width):
            prev = [[0] * (ci.n - ci.prefix[1] + 1) for _ in range(ci.prefix[1] + 1)]
            # The candidate of state (p, 0) at r0, and its mirror, which keeps
            # prev centrally symmetric as fill_level requires.  prev holds
            # scores, so the single best is the largest under either objective.
            prev[p - r0][r0] = prev[-1 - (p - r0)][-1 - r0] = 1
            before = copy.deepcopy(prev)
            want_values, want_r0 = scalar_fill_level(ci, 3, prev, objective)
            assert want_r0[p][0] == r0
            assert fill_level(ci, 3, prev, objective) == want_values
            assert prev == before

    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize("w", [3, 4, 5, 8, 9, 17, 33])
    def test_single_best_in_a_window_across_two_blocks(self, objective, w):
        # Level 3 cuts its source rows into blocks of w = m_prev + 1 rows.
        # State p in w..2w - 2 has the window r0 = 0..w - 1, the source rows
        # x = p - w + 1 to p, which start inside block 0 and end in block 1:
        # the row is read from suf(x) and pre(p).
        ci = ci_of(*[0] * (3 * w), *[1] * (w - 1), 2)
        for p in sorted({w, w + w // 2, 2 * w - 2}):
            assert (p - w + 1) % w
            assert transition_bounds(p, ci.prefix[2] - p, ci.mult[1]) == (0, w - 1)
            for r0 in range(w):
                prev = [[0] * (ci.n - ci.prefix[1] + 1) for _ in range(ci.prefix[1] + 1)]
                # The candidate of state (p, 0) at r0, and its mirror, which
                # keeps prev centrally symmetric; prev holds scores, so the
                # single best is the largest under either objective.
                prev[p - r0][r0] = prev[-1 - (p - r0)][-1 - r0] = 1
                before = copy.deepcopy(prev)
                want_values, want_r0 = scalar_fill_level(ci, 3, prev, objective)
                assert want_r0[p][0] == r0
                assert fill_level(ci, 3, prev, objective) == want_values
                assert prev == before

    # Medium n on few values, past the hypothesis strategies' reach: windows
    # up to dozens of entries, across every block of a level.
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_multiset_ramps_match_scalar_scan(self, order, seed):
        rng = random.Random(f"{order}-{seed}")
        n = rng.randint(60, 150)
        # A random composition of n into 5..16 multiplicities, as a ramp.
        cuts = sorted(rng.sample(range(1, n), rng.randint(5, 16) - 1))
        mults = sorted(b - a for a, b in zip([0, *cuts], [*cuts, n]))
        if order == "descending":
            mults.reverse()
        elif order == "shuffled":
            rng.shuffle(mults)
        xs = sorted(rng.sample(range(-(10**6), 10**6), len(mults)))
        ci = ci_of(*[x for x, m in zip(xs, mults) for _ in range(m)])
        assert ci.mult == tuple(mults)
        diagonals = (1, n // 3, n // 2, n - 2)
        for objective in Objective:
            refills = [fill_diagonal(ci, k, objective) for k in diagonals]
            table = base_level(n)
            for level in range(2, ci.l + 1):
                want_values, want_r0 = scalar_fill_level(ci, level, table, objective)
                table = fill_level(ci, level, table, objective)
                assert table == want_values
                big = ci.prefix[level - 1]
                # The re-fill's picks on diagonal k, and at the top level
                # its values, are the scalar scan's on states (p, k - p).
                for k, (values, picks) in zip(diagonals, refills):
                    feasible = range(max(0, k - (n - big)), min(big, k) + 1)
                    assert [picks[level - 2][p] for p in feasible] == [
                        want_r0[p][k - p] for p in feasible
                    ]
                    if level == ci.l:
                        assert [values[p] for p in feasible] == [
                            table[p][k - p] for p in feasible
                        ]

    # reflected: the row fill run on the same coordinates negated.
    @pytest.mark.parametrize("reflected", [True, False])
    @pytest.mark.parametrize("objective", list(Objective))
    def test_row_fill_calls_no_max_or_min(self, builtin_calls, objective, reflected):
        # Rows are built by comparisons, never by a max()/min() per state:
        # two-entry windows (all-distinct input), windows within one block
        # and windows across two alike.
        sign = -1 if reflected else 1
        for xs in (
            range(40),
            (-7, 3, 4, 10, 11, 25, 60),
            (0, 1 << 40, -(1 << 40)),
            (0, 0, 1, 1, 2, 2),  # a three-entry window: level 3, p = 2
            (*[0] * 300, *[1] * 300, 2),  # windows up to 301 entries
            # Windows across two blocks, at levels 4 and 6.
            tuple(x for x, m in enumerate((2, 9, 3, 20, 5, 1)) for _ in range(m)),
        ):
            fill_tables(ci_of(*[sign * x for x in xs]), objective)
        assert builtin_calls == []

    def test_shifted_window_is_detected_on_distinct_input(
        self, faulty_transition, monkeypatch
    ):
        ci = ci_of(0, 1, 2, 3)
        for spec in (ProblemSpec.max_cut(), ProblemSpec.min_partition(2)):
            with pytest.raises(InternalInconsistency):
                solve(ci, spec)
        monkeypatch.undo()
        assert solve(ci, ProblemSpec.max_partition(2)).value == 8


class TestDiagonalRefill:
    """``fill_diagonal`` handles each state by the width of its window."""

    # Each instance has, on diagonal k, under both objectives and on plain and
    # reflected coordinates, a state of the named class with a known answer:
    # a one-entry window whose only r0 is lo > 0, a two-entry window whose
    # candidates tie, and a wider window whose best score is tied and first
    # reached past lo.
    @pytest.mark.parametrize("reflected", [False, True])
    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize(
        "xs, k, width",
        [
            ((0, 1, 2, 3), 2, 1),
            ((0, 1, 2, 3), 2, 2),
            ((0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 5), 9, 3),
        ],
        ids=["one-entry", "two-entry", "wide"],
    )
    def test_ties_pick_the_smallest_r0(self, xs, k, width, objective, reflected):
        ci = ci_of(*[-x if reflected else x for x in xs])
        picks = fill_diagonal(ci, k, objective)[1]
        known = 0
        for level, p, lo, candidates in diagonal_windows(ci, k, objective):
            if min(len(candidates), 3) != width:
                continue
            best = max(candidates)
            first = candidates.index(best)
            assert picks[level - 2][p] == lo + first
            if width == 1:
                known += lo > 0
            else:
                known += candidates.count(best) > 1 and (width == 2 or first > 0)
        assert known

    @pytest.mark.parametrize("reflected", [False, True])
    @pytest.mark.parametrize("objective", list(Objective))
    def test_narrow_windows_call_no_max_or_min(self, builtin_calls, objective, reflected):
        # All-distinct input has windows of one or two entries only, and
        # those are decided without a max()/min() call.
        sign = -1 if reflected else 1
        for xs in (range(40), (-7, 3, 4, 10, 11, 25, 60), (0, 1 << 40, -(1 << 40))):
            ci = ci_of(*[sign * x for x in xs])
            for k in range(ci.n + 1):
                fill_diagonal(ci, k, objective)
        assert builtin_calls == []
        # Diagonal 3 of this instance has one three-entry window, at level 3.
        fill_diagonal(ci_of(*[sign * x for x in (0, 0, 1, 1, 2, 2)]), 3, objective)
        assert builtin_calls == [max]

    # Medium n, past the hypothesis strategies' reach, on every generator kind.
    @pytest.mark.parametrize("kind", list(GenKind), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("n", [40, 61, 80])
    def test_medium_instances_match_scalar_scan(self, kind, n):
        ci = compress(generate(GenSpec(kind, n, 10**4, derive_seed(7, n))))
        assert_matches_scalar_scan(ci)


class TestScanRoots:
    def test_unconstrained(self):
        ci = ci_of(0, 1, 2)
        top = fill_tables(ci, Objective.MAX)
        sizes, value = scan_roots(ci, top, ProblemSpec.max_cut())
        assert value == 3
        assert sizes == [1, 2]

    def test_exact_k(self):
        ci = ci_of(0, 1, 2, 3)
        top_max = fill_tables(ci, Objective.MAX)
        _, v_max = scan_roots(ci, top_max, ProblemSpec.max_partition(2))
        assert v_max == 8
        top_min = fill_tables(ci, Objective.MIN)
        _, v_min = scan_roots(ci, top_min, ProblemSpec.min_partition(2))
        assert v_min == -6  # the score, -cut, of the optimum

    def test_bad_k(self):
        ci = ci_of(0, 1)
        top = fill_tables(ci, Objective.MAX)
        with pytest.raises(InvalidK):
            scan_roots(ci, top, ProblemSpec.max_partition(5))


class TestSolve:
    def test_two_points(self):
        sol = solve(ci_of(0, 10), ProblemSpec.max_cut())
        assert sol.value == 10
        # Canonical side choice: the reported first set is the one whose
        # leftmost count is no larger than its complement's.
        assert sol.profile == (0, 1)

    def test_duplicates(self):
        assert solve(ci_of(0, 0, 0, 1), ProblemSpec.max_cut()).value == 3

    def test_min_singleton(self):
        sol = solve(ci_of(0, 1, 2), ProblemSpec.min_partition(1))
        assert sol.value == 2
        assert sol.profile == (0, 1, 0)

    def test_empty_first_set(self):
        sol = solve(ci_of(0, 1, 2, 3), ProblemSpec.max_partition(0))
        assert sol.value == 0
        assert sol.profile == (0, 0, 0, 0)

    def test_single_location(self):
        for spec in all_specs(3):
            sol = solve(ci_of(5, 5, 5), spec)
            assert sol.value == 0

    def test_min_unconstrained_rejected(self):
        with pytest.raises(UnsupportedProblem):
            solve(ci_of(0, 1), ProblemSpec(Objective.MIN, None))

    def test_deterministic(self):
        ci = ci_of(0, 0, 2, 5, 5, 9)
        for spec in all_specs(6):
            assert solve(ci, spec) == solve(ci, spec)

    @given(compressed_instances(max_n=10))
    def test_profile_is_consistent(self, ci):
        for spec in all_specs(ci.n):
            sol = solve(ci, spec)
            assert cut_value_sweep(ci, sol.profile) == sol.value
            assert cut_value_naive(ci, sol.profile) == sol.value
            assert sum(sol.profile) == sol.k_actual
            if spec.k is not None:
                assert sol.k_actual == spec.k

    @given(compressed_instances(max_n=10))
    def test_side_count_symmetry(self, ci):
        for o in Objective:
            for k in range(ci.n + 1):
                assert (
                    solve(ci, ProblemSpec(o, k)).value
                    == solve(ci, ProblemSpec(o, ci.n - k)).value
                )

    @given(compressed_instances(max_n=10))
    def test_decomposition(self, ci):
        unc = solve(ci, ProblemSpec.max_cut()).value
        best = max(
            solve(ci, ProblemSpec.max_partition(k)).value for k in range(ci.n + 1)
        )
        assert unc == best

    @given(compressed_instances(max_n=10))
    def test_monotone_restriction(self, ci):
        unc = solve(ci, ProblemSpec.max_cut()).value
        for k in range(ci.n + 1):
            assert solve(ci, ProblemSpec.max_partition(k)).value <= unc

    @given(st.one_of(compressed_instances(max_n=10), duplicate_heavy_cis))
    @example(ci_of(0, 1, 2, 3))
    @example(ci_of(*range(0, 30, 3), 0, 9, 9, 27))
    def test_matches_oracle(self, ci):
        # Value and profile: the lexicographically smallest optimal profile.
        for spec in all_specs(ci.n):
            got, want = solve(ci, spec), oracle_solve(ci, spec)
            assert (got.value, got.profile) == (want.value, want.profile)

    def test_largest_r0_tie_break_fails_the_oracle_check(self, monkeypatch):
        ci = ci_of(0, 1, 2, 3)
        assert solve(ci, ProblemSpec.min_partition(2)).profile == (0, 1, 0, 1)
        assert run_verify(6, 20, 0).ok
        monkeypatch.setattr(solver, "fill_diagonal", largest_r0_diagonal)
        assert solve(ci, ProblemSpec.min_partition(2)).profile == (0, 1, 1, 0)
        report = run_verify(6, 20, 0)
        assert not report.ok
        assert "profile" in report.first_failure.detail

    @given(compressed_instances(max_n=10))
    def test_unconstrained_canonical_side(self, ci):
        profile = solve(ci, ProblemSpec.max_cut()).profile
        assert tuple(profile) <= complement_profile(ci, profile)


class TestSelfChecks:
    """``solve`` refuses an optimum its re-fill or its sweep does not confirm."""

    @pytest.mark.parametrize(
        "spec",
        [ProblemSpec.max_cut(), ProblemSpec.max_partition(2), ProblemSpec.min_partition(2)],
        ids=["max-cut", "max-partition", "min-partition"],
    )
    def test_row_fill_off_by_one(self, monkeypatch, spec):
        # Every top-table entry one larger: the diagonal re-fill misses it.
        exact = solver.fill_tables

        def inflated(ci, objective):
            return [[v + 1 for v in row] for row in exact(ci, objective)]

        monkeypatch.setattr(solver, "fill_tables", inflated)
        with pytest.raises(InternalInconsistency):
            solve(ci_of(0, 1, 2, 3), spec)

    def test_profile_failing_the_sweep(self, monkeypatch):
        monkeypatch.setattr(solver, "cut_value_sweep", lambda ci, profile: -1)
        with pytest.raises(InternalInconsistency):
            solve(ci_of(0, 1, 2, 3), ProblemSpec.max_cut())


class TestImplementations:
    @given(compressed_instances(max_n=8, coord=wide_coords))
    def test_wide_coords_use_big_ints(self, ci):
        # Coordinates up to 2^40 in magnitude: values must stay exact.
        for spec in (ProblemSpec.max_cut(), ProblemSpec.min_partition(ci.n // 2)):
            got, want = solve(ci, spec), oracle_solve(ci, spec)
            assert (got.value, got.profile) == (want.value, want.profile)
            assert cut_value_naive(ci, got.profile) == got.value


class TestImportCost:
    def test_import_loads_no_numpy(self):
        src = os.path.dirname(os.path.dirname(linecut.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = (
            "import sys, linecut; "
            "print(sorted({'numpy', 'numba'} & set(sys.modules)))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, check=True,
        ).stdout
        assert out.strip() == "[]"


class TestFaultHook:
    def test_shifted_window_is_detected(self, faulty_transition, monkeypatch):
        # Breaking the transition lower bound must not go unnoticed: the
        # self-checks inside solve raise on the corrupted recurrence.
        ci = ci_of(0, 0, 0, 1)
        with pytest.raises(InternalInconsistency):
            solve(ci, ProblemSpec.max_cut())
        # The diagonal re-fill sees the shifted window too.
        with pytest.raises(InternalInconsistency):
            solver.reconstruct(ci, 2, Objective.MAX, 2)
        monkeypatch.undo()
        assert solver.reconstruct(ci, 2, Objective.MAX, 2) == (1, 1)
        assert solve(ci, ProblemSpec.max_cut()).value == 3
