from __future__ import annotations

import ast
import copy
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

import linecut
import linecut.rankdp as rankdp
import linecut.solver as solver
from linecut.cli import run_verify
from linecut.errors import InternalInconsistency, InvalidK, UnsupportedProblem
from linecut.gen import GenKind, GenSpec, derive_seed, generate
from linecut.model import (
    CompressedInstance,
    Objective,
    ProblemSpec,
    complement_profile,
    compress,
    cut_value_naive,
    cut_value_sweep,
    exchange_gain,
)
from linecut.oracle import oracle_solve
from linecut.solver import (
    base_level,
    clear_size_scores,
    fill_level,
    fill_tables,
    scan_roots,
    size_scores,
    solve,
)

from conftest import all_specs, ci_of, compressed_instances, wide_coords


class TestFillLevel:
    def test_level2_values(self):
        # Instance {0,1,2}: collapsing to two locations 0 and 1, with two
        # extra copies sitting at 1.
        ci = ci_of(0, 1, 2)
        values = fill_level(ci, 2, base_level(ci.n, ci.n // 2), ci.n // 2)
        assert values[1][0] == 2
        assert values[0][2] == 2

    def test_base_level_zero(self):
        assert base_level(3, 1) == [[0, 0, 0, 0]]
        # r = 0..1, then r = 6..7: the band 2..5 is skipped.
        assert base_level(7, 1) == [[0, 0, 0, 0]]

    def test_level3_values(self):
        # Level 2 transitions are forced; the first real choice is at level 3.
        ci = ci_of(0, 1, 2)
        K = ci.n // 2
        values = fill_level(ci, 3, fill_level(ci, 2, base_level(ci.n, K), K), K)
        assert values[1][0] == 3

    @pytest.mark.parametrize("level", [1, 4], ids=["level-1", "level-l-plus-1"])
    def test_level_outside_range_refused(self, level):
        ci = ci_of(0, 1, 2)
        with pytest.raises(InternalInconsistency, match="level .* outside 2..3"):
            fill_level(ci, level, base_level(ci.n, ci.n // 2), ci.n // 2)

    @pytest.mark.parametrize("reshape", [
        lambda prev: prev + [prev[-1]],
        lambda prev: [row[:-1] for row in prev],
    ], ids=["one-row-too-many", "one-column-too-few"])
    def test_previous_table_of_wrong_shape_refused(self, reshape):
        ci = ci_of(0, 1, 2)
        prev = fill_level(ci, 2, base_level(ci.n, ci.n // 2), ci.n // 2)
        with pytest.raises(InternalInconsistency, match="wrong shape"):
            fill_level(ci, 3, reshape(prev), ci.n // 2)


def window(p, q, m_prev):
    """The feasible r0 of a state with p first-set and q second-set points
    left of the level's coordinate, listed from their definition: r0 of the
    previous coordinate's m_prev copies join the first set, so r0 <= p, and
    the rest the second, so m_prev - r0 <= q."""
    return [r0 for r0 in range(m_prev + 1) if r0 <= p and m_prev - r0 <= q]


def scalar_fill_level(ci, level, prev, objective, largest=False):
    """Reference: the state-by-state scan, storing each state's smallest
    optimizing r0, or its largest where ``largest`` is true.  Values are
    scores, sign * cut, so the largest is the best under either objective:
    ``fill_level``'s cuts under MAX, and under MIN what ``rankdp.solve_size``
    must reach."""
    big = ci.prefix[level - 1]
    m_prev = ci.mult[level - 2]
    sign = 1 if objective is Objective.MAX else -1
    gap = sign * (ci.xs[level - 1] - ci.xs[level - 2])
    rowlen = ci.n - big + 1
    values, choices = [], []
    for p in range(big + 1):
        q = big - p
        lo, *rest = window(p, q, m_prev)
        vrow = [0] * rowlen
        crow = [0] * rowlen
        for r in range(rowlen):
            best = prev[p - lo][lo + r]
            br = lo
            for r0 in rest:
                v = prev[p - r0][r0 + r]
                if v > best or (largest and v == best):
                    best = v
                    br = r0
            vrow[r] = gap * (p * (rowlen - 1 - r) + q * r) + best
            crow[r] = br
        values.append(vrow)
        choices.append(crow)
    return values, choices


def mirror_of(ci):
    """``ci`` reflected about 0, whose last level is the original first
    coordinate: backtracking its scalar scan fixes counts from the original
    left end onwards."""
    return CompressedInstance(xs=tuple([-x for x in reversed(ci.xs)]), mult=ci.mult[::-1])


def scalar_tables(ci, objective, largest=False):
    """The scalar scan's value and choice tables of every level, level 1 first."""
    tables, choices = [base_level(ci.n, ci.n // 2)], [None]
    for level in range(2, ci.l + 1):
        values, r0s = scalar_fill_level(ci, level, tables[-1], objective, largest)
        tables.append(values)
        choices.append(r0s)
    return tables, choices


def scalar_backtrack(ci, objective, largest=False):
    """Reference for ``reconstruct``: ``{k: (score, profile)}`` at every size k.

    It backtracks the scalar scan's tables of the reflected instance.  The
    root's count r is the smallest among the optimal states of diagonal k, and
    each later count the scan's stored r0: the smallest that reaches the
    optimum, or the largest, root included, where ``largest`` is true.
    """
    tables, choices = scalar_tables(mirror_of(ci), objective, largest)
    top = tables[-1]
    answers = {}
    for k in range(ci.n + 1):
        states = [(p, k - p) for p in range(len(top)) if 0 <= k - p < len(top[0])]
        score = max(top[p][r] for p, r in states)
        tied = [r for p, r in states if top[p][r] == score]
        r = max(tied) if largest else min(tied)
        p = k - r
        profile = [r]
        for level in range(ci.l, 1, -1):
            r0 = choices[level - 1][p][r]
            profile.append(r0)
            p, r = p - r0, r + r0
        assert p == 0
        answers[k] = score, tuple(profile)
    return answers


def signed_gaps(ci, objective):
    """``ci`` as the fill reads it, every gap negated under MIN.

    The fill maximises a sum of gap terms, so on negated gaps its tables hold
    the scores, -cut, that the scalar reference keeps for MIN.  This keeps
    the MIN case of the fill tests parametrised by objective: they check the
    same windows under falling gap terms.  The fill reads ``n``, ``l``,
    ``xs``, ``mult`` and ``prefix`` only, and decreasing ``xs`` would fail
    ``CompressedInstance``'s own check.
    """
    if objective is Objective.MAX:
        return ci
    xs = tuple([-x for x in ci.xs])
    return SimpleNamespace(n=ci.n, l=ci.l, xs=xs, mult=ci.mult, prefix=ci.prefix)


def rows_kept(ci, level, K=None):
    """How many rows ``fill_level`` returns at ``level`` for the sizes up to
    K, n // 2 by default: p = 0..reach, the rows the next level reads, which
    stop at its big // 2, or at n // 2 on the last level, where
    ``size_scores`` reads them, and at K, past which no row holds a size up
    to K."""
    K = ci.n // 2 if K is None else K
    return min(ci.prefix[level - 1], ci.prefix[level] // 2, K) + 1


def row_length(ci, level, p, K):
    """How many entries row p of ``fill_level``'s table at ``level`` holds
    for the sizes up to K: the low part r = 0..min(n - big, K - p), then,
    when its mirror row big - p <= K may be kept and K < n // 2, the high
    part r = n - K - p..n - big, K - (big - p) + 1 entries.  The band of
    diagonals K + 1..n - K - 1 between them is never stored; at K = n // 2
    it is empty, and every row is whole."""
    n, big = ci.n, ci.prefix[level - 1]
    if K == n // 2:
        return n - big + 1
    high = K - (big - p) + 1 if big - p <= K else 0
    return min(n - big, K - p) + 1 + high


def assert_consumed(prev, before):
    """``fill_level`` may release rows of ``prev`` (set them to None), but it
    changes no row it keeps: ``before`` is a deep copy taken before the call."""
    assert len(prev) == len(before)
    assert all(row is None or row == kept for row, kept in zip(prev, before))


def assert_matches_scalar_scan(ci):
    """The row fill against the scalar scan, and at every size the rank DP's
    score and profile against the scalar backtrack's, and ``size_scores``
    against its maximum cuts.

    The scan fills each whole level from its own previous table: it reads
    rows that the fill neither returns nor keeps.  At K = n // 2, the cap
    of max-cut and bisections, every row the fill returns is whole."""
    K = ci.n // 2
    prev = scalar_prev = base_level(ci.n, K)
    for level in range(2, ci.l + 1):
        scalar_prev = scalar_fill_level(ci, level, scalar_prev, Objective.MAX)[0]
        prev = fill_level(ci, level, prev, K)
        assert prev == scalar_prev[: rows_kept(ci, level)]
    for objective in Objective:
        answers = scalar_backtrack(ci, objective)
        for k, answer in answers.items():
            assert rankdp.solve_size(ci, k, objective) == answer
        if objective is Objective.MAX:
            clear_size_scores()
            assert size_scores(ci, K) == tuple(answers[k][0] for k in range(K + 1))


def path_windows(ci, k, objective, profile):
    """Yield ``(lo, candidates, r0)`` for each step of ``profile``'s path on
    diagonal k of the reflected instance, the root's first: the window's
    scores for r0 = lo..hi in that order, read from the scalar scan's level
    tables, and the count the profile takes."""
    mirror = mirror_of(ci)
    tables, _ = scalar_tables(mirror, objective)
    p = k
    for level, r0 in zip(range(ci.l + 1, 1, -1), profile):
        prev = tables[level - 2]
        r0s = window(p, mirror.prefix[level - 1] - p, mirror.mult[level - 2])
        yield r0s[0], [prev[p - r][r + k - p] for r in r0s], r0
        p -= r0


@pytest.fixture
def builtin_calls(monkeypatch):
    """Record every max() and min() call that the solver and rank DP modules
    make."""
    calls = []

    def counting(builtin):
        def wrapper(*args, **kwargs):
            calls.append(builtin)
            return builtin(*args, **kwargs)

        return wrapper

    # Module globals shadow the builtins that the modules look up.
    for module in (solver, rankdp):
        monkeypatch.setattr(module, "max", counting(max), raising=False)
        monkeypatch.setattr(module, "min", counting(min), raising=False)
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
        # Diagonal k of the top table holds the states (p, k - p), and its
        # best is the rank DP's maximum of size k.  The rows present, p <=
        # n // 2, hold every state of the sizes k <= n // 2; size k > n // 2
        # scores what size n - k does.
        n, big = ci.n, ci.prefix[-2]
        top = fill_tables(ci, n // 2)
        scores = []
        for k in range(n // 2 + 1):
            feasible = range(max(0, k - (n - big)), min(big, k) + 1)
            scores.append(max(top[p][k - p] for p in feasible))
        for k in range(n + 1):
            assert rankdp.solve_size(ci, k, Objective.MAX)[0] == scores[min(k, n - k)]

    @given(st.one_of(distinct_cis, duplicate_heavy_cis, wide_cis))
    def test_level_tables_are_centrally_symmetric(self, ci):
        # Swapping the sets maps state (p, r) to (big - p, rowlen - 1 - r).
        # The scan keeps every row; the fill keeps rows up to reach, so each
        # of its mirror rows q <= reach is checked against its source row.
        table = scalar_table = base_level(ci.n, ci.n // 2)
        for level in range(2, ci.l + 1):
            table = fill_level(ci, level, table, ci.n // 2)
            scalar_table, _ = scalar_fill_level(ci, level, scalar_table, Objective.MAX)
            big = ci.prefix[level - 1]
            assert len(scalar_table) == big + 1
            for values in (table, scalar_table):
                assert all(
                    values[p] == values[big - p][::-1]
                    for p in range(len(values))
                    if big - p < len(values)
                )
        assert table == fill_tables(ci, ci.n // 2)

    @pytest.mark.parametrize("objective", list(Objective))
    def test_all_tied_wide_window_fills_values(self, objective):
        # State p = 4 of level 3 has the 5-wide window r0 = 0..4.
        ci = ci_of(*[0] * 4, *[1] * 4, 2)
        assert window(4, ci.prefix[2] - 4, ci.mult[1]) == list(range(5))
        prev = [[5] * (ci.n - ci.prefix[1] + 1) for _ in range(ci.prefix[1] + 1)]
        want_values, _ = scalar_fill_level(ci, 3, prev, objective)
        assert fill_level(signed_gaps(ci, objective), 3, prev, ci.n // 2) == want_values[
            : rows_kept(ci, 3)
        ]

    @pytest.mark.parametrize("objective", list(Objective))
    def test_best_far_into_a_wide_window_fills_values(self, objective):
        # State (p, r) = (300, 0) of level 3 sees r0 = 0..300; the only
        # distinct candidate is prev[20][280], reached through r0 = 280.
        # Its mirror prev[280][21] keeps prev centrally symmetric, as
        # fill_level requires, and lies outside that state's window.  prev
        # holds scores, so the best candidate is the largest under either
        # objective.
        ci = ci_of(*[0] * 300, *[1] * 300, 2)
        prev = [[0] * (ci.n - ci.prefix[1] + 1) for _ in range(ci.prefix[1] + 1)]
        prev[20][280] = prev[280][21] = 1
        want_values, want_r0 = scalar_fill_level(ci, 3, prev, objective)
        assert want_r0[300][0] == 280
        assert fill_level(signed_gaps(ci, objective), 3, prev, ci.n // 2) == want_values[
            : rows_kept(ci, 3)
        ]

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
        assert window(p, ci.prefix[2] - p, ci.mult[1]) == list(range(p + 1))
        for r0 in range(width):
            prev = [[0] * (ci.n - ci.prefix[1] + 1) for _ in range(ci.prefix[1] + 1)]
            # The candidate of state (p, 0) at r0, and its mirror, which keeps
            # prev centrally symmetric as fill_level requires.  prev holds
            # scores, so the single best is the largest under either objective.
            prev[p - r0][r0] = prev[-1 - (p - r0)][-1 - r0] = 1
            before = copy.deepcopy(prev)
            want_values, want_r0 = scalar_fill_level(ci, 3, prev, objective)
            assert want_r0[p][0] == r0
            assert fill_level(signed_gaps(ci, objective), 3, prev, ci.n // 2) == want_values[
                : rows_kept(ci, 3)
            ]
            assert_consumed(prev, before)

    @pytest.mark.parametrize("objective", list(Objective))
    @pytest.mark.parametrize("w", [3, 4, 5, 8, 9, 17, 33])
    def test_single_best_in_a_window_across_two_blocks(self, objective, w):
        # Level 3 cuts its source rows into blocks of w = m_prev + 1 rows.
        # State p in w..2w - 2 has the window r0 = 0..w - 1, the source rows
        # x = p - w + 1 to p, which start inside block 0 and end in block 1:
        # the row is read from suf(x) and pre(p).  The scan reads the whole
        # previous level, the fill its rows 0..2w - 1 = (4w - 1) // 2.
        ci = ci_of(*[0] * (3 * w), *[1] * (w - 1), 2)
        for p in sorted({w, w + w // 2, 2 * w - 2}):
            assert (p - w + 1) % w
            assert window(p, ci.prefix[2] - p, ci.mult[1]) == list(range(w))
            for r0 in range(w):
                prev = [[0] * (ci.n - ci.prefix[1] + 1) for _ in range(ci.prefix[1] + 1)]
                # The candidate of state (p, 0) at r0, and its mirror, which
                # keeps prev centrally symmetric; prev holds scores, so the
                # single best is the largest under either objective.
                prev[p - r0][r0] = prev[-1 - (p - r0)][-1 - r0] = 1
                want_values, want_r0 = scalar_fill_level(ci, 3, prev, objective)
                assert want_r0[p][0] == r0
                prev = prev[: 2 * w]
                before = copy.deepcopy(prev)
                assert fill_level(signed_gaps(ci, objective), 3, prev, ci.n // 2) == want_values[
                    : rows_kept(ci, 3)
                ]
                assert_consumed(prev, before)

    @pytest.mark.parametrize(
        "mults",
        [(9, 4, 12, 3, 7, 15, 2, 8, 11, 5), (20, 14, 9, 6, 4, 3, 2, 1)],
        ids=["mixed", "falling"],
    )
    def test_each_level_keeps_the_rows_read_and_releases_the_rows_passed(self, mults):
        # Few values, many copies: windows wider than two entries on every
        # level after the second.  Each level returns the rows p <= reach,
        # and sets the source rows below x_last = max(0, big // 2 - m_prev),
        # which its last row no longer reads, to None; it changes no other.
        ci = ci_of(*[7 * i for i, m in enumerate(mults) for _ in range(m)])
        prev = base_level(ci.n, ci.n // 2)
        released = cut = 0
        for level in range(2, ci.l + 1):
            big, m_prev = ci.prefix[level - 1], ci.mult[level - 2]
            before = copy.deepcopy(prev)
            values = fill_level(ci, level, prev, ci.n // 2)
            assert len(values) == min(big, ci.prefix[level] // 2) + 1
            x_last = max(0, big // 2 - m_prev)
            assert prev[:x_last] == [None] * x_last
            assert prev[x_last:] == before[x_last:]
            released += x_last
            cut += len(values) < big + 1
            prev = values
        assert released and cut  # rows are released, and levels cut short

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
        table = scalar_table = base_level(n, n // 2)
        for level in range(2, ci.l + 1):
            scalar_table, _ = scalar_fill_level(ci, level, scalar_table, Objective.MAX)
            table = fill_level(ci, level, table, n // 2)
            assert table == scalar_table[: rows_kept(ci, level)]
        for objective in Objective:
            reference = scalar_backtrack(ci, objective)
            for k in (1, n // 3, n // 2, n - 2):
                assert rankdp.solve_size(ci, k, objective) == reference[k]

    # reflected: the row fill run on the same coordinates negated.
    @pytest.mark.parametrize("reflected", [True, False])
    @pytest.mark.parametrize("objective", list(Objective))
    def test_row_fill_calls_no_max_or_min(self, builtin_calls, objective, reflected):
        # Rows are built by comparisons, never by a max()/min() per state:
        # two-entry windows (all-distinct input), windows within one block
        # and windows across two alike, whole rows, rows cut at K and rows
        # that skip the band alike.
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
            ci = ci_of(*[sign * x for x in xs])
            for K in (ci.n // 2, ci.n // 4, 1):
                fill_tables(signed_gaps(ci, objective), K)
        assert builtin_calls == []

    def test_raised_levels_are_detected_on_distinct_input(
        self, broken_recurrence, monkeypatch
    ):
        ci = ci_of(0, 1, 2, 3)
        for spec in (ProblemSpec.max_cut(), ProblemSpec.max_partition(2)):
            with pytest.raises(InternalInconsistency):
                solve(ci, spec)
        # A minimisation reads no fill, so the fault leaves it right.
        assert solve(ci, ProblemSpec.min_partition(2)).value == 6
        monkeypatch.undo()
        clear_size_scores()  # solve again from a fill without the fault
        assert solve(ci, ProblemSpec.max_partition(2)).value == 8


class TestDiagonalRefill:
    """The rank DP solves one size k, one diagonal of the level tables: it
    handles each state by the width of its window, and its forward pass
    chooses each count by one rule, the smallest reaching the optimum."""

    # On each instance, under both objectives and on plain and reflected
    # coordinates, the path of diagonal k's profile, the root included,
    # passes a state of the named class with a known answer: a one-entry
    # window whose only r0 is lo > 0, a two-entry window whose candidates
    # tie, and a wider window whose best score is tied and first reached
    # past lo.
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
        profile = rankdp.solve_size(ci, k, objective)[1]
        known = 0
        for lo, candidates, r0 in path_windows(ci, k, objective, profile):
            best = max(candidates)
            first = candidates.index(best)
            assert r0 == lo + first
            if min(len(candidates), 3) != width:
                continue
            if width == 1:
                known += lo > 0
            else:
                known += candidates.count(best) > 1 and (width == 2 or first > 0)
        assert known

    @pytest.mark.parametrize("reflected", [False, True])
    @pytest.mark.parametrize("objective", list(Objective))
    def test_narrow_windows_call_no_max_or_min(self, builtin_calls, objective, reflected):
        # All-distinct input has windows of one or two entries only, and the
        # rank DP decides those without a max()/min() call, in its backward
        # pass and in its forward pass alike.
        sign = -1 if reflected else 1
        for xs in (range(40), (-7, 3, 4, 10, 11, 25, 60), (0, 1 << 40, -(1 << 40))):
            ci = ci_of(*[sign * x for x in xs])
            for k in range(ci.n + 1):
                rankdp.solve_size(ci, k, objective)
        assert builtin_calls == []
        # Two copies of each value: size 3 has three-entry windows, i' in
        # i..i + 2, from the very first value on.
        ci = ci_of(*[sign * x for x in (0, 0, 1, 1, 2, 2)])
        rankdp.solve_size(ci, 3, objective)
        assert builtin_calls and set(builtin_calls) == {max}

    # Medium n, past the oracle's and the hypothesis strategies' reach: every
    # generator kind, and n = 240 on eight values, the multiplicities ramped
    # up as in the benchmark's duplicate-heavy decks.
    @pytest.mark.parametrize(
        "kind, n",
        [
            *[
                pytest.param(kind, n, id=f"{n}-{kind.value}")
                for n in (40, 61, 80, 150)
                for kind in GenKind
            ],
            pytest.param("multiset", 240, id="240-multiset"),
        ],
    )
    def test_medium_instances_match_scalar_scan(self, kind, n):
        if kind == "multiset":
            mults = (10, 16, 22, 28, 32, 36, 44, 52)
            xs = sorted(random.Random(n).sample(range(-(10**6), 10**6), len(mults)))
            ci = ci_of(*[x for x, m in zip(xs, mults) for _ in range(m)])
            assert ci.n == n
        else:
            ci = compress(generate(GenSpec(kind, n, 10**4, derive_seed(7, n))))
        assert_matches_scalar_scan(ci)


# Up to 40 points, all distinct or few values with many copies, whose
# windows are wider than two entries.
capped_cis = st.one_of(
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=40, unique=True),
    st.lists(st.integers(0, 5), min_size=1, max_size=40),
).map(lambda xs: ci_of(*xs))


class TestSizeCap:
    """A question that reads the sizes up to K fills only the diagonals up
    to K: min(k, n - k) for an exact size k, n // 2 for max-cut and
    bisections."""

    @given(capped_cis)
    @example(ci_of(*[0] * 9, *[1] * 9, *[2] * 9, 3))
    @example(ci_of(*range(40)))
    # Level 3 has big = 13 <= 2K for K = 7..9: its rows p = 4..6 have a high
    # part and four-entry windows that start inside a block, read through
    # suf(x) and pre(y).
    @example(ci_of(*[0] * 10, *[1] * 3, *[2] * 8))
    def test_scores_up_to_K_match_the_whole_fill(self, ci):
        n = ci.n
        top = scalar_tables(ci, Objective.MAX)[0][-1]
        reference = tuple(
            max(top[p][k - p] for p in range(k + 1) if p < len(top) and k - p < len(top[0]))
            for k in range(n // 2 + 1)
        )
        clear_size_scores()
        whole = size_scores(ci, n // 2)
        assert whole == reference
        for K in range(n // 2 + 1):
            clear_size_scores()
            assert size_scores(ci, K) == whole[: K + 1]
        clear_size_scores()

    @given(capped_cis)
    @example(ci_of(*[0] * 9, *[1] * 9, *[2] * 9, 3))
    def test_rows_stop_at_diagonal_K(self, ci):
        # Each row the scan's low part, r <= K - p, then its high part, r >=
        # n - K - p: no entry on a diagonal of the band K + 1..n - K - 1.  At
        # K = n // 2 every row is whole.
        n = ci.n
        scalar = scalar_tables(ci, Objective.MAX)[0]
        for K in range(n // 2 + 1):
            prev = base_level(n, K)
            for level in range(2, ci.l + 1):
                prev = fill_level(ci, level, prev, K)
                assert len(prev) == rows_kept(ci, level, K)
                for p, row in enumerate(prev):
                    scalar_row = scalar[level - 1][p]
                    low = min(n - ci.prefix[level - 1], K - p) + 1
                    high = max(low, n - K - p)
                    assert row == scalar_row[:low] + scalar_row[high:]
                    assert len(row) == row_length(ci, level, p, K)
                    stored = [*range(low), *range(high, len(scalar_row))]
                    assert not any(K < p + r < n - K for r in stored)
                if K == n // 2:
                    assert all(len(row) == n - ci.prefix[level - 1] + 1 for row in prev)

    def test_band_is_never_filled(self):
        # A count of table entries, not a timing: all-distinct n = 112, the
        # computed rows p <= min(big // 2, K) of every level.  At K = 28 the
        # rows skip the band of diagonals 29..83; at K = 56 it is empty and
        # every row is whole.
        ci = ci_of(*range(112))

        def computed(K):
            prev, total = base_level(ci.n, K), 0
            for level in range(2, ci.l + 1):
                prev = fill_level(ci, level, prev, K)
                last = min(ci.prefix[level - 1] // 2, K)
                total += sum(map(len, prev[: last + 1]))
            return total

        assert computed(28) == 41383
        assert computed(56) == 124907

    def test_small_K_fills_a_twentieth_of_the_entries(self):
        # A count of table entries, not a timing: all-distinct n = 100,
        # max-partition k = 5 against the bisection.
        ci = ci_of(*range(100))

        def entries(K):
            prev, total = base_level(ci.n, K), 0
            for level in range(2, ci.l + 1):
                prev = fill_level(ci, level, prev, K)
                total += sum(map(len, prev))
            return total

        assert entries(5) * 20 < entries(50)


class TestScanRoots:
    def test_unconstrained(self, fresh_scores):
        scores = size_scores(ci_of(0, 1, 2), 1)
        assert scores == (0, 3)
        sizes, value = scan_roots(scores, ProblemSpec.max_cut(), 3)
        assert value == 3
        assert sizes == [1, 2]

    def test_exact_k(self, fresh_scores):
        scores = size_scores(ci_of(0, 1, 2, 3), 2)
        assert scores == (0, 6, 8)
        assert scan_roots(scores, ProblemSpec.max_partition(2), 4) == ([2], 8)
        assert scan_roots(scores, ProblemSpec.max_partition(0), 4) == ([0], 0)
        # Size 3 scores what size 1 does.
        assert scan_roots(scores, ProblemSpec.max_partition(3), 4) == ([3], 6)

    def test_bad_k(self, fresh_scores):
        scores = size_scores(ci_of(0, 1), 1)
        with pytest.raises(InvalidK):
            scan_roots(scores, ProblemSpec.max_partition(5), 2)


class TestOneFillPerInstance:
    """``size_scores`` fills once per instance for every size up to the
    largest one asked so far."""

    def test_all_specs_fill_once(self, monkeypatch, fresh_scores):
        fills = []
        exact = solver.fill_tables

        def counted(ci, K):
            fills.append(K)
            return exact(ci, K)

        monkeypatch.setattr(solver, "fill_tables", counted)
        ci, other = ci_of(0, 0, 1, 3, 3, 3, 7, 12), ci_of(4, 4, 9)
        # Max-cut first, as verify asks: it fills every size up to n // 2.
        for spec in all_specs(ci.n):
            solve(ci, spec)
        assert fills == [4]
        # An equal instance built anew is the same key, and a minimisation
        # reads no scores.
        solve(ci_of(12, 7, 3, 3, 3, 1, 0, 0), ProblemSpec.max_partition(4))
        solve(other, ProblemSpec.min_partition(1))
        assert fills == [4]
        # A max-partition with K < n // 2 fills up to K only, so max-cut
        # after it fills again; sizes up to n // 2 are then all answered.
        solve(other, ProblemSpec.max_partition(0))
        solve(other, ProblemSpec.max_cut())
        for spec in all_specs(other.n):
            solve(other, spec)
        assert fills == [4, 0, 1]

    @given(st.one_of(compressed_instances(max_n=10), duplicate_heavy_cis))
    def test_answers_do_not_depend_on_call_order(self, ci):
        specs = all_specs(ci.n)

        def answers(order, clear):
            out = {}
            for spec in order:
                if clear:
                    clear_size_scores()
                sol = solve(ci, spec)
                out[spec] = (sol.value, sol.profile)
            return out

        clear_size_scores()
        forwards = answers(specs, clear=False)
        assert answers(specs[::-1], clear=False) == forwards
        assert answers(specs, clear=True) == forwards

    @pytest.mark.parametrize("kind", list(GenKind), ids=lambda kind: kind.value)
    @pytest.mark.parametrize("objective", list(Objective))
    def test_scores_are_the_diagonal_maxima(self, kind, objective, fresh_scores):
        cis = [
            compress(generate(GenSpec(kind, n, 10**4, derive_seed(11, n))))
            for n in (1, 2, 3, 8, 13, 31, 48, 60)
        ]
        # The last multiplicity above n / 2, one value (l = 1), and a last
        # multiplicity of 1.
        for mults in ((1, 5), (4, 1, 9), (7,), (5, 1)):
            cis.append(ci_of(*[x for x, m in zip((0, 3, 10), mults) for _ in range(m)]))
        for ci in cis:
            n = ci.n
            top = fill_tables(signed_gaps(ci, objective), n // 2)
            # The rows p <= n // 2 hold every state of the sizes k <= n // 2.
            assert len(top) == min(ci.prefix[-2], n // 2) + 1
            diagonals = [[] for _ in range(n // 2 + 1)]
            for p, row in enumerate(top):
                for r, v in enumerate(row[: n // 2 + 1 - p]):
                    diagonals[p + r].append(v)
            # The fold, filled afresh: MIN's stand-in equals no instance.
            clear_size_scores()
            scores = size_scores(signed_gaps(ci, objective), n // 2)
            assert scores == tuple(max(d) for d in diagonals)
            # The rank DP, the only MIN algorithm in solve, agrees at every
            # size, and size k scores what size n - k does.
            assert tuple(scores[min(k, n - k)] for k in range(n + 1)) == tuple(
                rankdp.solve_size(ci, k, objective)[0] for k in range(n + 1)
            )


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
        # Every count, the root's included, the largest that reaches the
        # optimum: the lexicographically largest optimal profile.
        monkeypatch.setattr(
            solver,
            "solve_size",
            lambda ci, k, objective: scalar_backtrack(ci, objective, True)[k],
        )
        assert solve(ci, ProblemSpec.min_partition(2)).profile == (1, 0, 1, 0)
        report = run_verify(6, 20, 0)
        assert not report.ok
        assert "profile" in report.first_failure.detail

    @given(compressed_instances(max_n=10))
    def test_unconstrained_canonical_side(self, ci):
        profile = solve(ci, ProblemSpec.max_cut()).profile
        assert tuple(profile) <= complement_profile(ci, profile)


class TestSelfChecks:
    """``solve`` refuses a maximum that the rank DP, a second exact
    recurrence sharing no code with the fill, does not reach, a minimum that
    one move of a point improves, and a profile that does not sweep to the
    optimum."""

    @pytest.mark.parametrize(
        "spec",
        [ProblemSpec.max_cut(), ProblemSpec.max_partition(2)],
        ids=["max-cut", "max-partition"],
    )
    def test_row_fill_off_by_one(self, monkeypatch, fresh_scores, spec):
        # Every top-table entry one larger: the rank DP's score misses it.
        # fresh_scores: solve must fill through the patch, not read scores
        # an earlier test left for this instance.
        exact = solver.fill_tables

        def inflated(ci, K):
            return [[v + 1 for v in row] for row in exact(ci, K)]

        monkeypatch.setattr(solver, "fill_tables", inflated)
        with pytest.raises(InternalInconsistency):
            solve(ci_of(0, 1, 2, 3), spec)

    def test_improvable_min_profile_fails_the_certificate(self, monkeypatch):
        # A rank DP fault on a minimisation: it returns a size-2 profile that
        # is no minimum, with that profile's true score, so the sweep agrees
        # and only the certificate can refuse it.
        ci = ci_of(0, 1, 2, 3)
        spec = ProblemSpec.min_partition(2)
        assert solve(ci, spec).value == 6
        worse = (1, 1, 0, 0)
        assert cut_value_sweep(ci, worse) == 8
        assert exchange_gain(ci, worse) == 2
        monkeypatch.setattr(
            solver, "solve_size", lambda ci, k, objective: (-8, worse)
        )
        with pytest.raises(InternalInconsistency, match="one move lowers the cut"):
            solve(ci, spec)

    def test_value_the_rank_dp_misses(self):
        # The rank DP's score must be the optimum it is given.
        ci = ci_of(0, 1, 2, 3)
        assert solver.reconstruct(ci, 2, 8) == (0, 0, 1, 1)
        for value in (7, 9):
            with pytest.raises(InternalInconsistency, match="misses the optimum"):
                solver.reconstruct(ci, 2, value)

    def test_profile_failing_the_sweep(self, monkeypatch):
        monkeypatch.setattr(solver, "cut_value_sweep", lambda ci, profile: -1)
        with pytest.raises(InternalInconsistency):
            solve(ci_of(0, 1, 2, 3), ProblemSpec.max_cut())

    def test_rank_dp_imports_nothing_from_the_solver(self):
        # Its score certifies the fill's only while the two share no code.
        # Each import is named by its module and by each name it takes from
        # there, which may be a submodule: ``from . import solver``.
        tree = ast.parse(Path(rankdp.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = ".".join(
                    filter(None, ["linecut" if node.level else "", node.module])
                )
                imported.add(module)
                imported.update(f"{module}.{alias.name}" for alias in node.names)
        assert "linecut.model" in imported
        assert not any(
            name == "linecut.solver" or name.startswith("linecut.solver.")
            for name in imported
        )


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
    def test_raised_levels_are_detected(self, broken_recurrence, monkeypatch):
        # Breaking the recurrence must not go unnoticed: the self-checks
        # inside solve raise on the corrupted fill.
        ci = ci_of(0, 0, 0, 1)
        with pytest.raises(InternalInconsistency):
            solve(ci, ProblemSpec.max_cut())
        monkeypatch.undo()
        clear_size_scores()  # solve again from a fill without the fault
        assert solve(ci, ProblemSpec.max_cut()).value == 3

    def test_raised_levels_are_detected_below_half_size(self, broken_recurrence):
        # Max-partition k = 3 of n = 28 fills up to K = 3: level 3 has rows
        # cut at diagonal K and a four-entry window at p = 3, and every
        # level is raised all the same.
        ci = ci_of(*[0] * 9, *[1] * 9, *[2] * 9, 3)
        big = ci.prefix[2]
        assert row_length(ci, 3, 3, 3) < ci.n - big + 1
        assert window(3, big - 3, ci.mult[1]) == [0, 1, 2, 3]
        with pytest.raises(InternalInconsistency):
            solve(ci, ProblemSpec.max_partition(3))
        # Max-partition k = 7 of n = 28 fills up to K = 7: every row of
        # level 3 (big = 6) holds a high part past the band 8..20, and row
        # 3 has a four-entry window.
        ci = ci_of(*[0] * 3, *[1] * 3, *[2] * 3, *[3] * 19)
        big = ci.prefix[2]
        assert all(row_length(ci, 3, p, 7) > 7 - p + 1 for p in range(big // 2 + 1))
        assert window(3, big - 3, ci.mult[1]) == [0, 1, 2, 3]
        with pytest.raises(InternalInconsistency):
            solve(ci, ProblemSpec.max_partition(7))

    def test_lowered_levels_reach_the_value_check(self, monkeypatch, fresh_scores):
        # Every level one lower: the fill runs to its end with a worse
        # score, below the optimum rather than above it, and only the rank
        # DP's value check can catch it.
        ci = ci_of(0, 1, 2, 3)
        spec = ProblemSpec.max_partition(2)
        exact = solver.fill_level

        def lowered(ci, level, prev, K):
            return [[v - 1 for v in row] for row in exact(ci, level, prev, K)]

        monkeypatch.setattr(solver, "fill_level", lowered)
        assert size_scores(ci, 2)[2] == 5  # the optimum is 8
        with pytest.raises(InternalInconsistency, match="score 8 misses the optimum 5"):
            solve(ci, spec)
        monkeypatch.undo()
        clear_size_scores()  # solve again from a fill without the fault
        assert solve(ci, spec).value == 8
