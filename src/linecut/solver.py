"""Exact dynamic programs for optimal cuts and size-constrained partitions on the line.

Every maximisation runs the level fill.  The solver walks the distinct
coordinates left to right.  A state at level i fixes how many points strictly
left of the level's coordinate go to the first set (p) and how many of the
points at or collapsed onto that coordinate do (r); the second-set counts q
and t follow from the totals.  Collapsing a level onto its left neighbour
changes the cut value by exactly ``gap * (p*t + q*r)`` because interval
lengths add along the line, so level values can be filled bottom-up from a
zero base.  Every row is filled at once from shifted slices of the previous
level: a one-entry window adds one slice to the gap term, a two-entry one
keeps the better of two slices, and a wider one is read from prefix and
suffix maxima over blocks of the previous level's rows, a sliding-window
maximum along its diagonals, by list comprehensions that make at most three
comparisons per state.  Swapping the two sets maps state (p, r) to (q, t)
and leaves ``gap * (p*t + q*r)`` unchanged, so every level table is
centrally symmetric, and only its rows with p <= q are computed; each other
row is its mirror's, read backwards.  A level keeps only the rows read
later: the next level reads no source row past its own big // 2, and the
fold none of the last level past n // 2.

The fill keeps cut values only.  Every transition keeps p + r, the size of
the first set, fixed, so each level is n + 1 independent diagonals, one per
size k, and a state on diagonal k reads only diagonal k of the level
before.  So a question fills only the diagonals up to the largest size K it
reads: min(k, n - k) for an exact size k, since size n - k scores what size
k does, and n // 2 for max-cut and bisections.  Row p holds its diagonals
up to K and, when its mirror row big - p <= K may be kept, the diagonals
from n - K on, which that mirror reads backwards as its own low ones.  The
band of diagonals K + 1..n - K - 1 between them, D = n - 2K - 1 wide, is
the same at every level and never computed.  The low part ends at column
K - p and the high part starts at r = n - K - p, so past the low part
column c holds r = c + D; a source row p - r0 then still sits at offset
r0, and the slices, block maxima and mirrors work on these rows as on
whole ones.  At K = n // 2 the band is empty and every row is whole.
``size_scores`` folds the last level into the maximum cut of each size up
to K, keeping the scores of the most recent instance only: the
maximisations ``verify`` poses on one instance, max-cut first, cost one
fill, and choosing the optimal size is a lookup.

The profile, and a check on the fill's optimum, come from a second exact
recurrence that shares no code with the fill: ``rankdp.solve_size`` returns
the lexicographically smallest optimal profile of one size k, and
``reconstruct`` refuses it unless its cut equals the fill's.  Max-cut runs
it on every size whose cut reaches the optimum and reports the smallest of
their profiles, the profile the exhaustive oracle returns too.  A
minimisation runs the rank DP alone, and ``model.exchange_gain`` certifies
its profile in O(l): a size-k minimum is exactly a profile that no move of
one first-set point improves.

At K = n // 2 the fill's work is about half of ``sum_i (|left_i|+1) *
(n-|left_i|+1)`` states, a few comparisons each whatever the window's
width, so on the order of ``n^2 * l``, which is ``n^3`` for all-distinct
input; the bench harness measures the empirical exponent.  A smaller K
computes at most K + 1 rows per level, each of at most 2K + 2 entries, and
of at most K + 1 unless the level has at most 2K points to its left: O(n *
K^2) states.  Table values are Python integers, so the fill is exact for
every coordinate span.  It holds about one level's rows at a time, each of
at most n + 1 ints: a level releases each row of the one before once its
own rows have passed it.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import add

from .errors import InternalInconsistency
from .model import (
    CompressedInstance,
    Objective,
    ProblemSpec,
    Solution,
    cut_value_sweep,
    exchange_gain,
)
from .rankdp import solve_size


def base_level(n: int, K: int) -> list[list[int]]:
    """Level-1 value table filled up to size K: the single state p = 0, all zero.

    Its row holds r = 0..K and then r = n - K..n, the columns off the band
    K + 1..n - K - 1 (see ``fill_level``): 2K + 2 entries, or n + 1 at K =
    n // 2, where the band is empty and the row is whole.
    """
    return [[0] * (2 * K + 2 if 2 * K + 1 < n else n + 1)]


def fill_level(
    ci: CompressedInstance,
    level: int,
    prev: list[list[int]],
    K: int,
) -> list[list[int]]:
    """Fill one level (>= 2) from the previous level's values, up to size K.

    Returns ``values`` where ``values[p][r]`` is the maximum cut of the
    level's subproblem, for the rows p = 0..reach, reach = min(big,
    ``ci.prefix[level]`` // 2, K): the next level reads no source row past
    its own big // 2, which is ``ci.prefix[level]`` // 2, ``size_scores``
    reads the last level to n // 2, the same rule, and no state of a size
    at most K lies in a row past K.  Exact for arbitrarily large
    coordinates (Python ints).

    The cap: every transition keeps p + r, so a state on diagonal k reads
    only diagonal k of ``prev``, and the scores of the sizes k <= K need
    no state past diagonal K.  But a kept mirror row q = big - p <= K is
    row p read backwards, and its low diagonals are row p's from n - K on.
    So row p holds its low part, r = 0..min(n - big, K - p), and, when q
    <= K, its high part, r = n - K - p..n - big: no row holds a diagonal
    of the band K + 1..n - K - 1 between them, D = n - 2K - 1 wide.  The
    low part ends at column K - p and the high part starts at r = n - K -
    p, so past the low part column c holds r = c + D, the same D at every
    level.  State (p, r) reads source row p - r0 at r + r0, and that row's
    low part ends r0 columns after row p's, so in the columns too it reads
    offset r0, in both parts alike.  A row with a high part reads only
    source rows with one, since their q is no larger, so every shifted
    slice, block-maximum row and mirror below works on these rows as on
    whole ones, cut to the row's length; only the gap terms skip the band,
    as two ranges.  At K = n // 2 the band is empty, D = 0, and every row
    is whole.

    State (p, r) takes r0 of the previous coordinate's m_prev copies into the
    first set and the rest into the second, so its window is the r0 with r0
    <= p and m_prev - r0 <= q; it is never empty, as p + q = big >= m_prev.
    The candidates of a whole row are shifted slices of ``prev``, one per r0
    in the window, and the gap term is an arithmetic progression in r.  A
    one-entry window adds the two with ``map``, and a two-entry window
    keeps the better of two slices, by one comparison per state.

    A wider window is a sliding-window maximum along the diagonals of
    ``prev`` (van Herk; Gil and Werman): state (p, r) reads ``prev[pp][p +
    r - pp]`` over the source rows pp = p - r0 in x..y = p - hi..p - lo.
    The source rows are cut into blocks of w = m_prev + 1 rows, and two
    kinds of row hold, per diagonal, the best over part of a block: pre(y)
    from y's block start to y, indexed by the column of row y, and suf(x)
    from x to its block's end e, indexed by the column of row e.  pre is
    one running row, since y never falls as p grows: each source row
    advances it by one comparison per entry.  A block's suf rows are built
    from e down to x when x enters the block, and each is dropped once
    read, so at most w of them are live.  A window starting at a block
    start lies in that block, and its row is pre(y) plus the gap terms.
    Any other window is no narrower than w, so it runs from x's block into
    the next, and its row keeps the better of pre(y) and suf(x).  That
    covers every window, because only a window narrower than w can lie in
    one block without starting at its start, and every such window starts
    at x = 0: a window is narrower than w only when x = 0, or when y =
    prev_big < p, and then p <= big // 2 forces p < m_prev, so x = 0 again.
    So every state costs at most three comparisons, whatever its window's
    width.  Every block-maximum row reads only source rows in the window
    of the row it serves, and each of those holds every column that row
    reads, so the rows that ``zip`` shortens to the shortest source row
    still cover it.

    ``prev`` is consumed: once row p is stored, source row x - 1 is set to
    None, x = p - hi = max(0, p - m_prev).  x grows by at most one per row,
    and every later read is at or above it: the one- and two-entry slices,
    pre's block start y - y % w and the rows it advances past, and the suf
    rows x..e.  So the rows alive at once are about one level's, and a read
    of a released row would raise a ``TypeError`` rather than return a
    value.  No row of ``prev`` is changed.

    ``prev`` must be rows 0..min(prev_big, big // 2, K) of a centrally
    symmetric level filled up to the same K, ``V[p][r] == V[prev_big -
    p][-1 - r]`` wherever both are present; ``base_level`` and the rows
    every call returns are.  Then the new level is symmetric too, its state
    (p, r) mirroring (q, t) with q = big - p the second-set points left of
    the level's coordinate: only rows p <= min(q, K) are computed, and a
    row q <= reach is row p reversed.
    """
    if not 2 <= level <= ci.l:
        raise InternalInconsistency(f"level {level} outside 2..{ci.l}")
    n = ci.n
    big = ci.prefix[level - 1]
    prev_big = ci.prefix[level - 2]
    # The band of diagonals K + 1..n - K - 1 that no row holds, D wide, and
    # empty at K = n // 2 (see docstring).
    D = n - 2 * K - 1 if 2 * K + 1 < n else 0
    # prev holds its rows up to this level's half, or K, and its row 0 skips
    # the band.  Conditionals, not min(): the fill calls no max() or min().
    prev_reach = prev_big if prev_big < big // 2 else big // 2
    if K < prev_reach:
        prev_reach = K
    prev_rowlen = n - prev_big + 1
    if prev_big <= K:
        prev_rowlen -= D
    elif K + 1 < prev_rowlen:
        prev_rowlen = K + 1
    if len(prev) != prev_reach + 1 or len(prev[0]) != prev_rowlen:
        raise InternalInconsistency("previous level table has wrong shape")
    m_prev = ci.mult[level - 2]
    gap = ci.xs[level - 1] - ci.xs[level - 2]
    rowlen = n - big + 1

    # Rows 0..reach are the ones the next level, or size_scores, reads.
    half = ci.prefix[level] // 2
    reach = big if big < half else half
    if K < reach:
        reach = K
    values = [None] * (reach + 1)
    # Block maxima over the source rows pp = p - r0 (see docstring): pre is
    # pre(pre_y), and sufs holds suf(x) for the rest of x's block, the next
    # x on top.  Both are built as new lists, so no row of prev is changed.
    w = m_prev + 1
    pre = None
    pre_y = -1
    sufs = []
    # Rows p > big // 2 are the mirrors of rows q = big - p (see docstring),
    # and rows p > K hold no size up to K.
    last = big // 2 if big // 2 < K else K
    for p in range(last + 1):
        q = big - p
        # The feasible r0: r0 <= p, and m_prev - r0 <= q.
        lo = m_prev - q if q < m_prev else 0
        hi = p if p < m_prev else m_prev
        # gap * (p * t + q * r) with t = rowlen - 1 - r is start + step * r
        start = gap * p * (rowlen - 1)
        step = gap * (q - p)
        if q > K or not D:
            # No band in the row: it stops at diagonal K, or it is whole.
            length = K - p + 1 if q > K and K - p + 1 < rowlen else rowlen
            terms = (
                range(start, start + step * length, step)
                if step
                else repeat(start, length)
            )
        else:
            # r < low, then r >= low + D: column c past the low part holds
            # r = c + D (see docstring).
            low = K - p + 1
            length = rowlen - D
            terms = (
                chain(
                    range(start, start + step * low, step),
                    range(start + step * (low + D), start + step * rowlen, step),
                )
                if step
                else repeat(start, length)
            )
        # One r0 (row 0, and all of level 2): map(add) is faster here than
        # a comprehension, by about 3% of a multiset solve.
        if hi == lo:
            row = list(map(add, terms, prev[p - lo][lo : lo + length]))
        elif hi == lo + 1:
            # Comparisons in a comprehension, not max() calls, which parse
            # keywords on every call and cost about three times as much.
            a = prev[p - lo][lo : lo + length]
            b = prev[p - hi][hi : hi + length]
            row = [t + (v if v > u else u) for t, u, v in zip(terms, a, b)]
        else:
            # The source window x..y; y never falls as p grows.
            x = p - hi
            y = p - lo
            if pre_y < y:
                if pre_y < y - y % w:
                    pre_y = y - y % w
                    pre = prev[pre_y]
                # pre(pp)[j] is the best of pre(pp - 1)[j + 1] and prev[pp][j].
                for pp in range(pre_y + 1, y + 1):
                    pairs = zip(prev[pp], pre[1:])
                    pre = [v if v > u else u for u, v in pairs]
                pre_y = y
            a = pre[lo : lo + length]
            if x % w:
                if not sufs:
                    # x has just entered its block: suf(pp) for the rows
                    # from the block's end e down to x, each indexed by the
                    # column of row e.
                    e = x - x % w + m_prev
                    suf = prev[e]
                    sufs.append(suf)
                    for pp in range(e - 1, x - 1, -1):
                        pairs = zip(prev[pp][e - pp :], suf)
                        suf = [v if v > u else u for u, v in pairs]
                        sufs.append(suf)
                b = sufs.pop()[x % w : x % w + length]
                row = [t + (v if v > u else u) for t, u, v in zip(terms, a, b)]
            else:
                row = list(map(add, terms, a))
        values[p] = row
        if p < q <= reach:
            values[q] = row[::-1]
        if p > hi:
            # No later row reads below x = p - hi, which never falls.
            prev[p - hi - 1] = None
    return values


def fill_tables(ci: CompressedInstance, K: int) -> list[list[int]]:
    """Fill every level bottom-up, up to size K, and return the last level.

    ``top[p][r]`` is the maximum cut of state (p, r) at the last level, for
    p = 0..min(big, K), K <= n // 2; row p holds r = 0..min(n - big, K -
    p), then r = n - K - p..n - big when p >= big - K, and no diagonal of
    the band K + 1..n - K - 1 between them (see ``fill_level``).  At K = n
    // 2 the band is empty and every row whole.  Each level consumes the
    one before it, so the fill holds about one level's rows at any moment.
    The work is about half of ``sum_i (big_i + 1) * (n - big_i + 1)``
    states at K = n // 2, on the order of ``n^3`` for all-distinct input,
    and O(n * K^2) for a smaller K: at most K + 1 rows per level, each of
    at most 2K + 2 entries.
    """
    top = base_level(ci.n, K)
    for level in range(2, ci.l + 1):
        top = fill_level(ci, level, top, K)
    return top


# The instance and the scores of its sizes 0..K most recently filled.
_kept_scores: tuple = (None, ())


def clear_size_scores() -> None:
    """Forget the scores ``size_scores`` keeps, so its next call fills."""
    global _kept_scores
    _kept_scores = (None, ())


def size_scores(ci: CompressedInstance, K: int) -> tuple[int, ...]:
    """The maximum cut of every first-set size k = 0..K, K <= n // 2.

    Runs ``fill_tables`` up to K and folds the last level into a tuple of K
    + 1 ints: ``scores[k]`` is the best of the states (p, k - p).  Each size
    takes one ``max`` over a strided slice of the rows p <= K, the only
    rows its states lie in and the only rows ``fill_tables`` returns, laid
    end to end.  Each row keeps its low part, r <= K - p, and the rest,
    its high part past the band included, is replaced by padding to n - big
    + 1 entries, so that column r holds r in every row.  A padding entry
    stands for a diagonal past K, so no slice reads it.  Swapping the two
    sets maps size k to size n - k, so a size above n // 2 scores what size
    n - k does.  The rows are dropped on return.

    One instance's scores are kept, those of the largest K asked since it
    was first filled: a call for any K up to that one, on an equal
    instance, is answered from them, so the maximisations posed of one
    instance cost one fill when max-cut comes first.  A larger K fills
    again, and ``clear_size_scores`` forgets them.  Each caller still
    checks the score it reads against its own run of the rank DP, and
    sweeps the profile that run returns.
    """
    global _kept_scores
    kept_ci, kept = _kept_scores
    if K < len(kept) and (kept_ci is ci or kept_ci == ci):
        return kept[: K + 1]
    top = fill_tables(ci, K)
    big = ci.prefix[-2]
    m_last = ci.n - big
    # Each row's entries past diagonal K, its high part included, replaced
    # by padding to a whole row of m_last + 1 entries; no padding entry
    # stands for a diagonal up to K.
    pad = [0] * m_last
    for p, row in enumerate(top):
        row[K - p + 1 :] = pad[K - p :]
    # Rows p <= K end to end: state (p, k - p) sits at k + p * m_last, so
    # size k's states are every m_last-th entry, p from lo to hi.
    flat = list(chain.from_iterable(top))
    scores = []
    for k in range(K + 1):
        lo = k - m_last if k > m_last else 0
        hi = k if k < big else big
        scores.append(max(flat[k + lo * m_last : k + hi * m_last + 1 : m_last]))
    scores = tuple(scores)
    _kept_scores = ci, scores
    return scores


def scan_roots(
    scores: tuple[int, ...], spec: ProblemSpec, n: int
) -> tuple[list[int], int]:
    """Return ``(sizes, cut)``: the maximum cut and the sizes reaching it.

    ``scores[k]`` is the maximum cut of first-set size k, as ``size_scores``
    returns it for the sizes 0..K that ``spec`` reads: K = min(k, n - k)
    for an exact size k, which scores what size n - k does, and n // 2
    unconstrained.  Exact size k: ``scores[K]`` and the sizes ``[k]``.
    Unconstrained: the best cut and every size reaching it, ascending,
    the sizes above n // 2 read off their mirrors.
    """
    spec.validate_for(n)
    k = spec.k
    if k is not None:
        return [k], scores[min(k, n - k)]
    scores = scores + scores[(n - 1) // 2 :: -1]
    score = max(scores)
    return [k for k, v in enumerate(scores) if v == score], score


def reconstruct(ci: CompressedInstance, k: int, value: int) -> tuple[int, ...]:
    """Lexicographically smallest maximum-cut profile of first-set size k.

    ``value`` is the fill's maximum cut of size k.  The profile and a cut of
    its own come from the rank-coefficient DP, ``rankdp.solve_size``, which
    shares no code with the fill; unless that cut equals ``value``, this
    raises ``InternalInconsistency``.
    """
    score, profile = solve_size(ci, k, Objective.MAX)
    if score != value:
        raise InternalInconsistency(
            f"the rank DP's size-{k} score {score} misses the optimum {value}"
        )
    return profile


def solve(ci: CompressedInstance, spec: ProblemSpec) -> Solution:
    """Solve the cut problem exactly.

    The profile is the lexicographically smallest optimal one; for max-cut,
    the smallest over every optimal first-set size.  A maximisation fills
    the sizes up to K = min(k, n - k) for an exact size k, so O(n * K^2)
    states, and up to n // 2 for max-cut.  A minimisation is the rank DP's,
    and its profile must pass ``exchange_gain``.
    """
    spec.validate_for(ci.n)
    if spec.objective is Objective.MIN:
        score, profile = solve_size(ci, spec.k, Objective.MIN)
        value = -score
        if exchange_gain(ci, profile):
            raise InternalInconsistency(
                f"one move lowers the cut of the rank DP's size-{spec.k} minimum"
            )
    else:
        K = ci.n // 2 if spec.k is None else min(spec.k, ci.n - spec.k)
        sizes, value = scan_roots(size_scores(ci, K), spec, ci.n)
        profile = min(reconstruct(ci, k, value) for k in sizes)
    if cut_value_sweep(ci, profile) != value:
        raise InternalInconsistency("reconstructed profile does not evaluate to the optimum")
    return Solution(
        ci=ci, spec=spec, value=value, k_actual=sum(profile), profile=profile
    )
