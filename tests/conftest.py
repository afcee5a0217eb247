from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import settings

import linecut.solver as solver
from linecut.model import CompressedInstance, Instance, Objective, ProblemSpec, compress

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

# Visible one-line verdicts for the acceptance tests, printed after the run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def fresh_scores():
    """Start and end the test with no scores kept by ``solver.size_scores``.

    ``solve`` answers every maximisation on an instance from the scores of
    one fill, kept for the most recent instance.  A test that patches what
    the fill reads must neither be answered from scores filled before its
    patch nor leave scores filled under it to the tests after it.
    """
    solver.clear_size_scores()
    yield
    solver.clear_size_scores()


@pytest.fixture
def broken_recurrence(monkeypatch, fresh_scores):
    """Break the recurrence: every cut each level returns is one higher.

    ``fill_tables`` looks ``fill_level`` up at call time, so every level of
    every fill is raised.  Only the fill is: the rank DP that checks its
    optimum and picks the profile shares no code with it, and a minimisation
    reads no fill at all.  The fill's optimum then exceeds the rank DP's on
    every instance with l >= 2, so every maximisation there raises; an
    instance with l = 1 makes no transition, and its answer, 0, is right
    under the fault too.  The score cache is empty when the fault is
    installed and emptied again at tear-down, so every solve under it fills
    under it and no score filled under it outlives the test; a test that
    undoes the fault and solves an instance it already solved clears the
    cache itself.  The fault passes the size cap K through, so every level
    is raised whatever sizes the question reads.  Checks that must catch a
    broken solver run with this fixture; it only reaches the current
    process.
    """
    exact = solver.fill_level

    def raised(ci, level, prev, K):
        return [[v + 1 for v in row] for row in exact(ci, level, prev, K)]

    monkeypatch.setattr(solver, "fill_level", raised)


def ci_of(*xs: int, scale: int = 0) -> CompressedInstance:
    return compress(Instance(tuple(xs), scale))


def all_specs(n: int) -> list[ProblemSpec]:
    """Max-cut plus max- and min-partition at every size 0..n."""
    return [ProblemSpec.max_cut()] + [
        ProblemSpec(o, k) for o in Objective for k in range(n + 1)
    ]


small_coords = st.integers(min_value=-50, max_value=50)
wide_coords = st.integers(min_value=-(1 << 40), max_value=1 << 40)


@st.composite
def instances(draw, max_n: int = 12, coord=small_coords, max_scale: int = 0):
    n = draw(st.integers(1, max_n))
    xs = draw(st.lists(coord, min_size=n, max_size=n))
    scale = draw(st.integers(0, max_scale)) if max_scale else 0
    return Instance(tuple(xs), scale)


@st.composite
def compressed_instances(draw, max_n: int = 12, coord=small_coords):
    return compress(draw(instances(max_n=max_n, coord=coord)))


@st.composite
def compressed_with_profile(draw, max_n: int = 12, coord=small_coords):
    ci = compress(draw(instances(max_n=max_n, coord=coord)))
    a = tuple(draw(st.integers(0, m)) for m in ci.mult)
    return ci, a
