"""The operations the benchmark times, called through linecut's module attributes.

Calls go through ``formats.parse_instance``, ``solver.solve`` and so on, never
through names bound at import, so the traced run can substitute timed
wrappers for exactly these attributes.

Run as a script, this file is the set-up probe: a fresh interpreter imports
linecut, runs one op described on stdin as JSON and prints its output.
"""

from __future__ import annotations

import json
import sys
from typing import Optional

from linecut import formats, model, oracle, solver


def _spec(problem: str, n: int, k: Optional[int]) -> model.ProblemSpec:
    if problem == "max-cut":
        return model.ProblemSpec.max_cut()
    objective = model.Objective.MAX if problem.startswith("max") else model.Objective.MIN
    if problem.endswith("bisection"):
        return model.ProblemSpec.bisection(objective, n)
    return model.ProblemSpec(objective, k)


def solve_op(text: str, problem: str, k: Optional[int]) -> str:
    """The path of ``linecut solve --output json``: text in, rendered JSON out."""
    ci = model.compress(formats.parse_instance(text))
    sol = solver.solve(ci, _spec(problem, ci.n, k))
    return formats.render_solution(sol, "json", problem_label=problem)


def crosscheck_op(text: str, problems) -> list[tuple[str, str]]:
    """Solver and oracle on every problem; returns (solver JSON, oracle JSON) pairs."""
    ci = model.compress(formats.parse_instance(text))
    out = []
    for problem, k in problems:
        spec = _spec(problem, ci.n, k)
        got = solver.solve(ci, spec)
        want = oracle.oracle_solve(ci, spec)
        out.append((
            formats.render_solution(got, "json", problem_label=problem),
            formats.render_solution(want, "json", problem_label=problem),
        ))
    return out


if __name__ == "__main__":
    request = json.load(sys.stdin)
    if request["problems"] is None:
        result = solve_op(request["text"], request["problem"], request["k"])
    else:
        result = crosscheck_op(request["text"], request["problems"])
    json.dump(result, sys.stdout)
