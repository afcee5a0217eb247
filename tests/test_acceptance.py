"""End-to-end acceptance checks, one test per criterion.

Each test appends a single PASS/FAIL line (with its measured runtime) to the
summary section printed after the run.  Budgets are asserted, not advisory.
"""

from __future__ import annotations

import csv
import io
import subprocess
import sys
import time

import pytest

from linecut.errors import UnsupportedProblem
from linecut.gen import GenKind, GenSpec, SplitMix64, derive_seed, generate
from linecut.model import (
    Instance,
    Objective,
    ProblemSpec,
    compress,
    cut_value_naive,
    cut_value_sweep,
)
from linecut.oracle import best_threshold
from linecut.cli import run_bench, run_verify
from linecut.solver import solve

import conftest
from conftest import ci_of


def check(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num} ({name}): {verdict} [{detail}]"
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


_KINDS = (GenKind.UNIFORM, GenKind.DUPLICATES, GenKind.CLUSTERED)
_SPANS = (1, 5, 100, 10**6)


def random_instance(seed: int, idx: int, n_max: int, n_min: int = 1) -> Instance:
    """Seeded mixed-kind instance used by the bulk criteria."""
    rng = SplitMix64(derive_seed(seed, idx))
    n = n_min + rng.below(n_max - n_min + 1)
    span = _SPANS[rng.below(len(_SPANS))]
    kind = _KINDS[idx % len(_KINDS)]
    gen_seed = derive_seed(seed, idx, 1)
    if kind is GenKind.DUPLICATES:
        spec = GenSpec(kind, n, span, gen_seed, distinct_target=1 + rng.below(n))
    elif kind is GenKind.CLUSTERED:
        spec = GenSpec(kind, n, span, gen_seed, clusters=1 + rng.below(4))
    else:
        spec = GenSpec(kind, n, span, gen_seed)
    return generate(spec)


def test_criterion_1_oracle_equivalence():
    budget = 60.0
    t0 = time.perf_counter()
    report = run_verify(n_max=8, trials=500, seed=7)
    elapsed = time.perf_counter() - t0
    ok = report.ok and elapsed < budget
    check(
        1,
        "oracle equivalence",
        ok,
        f"{report.trials} trials, {report.checks} solver-vs-oracle checks, "
        f"{report.failures} failures, {elapsed:.1f}s < {budget:.0f}s",
    )


def test_criterion_2_evaluator_agreement():
    budget = 10.0
    pairs = 10**4
    t0 = time.perf_counter()
    rng = SplitMix64(derive_seed(20260823, 2))
    mismatches = 0
    done = 0
    while done < pairs:
        n = 1 + rng.below(24)
        span = _SPANS[rng.below(len(_SPANS))]
        shift = rng.below(2 * 10**6) - 10**6
        coords = tuple(shift + rng.below(span + 1) for _ in range(n))
        ci = compress(Instance(coords))
        for _ in range(min(5, pairs - done)):
            profile = tuple(rng.below(m + 1) for m in ci.mult)
            if cut_value_sweep(ci, profile) != cut_value_naive(ci, profile):
                mismatches += 1
            done += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < budget
    check(
        2,
        "evaluator agreement",
        ok,
        f"{done} (instance, profile) pairs, {mismatches} mismatches, "
        f"{elapsed:.1f}s < {budget:.0f}s",
    )


def test_criterion_3_reconstruction_consistency():
    budget = 120.0
    solves = 10**3
    t0 = time.perf_counter()
    rng = SplitMix64(derive_seed(20260823, 3))
    bad = 0
    for idx in range(solves):
        problem = idx % 5
        inst = random_instance(987, idx, n_max=200, n_min=2)
        if problem in (1, 2) and inst.n % 2:
            inst = Instance(inst.scaled[:-1], inst.scale_exp)  # bisection wants even n
        ci = compress(inst)
        if problem == 0:
            spec = ProblemSpec.max_cut()
        elif problem == 1:
            spec = ProblemSpec.bisection(Objective.MAX, ci.n)
        elif problem == 2:
            spec = ProblemSpec.bisection(Objective.MIN, ci.n)
        elif problem == 3:
            spec = ProblemSpec.max_partition(rng.below(ci.n + 1))
        else:
            spec = ProblemSpec.min_partition(rng.below(ci.n + 1))
        sol = solve(ci, spec)
        if cut_value_sweep(ci, sol.profile) != sol.value:
            bad += 1
        elif spec.k is not None and sum(sol.profile) != spec.k:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < budget
    check(
        3,
        "reconstruction consistency",
        ok,
        f"{solves} solves (n <= 200, 3 generators, 5 problems), {bad} failures, "
        f"{elapsed:.1f}s < {budget:.0f}s",
    )


def test_criterion_4_hand_anchors():
    t0 = time.perf_counter()
    failures = []

    if solve(ci_of(0, 1, 2), ProblemSpec.max_cut()).value != 3:
        failures.append("{0,1,2} max-cut")
    if solve(ci_of(0, 1, 2, 3), ProblemSpec.bisection(Objective.MAX, 4)).value != 8:
        failures.append("{0,1,2,3} max-bisection")
    if solve(ci_of(0, 1, 2, 3), ProblemSpec.bisection(Objective.MIN, 4)).value != 6:
        failures.append("{0,1,2,3} min-bisection")
    if solve(ci_of(0, 0, 0, 1), ProblemSpec.max_cut()).value != 3:
        failures.append("{0,0,0,1} max-cut")

    coincident = ci_of(5, 5, 5)
    specs = [ProblemSpec.max_cut()]
    specs += [ProblemSpec(o, k) for o in Objective for k in range(4)]
    for spec in specs:
        if solve(coincident, spec).value != 0:
            failures.append(f"{{5,5,5}} {spec}")
    with pytest.raises(UnsupportedProblem):
        ProblemSpec.bisection(Objective.MAX, 3)  # odd n: no bisection to check

    elapsed = time.perf_counter() - t0
    check(
        4,
        "hand-checkable anchors",
        not failures,
        f"4 anchor instances, every problem on the coincident multiset, "
        f"failed: {failures or 'none'}, {elapsed:.1f}s",
    )


def test_criterion_5_invariance_suite():
    t0 = time.perf_counter()
    instances_checked = 200
    shift = 10**6
    scale = 7
    bad = 0
    for idx in range(instances_checked):
        inst = random_instance(555, idx, n_max=100)
        ci = compress(inst)
        n = ci.n
        ks = sorted({0, 1, n // 2, n - 1, n})
        specs = [ProblemSpec.max_cut()]
        specs += [ProblemSpec(o, k) for o in Objective for k in ks]

        translated_up = compress(Instance(tuple(x + shift for x in inst.scaled)))
        translated_dn = compress(Instance(tuple(x - shift for x in inst.scaled)))
        scaled = compress(Instance(tuple(x * scale for x in inst.scaled)))
        reflected = compress(Instance(tuple(-x for x in inst.scaled)))

        for spec in specs:
            base = solve(ci, spec).value
            if solve(translated_up, spec).value != base:
                bad += 1
            if solve(translated_dn, spec).value != base:
                bad += 1
            if solve(scaled, spec).value != scale * base:
                bad += 1
            if solve(reflected, spec).value != base:
                bad += 1
            if spec.k is not None:
                swapped = ProblemSpec(spec.objective, n - spec.k)
                if solve(ci, swapped).value != base:
                    bad += 1
    elapsed = time.perf_counter() - t0
    check(
        5,
        "invariance suite",
        bad == 0,
        f"{instances_checked} instances (n <= 100): translation +/-10^6, "
        f"scaling x7, reflection, side swap; {bad} violations, {elapsed:.1f}s",
    )


def test_criterion_6_decomposition():
    t0 = time.perf_counter()
    instances_checked = 100
    bad = 0
    for idx in range(instances_checked):
        ci = compress(random_instance(666, idx, n_max=60))
        unc = solve(ci, ProblemSpec.max_cut()).value
        best = max(
            solve(ci, ProblemSpec.max_partition(k)).value for k in range(ci.n + 1)
        )
        if unc != best:
            bad += 1
    elapsed = time.perf_counter() - t0
    check(
        6,
        "decomposition",
        bad == 0,
        f"{instances_checked} instances (n <= 60): unconstrained optimum vs "
        f"max over all k; {bad} mismatches, {elapsed:.1f}s",
    )


def test_criterion_7_empirical_complexity():
    budget_400 = 30.0
    lo, hi = 2.5, 4.0
    t0 = time.perf_counter()
    records, slope = run_bench([100, 200, 400], trials=3, seed=0)
    elapsed = time.perf_counter() - t0
    t400 = max(r.elapsed_ns for r in records if r.n == 400) / 1e9
    ok = lo <= slope <= hi and t400 < budget_400
    check(
        7,
        "empirical complexity",
        ok,
        f"all-distinct sizes 100/200/400, fitted log-log slope {slope:.2f} in "
        f"[{lo}, {hi}], slowest n=400 solve {t400:.2f}s < {budget_400:.0f}s, "
        f"total {elapsed:.1f}s",
    )


def test_criterion_8_baseline_bounds():
    t0 = time.perf_counter()
    instances_checked = 500
    violations = 0
    strict_min_wins = 0
    for idx in range(instances_checked):
        ci = compress(random_instance(888, idx, n_max=12))
        specs = [ProblemSpec.max_cut()]
        specs += [ProblemSpec(o, k) for o in Objective for k in range(ci.n + 1)]
        for spec in specs:
            dp = solve(ci, spec).value
            thr = best_threshold(ci, spec).value
            if spec.objective is Objective.MAX:
                if dp < thr:
                    violations += 1
            else:
                if dp > thr:
                    violations += 1
                elif dp < thr:
                    strict_min_wins += 1

    witness = ci_of(0, 1, 2, 3)
    wspec = ProblemSpec.min_partition(2)
    dp_w = solve(witness, wspec).value
    thr_w = best_threshold(witness, wspec).value
    witness_ok = dp_w == 6 and thr_w == 8
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and witness_ok and strict_min_wins >= 1
    check(
        8,
        "baseline bounds",
        ok,
        f"{instances_checked} instances, every feasible problem: {violations} "
        f"bound violations, {strict_min_wins} strict MIN improvements, witness "
        f"{{0,1,2,3}} k=2: dp {dp_w} < threshold {thr_w}, {elapsed:.1f}s",
    )


def _run_cli(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "linecut.cli", *args],
        input=b"",
        capture_output=True,
        timeout=300,
    )


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    problems = []

    gen_args = ["gen", "--kind", "duplicates", "--n", "30", "--span", "5000",
                "--seed", "13", "--distinct-target", "6"]
    first = _run_cli(gen_args)
    second = _run_cli(gen_args)
    if not (first.returncode == second.returncode == 0 and first.stdout == second.stdout):
        problems.append("gen")

    inst = tmp_path / "det.txt"
    inst.write_bytes(first.stdout)
    for cmd in ("solve", "oracle"):
        args = [cmd, "--problem", "min-partition", "--k", "11",
                "--input", str(inst), "--output", "json"]
        a, b = _run_cli(args), _run_cli(args)
        if not (a.returncode == b.returncode == 0 and a.stdout == b.stdout):
            problems.append(cmd)

    verify_args = ["verify", "--n-max", "6", "--trials", "48", "--seed", "21"]
    a, b = _run_cli(verify_args), _run_cli(verify_args)
    if not (a.returncode == b.returncode == 0 and a.stdout == b.stdout):
        problems.append("verify rerun")

    # Bench output embeds wall-clock ns; compare everything except timing.
    bench_args = ["bench", "--sizes", "50", "60", "--trials", "1", "--seed", "3"]

    def strip_timing(raw: bytes) -> list[tuple[str, ...]]:
        lines = [l for l in raw.decode().splitlines() if not l.startswith("#")]
        rows = list(csv.reader(io.StringIO("\n".join(lines))))
        drop = rows[0].index("elapsed_ns")
        return [tuple(c for i, c in enumerate(row) if i != drop) for row in rows]

    a, b = _run_cli(bench_args), _run_cli(bench_args)
    if not (a.returncode == b.returncode == 0 and strip_timing(a.stdout) == strip_timing(b.stdout)):
        problems.append("bench non-timing columns")

    elapsed = time.perf_counter() - t0
    check(
        9,
        "determinism",
        not problems,
        f"byte-identical reruns of gen/solve/oracle, two reruns of verify, "
        f"bench modulo timing columns; failed: {problems or 'none'}, "
        f"{elapsed:.1f}s",
    )
