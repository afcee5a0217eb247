"""Command-line front end and the verify/bench harnesses.

Subcommands: ``solve`` (exact optimum), ``oracle`` (exhaustive cross-check),
``verify`` (randomised solver-vs-oracle sweep), ``gen`` (seeded instances),
``bench`` (empirical complexity fit).  ``solve`` and ``oracle`` share one
handler and differ only in the solver called.  Exit codes: 0 success,
1 solver, validation or input-file error, 2 usage error.

``verify`` and ``bench`` run their trials in order in the calling process.

Output is byte-deterministic for equal inputs and flags; wall-clock fields
appear only under ``--timing`` (solve/oracle) or in bench's timing columns.
"""

from __future__ import annotations

import argparse
import csv
import math
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

from . import oracle
from .errors import LinecutError, InternalInconsistency
from .formats import parse_instance, render_instance, render_solution
from .gen import GenKind, GenSpec, SplitMix64, check_seed, derive_seed, generate
from .model import (
    CompressedInstance,
    Instance,
    Objective,
    ProblemSpec,
    compress,
    cut_value_naive,
)
from .solver import solve

BENCH_MIN_SIZE = 50
BENCH_SPAN = 10**9


class _UsageError(Exception):
    """Bad flag combination caught after argparse."""


def _spec_label(spec: ProblemSpec) -> str:
    if spec.k is None:
        return spec.canonical_name()
    return f"{spec.canonical_name()} k={spec.k}"


# ---------------------------------------------------------------- verify


@dataclass(frozen=True)
class VerifyFailure:
    trial: int
    problem: str
    detail: str
    instance_text: str


@dataclass(frozen=True)
class VerifyReport:
    trials: int
    checks: int
    failures: int
    first_failure: Optional[VerifyFailure]

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def render(self) -> str:
        lines = [
            f"trials: {self.trials}",
            f"checks: {self.checks}",
            f"failures: {self.failures}",
            f"result: {'PASS' if self.ok else 'FAIL'}",
        ]
        if self.first_failure is not None:
            f = self.first_failure
            lines += [
                f"first counterexample: trial {f.trial}, problem {f.problem}",
                f"detail: {f.detail}",
                "instance:",
                f.instance_text.rstrip("\n"),
            ]
        return "\n".join(lines) + "\n"


_VERIFY_KINDS = (GenKind.UNIFORM, GenKind.DUPLICATES, GenKind.CLUSTERED)
_VERIFY_SPANS = (1, 4, 30, 10**6)


def _verify_instance(n_max: int, seed: int, idx: int) -> Instance:
    """Seeded trial instance; the kind cycles so all generators get exercised."""
    rng = SplitMix64(derive_seed(seed, idx))
    n = 1 + rng.below(n_max)
    span = _VERIFY_SPANS[rng.below(len(_VERIFY_SPANS))]
    kind = _VERIFY_KINDS[idx % len(_VERIFY_KINDS)]
    gen_seed = derive_seed(seed, idx, 1)
    if kind is GenKind.DUPLICATES:
        gspec = GenSpec(kind, n, span, gen_seed, distinct_target=1 + rng.below(n))
    elif kind is GenKind.CLUSTERED:
        gspec = GenSpec(kind, n, span, gen_seed, clusters=1 + rng.below(3))
    else:
        gspec = GenSpec(kind, n, span, gen_seed)
    return generate(gspec)


def _verify_problems(n: int) -> list[ProblemSpec]:
    specs = [ProblemSpec.max_cut()]
    for k in range(n + 1):
        specs.append(ProblemSpec.max_partition(k))
        specs.append(ProblemSpec.min_partition(k))
    return specs


def _verify_trial(idx: int, n_max: int, seed: int) -> tuple[int, list[VerifyFailure]]:
    inst = _verify_instance(n_max, seed, idx)
    ci = compress(inst)
    checks = 0
    failures: list[VerifyFailure] = []

    def fail(problem: str, detail: str) -> None:
        failures.append(VerifyFailure(idx, problem, detail, render_instance(inst)))

    for spec in _verify_problems(ci.n):
        checks += 1
        label = _spec_label(spec)
        try:
            got = solve(ci, spec)
            want = oracle.oracle_solve(ci, spec)
        except LinecutError as exc:
            fail(label, f"exception: {exc}")
            continue
        if got.value != want.value:
            fail(label, f"solver value {got.value} != oracle value {want.value}")
            continue
        if got.profile != want.profile:
            fail(label, f"solver profile {got.profile} != oracle profile {want.profile}")
            continue
        # Reconstruction re-checked here with the pairwise evaluator, which
        # shares nothing with either the recurrence or the oracle's sweep.
        if cut_value_naive(ci, got.profile) != got.value:
            fail(label, f"profile {got.profile} does not evaluate to {got.value}")
        elif spec.k is not None and sum(got.profile) != spec.k:
            fail(label, f"profile {got.profile} has size {sum(got.profile)} != k")
    return checks, failures


def run_verify(n_max: int, trials: int, seed: int) -> VerifyReport:
    """Compare solve against the oracle on seeded instances, every problem each."""
    if n_max < 1:
        raise LinecutError(f"n_max must be >= 1, got {n_max}")
    # n_max distinct points have 2**n_max profiles, more than the oracle's cap
    # exactly when n_max >= cap.bit_length(); such trials would fail in the
    # oracle, not in the solver.
    if n_max >= oracle.PROFILE_CAP.bit_length():
        raise LinecutError(
            f"n_max={n_max} needs up to 2**{n_max} oracle profiles, "
            f"over the cap of {oracle.PROFILE_CAP}"
        )
    if trials < 1:
        raise LinecutError(f"trials must be >= 1, got {trials}")
    check_seed(seed)
    checks = 0
    all_failures: list[VerifyFailure] = []
    for idx in range(trials):
        trial_checks, failures = _verify_trial(idx, n_max, seed)
        checks += trial_checks
        all_failures += failures
    return VerifyReport(
        trials=trials,
        checks=checks,
        failures=len(all_failures),
        first_failure=all_failures[0] if all_failures else None,
    )


# ---------------------------------------------------------------- bench


class BenchRecord(NamedTuple):
    """One timed solve; the field order is bench's CSV column order."""

    n: int
    l: int
    kind: str
    seed: int
    problem: str
    elapsed_ns: int
    value: int


def _distinct_uniform(n: int, seed: int, trial: int) -> tuple[CompressedInstance, GenSpec]:
    """Compressed uniform instance, all points distinct; deterministic retry on collision."""
    for attempt in range(64):
        gspec = GenSpec(
            GenKind.UNIFORM, n, BENCH_SPAN, derive_seed(seed, n, trial, attempt)
        )
        ci = compress(generate(gspec))
        if ci.l == n:
            return ci, gspec
    raise LinecutError(f"could not draw {n} distinct points from span {BENCH_SPAN}")


def run_bench(
    sizes: Sequence[int], trials: int, seed: int
) -> tuple[list[BenchRecord], float]:
    """Time bisection solves on all-distinct instances; fit log(time) vs log(n).

    All-distinct input pins l = n, the regime the cubic work estimate is
    stated for.  Runs sequentially on purpose: parallel trials would share
    cores and corrupt the very quantity being measured.
    """
    sizes = list(sizes)
    if len(sizes) < 2:
        raise LinecutError("bench needs at least two sizes to fit a slope")
    if sizes != sorted(set(sizes)):
        raise LinecutError(f"sizes must be strictly ascending, got {sizes}")
    for s in sizes:
        if s < BENCH_MIN_SIZE:
            raise LinecutError(f"sizes must be >= {BENCH_MIN_SIZE}, got {s}")
        if s % 2 != 0:
            raise LinecutError(f"bisection benchmarks need even sizes, got {s}")
    if trials < 1:
        raise LinecutError(f"trials must be >= 1, got {trials}")
    check_seed(seed)

    records: list[BenchRecord] = []
    medians: list[float] = []
    for size in sizes:
        spec = ProblemSpec.bisection(Objective.MAX, size)
        times: list[int] = []
        for trial in range(trials):
            ci, gspec = _distinct_uniform(size, seed, trial)
            t0 = time.perf_counter_ns()
            sol = solve(ci, spec)
            elapsed = max(1, time.perf_counter_ns() - t0)
            if cut_value_naive(ci, sol.profile) != sol.value:
                raise InternalInconsistency(
                    f"bench re-evaluation mismatch at n={size}, trial {trial}"
                )
            records.append(
                BenchRecord(
                    n=size,
                    l=ci.l,
                    kind=GenKind.UNIFORM.value,
                    seed=gspec.seed,
                    problem="max-bisection",
                    elapsed_ns=elapsed,
                    value=sol.value,
                )
            )
            times.append(elapsed)
        medians.append(statistics.median(times))
    fit = statistics.linear_regression(
        [math.log(s) for s in sizes], [math.log(m) for m in medians]
    )
    return records, fit.slope


# ---------------------------------------------------------------- commands


def _read_instance(path: str) -> Instance:
    if path == "-":
        text = sys.stdin.read()
    else:
        text = Path(path).read_text(encoding="utf-8")
    return parse_instance(text)


def _spec_from_args(args: argparse.Namespace, n: int) -> ProblemSpec:
    problem = args.problem
    k = args.k
    if problem in ("max-partition", "min-partition"):
        if k is None:
            raise _UsageError(f"--problem {problem} requires --k")
        objective = Objective.MAX if problem == "max-partition" else Objective.MIN
        return ProblemSpec(objective, k)
    if k is not None:
        raise _UsageError(f"--k does not apply to --problem {problem}")
    if problem == "max-cut":
        return ProblemSpec.max_cut()
    objective = Objective.MAX if problem == "max-bisection" else Objective.MIN
    return ProblemSpec.bisection(objective, n)


def _cmd_solve(args: argparse.Namespace) -> int:
    """Serve ``solve`` and ``oracle``; only ``solve`` has ``--no-assignment``."""
    ci = compress(_read_instance(args.input))
    spec = _spec_from_args(args, ci.n)
    t0 = time.perf_counter_ns()
    if args.command == "oracle":
        sol = oracle.oracle_solve(ci, spec)
    else:
        sol = solve(ci, spec)
        if args.no_assignment:
            sol = replace(sol, profile=None)
    elapsed = time.perf_counter_ns() - t0 if args.timing else None
    sys.stdout.write(
        render_solution(sol, args.output, problem_label=args.problem, elapsed_ns=elapsed)
    )
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    gspec = GenSpec(
        kind=GenKind(args.kind),
        n=args.n,
        span=args.span,
        seed=args.seed,
        distinct_target=args.distinct_target,
        clusters=args.clusters,
    )
    sys.stdout.write(render_instance(generate(gspec)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_verify(args.n_max, args.trials, args.seed)
    sys.stdout.write(report.render())
    return 0 if report.ok else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    records, slope = run_bench(args.sizes, args.trials, args.seed)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(BenchRecord._fields)
    writer.writerows(records)
    sys.stdout.write(f"# log-log slope: {slope:.4f}\n")
    return 0


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", default="-", metavar="FILE",
                   help="instance file, '-' for stdin (default)")
    p.add_argument("--output", choices=("text", "json"), default="text",
                   help="output format (default text)")
    p.add_argument("--problem", required=True,
                   choices=("max-cut", "max-bisection", "min-bisection",
                            "max-partition", "min-partition"))
    p.add_argument("--k", type=int, default=None,
                   help="first-set size for max-/min-partition")
    p.add_argument("--timing", action="store_true",
                   help="report wall time (output is then not byte-reproducible)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linecut",
        description="Exact cuts and size-constrained partitions of points on a line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance exactly")
    _add_instance_args(p)
    p.add_argument("--no-assignment", action="store_true",
                   help="print the optimal value and size only")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive reference solver (small instances)")
    _add_instance_args(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("--kind", required=True, choices=[k.value for k in GenKind])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--span", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--distinct-target", type=int, default=None,
                   help="support size for --kind duplicates")
    p.add_argument("--clusters", type=int, default=None,
                   help="cluster count for --kind clustered")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="randomised solver-vs-oracle comparison")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time solves and fit the growth exponent")
    p.add_argument("--sizes", type=int, nargs="+", required=True)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def dispatch(argv: Sequence[str]) -> int:
    try:
        args = build_parser().parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (LinecutError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
