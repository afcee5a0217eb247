"""linecut benchmark: closed-loop workloads over seeded decks, checked against an exact reference.

    python3 perfbench/run.py --workload distinct --seed 1 --seconds 30 --trace 0

One client, one thread: each op starts when the previous one ends.  The loop
makes whole passes over the workload's deck until ``--seconds`` have passed,
so every run does the same mix of work.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates plain and traced passes and prints the
per-layer metrics.  ``--workload all`` runs every workload in turn.  The last
line of stdout is one JSON object; the full record of each run, with its
environment block, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

# Fresh interpreters timed for setup_s; one more runs first, untimed, so
# bytecode caches exist as they would after installation.
SETUP_STARTS = 9
PROBE_TIMEOUT_S = 120

LAYER_MS = ("parse", "compress", "fill", "roots", "reconstruct", "reverify",
            "render", "oracle", "sweep")


class Workload:
    """A deck plus the op and the output checks for each of its items."""

    def __init__(self, name: str, seed: int) -> None:
        import ops
        import workloads

        self.name = name
        self.deck = workloads.build_deck(name, seed)
        self._ops = ops
        self._w = workloads
        self.problems = [
            workloads.crosscheck_problems(item.n) if item.problem is None else None
            for item in self.deck
        ]

    def request(self, index: int) -> dict:
        item = self.deck[index]
        return {"text": item.text, "problem": item.problem, "k": item.k,
                "problems": self.problems[index]}

    def run(self, index: int):
        item = self.deck[index]
        problems = self.problems[index]
        if problems is None:
            return self._ops.solve_op(item.text, item.problem, item.k)
        return self._ops.crosscheck_op(item.text, problems)

    def check(self, index: int, result) -> list[str]:
        item = self.deck[index]
        problems = self.problems[index]
        if problems is None:
            return self._w.check_rendered(item, item.problem, item.k, result)
        errors = []
        for (problem, k), pair in zip(problems, result):
            for rendered in pair:
                errors += self._w.check_rendered(item, problem, k, rendered)
        return errors

    def largest(self) -> int:
        """The item with the most points, then the most distinct values."""
        return max(range(len(self.deck)),
                   key=lambda i: (self.deck[i].n, len(self.deck[i].xs), -i))


class Tally:
    """Latencies, failures and mismatches of the timed ops.

    ``latencies_ns`` are at reference speed (see calibrate.py); the wall
    times they were scaled from are kept in ``wall_ns``.
    """

    def __init__(self) -> None:
        self.latencies_ns: list[float] = []
        self.wall_ns: list[int] = []
        self.scales: list[float] = []
        self.pass_rates: list[float] = []
        self.pass_p50_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []
        self.failures: list[str] = []

    def run_pass(self, work: Workload, tracer=None) -> list[float]:
        """One whole pass over the deck; returns its ops' scaled latencies."""
        done = []
        chunks = []
        for index in range(len(work.deck)):
            self.attempted += 1
            if tracer is not None:
                tracer.begin_op()
            start = perf_counter_ns()
            try:
                result = work.run(index)
            except Exception:
                self.failed += 1
                self.failures.append(traceback.format_exc(limit=4))
                continue
            finally:
                elapsed = perf_counter_ns() - start
                chunks.append(calibrate.timed_chunk())
            if tracer is not None:
                tracer.end_op(index, elapsed)
            done.append(elapsed)
            self.mismatches += work.check(index, result)
        factor = calibrate.scale(chunks)
        if tracer is not None:
            tracer.close_pass(factor)
        scaled = [ns * factor for ns in done]
        if done:
            self.scales.append(factor)
            self.wall_ns += done
            self.latencies_ns += scaled
            self.pass_rates.append(rate(scaled))
            self.pass_p50_ms.append(statistics.median(scaled) / 1e6)
        return scaled


def rate(latencies_ns) -> float:
    return len(latencies_ns) * 1e9 / sum(latencies_ns)


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def probe_setup(work: Workload) -> tuple[list[float], list[float]]:
    """Seconds for fresh interpreters to import linecut and finish deck item 0.

    Returns the times at reference speed and the wall times.  Each start is
    scaled by the mean of the baseline starts just before and after it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    probe = [sys.executable, str(BENCH_DIR / "ops.py")]
    baseline = [sys.executable, *calibrate.BASELINE_ARGS]
    request = json.dumps(work.request(0)).encode()

    def start(cmd, stdin=None) -> tuple[float, bytes]:
        begin = perf_counter()
        proc = subprocess.run(cmd, input=stdin, capture_output=True, env=env,
                              cwd=ROOT, timeout=PROBE_TIMEOUT_S)
        elapsed = perf_counter() - begin
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr.decode()}")
        return elapsed, proc.stdout

    start(probe, request)  # writes the bytecode caches
    before, _ = start(baseline)
    scaled, wall = [], []
    for _ in range(SETUP_STARTS):
        elapsed, out = start(probe, request)
        errors = work.check(0, json.loads(out))
        if errors:
            raise RuntimeError(f"set-up probe output is wrong: {errors[0]}")
        after, _ = start(baseline)
        scaled.append(elapsed * calibrate.BASELINE_REFERENCE_S * 2 / (before + after))
        wall.append(elapsed)
        before = after
    return scaled, wall


def peak_mib(work: Workload, index: int) -> float:
    """tracemalloc peak of one op, in MiB; untimed, since tracing slows it."""
    gc.collect()
    tracemalloc.start()
    try:
        work.run(index)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def environment(work: Workload) -> dict:
    """Versions, cores and the fill backend ``solve(impl="auto")`` picks per deck item."""
    import numpy
    from linecut import formats, model, solver

    kernel = getattr(solver, "_kernel", None)
    have_numba = getattr(kernel, "HAVE_NUMBA", None)
    capacity_ok = getattr(solver, "kernel_capacity_ok", None)
    backends: Counter = Counter()
    for item in work.deck:
        if have_numba is None or capacity_ok is None:
            backends["unknown"] += 1
        else:
            ci = model.compress(formats.parse_instance(item.text))
            backends["kernel" if have_numba and capacity_ok(ci) else "python"] += 1
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": (have_numba if have_numba is not None
                          else importlib.util.find_spec("numba") is not None),
        "backend": dict(backends),
        "cpu_count": os.cpu_count(),
    }


def until_deadline(seconds: float, step) -> None:
    """Call ``step`` (one whole round) until ``seconds`` have passed, at least once."""
    deadline = perf_counter() + seconds
    while True:
        step()
        if perf_counter() >= deadline:
            return


def latency_metrics(latencies_ns) -> dict:
    lat_ms = [ns / 1e6 for ns in latencies_ns]
    return {
        "ops_per_s": (rate(latencies_ns), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
    }


def measure(work: Workload, seconds: float) -> tuple[dict, dict, Tally]:
    setup, setup_wall = probe_setup(work)
    tally = Tally()
    tally.mismatches += work.check(0, work.run(0))  # warm-up, untimed
    gc.collect()
    until_deadline(seconds, lambda: tally.run_pass(work))
    largest = work.largest()
    metrics = latency_metrics(tally.latencies_ns)
    metrics["peak_mib"] = (peak_mib(work, largest), "MiB")
    metrics["setup_s"] = (statistics.median(setup), "s")
    wall = {key: value for key, (value, _) in latency_metrics(tally.wall_ns).items()}
    wall["setup_s"] = statistics.median(setup_wall)
    details = {
        "latency_samples": len(tally.latencies_ns),
        "passes": len(tally.pass_rates),
        "peak_item": largest,
        "setup_samples_s": setup,
        "wall_clock": wall,
        "speed_scale": {"median": statistics.median(tally.scales),
                        "min": min(tally.scales), "max": max(tally.scales)},
        "repeat_spread": {
            "ops_per_s": spread(tally.pass_rates),
            "latency_p50_ms": spread(tally.pass_p50_ms),
            "setup_s": spread(setup),
        },
    }
    return metrics, details, tally


def measure_traced(work: Workload, seconds: float, spans_path: Path) -> tuple[dict, dict, Tally]:
    import tracing

    tracer = tracing.Tracer()
    tally = Tally()
    tally.mismatches += work.check(0, work.run(0))  # warm-up, untimed
    plain: list[float] = []
    traced: list[float] = []

    def pair() -> None:
        # Plain and traced passes alternate, so drift affects both alike.
        plain.extend(tally.run_pass(work))
        tracer.install()
        try:
            traced.extend(tally.run_pass(work, tracer))
        finally:
            tracer.remove()

    gc.collect()
    until_deadline(seconds, pair)
    metrics = {f"{layer}.ms_per_op": (tracer.self_ms_per_op(layer), "ms") for layer in LAYER_MS}
    layer_sums = [sum(self_ns for _, _, self_ns in op["layers"].values()) * op["scale"]
                  for op in tracer.ops]
    metrics.update({
        "oracle.profiles_per_op": (tracer.profiles_per_op(), "count"),
        "sweep.calls_per_op": (tracer.calls_per_op("sweep"), "count"),
        "trace.overhead_pct": ((rate(plain) / rate(traced) - 1) * 100, "%"),
        "trace.layer_sum_p50_ms": (statistics.median(layer_sums) / 1e6, "ms"),
        "trace.untraced_p50_ms": (statistics.median(plain) / 1e6, "ms"),
        "trace.layer_sum_ms_per_op": (statistics.fmean(layer_sums) / 1e6, "ms"),
        "trace.untraced_ms_per_op": (statistics.fmean(plain) / 1e6, "ms"),
    })
    with open(spans_path, "w") as out:
        for op_id, op in enumerate(tracer.ops):
            out.write(json.dumps({"op": op_id, **op}) + "\n")
    details = {
        "traced_ops": len(traced),
        "untraced_ops": len(plain),
        "absent_layers": tracer.absent,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, details, tally


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    build_start = perf_counter()
    work = Workload(name, seed)
    build_s = perf_counter() - build_start
    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        metrics, details, tally = measure_traced(work, seconds, RESULTS / f"{stem}-spans.jsonl")
    else:
        metrics, details, tally = measure(work, seconds)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(work),
        "deck": [{"kind": i.kind, "n": i.n, "l": len(i.xs), "problem": i.problem, "k": i.k}
                 for i in work.deck],
        "deck_build_s": build_s,
        "correct": not tally.mismatches,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()},
        **details,
        "first_mismatches": tally.mismatches[:5],
        "first_failures": tally.failures[:2],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def summary(record: dict) -> str:
    lines = [f"[{record['workload']}] seed {record['seed']}: attempted {record['attempted']}, "
             f"failed {record['failed']}, correct {record['correct']}",
             f"[{record['workload']}] environment {json.dumps(record['environment'])}"]
    for key, metric in record["metrics"].items():
        lines.append(f"[{record['workload']}] {key} = {metric['value']:.6g} {metric['unit']}")
    for key in ("latency_samples", "traced_ops", "wall_clock", "speed_scale", "repeat_spread",
                "absent_layers"):
        if key in record:
            lines.append(f"[{record['workload']}] {key} {json.dumps(record[key])}")
    for text in record["first_mismatches"] + record["first_failures"]:
        lines.append(f"[{record['workload']}] {text}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("distinct", "multiset", "crosscheck", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "linecut" / "__init__.py").is_file():
        print(f"perfbench: no linecut package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = ("distinct", "multiset", "crosscheck") if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(summary(record), flush=True)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{key}": m for r in records for key, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
