"""Timed wrappers around the module attributes one op calls.

A traced layer's wrapper replaces the attribute on its module, so calls made
inside linecut (``solver.solve`` calling ``scan_roots``, ``oracle_solve``
calling ``cut_value_sweep``) are caught too.  Each span's self time is its
duration minus the time of the spans it encloses, computed when it closes.
Per op and layer, the calls, total and self nanoseconds are kept in memory
and written out when the run ends.  An attribute that does not exist is
reported as an absent layer.
"""

from __future__ import annotations

import importlib
import math
from time import perf_counter_ns

# (layer, linecut module, attribute).  The self time of solver.solve is the
# table fill: everything else solve does is a traced child or negligible.
LAYERS = (
    ("parse", "formats", "parse_instance"),
    ("compress", "model", "compress"),
    ("fill", "solver", "solve"),
    ("roots", "solver", "scan_roots"),
    ("reconstruct", "solver", "reconstruct"),
    ("reverify", "solver", "cut_value_sweep"),
    ("render", "formats", "render_solution"),
    ("oracle", "oracle", "oracle_solve"),
    ("sweep", "oracle", "cut_value_sweep"),
)


def _module(name: str):
    try:
        return importlib.import_module(f"linecut.{name}")
    except ImportError:
        return None


class Tracer:
    """Installs and removes the wrappers and keeps one record per traced op."""

    def __init__(self) -> None:
        self._targets = {layer: (_module(module), attr) for layer, module, attr in LAYERS}
        self.absent = [
            layer for layer, (module, attr) in self._targets.items()
            if not hasattr(module, attr)
        ]
        self.ops: list[dict] = []
        self._originals: dict[str, object] = {}
        self._pass_start = 0
        self._stack: list[list[int]] = []
        self._layers: dict[str, list[int]] = {}
        self._profiles = 0

    def install(self) -> None:
        for layer, (module, attr) in self._targets.items():
            if layer not in self.absent:
                original = getattr(module, attr)
                self._originals[layer] = original
                setattr(module, attr, self._wrap(layer, original))

    def remove(self) -> None:
        for layer, (module, attr) in self._targets.items():
            if layer in self._originals:
                setattr(module, attr, self._originals.pop(layer))

    def begin_op(self) -> None:
        self._layers = {}
        self._profiles = 0

    def end_op(self, item: int, elapsed_ns: int) -> None:
        self.ops.append({
            "item": item,
            "ns": elapsed_ns,
            "layers": self._layers,
            "profiles": self._profiles,
        })

    def _wrap(self, layer, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0]  # nanoseconds spent in enclosed spans
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                record = self._layers.setdefault(layer, [0, 0, 0])
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[0]
                if layer == "oracle" and args:
                    self._profiles += math.prod(m + 1 for m in getattr(args[0], "mult", ()))

        return traced

    def close_pass(self, factor: float) -> None:
        """Attach the pass's reference-speed factor to the ops traced in it."""
        for op in self.ops[self._pass_start:]:
            op["scale"] = factor
        self._pass_start = len(self.ops)

    def self_ms_per_op(self, layer: str) -> float:
        """Mean self time of one layer per traced op, in ms at reference speed."""
        total = sum(op["layers"].get(layer, (0, 0, 0))[2] * op["scale"] for op in self.ops)
        return total / len(self.ops) / 1e6

    def calls_per_op(self, layer: str) -> float:
        return sum(op["layers"].get(layer, (0, 0, 0))[0] for op in self.ops) / len(self.ops)

    def profiles_per_op(self) -> float:
        return sum(op["profiles"] for op in self.ops) / len(self.ops)
