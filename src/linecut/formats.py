"""Instance text format and solution rendering.

Instance files are UTF-8 text, one point per line as ``<decimal>`` or
``<decimal> <multiplicity>``.  ``#`` starts a comment; blank lines are
skipped.  Decimals are stored as integers at a shared power-of-ten scale, so
parsing and rendering are exact (no floats anywhere).
"""

from __future__ import annotations

import re
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from .errors import ParseError, PrecisionError, RangeError
from .model import (
    MAX_ABS_COORD,
    MAX_POINTS,
    MAX_SCALE_EXP,
    Instance,
    Solution,
    compress,
)

# ASCII digits only: \d and str.isdigit() also pass digits such as "１" or
# "٣", which int() reads as 1 and 3, and "³", which int() rejects.
_NUMBER_RE = re.compile(r"([+-]?)([0-9]+)(?:\.([0-9]+))?\Z")
_MULT_RE = re.compile(r"[0-9]+\Z")
# int() refuses digit strings longer than sys.get_int_max_str_digits(), so
# significant digits are counted first: a number with more digits than the
# cap is over it whatever they are.
_COORD_DIGITS = len(str(MAX_ABS_COORD))
_MULT_DIGITS = len(str(MAX_POINTS))
# Error messages quote at most this many characters of the offending text.
_QUOTE_CHARS = 32


def _excerpt(text: str) -> str:
    """``repr`` of ``text``, or of a short prefix plus its length when long."""
    if len(text) <= _QUOTE_CHARS:
        return repr(text)
    return f"{text[:_QUOTE_CHARS]!r}... ({len(text)} characters)"


def parse_instance(text: str) -> Instance:
    """Read instance text into an ``Instance`` with a shared fixed-point scale."""
    rows: list[tuple[int, str, str, str, int]] = []  # line_no, sign, whole, frac, mult
    scale = 0
    total = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) > 2:
            raise ParseError(
                line_no, f"expected 'value [multiplicity]', got {_excerpt(raw)}"
            )
        number = _NUMBER_RE.match(fields[0])
        if not number:
            raise ParseError(line_no, f"bad decimal literal {_excerpt(fields[0])}")
        mult = 1
        if len(fields) == 2:
            digits = fields[1].lstrip("0")
            if not _MULT_RE.match(fields[1]) or not digits:
                raise ParseError(
                    line_no,
                    f"multiplicity must be a positive integer, got {_excerpt(fields[1])}",
                )
            # Past the cap when too long, so the total check below refuses it.
            mult = int(digits) if len(digits) <= _MULT_DIGITS else MAX_POINTS + 1
        total += mult
        if total > MAX_POINTS:
            raise RangeError(
                f"line {line_no}: the instance has more than {MAX_POINTS} points"
            )
        sign, whole, frac = number.groups("")
        # Trailing zeros carry no information, so "1.50" needs one digit, not two.
        frac = frac.rstrip("0")
        if len(frac) > MAX_SCALE_EXP:
            raise PrecisionError(
                f"line {line_no}: {_excerpt(fields[0])} needs {len(frac)} fractional "
                f"digits; at most {MAX_SCALE_EXP} are supported"
            )
        scale = max(scale, len(frac))
        rows.append((line_no, sign, whole, frac, mult))

    coords: list[int] = []
    for line_no, sign, whole, frac, mult in rows:
        digits = (whole + frac.ljust(scale, "0")).lstrip("0")
        if len(digits) > _COORD_DIGITS:
            raise RangeError(
                f"line {line_no}: coordinate with {len(digits)} significant digits "
                f"at scale 10^-{scale} exceeds the supported range"
            )
        scaled = int(sign + (digits or "0"))
        if abs(scaled) > MAX_ABS_COORD:
            raise RangeError(
                f"line {line_no}: coordinate magnitude {abs(scaled)} at scale "
                f"10^-{scale} exceeds the supported range"
            )
        coords.extend([scaled] * mult)
    # Instance rejects the empty multiset itself.
    return Instance(scaled=tuple(coords), scale_exp=scale)


def format_value(scaled: int, scale_exp: int) -> str:
    """Exact decimal string for ``scaled * 10**-scale_exp``."""
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled))
    if scale_exp == 0:
        return sign + digits
    digits = digits.rjust(scale_exp + 1, "0")
    whole, frac = digits[:-scale_exp], digits[-scale_exp:]
    frac = frac.rstrip("0")
    return sign + whole + (f".{frac}" if frac else "")


def render_instance(instance: Instance) -> str:
    """Canonical text for an instance: sorted, merged, multiplicity column when > 1."""
    ci = compress(instance)
    lines = []
    for x, m in zip(ci.xs, ci.mult):
        value = format_value(x, ci.scale_exp)
        lines.append(value if m == 1 else f"{value} {m}")
    return "\n".join(lines) + "\n"


def render_solution(
    sol: Solution,
    fmt: str,
    *,
    problem_label: Optional[str] = None,
    elapsed_ns: Optional[int] = None,
) -> str:
    """Render a solution as JSON or a text summary.

    ``elapsed_ns`` stays null unless explicitly supplied: equal inputs must
    produce byte-identical output, and wall time would break that.
    """
    ci = sol.ci
    label = problem_label if problem_label is not None else sol.spec.canonical_name()
    rows = None
    if sol.profile is not None:
        rows = [
            (format_value(x, ci.scale_exp), a, m - a)
            for x, m, a in zip(ci.xs, ci.mult, sol.profile)
        ]
    value = format_value(sol.value, ci.scale_exp)

    if fmt == "json":
        # The exact layout of json.dumps(payload, indent=2), built directly
        # because an indented dumps runs the pure-Python encoder.
        if rows is None:
            assignment = "null"
        else:
            assignment = "[\n" + ",\n".join(
                f'    {{\n      "x": {_quote(x)},\n'
                f'      "count_first": {first},\n'
                f'      "count_second": {second}\n    }}'
                for x, first, second in rows
            ) + "\n  ]"
        elapsed = "null" if elapsed_ns is None else elapsed_ns
        return (
            f'{{\n  "problem": {_quote(label)},\n'
            f'  "n": {ci.n},\n'
            f'  "k": {sol.k_actual},\n'
            f'  "value": {_quote(value)},\n'
            f'  "assignment": {assignment},\n'
            f'  "elapsed_ns": {elapsed}\n}}\n'
        )
    if fmt != "text":
        raise ValueError(f"unknown output format: {fmt!r}")

    lines = [
        f"problem: {label}",
        f"n: {ci.n}",
        f"k: {sol.k_actual}",
        f"value: {value}",
    ]
    if rows is None:
        lines.append("assignment: omitted")
    else:
        lines.append("assignment (x: first | second):")
        lines.extend(f"  {x}: {first} | {second}" for x, first, second in rows)
    if elapsed_ns is not None:
        lines.append(f"elapsed_ns: {elapsed_ns}")
    return "\n".join(lines) + "\n"
