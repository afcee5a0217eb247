from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from linecut.errors import InstanceEmpty, ParseError, PrecisionError, RangeError
from linecut.formats import (
    format_value,
    parse_instance,
    render_instance,
    render_solution,
)
from linecut.model import (
    MAX_POINTS,
    Instance,
    ProblemSpec,
    Solution,
    compress,
)
from linecut.solver import solve

from conftest import instances, wide_coords


class TestParse:
    def test_plain_lines(self):
        inst = parse_instance("0\n1\n2\n")
        assert sorted(inst.scaled) == [0, 1, 2]
        assert inst.scale_exp == 0

    def test_multiplicity_column(self):
        inst = parse_instance("0 3\n1\n")
        assert sorted(inst.scaled) == [0, 0, 0, 1]

    def test_fixed_point_scaling(self):
        inst = parse_instance("1.5\n-2.25\n")
        assert inst.scale_exp == 2
        assert sorted(inst.scaled) == [-225, 150]

    def test_comments_and_blanks(self):
        inst = parse_instance("# header\n\n3 2 # two copies\n\n# done\n")
        assert sorted(inst.scaled) == [3, 3]

    def test_trailing_zeros_cost_nothing(self):
        inst = parse_instance("1.50\n2.000\n")
        assert inst.scale_exp == 1
        assert sorted(inst.scaled) == [15, 20]

    def test_signs(self):
        inst = parse_instance("+4\n-0.5\n")
        assert inst.scale_exp == 1
        assert sorted(inst.scaled) == [-5, 40]

    @pytest.mark.parametrize(
        "literal, scaled, scale_exp",
        [
            ("+7", 7, 0),
            ("-7", -7, 0),
            ("+0", 0, 0),
            ("-0", 0, 0),
            ("-0.0", 0, 0),
            ("+0.000", 0, 0),
            ("-0.50", -5, 1),
            ("007", 7, 0),
            ("-000.250", -25, 2),
            ("+000000000000001.5", 15, 1),
            ("1.2300", 123, 2),
            ("3.000000000000", 3, 0),
            ("0.000000001", 1, 9),
            ("1099511627776", 1099511627776, 0),
            ("-1099511627776", -1099511627776, 0),
            ("-10995116.27776", -1099511627776, 5),
            ("109951.1627776", 1099511627776, 7),
        ],
    )
    def test_literal_table(self, literal, scaled, scale_exp):
        inst = parse_instance(f"{literal}\n")
        assert (inst.scaled, inst.scale_exp) == ((scaled,), scale_exp)

    def test_malformed_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_instance("1\n2\nx7\n")
        assert err.value.line_no == 3

    def test_bad_multiplicity(self):
        with pytest.raises(ParseError):
            parse_instance("1 0\n")
        with pytest.raises(ParseError):
            parse_instance("1 -2\n")
        with pytest.raises(ParseError):
            parse_instance("1 2 3\n")

    def test_non_ascii_multiplicity(self):
        # "³" passes str.isdigit() but not int().
        with pytest.raises(ParseError) as err:
            parse_instance("0\n1 \u00b3\n")
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("\uff11\uff12\n0\n", 1),  # fullwidth "12"
            ("0\n\u0663\n", 2),  # Arabic-Indic "3"
            ("0\n-1.\u0665\n", 2),  # Arabic-Indic "5" as a fraction digit
            ("0\n\u00b3\n", 2),  # superscript, not a decimal digit
        ],
        ids=["fullwidth", "arabic-indic", "fraction", "superscript"],
    )
    def test_non_ascii_coordinate_digits(self, text, line_no):
        # \d and int() accept every Unicode decimal digit; the format does not.
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line_no == line_no
        assert "bad decimal literal" in str(err.value)

    def test_too_many_fraction_digits(self):
        parse_instance("0.123456789\n")
        with pytest.raises(PrecisionError):
            parse_instance("0.1234567891\n")

    def test_out_of_range(self):
        parse_instance(f"{1 << 40}\n")
        with pytest.raises(RangeError):
            parse_instance(f"{(1 << 40) + 1}\n")
        # In-range integer pushed out of range by another line's precision.
        with pytest.raises(RangeError):
            parse_instance(f"{1 << 40}\n0.5\n")

    def test_point_cap(self):
        half = MAX_POINTS // 2
        assert parse_instance(f"0 {half}\n1 {MAX_POINTS - half}\n").n == MAX_POINTS
        with pytest.raises(RangeError) as err:
            parse_instance(f"0 {half}\n1 {MAX_POINTS + 1 - half}\n")
        assert "line 2" in str(err.value)

    def test_point_cap_precedes_expansion(self):
        # The malformed third line is never reached: the running total is
        # refused while the lines are read, before any multiplicity expands.
        with pytest.raises(RangeError):
            parse_instance(f"0 {MAX_POINTS}\n1\nx7\n")

    def test_oversized_digit_strings(self):
        # Longer than the 4,300 digits int() converts by default: refused by
        # their digit count with a typed error, not a ValueError.
        with pytest.raises(RangeError) as err:
            parse_instance("0\n" + "1" * 5000 + "\n")
        assert "line 2" in str(err.value)
        with pytest.raises(RangeError) as err:
            parse_instance("0 " + "1" * 5000 + "\n")
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize(
        "text, error, length",
        [
            ("0\n1 " + "x" * 100_000 + "\n", ParseError, 100_000),
            ("0 1 " + "2" * 100_000 + "\n", ParseError, 100_004),
            ("x" * 100_000 + "\n", ParseError, 100_000),
            ("0." + "1" * 100_000 + "\n", PrecisionError, 100_002),
        ],
        ids=["multiplicity", "three-fields", "decimal", "fraction"],
    )
    def test_long_fields_are_quoted_in_short(self, text, error, length):
        # A short prefix and the field's length, never the whole field.
        with pytest.raises(error) as err:
            parse_instance(text)
        message = str(err.value)
        assert len(message.encode()) < 200
        assert f"... ({length} characters)" in message

    @pytest.mark.parametrize(
        "text, quoted",
        [
            ("0\n1 2x\n", "'2x'"),
            ("1 2 3\n", "'1 2 3'"),
            ("1e5\n", "'1e5'"),
            ("0.1234567891\n", "'0.1234567891'"),
            ("0\n1 " + "x" * 32 + "\n", repr("x" * 32)),
        ],
    )
    def test_short_fields_are_quoted_in_full(self, text, quoted):
        with pytest.raises((ParseError, PrecisionError)) as err:
            parse_instance(text)
        assert quoted in str(err.value)
        assert "characters)" not in str(err.value)

    def test_zero_padding_is_accepted(self):
        pad = "0" * 5000
        inst = parse_instance(f"{pad}1 {pad}2\n-{pad}3.50\n")
        assert inst.scale_exp == 1
        assert sorted(inst.scaled) == [-35, 10, 10]

    def test_empty(self):
        with pytest.raises(InstanceEmpty):
            parse_instance("# nothing\n\n")


class TestFormatValue:
    def test_examples(self):
        assert format_value(3, 2) == "0.03"
        assert format_value(300, 2) == "3"
        assert format_value(0, 5) == "0"
        assert format_value(-25, 1) == "-2.5"
        assert format_value(10, 0) == "10"
        assert format_value(123456, 3) == "123.456"

    @given(st.integers(-(1 << 50), 1 << 50), st.integers(0, 9))
    def test_exact(self, scaled, scale):
        text = format_value(scaled, scale)
        assert Fraction(text) == Fraction(scaled, 10**scale)
        assert "." not in text or not text.endswith("0")


class TestRenderInstance:
    def test_canonical_form(self):
        inst = Instance((2, 0, 0, 150), scale_exp=1)
        assert render_instance(inst) == "0 2\n0.2\n15\n"

    @given(instances(max_n=14, coord=wide_coords, max_scale=4))
    def test_round_trip_multiset(self, inst):
        text = render_instance(inst)
        back = parse_instance(text)
        original = sorted(Fraction(x, 10**inst.scale_exp) for x in inst.scaled)
        reparsed = sorted(Fraction(x, 10**back.scale_exp) for x in back.scaled)
        assert original == reparsed
        assert render_instance(back) == text


def reference_json(sol, label, elapsed_ns):
    """What render_solution's JSON layout must equal, byte for byte."""
    ci = sol.ci
    assignment = None
    if sol.profile is not None:
        assignment = [
            {
                "x": format_value(x, ci.scale_exp),
                "count_first": a,
                "count_second": m - a,
            }
            for x, m, a in zip(ci.xs, ci.mult, sol.profile)
        ]
    payload = {
        "problem": label if label is not None else sol.spec.canonical_name(),
        "n": ci.n,
        "k": sol.k_actual,
        "value": format_value(sol.value, ci.scale_exp),
        "assignment": assignment,
        "elapsed_ns": elapsed_ns,
    }
    return json.dumps(payload, indent=2) + "\n"


class TestRenderSolution:
    @given(
        instances(max_n=8, max_scale=4),
        st.booleans(),
        st.booleans(),
        st.one_of(st.none(), st.just('é"\\'), st.text(max_size=8)),
        st.one_of(st.none(), st.integers(0, 1 << 62)),
    )
    def test_json_matches_dumps(self, inst, unconstrained, with_assignment, label, ns):
        ci = compress(inst)
        spec = (
            ProblemSpec.max_cut()
            if unconstrained
            else ProblemSpec.min_partition(ci.n // 2)
        )
        sol = solve(ci, spec)
        if not with_assignment:
            sol = replace(sol, profile=None)
        got = render_solution(sol, "json", problem_label=label, elapsed_ns=ns)
        assert got == reference_json(sol, label, ns)

    def test_json_fields(self):
        ci = compress(Instance((0, 10)))
        sol = solve(ci, ProblemSpec.max_cut())
        payload = json.loads(render_solution(sol, "json", problem_label="max-cut"))
        assert payload["problem"] == "max-cut"
        assert payload["n"] == 2
        assert payload["value"] == "10"
        assert payload["elapsed_ns"] is None
        counts = [(e["count_first"], e["count_second"]) for e in payload["assignment"]]
        assert counts == [(0, 1), (1, 0)]

    def test_constrained_counts_sum(self):
        ci = compress(Instance((0, 1, 2, 3)))
        sol = solve(ci, ProblemSpec.min_partition(2))
        payload = json.loads(render_solution(sol, "json"))
        assert payload["value"] == "6"
        first = sum(e["count_first"] for e in payload["assignment"])
        second = sum(e["count_second"] for e in payload["assignment"])
        assert (first, second) == (2, 2)

    def test_scaled_value_rendering(self):
        ci = compress(Instance((0, 1, 2), scale_exp=2))
        sol = solve(ci, ProblemSpec.max_cut())
        payload = json.loads(render_solution(sol, "json"))
        assert payload["value"] == "0.03"
        assert [e["x"] for e in payload["assignment"]] == ["0", "0.01", "0.02"]

    def test_value_only(self):
        ci = compress(Instance((0, 5)))
        sol = replace(solve(ci, ProblemSpec.max_cut()), profile=None)
        payload = json.loads(render_solution(sol, "json"))
        assert payload["assignment"] is None
        text = render_solution(sol, "text")
        assert "assignment: omitted" in text

    def test_text_format(self):
        ci = compress(Instance((0, 10)))
        sol = solve(ci, ProblemSpec.max_cut())
        text = render_solution(sol, "text", elapsed_ns=5)
        assert "problem: max-cut" in text
        assert "value: 10" in text
        assert "elapsed_ns: 5" in text

    def test_timing_off_by_default(self):
        ci = compress(Instance((0, 10)))
        sol = solve(ci, ProblemSpec.max_cut())
        assert "elapsed_ns" not in render_solution(sol, "text")

    def test_unknown_format(self):
        ci = compress(Instance((0, 10)))
        sol = solve(ci, ProblemSpec.max_cut())
        with pytest.raises(ValueError):
            render_solution(sol, "yaml")
