from __future__ import annotations

import io
import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

import linecut.cli as cli
import linecut.oracle as oracle
from linecut.cli import (
    BenchRecord,
    dispatch,
    run_bench,
    run_verify,
)
from linecut.errors import LinecutError
from linecut.formats import parse_instance
from linecut.model import MAX_POINTS, Solution


@pytest.fixture
def instance_file(tmp_path):
    def make(text, name="inst.txt"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return make


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_json_output(self, capsys, instance_file):
        path = instance_file("0\n1\n2\n")
        code, out, _ = run_cli(
            capsys, "solve", "--problem", "max-cut", "--input", path, "--output", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["problem"] == "max-cut"
        assert payload["value"] == "3"

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("0\n7\n"))
        code, out, _ = run_cli(capsys, "solve", "--problem", "max-cut", "--output", "json")
        assert code == 0
        assert json.loads(out)["value"] == "7"

    def test_non_ascii_multiplicity_fails_cleanly(self, capsys, monkeypatch):
        # printf '0\n1 ³\n' | linecut solve --problem max-cut: a typed
        # error and exit 1, not a ValueError escaping dispatch.
        monkeypatch.setattr("sys.stdin", io.StringIO("0\n1 ³\n"))
        code, out, err = run_cli(capsys, "solve", "--problem", "max-cut")
        assert code == 1
        assert out == ""
        assert "multiplicity" in err

    @pytest.mark.parametrize(
        "text",
        ["\uff11\uff12\n\u0663\n", "0\n\u0663\n", "0\n1.\u0665\n"],
        ids=["fullwidth", "arabic-indic", "fraction"],
    )
    def test_non_ascii_coordinate_fails_cleanly(self, capsys, monkeypatch, text):
        # printf '１２\n٣\n' | linecut solve --problem max-cut: refused, not
        # read as the points 12 and 3.
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "solve", "--problem", "max-cut")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_point_cap_fails_cleanly(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"0\n1 {MAX_POINTS}\n"))
        code, out, err = run_cli(capsys, "solve", "--problem", "max-cut")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "text",
        ["1" * 5000 + "\n", "0 " + "1" * 5000 + "\n"],
        ids=["coordinate", "multiplicity"],
    )
    def test_oversized_digit_strings_fail_cleanly(self, capsys, instance_file, text):
        path = instance_file(text)
        code, out, err = run_cli(capsys, "solve", "--problem", "max-cut", "--input", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "text",
        [
            "0\n1 " + "x" * 100_000 + "\n",
            "0 1 " + "2" * 100_000 + "\n",
            "x" * 100_000 + "\n",
            "0." + "1" * 100_000 + "\n",
        ],
        ids=["multiplicity", "three-fields", "decimal", "fraction"],
    )
    def test_long_fields_give_short_errors(self, capsys, instance_file, text):
        path = instance_file(text)
        code, out, err = run_cli(capsys, "solve", "--problem", "max-cut", "--input", path)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert len(err.encode()) < 200

    def test_zero_padded_values_are_accepted(self, capsys, instance_file):
        pad = "0" * 5000
        path = instance_file(f"{pad}1 {pad}2\n{pad}4\n")
        code, out, _ = run_cli(
            capsys, "solve", "--problem", "max-cut", "--input", path, "--output", "json"
        )
        assert code == 0
        assert json.loads(out)["value"] == "6"

    def test_odd_bisection_fails_cleanly(self, capsys, instance_file):
        path = instance_file("0\n1\n2\n")
        code, _, err = run_cli(capsys, "solve", "--problem", "min-bisection", "--input", path)
        assert code == 1
        assert "even" in err

    def test_partition_requires_k(self, capsys, instance_file):
        path = instance_file("0\n1\n")
        code, _, err = run_cli(capsys, "solve", "--problem", "max-partition", "--input", path)
        assert code == 2
        assert "--k" in err

    def test_k_rejected_elsewhere(self, capsys, instance_file):
        path = instance_file("0\n1\n")
        code, _, _ = run_cli(
            capsys, "solve", "--problem", "max-cut", "--k", "1", "--input", path
        )
        assert code == 2

    def test_k_out_of_range(self, capsys, instance_file):
        path = instance_file("0\n1\n")
        code, _, err = run_cli(
            capsys, "solve", "--problem", "max-partition", "--k", "9", "--input", path
        )
        assert code == 1
        assert "k=9" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--problem", "max-cut", "--input", "/no/such")
        assert code == 1
        assert err.startswith("error:")

    def test_non_utf8_file(self, capsys, tmp_path):
        # A byte that is not UTF-8 is an input error (exit 1), not a traceback.
        path = tmp_path / "bad.txt"
        path.write_bytes(b"0\n\xff1\n")
        code, out, err = run_cli(capsys, "solve", "--problem", "max-cut", "--input", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_byte_order_mark_file(self, capsys, tmp_path):
        # A UTF-8 byte-order mark before the first line changes nothing.
        outs = []
        for name, prefix in (("plain.txt", b""), ("bom.txt", b"\xef\xbb\xbf")):
            path = tmp_path / name
            path.write_bytes(prefix + b"0\n1\n2.5 2\n")
            code, out, err = run_cli(capsys, "solve", "--problem", "max-cut", "--input", str(path))
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--problem", "max-cut", "--frobnicate")
        assert code == 2

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "bogus")[0] == 2

    def test_no_assignment(self, capsys, instance_file):
        path = instance_file("0\n1\n2\n")
        code, out, _ = run_cli(
            capsys, "solve", "--problem", "max-cut", "--input", path,
            "--output", "json", "--no-assignment",
        )
        assert code == 0
        assert json.loads(out)["assignment"] is None

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("2\n0\n3\n", ["max-cut"]),
            ("0\n3 2\n7\n9\n", ["max-cut"]),
            ("0\n3 2\n7\n9\n", ["min-partition", "--k", "2"]),
        ],
        ids=["max-cut", "max-cut-duplicates", "min-partition-duplicates"],
    )
    def test_no_assignment_keeps_value_and_k(self, capsys, instance_file, text, problem):
        # The flag only drops the assignment from the output.
        path = instance_file(text)
        outputs = []
        for extra in ([], ["--no-assignment"]):
            code, out, _ = run_cli(
                capsys, "solve", "--problem", *problem, "--input", path,
                "--output", "json", *extra,
            )
            assert code == 0
            outputs.append(json.loads(out))
        full, lean = outputs
        assert lean["assignment"] is None
        assert (lean["k"], lean["value"]) == (full["k"], full["value"])

    def test_timing_flag(self, capsys, instance_file):
        path = instance_file("0\n1\n")
        _, out, _ = run_cli(
            capsys, "solve", "--problem", "max-cut", "--input", path,
            "--output", "json", "--timing",
        )
        assert json.loads(out)["elapsed_ns"] > 0

    def test_parse_error_exit(self, capsys, instance_file):
        path = instance_file("zap\n")
        code, _, err = run_cli(capsys, "solve", "--problem", "max-cut", "--input", path)
        assert code == 1
        assert "line 1" in err


class TestOracleCommand:
    def test_matches_solve_value(self, capsys, monkeypatch, tmp_path):
        # Scripted differential check across seeds and problems.
        for seed in range(6):
            code, text, _ = run_cli(
                capsys, "gen", "--kind", "duplicates", "--n", "9",
                "--span", "30", "--seed", str(seed),
            )
            assert code == 0
            assert parse_instance(text).n == 9
            path = tmp_path / f"inst{seed}.txt"
            path.write_text(text, encoding="utf-8")
            for problem, extra in (
                ("max-cut", []),
                ("max-partition", ["--k", "4"]),
                ("min-partition", ["--k", "4"]),
            ):
                values = []
                for cmd in ("solve", "oracle"):
                    code, out, _ = run_cli(
                        capsys, cmd, "--problem", problem, *extra,
                        "--input", str(path), "--output", "json",
                    )
                    assert code == 0
                    values.append(json.loads(out)["value"])
                assert values[0] == values[1]

    def test_timing_flag(self, capsys, instance_file):
        path = instance_file("0\n1\n")
        code, out, _ = run_cli(
            capsys, "oracle", "--problem", "max-cut", "--input", path,
            "--output", "json", "--timing",
        )
        assert code == 0
        assert json.loads(out)["elapsed_ns"] > 0

    def test_no_assignment_is_a_usage_error(self, capsys, instance_file):
        path = instance_file("0\n1\n")
        code, out, _ = run_cli(
            capsys, "oracle", "--problem", "max-cut", "--input", path,
            "--no-assignment",
        )
        assert code == 2
        assert out == ""


class TestGenCommand:
    def test_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--kind", "clustered", "--n", "40",
            "--span", "100000", "--seed", "3", "--clusters", "2",
        )
        assert code == 0
        assert parse_instance(out).n == 40

    def test_invalid_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--kind", "uniform", "--n", "0", "--span", "5", "--seed", "1"
        )
        assert code == 1
        assert "n must be" in err

    def test_deterministic(self, capsys):
        args = ("gen", "--kind", "uniform", "--n", "25", "--span", "99", "--seed", "8")
        assert run_cli(capsys, *args) == run_cli(capsys, *args)


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n-max", "5", "--trials", "12", "--seed", "3"
        )
        assert code == 0
        assert "failures: 0" in out
        assert "result: PASS" in out

    def test_fault_injection_detected(self, faulty_transition):
        report = run_verify(4, 10, 1)
        assert not report.ok
        assert report.first_failure is not None
        assert report.first_failure.instance_text
        assert "result: FAIL" in report.render()

    def test_fault_injection_via_cli(self, capsys, faulty_transition):
        code, out, _ = run_cli(
            capsys, "verify", "--n-max", "4", "--trials", "6", "--seed", "1"
        )
        assert code == 1
        assert "first counterexample" in out

    def test_value_mismatch_is_reported(self, monkeypatch):
        # A solver whose value is off by one, with the oracle's own profile.
        def off_by_one(ci, spec):
            sol = oracle.oracle_solve(ci, spec)
            return replace(sol, value=sol.value + 1)

        monkeypatch.setattr(cli, "solve", off_by_one)
        report = run_verify(4, 3, 0)
        assert not report.ok
        assert report.first_failure.detail.startswith("solver value")
        assert report.first_failure.instance_text

    def test_bad_params(self):
        with pytest.raises(LinecutError):
            run_verify(0, 5, 1)
        with pytest.raises(LinecutError):
            run_verify(5, 0, 1)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_64_bits_refused(self, capsys, seed):
        # SplitMix64 masks its seed, so -1 would alias 2**64 - 1.
        with pytest.raises(LinecutError):
            run_verify(4, 1, seed)
        code, out, err = run_cli(capsys, "verify", "--n-max", "4", "--trials", "1",
                                 "--seed", str(seed))
        assert (code, out) == (1, "")
        assert "seed must fit in 64 bits" in err

    def test_n_max_past_the_oracle_cap_refused(self, capsys, monkeypatch):
        # 2**23 all-distinct profiles exceed the oracle's cap of 2**22.
        with pytest.raises(LinecutError):
            run_verify(23, 1, 0)
        code, out, err = run_cli(capsys, "verify", "--n-max", "23", "--trials", "1")
        assert (code, out) == (1, "")
        assert "cap" in err
        # The cap is read at call time.
        monkeypatch.setattr(oracle, "PROFILE_CAP", 16)
        assert run_verify(4, 3, 0).ok
        with pytest.raises(LinecutError):
            run_verify(5, 1, 0)


class TestBench:
    def test_records_and_slope(self):
        records, slope = run_bench([50, 60], trials=2, seed=5)
        assert len(records) == 4
        for r in records:
            assert r.elapsed_ns > 0
            assert r.l == r.n
            assert r.kind == "uniform"
            assert r.problem == "max-bisection"
        assert isinstance(slope, float)

    def test_slope_of_a_cubic_cost(self, monkeypatch):
        # A size-n solve that costs exactly n**3 ns must fit a slope of 3.
        # The stand-in solve returns the all-second-set profile, value 0, which
        # passes bench's re-evaluation.
        clock = [0]

        def fake_solve(ci, spec):
            clock[0] += ci.n**3
            return Solution(ci=ci, spec=spec, value=0, k_actual=0, profile=(0,) * ci.l)

        monkeypatch.setattr(cli, "solve", fake_solve)
        fake_time = SimpleNamespace(perf_counter_ns=lambda: clock[0])
        monkeypatch.setattr(cli, "time", fake_time)
        records, slope = run_bench([100, 200, 400], 1, 0)
        assert [r.elapsed_ns for r in records] == [100**3, 200**3, 400**3]
        assert slope == pytest.approx(3.0, abs=1e-9)

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--sizes", "50", "60", "--trials", "1", "--seed", "2"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(BenchRecord._fields)
        assert len(lines) == 4  # header + 2 records + slope comment
        assert lines[-1].startswith("# log-log slope:")

    def test_size_rules(self):
        with pytest.raises(LinecutError):
            run_bench([60, 50], 1, 0)  # not ascending
        with pytest.raises(LinecutError):
            run_bench([40, 60], 1, 0)  # below minimum
        with pytest.raises(LinecutError):
            run_bench([50, 61], 1, 0)  # odd size
        with pytest.raises(LinecutError):
            run_bench([50], 1, 0)  # cannot fit slope
        with pytest.raises(LinecutError):
            run_bench([50, 60], 0, 0)  # no trials

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_64_bits_refused(self, capsys, seed):
        with pytest.raises(LinecutError):
            run_bench([50, 60], 1, seed)
        code, out, err = run_cli(capsys, "bench", "--sizes", "50", "60", "--trials", "1",
                                 "--seed", str(seed))
        assert (code, out) == (1, "")
        assert "seed must fit in 64 bits" in err

    def test_record_field_order(self):
        rec = BenchRecord(50, 50, "uniform", 1, "max-bisection", 10, 99)
        assert tuple(rec) == (50, 50, "uniform", 1, "max-bisection", 10, 99)
        assert BenchRecord._fields == (
            "n", "l", "kind", "seed", "problem", "elapsed_ns", "value"
        )
