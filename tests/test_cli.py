import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cedigits
from cedigits.cli import (
    DIGIT_ALPHABET,
    VERIFY_CSV_HEADER,
    main,
    render_digits,
    run_verification,
    write_verification_csv,
)

from conftest import simple_prime_count


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_refused(*argv):
    """(exit code, stdout, stderr) of a command line the parser refuses."""
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code, out.getvalue(), err.getvalue()


# Each command line runs with every integer flag at 10; NUMBER marks the
# one flag written in a form the digit rule refuses.
INTEGER_FLAGS = [
    ("digits", "--spec", "naturals", "--base", "NUMBER", "-n", "10"),
    ("digits", "--spec", "naturals", "--base", "10", "-n", "NUMBER"),
    ("digits", "--spec", "naturals", "--base", "10", "-n", "10", "--max-emit", "NUMBER"),
    ("count", "--spec", "naturals", "--base", "10", "-n", "NUMBER"),
    ("count", "--spec", "naturals", "--base", "10", "-n", "10", "--max-digits", "NUMBER"),
    ("trajectory", "--spec", "naturals", "--base", "16", "--symbol", "NUMBER",
     "--checkpoints", "20"),
    ("verify", "--bases", "2", "--cs", "1", "--max-digits", "NUMBER"),
    ("verify", "--bases", "2", "--cs", "1", "--max-digits", "100", "--max-k", "NUMBER"),
    ("threshold", "--spec", "primes", "--base", "10", "--xs", "10", "--cap", "NUMBER"),
]
# 10 in Arabic-Indic digits, with a separator, with a sign, after a space
NOT_ASCII_DIGITS = ["\u0661\u0660", "1_0", "+10", " 10"]


def flag_id(argv):
    return f"{argv[0]}{argv[argv.index('NUMBER') - 1]}"


class TestDigits:
    def test_champernowne_prefix(self):
        code, out, _ = run_cli(
            "digits", "--sequence", "naturals", "--base", "10", "-n", "25"
        )
        assert code == 0
        assert out == "1234567891011121314151617\n"

    def test_composites_prefix(self):
        code, out, _ = run_cli(
            "digits", "--sequence", "composites", "--base", "10", "-n", "26"
        )
        assert code == 0
        assert out == "46891012141516182021222425\n"

    def test_spec_and_long_n_flags(self):
        code, out, _ = run_cli(
            "digits", "--spec", "naturals", "--base", "10", "--c", "1", "--n", "25"
        )
        assert code == 0
        assert out == "1234567891011121314151617\n"

    def test_binary_with_repetition(self):
        code, out, _ = run_cli(
            "digits", "--sequence", "naturals", "--base", "2", "--c", "3/2", "-n", "5"
        )
        assert code == 0
        assert out == "11010\n"

    def test_decimal_multiplier_parsed_exactly(self):
        code15, out15, _ = run_cli(
            "digits", "--sequence", "naturals", "--base", "2", "--c", "1.5", "-n", "12"
        )
        code32, out32, _ = run_cli(
            "digits", "--sequence", "naturals", "--base", "2", "--c", "3/2", "-n", "12"
        )
        assert code15 == code32 == 0
        assert out15 == out32

    def test_hex_rendering(self):
        code, out, _ = run_cli(
            "digits", "--sequence", "naturals", "--base", "16", "-n", "20"
        )
        assert code == 0
        assert out == "123456789abcdef10111\n"

    def test_large_base_comma_rendering(self):
        code, out, _ = run_cli(
            "digits", "--sequence", "naturals", "--base", "100", "-n", "5"
        )
        assert code == 0
        assert out == "1,2,3,4,5\n"

    def test_base_cap(self):
        code, _, err = run_cli(
            "digits", "--sequence", "naturals", "--base", str(1 << 16), "-n", "5"
        )
        assert code == 2
        assert "cap" in err

    def test_emission_cap(self):
        code, _, err = run_cli(
            "digits", "--sequence", "naturals", "--base", "10",
            "-n", "1000", "--max-emit", "999",
        )
        assert code == 3
        assert "cap" in err

    def test_finite_complement_ends_with_usage_error(self):
        # n + 3 covers every integer from 4 on, so complement:poly:3,1 is
        # 1, 2, 3; a read past them must end rather than look for a gap
        # forever, so the process is stopped from outside if it does not
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(cedigits.__file__).parents[1]), env.get("PYTHONPATH")])
        )

        def digits(n):
            return subprocess.run(
                [sys.executable, "-m", "cedigits.cli", "digits",
                 "--spec", "complement:poly:3,1", "--base", "10", "-n", str(n)],
                capture_output=True, text=True, env=env, timeout=60,
            )

        done = digits(3)
        assert (done.returncode, done.stdout) == (0, "123\n")
        past = digits(4)
        assert past.returncode == 2
        assert "ended at position 3" in past.stderr

    def test_finite_complement_past_the_index_range(self):
        # n + 10**20 covers every integer past 10**20, so the complement is
        # 1..10**20: the naturals' stream, though no len() takes its gaps
        spec = "complement:poly:100000000000000000000,1"
        code, out, err = run_cli("digits", "--spec", spec, "--base", "10", "-n", "30")
        assert (code, out, err) == (0, "123456789101112131415161718192\n", "")
        for base, c in (("10", "1"), ("2", "3/2"), ("257", "1")):
            args = ("--base", base, "--c", c, "-n", "100000")
            counted = run_cli("count", "--spec", spec, *args)
            assert counted[0] == 0
            assert counted == run_cli("count", "--spec", "naturals", *args)

    def test_bad_sequence_is_usage_error(self):
        code, _, err = run_cli(
            "digits", "--sequence", "nope", "--base", "10", "-n", "5"
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "spec,c",
        [("explicit:+2,\u0665", "1"), ("naturals", "1_5/1_0"), ("naturals", "+3/2")],
        ids=["signed-and-arabic-indic-members", "separators-in-c", "signed-c"],
    )
    def test_numbers_take_ascii_digits_only(self, spec, c):
        code, out, err = run_cli("digits", "--sequence", spec, "--base", "10", "--c", c, "-n", "2")
        assert (code, out) == (2, "")
        assert "error" in err

    def test_resume_with_a_base_not_in_ascii_digits_is_usage_error(self, tmp_path):
        state = tmp_path / "cursor.txt"
        state.write_text("position=0 integer=0 rep=0 offset=0 spec=naturals|b=1_0|c=1\n")
        code, out, err = run_cli("digits", "--resume", str(state), "-n", "5")
        assert (code, out) == (2, "")
        assert "error" in err

    def test_out_file(self, tmp_path):
        path = str(tmp_path / "digits.txt")
        code, out, _ = run_cli(
            "digits", "--sequence", "primes", "--base", "10", "-n", "10", "--out", path
        )
        assert code == 0
        assert out == ""
        assert Path(path).read_bytes() == b"2357111317\n"

    @pytest.mark.parametrize("spec,base", [("primes", 10), ("naturals", 37), ("primes", 257)])
    @pytest.mark.parametrize("n", [0, 6, 7, 8, 50])
    def test_chunks_join_to_one_read(self, spec, base, n, tmp_path, monkeypatch):
        # written 7 digits at a time, the output, its file and the
        # checkpoint are those of one read of all n digits
        monkeypatch.setattr(cedigits.cli, "DIGITS_CHUNK", 7)
        path, state = tmp_path / "digits.txt", tmp_path / "cursor.txt"
        argv = ("digits", "--spec", spec, "--base", str(base), "--c", "3/2", "-n", str(n))
        code, out, _ = run_cli(*argv, "--save-cursor", str(state))
        assert code == 0
        assert run_cli(*argv, "--out", str(path)) == (0, "", "")
        number = cedigits.NumberSpec(cedigits.parse_sequence(spec), base, Fraction(3, 2))
        cursor = cedigits.open_stream(number)
        want = render_digits(cursor.read(n), base) + "\n"
        assert out == want and path.read_text(encoding="utf-8") == want
        assert state.read_text(encoding="utf-8") == cursor.checkpoint() + "\n"

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
    def test_peak_memory_does_not_grow_with_n(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(cedigits.__file__).parents[1]), env.get("PYTHONPATH")])
        )
        # the high-water RSS of the process itself: ru_maxrss would keep
        # the peak of the test process that forked it
        script = (
            "import sys\n"
            "from cedigits import cli\n"
            "cli.main(sys.argv[1:])\n"
            "line = [s for s in open('/proc/self/status') if s.startswith('VmHWM:')][0]\n"
            "sys.stderr.write(line.split()[1])\n"
        )

        def peak_kib(n):
            done = subprocess.run(
                [sys.executable, "-c", script, "digits", "--spec", "primes", "--base", "10",
                 "-n", str(n)],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env,
                timeout=120, check=True,
            )
            return int(done.stderr)

        # one read of 10**7 digits held 55 MiB, against 20 MiB at 10**6
        assert peak_kib(10**7) <= peak_kib(10**6) + 6 * 1024

    def test_save_and_resume_round_trip(self, tmp_path):
        state = str(tmp_path / "cursor.txt")
        code, first, _ = run_cli(
            "digits", "--sequence", "primes", "--base", "10", "--c", "3/2",
            "-n", "13", "--save-cursor", state,
        )
        assert code == 0
        line = Path(state).read_text(encoding="utf-8")
        assert line == "position=13 integer=17 rep=0 offset=1 spec=primes|b=10|c=3/2\n"
        code, second, _ = run_cli("digits", "--resume", state, "-n", "7")
        assert code == 0
        code, whole, _ = run_cli(
            "digits", "--sequence", "primes", "--base", "10", "--c", "3/2", "-n", "20"
        )
        assert whole.strip() == first.strip() + second.strip()

    def test_resume_from_impossible_fresh_state_is_usage_error(self, tmp_path):
        state = tmp_path / "cursor.txt"
        state.write_text("position=0 integer=0 rep=7 offset=9 spec=naturals|b=10|c=1\n")
        code, out, err = run_cli("digits", "--resume", str(state), "-n", "5")
        assert code == 2
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize(
        "line",
        [
            "position=5 integer=0 rep=0 offset=0 spec=primes|b=10|c=1/1",
            "position=0 integer=7 rep=0 offset=1 spec=primes|b=10|c=1",
        ],
    )
    def test_resume_at_a_position_the_state_disproves_is_usage_error(self, tmp_path, line):
        state = tmp_path / "cursor.txt"
        state.write_text(line + "\n")
        code, out, err = run_cli(
            "digits", "--resume", str(state), "-n", "5", "--save-cursor", str(state)
        )
        assert (code, out) == (2, "")
        assert "error" in err
        assert state.read_text() == line + "\n"  # no checkpoint saved

    def test_resume_at_a_non_member_is_usage_error(self, tmp_path):
        state = tmp_path / "cursor.txt"
        state.write_text("position=1 integer=4 rep=0 offset=1 spec=primes|b=10|c=1\n")
        code, out, err = run_cli("digits", "--resume", str(state), "-n", "5")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_resume_with_a_base_beyond_the_cap_is_usage_error(self, tmp_path):
        state = tmp_path / "cursor.txt"
        state.write_text("position=0 integer=0 rep=0 offset=0 spec=naturals|b=70000|c=1\n")
        code, out, err = run_cli("digits", "--resume", str(state), "-n", "5")
        assert (code, out) == (2, "")
        assert "beyond the CLI cap" in err

    def test_neither_spec_nor_resume_is_usage_error(self):
        code, out, err = run_cli("digits", "-n", "3")
        assert (code, out) == (2, "")
        assert "required without --resume" in err

    def test_resume_conflicts_with_spec_flags(self, tmp_path):
        state = str(tmp_path / "cursor.txt")
        run_cli("digits", "--sequence", "naturals", "--base", "10", "-n", "3",
                "--save-cursor", state)
        code, _, err = run_cli(
            "digits", "--resume", state, "--sequence", "naturals", "-n", "3"
        )
        assert code == 2
        assert "resume" in err

    @pytest.mark.parametrize("c", ["1", "1/1", "1.0", "3/2"])
    def test_resume_refuses_any_multiplier(self, tmp_path, c):
        # the checkpoint's own c is 3/2, which a --c given alongside would
        # contradict or restate; either way the flag is refused, not ignored
        state = tmp_path / "cursor.txt"
        line = "position=13 integer=17 rep=0 offset=1 spec=primes|b=10|c=3/2\n"
        state.write_text(line)
        code, out, err = run_cli(
            "digits", "--resume", str(state), "--c", c, "-n", "7", "--save-cursor", str(state)
        )
        assert (code, out) == (2, "")
        assert "resume" in err
        assert state.read_text() == line


class TestIntegerFlags:
    @pytest.mark.parametrize("argv", INTEGER_FLAGS, ids=flag_id)
    def test_ten_is_accepted(self, argv):
        code, out, _ = run_cli(*(a.replace("NUMBER", "10") for a in argv))
        assert code == 0
        assert out

    @pytest.mark.parametrize(
        "form", NOT_ASCII_DIGITS, ids=["arabic-indic", "separator", "sign", "space"]
    )
    @pytest.mark.parametrize("argv", INTEGER_FLAGS, ids=flag_id)
    def test_numbers_take_ascii_digits_only(self, argv, form):
        code, out, err = run_refused(*(form if a == "NUMBER" else a for a in argv))
        assert (code, out) == (2, "")
        assert "invalid" in err

    @pytest.mark.parametrize(
        "k_range",
        ["\u0661\u0660:+12", "\u0661\u0660:12", "1_0:12", "+10:12", " 10:12", "10: 12"],
        ids=["arabic-indic-and-sign", "arabic-indic", "separator", "sign", "space", "space-in-hi"],
    )
    def test_k_range_bounds_take_ascii_digits_only(self, k_range):
        code, out, err = run_cli(
            "trajectory", "--spec", "naturals", "--base", "2", "--k-range", k_range
        )
        assert (code, out) == (2, "")
        assert "not a natural number" in err


class TestCount:
    def test_counts_over_prefix(self):
        code, out, _ = run_cli(
            "count", "--sequence", "naturals", "--base", "10", "-n", "25"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "1 10"
        assert lines[-1] == "total 25"

    def test_binary(self):
        code, out, _ = run_cli(
            "count", "--sequence", "naturals", "--base", "2", "-n", "17"
        )
        assert code == 0
        assert out == "0 5\n1 12\ntotal 17\n"

    @pytest.mark.parametrize("flag", ["--max-digits", "--max-emit"])
    def test_digit_cap(self, flag):
        # --max-emit is the older spelling of --max-digits
        args = ("count", "--spec", "primes", "--base", "10", "-n", "1000")
        code, out, _ = run_cli(*args, flag, "1000")
        assert code == 0
        assert out.endswith("total 1000\n")
        code, out, err = run_cli(*args, flag, "999")
        assert code == 3
        assert out == ""
        assert "cap 999" in err


class TestTrajectory:
    def test_explicit_checkpoints_to_stdout(self):
        code, out, _ = run_cli(
            "trajectory", "--sequence", "naturals", "--base", "2",
            "--symbol", "1", "--checkpoints", "17,25",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "lil bound (base 2): 0.500000"
        assert lines[1] == "n,count,discrepancy_num,discrepancy_den,statistic"
        assert lines[2].startswith("17,12,7,2,")
        assert len(lines) == 4

    def test_k_range_writes_csv(self, tmp_path):
        path = str(tmp_path / "traj.csv")
        for k_range, points, first, last in (
            ("3:4", 2, "17,12,7,2,", "49,"),
            # k = 60 ends past 2**65, after the 2**(j - 1) members of j bits
            # for j <= 60, each with a leading one and (j - 1) / 2 ones below
            # on average: sum (j + 1) * 2**(j - 2) = 30 * 2**60 ones
            ("10:60", 51, "9217,", f"{59 * 2**60 + 1},{30 * 2**60},"),
        ):
            code, out, _ = run_cli(
                "trajectory", "--sequence", "naturals", "--base", "2",
                "--k-range", k_range, "--out", path,
            )
            assert code == 0
            assert f"wrote {points} points to {path}" in out
            body = Path(path).read_text(encoding="utf-8")
            lines = body.strip().split("\n")
            assert lines[0] == "n,count,discrepancy_num,discrepancy_den,statistic"
            assert lines[1].startswith(first)
            assert lines[-1].startswith(last)

    def test_deterministic_bytes(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        args = ("trajectory", "--sequence", "composites", "--base", "10",
                "--c", "3/2", "--checkpoints", "100,1000,5000")
        assert run_cli(*args, "--out", a)[0] == 0
        assert run_cli(*args, "--out", b)[0] == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_blank_checkpoint_list_is_usage_error(self, tmp_path):
        # as in verify, a list with no checkpoint would pass having checked nothing
        path = tmp_path / "empty.csv"
        for checkpoints in ("", "  "):
            code, out, err = run_cli(
                "trajectory", "--sequence", "naturals", "--base", "10",
                "--checkpoints", checkpoints, "--out", str(path),
            )
            assert (code, out) == (2, "")
            assert "no checkpoint" in err
            assert not path.exists()

    def test_checkpoint_below_16_rejected(self):
        code, _, err = run_cli(
            "trajectory", "--sequence", "naturals", "--base", "10",
            "--checkpoints", "15",
        )
        assert code == 2
        assert "16" in err

    @pytest.mark.parametrize("k_range", ["5:3", "1:0"])
    def test_reversed_k_range_is_usage_error(self, k_range):
        code, out, err = run_cli(
            "trajectory", "--spec", "naturals", "--base", "2", "--k-range", k_range
        )
        assert (code, out) == (2, "")
        assert "selects no k" in err

    def test_k_range_without_a_colon_is_usage_error(self):
        code, out, err = run_cli(
            "trajectory", "--spec", "naturals", "--base", "2", "--k-range", "10"
        )
        assert (code, out) == (2, "")
        assert "LO:HI" in err

    def test_statistic_past_the_float_range(self):
        # with c = 10**400, k = 1 ends after the c copies of member 1, at
        # n = c, past the float range; the counts stay exact, and the
        # discrepancy 9c/10 gives a statistic of about 2.4e199.  k = 2
        # writes c**2 copies of each two-digit member: its statistic, near
        # 10**400, is itself past the range
        c = 10**400
        code, out, err = run_cli(
            "trajectory", "--spec", "naturals", "--base", "10", "--c", str(c), "--k-range", "1:2"
        )
        assert (code, err) == (0, "")
        lines = out.strip().split("\n")
        assert lines[2].split(",")[:4] == [str(c), str(c), str(9 * c // 10), "1"]
        stats = [float(line.split(",")[4]) for line in lines[2:]]
        assert len(stats) == 2 and 1e199 < stats[0] < 1e200 and stats[1] == math.inf

    def test_requires_checkpoints_or_range(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("trajectory", "--sequence", "naturals", "--base", "10")
        assert exc.value.code == 2


class TestVerify:
    def test_small_grid_all_match(self, tmp_path):
        path = str(tmp_path / "verify.csv")
        code, out, _ = run_cli(
            "verify", "--bases", "2,10", "--cs", "1,3/2",
            "--max-digits", "2000", "--csv", path,
        )
        assert code == 0
        assert "all rows match: yes" in out
        body = Path(path).read_text(encoding="utf-8")
        lines = body.strip().split("\n")
        assert lines[0] == VERIFY_CSV_HEADER
        assert "2,1,1,3,17,17,12,12,true" in lines
        assert all(line.endswith("true") for line in lines[1:])

    def test_corrupted_oracle_detected(self):
        code, out, _ = run_cli(
            "verify", "--bases", "2", "--cs", "1", "--max-digits", "100",
            "--selftest-corrupt",
        )
        assert code == 1
        assert "all rows match: no" in out

    # The ids are the ones these cases had when the list also held the
    # negative bounds, which the parser now refuses before any grid is built.
    @pytest.mark.parametrize(
        "flags", [("--bases", ""), ("--max-k", "0")], ids=["flags0", "flags3"]
    )
    def test_grid_without_rows_is_usage_error(self, flags, tmp_path):
        path = tmp_path / "verify.csv"
        code, out, err = run_cli("verify", *flags, "--csv", str(path))
        assert code == 2
        assert "no row" in err
        assert out == ""
        assert not path.exists()

    @pytest.mark.parametrize("flags", [("--max-digits", "-5"), ("--max-k", "-1")])
    def test_negative_bound_is_refused_by_the_parser(self, flags, tmp_path):
        path = tmp_path / "verify.csv"
        code, out, _ = run_refused("verify", *flags, "--csv", str(path))
        assert code == 2
        assert out == ""
        assert not path.exists()

    @pytest.mark.parametrize("bases", ["70000", "2,65536"])
    def test_base_beyond_cap_is_usage_error(self, bases):
        code, out, err = run_cli("verify", "--bases", bases)
        assert code == 2
        assert "beyond the CLI cap" in err
        assert out == ""

    def test_deep_grid_matches_the_closed_forms(self):
        # whole length classes of the naturals are counted as single runs,
        # so the scan reaches 10**20 digits: k = 60 in base 2
        rows = run_verification((2, 10, 257), (Fraction(1), Fraction(3, 2)), 10**20)
        assert rows and all(r.match for r in rows)
        assert max(r.k for r in rows if r.base == 2) == 60

    def test_rows_are_canonically_ordered(self):
        rows = run_verification((10, 2), (Fraction(2), Fraction(1)), 5000)
        keys = [(r.base, r.c, r.k) for r in rows]
        assert keys == sorted(keys)

    def test_csv_writer_format(self):
        rows = run_verification((2,), (Fraction(3, 2),), 100)
        buf = io.StringIO()
        write_verification_csv(rows, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == VERIFY_CSV_HEADER
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 9
            assert parts[0] == "2" and parts[1] == "3" and parts[2] == "2"


class TestThreshold:
    def test_report_output(self):
        code, out, _ = run_cli(
            "threshold", "--sequence", "primes", "--base", "10",
            "--c", "1", "--xs", "100,10000",
        )
        assert code == 0
        assert "alpha threshold (base 10, c 1/1): 1.048955" in out
        pi100 = simple_prime_count(100)
        ratio = pi100 * math.log(100) / 100
        assert f"100 {pi100} {ratio:.6f} no" in out
        assert "note: " in out
        assert "cannot decide" in out

    def test_counts_past_the_float_range(self):
        # 10**400 naturals and 10**350 squares: the counts, not only x,
        # pass the largest float
        for spec, x, count, ratio, holds in (
            ("naturals", 10**400, 10**400, f"{400 * math.log(10):.6f}", "no"),
            ("poly:0,0,1", 10**700, 10**350, "0.000000", "yes"),
        ):
            code, out, err = run_cli(
                "threshold", "--spec", spec, "--base", "10", "--xs", str(x),
            )
            assert (code, err) == (0, "")
            assert f"\n{x} {count} {ratio} {holds}\n" in out

    @pytest.mark.parametrize("spec", ["naturals", "poly:0,1"])
    def test_sample_point_past_the_decimal_str_limit(self, spec):
        # x and its count, both 10**5000, are written through Decimal
        x = "1" + "0" * 5000
        code, out, err = run_cli("threshold", "--spec", spec, "--base", "10", "--xs", x)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[3].startswith(f"{x} {x} ")
        assert lines[-1].startswith("note: ") and len(lines) == 5

    def test_empty_sequence_always_holds(self):
        code, out, _ = run_cli(
            "threshold", "--sequence", "explicit:", "--base", "10",
            "--c", "1", "--xs", "100",
        )
        assert code == 0
        assert "100 0 0.000000 yes" in out

    def test_bad_sample_list_is_usage_error(self):
        code, _, err = run_cli(
            "threshold", "--sequence", "primes", "--base", "10", "--xs", "100,1e3",
        )
        assert code == 2
        assert "sample point" in err

    def test_blank_sample_list_is_usage_error(self):
        # as in verify, a list with no sample point would pass having checked nothing
        for xs in ("", " "):
            code, out, err = run_cli(
                "threshold", "--sequence", "primes", "--base", "10", "--xs", xs,
            )
            assert (code, out) == (2, "")
            assert "no sample point" in err

    def test_base_beyond_cap_is_usage_error(self):
        # as every other command, threshold refuses a base at or above 2**16
        code, out, err = run_cli("threshold", "--spec", "primes", "--base", "70000", "--xs", "100")
        assert (code, out) == (2, "")
        assert "beyond the CLI cap" in err

    def test_cap_exceeded_exit_code(self):
        code, _, err = run_cli(
            "threshold", "--sequence", "primes", "--base", "10",
            "--c", "1", "--xs", "1000000", "--cap", "1000",
        )
        assert code == 3
        assert "cap" in err


class TestRendering:
    def test_alphanumeric_through_36(self):
        assert render_digits((0, 9, 10, 35), 36) == "09az"

    def test_comma_separated_beyond_36(self):
        assert render_digits((0, 9, 37, 499), 500) == "0,9,37,499"

    @given(st.integers(2, 36), st.data())
    @settings(max_examples=100, deadline=None)
    def test_translate_equals_the_per_digit_join(self, base, data):
        digits = data.draw(st.lists(st.integers(0, base - 1), max_size=60))
        want = "".join(DIGIT_ALPHABET[d] for d in digits)
        assert render_digits(bytes(digits), base) == want
        assert render_digits(tuple(digits), base) == want

    @given(st.sampled_from((37, 256, 257)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_comma_join_beyond_36(self, base, data):
        digits = data.draw(st.lists(st.integers(0, base - 1), max_size=60))
        want = ",".join(str(d) for d in digits)
        assert render_digits(digits, base) == want
        if base <= 256:
            assert render_digits(bytes(digits), base) == want
