import itertools
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cedigits import (
    Composites,
    Explicit,
    Naturals,
    NumberSpec,
    Primes,
    SequenceExhaustedError,
    SequenceSpec,
    StreamCursor,
    block_stream,
    count_symbol_prefix,
    counter_prefix,
    digit_length,
    load_checkpoint,
    open_stream,
    parse_number_spec,
    parse_sequence,
    repetitions,
    save_checkpoint,
    to_digits,
)
from cedigits.primes import MAX_BATCH, SEGMENT_SIZE
from cedigits.stream import _member_runs, iter_blocks

from conftest import concat_stream, plain_sieve, trial_division_is_prime

HALF3 = Fraction(3, 2)


class TestDigits:
    def test_examples(self):
        assert to_digits(10, 2) == (1, 0, 1, 0)
        assert to_digits(7, 10) == (7,)
        assert to_digits(255, 16) == (15, 15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            to_digits(0, 10)

    @given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=2, max_value=40))
    @settings(max_examples=200)
    def test_roundtrip(self, n, base):
        ds = to_digits(n, base)
        assert ds[0] != 0
        assert all(0 <= d < base for d in ds)
        value = 0
        for d in ds:
            value = value * base + d
        assert value == n
        assert len(ds) == digit_length(n, base)

    def test_digit_length_examples(self):
        assert digit_length(1, 2) == 1
        assert digit_length(8, 2) == 4
        assert digit_length(999, 10) == 3
        assert digit_length(1000, 10) == 4


class TestRepetitions:
    def test_c_one_means_single_copy(self):
        for n in (1, 5, 17, 1000):
            assert repetitions(n, 2, Fraction(1)) == 1

    def test_examples(self):
        # 5 has three binary digits, floor((3/2)**3) = floor(27/8) = 3
        assert repetitions(5, 2, HALF3) == 3
        # 12 has two decimal digits, 2**2 = 4
        assert repetitions(12, 10, Fraction(2)) == 4

    def test_exactness_against_literal_fraction_power(self):
        import math

        for num, den, length in [(3, 2, 40), (7, 3, 25), (2, 1, 50)]:
            c = Fraction(num, den)
            n = 2 ** (length - 1)  # any integer with that binary length
            assert repetitions(n, 2, c) == math.floor(c**length)


class TestPrefixes:
    def test_champernowne_prefix(self):
        cursor = open_stream(NumberSpec(Naturals(), 10))
        assert "".join(map(str, cursor.read(25))) == "1234567891011121314151617"

    def test_composite_prefix(self):
        cursor = open_stream(NumberSpec(Composites(), 10))
        assert "".join(map(str, cursor.read(26))) == "46891012141516182021222425"

    def test_binary_champernowne(self):
        cursor = open_stream(NumberSpec(Naturals(), 2))
        assert cursor.read(5) == bytes([1, 1, 0, 1, 1])

    def test_repeated_blocks_with_three_halves(self):
        cursor = open_stream(NumberSpec(Naturals(), 2, HALF3))
        assert cursor.read(5) == bytes([1, 1, 0, 1, 0])
        assert cursor.next_digit() == 1

    def test_against_enumeration_oracle(self):
        spec = NumberSpec(Primes(), 3, HALF3)
        want = concat_stream(spec.sequence.members(0), 3, 3, 2, 400)
        assert open_stream(spec).read(400) == bytes(want)

    def test_position_is_one_indexed_count(self):
        cursor = open_stream(NumberSpec(Naturals(), 10))
        assert cursor.position == 0
        cursor.next_digit()
        assert cursor.position == 1
        cursor.skip_to(9)
        assert cursor.next_digit() == 1  # first digit of 10
        assert cursor.position == 10

    def test_member_past_the_decimal_str_limit(self):
        # str() refuses ints of more than 4300 decimal digits by default
        spec = NumberSpec(Explicit((10**5000 + 7,)), 10)
        assert open_stream(spec).read(5) == bytes([1, 0, 0, 0, 0])
        assert counter_prefix(spec, 5001).counts == [4999, 1, 0, 0, 0, 0, 0, 1, 0, 0]
        assert counter_prefix(spec, 4999).counts == [4998, 1] + [0] * 8
        assert count_symbol_prefix(spec, 7, 5001) == 1


class TestRead:
    @given(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_read_equals_repeated_next_digit(self, a, b):
        spec = NumberSpec(Naturals(), 2, HALF3)
        c1 = open_stream(spec)
        c2 = open_stream(spec)
        got = c1.read(a) + c1.read(b)
        want = bytes([c2.next_digit() for _ in range(a + b)])
        assert got == want
        assert c1.position == c2.position == a + b

    def test_exhaustion_keeps_position_consistent(self):
        spec = NumberSpec(Explicit((5, 6)), 10)
        cursor = open_stream(spec)
        with pytest.raises(SequenceExhaustedError):
            cursor.read(3)
        assert cursor.position == 2


class TestSkipTo:
    def test_noop_skip(self):
        cursor = open_stream(NumberSpec(Naturals(), 10))
        cursor.skip_to(0)
        assert cursor.position == 0
        assert cursor.next_digit() == 1

    def test_backwards_rejected(self):
        cursor = open_stream(NumberSpec(Naturals(), 10))
        cursor.read(5)
        with pytest.raises(ValueError):
            cursor.skip_to(4)

    def test_block_boundary_example(self):
        cursor = open_stream(NumberSpec(Naturals(), 2))
        cursor.skip_to(17)
        # position 17 ends the block of 7; the next digit starts 8
        assert cursor.next_digit() == 1

    @given(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_skip_matches_fresh_read(self, n, m):
        spec = NumberSpec(Composites(), 10, HALF3)
        skipped = open_stream(spec)
        skipped.skip_to(n)
        straight = open_stream(spec)
        want = straight.read(n + m)[n:]
        assert skipped.read(m) == want

    @given(
        st.lists(st.tuples(st.integers(0, 12), st.integers(0, 5), st.booleans()), max_size=40),
        st.sampled_from((Fraction(1), HALF3)),
    )
    @settings(max_examples=80, deadline=None)
    def test_short_moves_match_fresh_read(self, moves, c):
        # skips, reads and single digits on one cursor, most of them
        # inside one member or one copy of it
        spec = NumberSpec(Composites(), 10, c)
        fresh = open_stream(spec).read(sum(s + n + d for s, n, d in moves))
        cursor = open_stream(spec)
        for skip, n, digit in moves:
            cursor.skip_to(cursor.position + skip)
            at = cursor.position
            assert cursor.read(n) == fresh[at : at + n]
            if digit:
                assert cursor.next_digit() == fresh[at + n]
        assert cursor.position == len(fresh)

    def test_skip_deep_into_prefix(self):
        spec = NumberSpec(Naturals(), 2)
        skipped = open_stream(spec)
        skipped.skip_to(99_800)
        want = open_stream(spec).read(100_000)[99_800:]
        assert skipped.read(200) == want

    def test_skip_within_repetitions(self):
        # 5 = 101 in binary, repeated 3 times under c = 3/2
        spec = NumberSpec(Explicit((5,)), 2, HALF3)
        cursor = open_stream(spec)
        cursor.skip_to(4)
        assert cursor.rep == 1
        assert cursor.next_digit() == 0
        cursor.skip_to(8)
        assert cursor.next_digit() == 1
        with pytest.raises(SequenceExhaustedError):
            cursor.skip_to(10)

    def test_prefix_reread_unchanged(self):
        spec = NumberSpec(Primes(), 10, Fraction(2))
        first = open_stream(spec).read(2000)
        again = open_stream(spec).read(2000)
        assert first == again


class TestBlocks:
    def test_every_block_starts_nonzero(self):
        spec = NumberSpec(Naturals(), 3, HALF3)
        count = 0
        for _, digits, reps in iter_blocks(spec):
            assert digits[0] != 0
            assert all(0 <= d < 3 for d in digits)
            assert reps >= 1
            count += 1
            if count == 300:
                break

    def test_c_one_blocks_appear_once(self):
        spec = NumberSpec(Naturals(), 10)
        blocks = []
        for _, digits, reps in iter_blocks(spec):
            assert reps == 1
            blocks.append(digits)
            if len(blocks) == 50:
                break
        flat = [d for b in blocks for d in b]
        assert flat == concat_stream(range(1, 51), 10, 1, 1, len(flat))


class TestCheckpoints:
    def test_line_format(self):
        cursor = open_stream(NumberSpec(Naturals(), 2, HALF3))
        cursor.read(7)
        line = cursor.checkpoint()
        assert line == "position=7 integer=3 rep=0 offset=2 spec=naturals|b=2|c=3/2"

    def test_fresh_cursor_line(self):
        cursor = open_stream(NumberSpec(Primes(), 10))
        assert cursor.checkpoint() == "position=0 integer=0 rep=0 offset=0 spec=primes|b=10|c=1/1"

    @pytest.mark.parametrize("n", [0, 1, 5, 17, 100, 997])
    def test_roundtrip_resumes_exactly(self, n, tmp_path):
        spec = NumberSpec(Composites(), 2, HALF3)
        cursor = open_stream(spec)
        cursor.read(n)
        path = str(tmp_path / "state.txt")
        save_checkpoint(cursor, path)
        resumed = load_checkpoint(path)
        assert resumed.checkpoint() == cursor.checkpoint()
        # serialization is bit-exact: saving the restored state reproduces the file
        path2 = str(tmp_path / "state2.txt")
        save_checkpoint(resumed, path2)
        with open(path, "rb") as fh1, open(path2, "rb") as fh2:
            assert fh1.read() == fh2.read()
        assert resumed.read(200) == cursor.read(200)

    def test_roundtrip_at_block_end(self):
        spec = NumberSpec(Explicit((9, 10)), 10)
        cursor = open_stream(spec)
        cursor.read(1)  # exactly consumes the block of 9
        line = cursor.checkpoint()
        resumed = StreamCursor.from_checkpoint(line)
        assert resumed.read(2) == bytes([1, 0])

    @pytest.mark.parametrize("rep,offset", [(7, 9), (1, 0), (0, 1)])
    def test_fresh_state_with_progress_rejected(self, rep, offset):
        # integer=0 is the state before the first member: nothing of any
        # copy has been read yet, so rep and offset must both be 0
        line = f"position=0 integer=0 rep={rep} offset={offset} spec=naturals|b=10|c=1/1"
        with pytest.raises(ValueError):
            StreamCursor.from_checkpoint(line)
        with pytest.raises(ValueError):
            StreamCursor(NumberSpec(Naturals(), 10), 0, 0, rep, offset)

    @pytest.mark.parametrize(
        "position,integer,rep,offset,spec",
        [
            (5, 0, 0, 0, "primes|b=10|c=1/1"),  # nothing read, yet a position
            (0, 7, 0, 1, "primes|b=10|c=1"),  # a digit of 7 read, at position 0
            (3, 11, 1, 2, "primes|b=10|c=3/2"),  # a copy and 2 digits of 11 read
        ],
    )
    def test_position_before_the_digits_read_rejected(self, position, integer, rep, offset, spec):
        # a position below the digits the state itself has read of its
        # member is disproved by the state alone
        line = f"position={position} integer={integer} rep={rep} offset={offset} spec={spec}"
        with pytest.raises(ValueError):
            StreamCursor.from_checkpoint(line)
        with pytest.raises(ValueError):
            StreamCursor(parse_number_spec(spec), position, integer, rep, offset)

    @pytest.mark.parametrize(
        "integer,spec",
        [(4, "primes|b=10|c=1"), (7, "composites|b=10|c=3/2"), (8, "explicit:2,5,9|b=10|c=1")],
    )
    def test_integer_that_is_not_a_member_rejected(self, integer, spec):
        line = f"position=0 integer={integer} rep=0 offset=0 spec={spec}"
        with pytest.raises(ValueError):
            StreamCursor.from_checkpoint(line)
        with pytest.raises(ValueError):
            StreamCursor(parse_number_spec(spec), 0, integer)

    def test_walker_state_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            StreamCursor(NumberSpec(Naturals(), 10), 0, 0, 0, 0, ((99,), 2, 1), 0)

    @pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 500])
    def test_restored_cursor_equals_the_original(self, n):
        cursor = open_stream(NumberSpec(Composites(), 10, HALF3))
        cursor.read(n)
        assert StreamCursor.from_checkpoint(cursor.checkpoint()) == cursor

    def test_members_past_the_decimal_str_limit_round_trip(self):
        # 10**5000 has 5001 decimal digits, past str()'s and int()'s limit
        cursor = StreamCursor(NumberSpec(Naturals(), 10), 0, 10**5000)
        line = cursor.checkpoint()
        assert f" integer=1{'0' * 5000} " in line
        resumed = StreamCursor.from_checkpoint(line)
        assert resumed == cursor
        assert resumed.checkpoint() == line

    @pytest.mark.parametrize(
        "form", [str.__str__, "+{}".format, "{}e0".format, "{}.0".format, "0_{}".format,
                 lambda d: d.translate({ord("0") + k: 0x660 + k for k in range(10)})],
        ids=["plain", "sign", "exponent", "fraction", "separator", "arabic-indic"],
    )
    def test_integer_fields_take_ascii_digits_only(self, form):
        # signs, exponents, fractions, separators and digits of other scripts
        # are refused in every integer field; plain ASCII digits round-trip
        fields = {"position": "20", "integer": "15", "rep": "0", "offset": "2"}
        for key in fields:
            line = " ".join(f"{k}={form(v) if k == key else v}" for k, v in fields.items())
            line += " spec=naturals|b=10|c=1/1"
            if form is str.__str__:
                assert StreamCursor.from_checkpoint(line).checkpoint() == line
            else:
                with pytest.raises(ValueError):
                    StreamCursor.from_checkpoint(line)

    @pytest.mark.parametrize(
        "digits", [4300, 4301, 5000], ids=["at-the-limit", "past-the-limit", "far-past"]
    )
    def test_long_fields_are_written_and_read_back_byte_identically(self, digits, tmp_path):
        # an int of more than 4300 decimal digits is past str()'s limit,
        # which Decimal lacks: the line is the same either way, with every
        # field written in full
        integer = 10 ** (digits - 1) + 7
        position = 3 * integer
        cursor = StreamCursor(NumberSpec(Naturals(), 10, HALF3), position, integer, 2, 5)
        line = cursor.checkpoint()
        assert line == (
            f"position={Decimal(position)} integer={Decimal(integer)} rep=2 offset=5"
            " spec=naturals|b=10|c=3/2"
        )
        path = tmp_path / "state.txt"
        save_checkpoint(cursor, str(path))
        assert path.read_bytes() == line.encode("ascii") + b"\n"
        resumed = load_checkpoint(str(path))
        assert resumed == cursor
        save_checkpoint(resumed, str(tmp_path / "again.txt"))
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([
            NumberSpec(Composites(), 10, HALF3),
            NumberSpec(Primes(), 2),
            NumberSpec(Naturals(), 257, Fraction(2)),
            NumberSpec(Explicit((2, 5, 9, 1000)), 10, HALF3),
        ]),
        st.integers(0, 3000),
        st.sampled_from(["position", "integer", "rep", "offset", "spec"]),
        st.data(),
    )
    def test_one_field_mutations_are_refused_or_round_trip(self, spec, n, key, data):
        """A valid line with one field's value replaced: by another number,
        that number with a leading zero, a near edit of the old text, any
        text, or, for the spec part, another spec.  The line is refused
        with ValueError, or it names one state, whose line reads back to
        that state; where the new value is written as the writer writes
        it, that line is the mutated line itself.  A position that the
        state alone cannot disprove is accepted as it stands."""
        cursor = open_stream(spec)
        try:
            cursor.read(n)
        except SequenceExhaustedError:
            pass
        fields = dict(field.split("=", 1) for field in cursor.checkpoint().split(" "))
        old = fields[key]
        edits = st.builds(
            lambda i, text: old[:i] + text + old[i + 1 :],
            st.integers(0, len(old)),
            st.text(max_size=2),
        )
        numbers = st.integers(0, 10**25).map(str)
        specs = st.sampled_from([
            "primes|b=10|c=1/1", "composites|b=2|c=3/2", "naturals|b=257|c=2/1",
            "explicit:2,5,9|b=10|c=1/1", "complement:primes|b=10|c=3/2",
        ])
        value = data.draw(st.one_of(
            specs if key == "spec" else numbers,
            numbers.map("0{}".format),
            edits,
            st.text(max_size=12),
        ))
        fields[key] = value
        line = " ".join(f"{k}={v}" for k, v in fields.items())
        try:
            resumed = StreamCursor.from_checkpoint(line)
        except ValueError:
            return
        written = resumed.checkpoint()
        assert StreamCursor.from_checkpoint(written) == resumed
        assert StreamCursor.from_checkpoint(written).checkpoint() == written
        if key == "spec":
            canonical = parse_number_spec(value).canonical == value
        else:
            canonical = value == str(int(value))
        if canonical:
            assert written == line.strip()

    def test_malformed_lines_rejected(self):
        for line in (
            "",
            "position=1 integer=2 rep=0 offset=0",
            "position=x integer=2 rep=0 offset=0 spec=naturals|b=10|c=1/1",
            "position=1 integer=2 rep=0 offset=0 spec=naturals",
            "integer=2 position=1 rep=0 offset=0 spec=naturals|b=10|c=1/1",
        ):
            with pytest.raises(ValueError):
                StreamCursor.from_checkpoint(line)


class TestNumberSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            NumberSpec(Naturals(), 1)
        with pytest.raises(ValueError):
            NumberSpec(Naturals(), 10, Fraction(1, 2))

    def test_canonical_roundtrip(self):
        spec = NumberSpec(Composites(), 12, Fraction(7, 3))
        assert parse_number_spec(spec.canonical) == spec

    @pytest.mark.parametrize(
        "text",
        [
            "naturals|b=1_0|c=1",
            "naturals|b=+10|c=1",
            "explicit:+2,\u0665|b=10|c=1",
            "naturals|b=10|c=1_5/1_0",
        ],
        ids=["separator-in-base", "signed-base", "signed-and-arabic-indic-members",
             "separators-in-c"],
    )
    def test_integers_take_ascii_digits_only(self, text):
        # int() and Fraction() read each of these, as another canonical text
        with pytest.raises(ValueError):
            parse_number_spec(text)
        with pytest.raises(ValueError):
            StreamCursor.from_checkpoint(f"position=0 integer=0 rep=0 offset=0 spec={text}")

    def test_explicit_member_past_the_decimal_str_limit_round_trips(self):
        # the spec part of the checkpoint writes and reads the members at
        # any length, as the cursor fields are
        spec = NumberSpec(Explicit((7, 10**5000, 10**5000 + 3)), 10, HALF3)
        fresh = open_stream(spec).read(1 + 5001 * 2 * 2)
        cursor = open_stream(spec)
        cursor.read(5001 + 100)  # inside the second copy of 10**5000
        line = cursor.checkpoint()
        assert f"spec=explicit:7,1{'0' * 5000},1{'0' * 4999}3|b=10|c=3/2" in line
        resumed = StreamCursor.from_checkpoint(line)
        assert resumed == cursor and resumed.checkpoint() == line
        assert resumed.read(len(fresh) - cursor.position) == fresh[cursor.position :]

    def test_multiplier_past_the_decimal_str_limit_round_trips(self):
        spec = NumberSpec(Naturals(), 10, Fraction(10**5000))
        assert str(spec) == f"naturals|b=10|c=1{'0' * 5000}/1"
        assert parse_number_spec(str(spec)) == spec

    def test_end_past_the_decimal_str_limit_raises_exhausted(self):
        # 1 and 2 are each written 10**5000 times, so the stream ends at a
        # position of 5001 decimal digits, which the error names
        spec = NumberSpec(Explicit((1, 2)), 10, Fraction(10**5000))
        cursor = open_stream(spec)
        cursor.skip_to(2 * 10**5000)
        with pytest.raises(SequenceExhaustedError, match=f"ended at position 2{'0' * 5000}$"):
            cursor.read(1)
        cursor = open_stream(spec)
        cursor.skip_to(2 * 10**5000 - 3)
        assert list(block_stream(cursor, 2)) == [22]  # the last digit is dropped

    def test_exhausted_stream_raises(self):
        cursor = open_stream(NumberSpec(Explicit((1, 2)), 10))
        assert cursor.read(2) == bytes([1, 2])
        with pytest.raises(SequenceExhaustedError):
            cursor.next_digit()


@pytest.mark.parametrize("inner", ["primes", "composites"])
def test_complements_of_the_sieve_streams_resume_early(inner):
    """A cursor over the complement of the primes or of the composites,
    restored from its checkpoint at each of positions 1..29 in base 10,
    where it stands on or just past the small members taken before the
    other stream, reads on as one straight read does."""
    spec = NumberSpec(parse_sequence(f"complement:{inner}"), 10)
    straight = open_stream(spec).read(60)
    for n in range(1, 30):
        cursor = open_stream(spec)
        assert cursor.read(n) == straight[:n]
        resumed = StreamCursor.from_checkpoint(cursor.checkpoint())
        assert resumed.read(30) == straight[n : n + 30]


# Every spec kind; the explicit list is finite and ends inside the budget.
RESUME_SPECS = (
    "naturals",
    "primes",
    "composites",
    "poly:1,2,3",
    "poly-primes:0,0,1",
    "explicit:1,2,3,10,11,100,257,1000,4097",
    "complement:primes",
    "complement:composites",
    "complement:poly:0,0,1",
)
RESUME_BUDGET = 40_000


def stream_edges(spec: NumberSpec, limit: int) -> dict[str, list[int]]:
    """Positions up to ``limit`` where a copy, a member, a run, a run of
    MAX_BATCH members or a run that its batch's end cuts at no power of
    the base ends."""
    kinds = ("copy", "member", "run", "max_run", "batch_end")
    edges: dict[str, list[int]] = {kind: [] for kind in kinds}
    pos = before = 0
    for run, length, copies in _member_runs(spec):
        if length == before:  # the run before ended with its batch
            edges["batch_end"].append(pos)
        before = length
        for _ in run:
            edges["copy"].extend(range(pos + length, min(pos + length * copies, limit) + 1, length))
            pos += length * copies
            if pos > limit:
                return edges
            edges["member"].append(pos)
        edges["run"].append(pos)
        if len(run) == MAX_BATCH:
            edges["max_run"].append(pos)
    return edges


class TestResumedCursors:
    """A session of windows, each resumed from the text of the last
    checkpoint, reads the same digits as one fresh read and writes the
    same checkpoint lines as one cursor that never stops."""

    @staticmethod
    def run_session(spec: NumberSpec, stops: list[int]) -> None:
        """Skip to stops[0], read to stops[1], skip to stops[2], ..."""
        fresh = open_stream(spec).read(stops[-1])
        whole = open_stream(spec)
        line = open_stream(spec).checkpoint()
        for k, (start, stop) in enumerate(zip([0] + stops, stops)):
            resumed = StreamCursor.from_checkpoint(line)
            if k % 2 == 0:
                resumed.skip_to(stop)
                whole.skip_to(stop)
            else:
                assert resumed.read(stop - start) == fresh[start:stop]
                assert whole.read(stop - start) == fresh[start:stop]
            line = resumed.checkpoint()
            assert line == whole.checkpoint()
            assert line.startswith(f"position={stop} ")

    @given(
        st.sampled_from(RESUME_SPECS),
        st.sampled_from((2, 3, 10, 257)),
        st.sampled_from((Fraction(1), HALF3, Fraction(2))),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_windows_on_edges_equal_fresh_read(self, seq, base, c, data):
        spec = NumberSpec(parse_sequence(seq), base, c)
        edges = stream_edges(spec, RESUME_BUDGET)
        kinds = [kind for kind in edges if edges[kind]]
        stops = set()
        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            kind = data.draw(st.sampled_from(kinds + ["any"]))
            if kind == "any":
                top = max(edges["member"])
                stops.add(data.draw(st.integers(min_value=0, max_value=top)))
            else:
                stops.add(data.draw(st.sampled_from(edges[kind])))
        self.run_session(spec, sorted(stops))

    @pytest.mark.parametrize("base", [3, 10])
    def test_windows_on_max_run_edges(self, base):
        # a walk of the primes from 2 cuts its first batch after MAX_BATCH
        # integers, and its second at the end of the sieve span, so the
        # primes reach the longest run they make, one that the span edge
        # at SEGMENT_SIZE cuts at no power of base 3 or 10; in base 3 it
        # lies past RESUME_BUDGET digits
        spec = NumberSpec(Primes(), base)
        edges = stream_edges(spec, 2 * RESUME_BUDGET)
        head, edge = edges["batch_end"][:2]
        below = [p for p, prime in enumerate(plain_sieve(SEGMENT_SIZE)) if prime]
        assert head == sum(len(to_digits(p, base)) for p in below if p < 2 + MAX_BATCH)
        assert edge == sum(len(to_digits(p, base)) for p in below)
        self.run_session(spec, [head - 7, head, head + 3, head + 50])
        self.run_session(spec, [edge - 7, edge, edge + 3, edge + 50])
        self.run_session(spec, [edge - 60, edge - 1, edge, edge + 1])


class OneBatch(SequenceSpec):
    """Members 3, 5, 7, 11 in one batch; asking for a second batch fails."""

    values = (3, 5, 7, 11)

    def members(self, after: int = 0):
        raise AssertionError("the cursor reads batches, not members")

    def batches(self, after: int = 0):
        yield [v for v in self.values if v > after]
        raise AssertionError("the cursor pulled a batch it did not need")

    def is_member(self, n: int) -> bool:
        return n in self.values

    def count(self, x: int, *, cap: int = 0) -> int:
        return sum(v <= x for v in self.values)

    @property
    def canonical(self) -> str:
        return "explicit:3,5,7,11"


class TestLaziness:
    """The cursor pulls the next batch only for a digit it needs, so a
    stream whose next member never comes still yields every digit before
    it (blocks 3 3 | 5 5 | 7 7 | 11 11 11 11 under c = 2)."""

    spec = NumberSpec(OneBatch(), 10, Fraction(2))
    digits = bytes([3, 3, 5, 5, 7, 7] + [1, 1] * 4)

    def test_read_to_the_end_of_the_batch(self):
        cursor = open_stream(self.spec)
        assert cursor.read(len(self.digits)) == self.digits
        assert cursor.checkpoint().startswith("position=14 integer=11 rep=3 offset=2 ")
        with pytest.raises(AssertionError):
            cursor.next_digit()

    def test_skip_to_the_end_of_the_batch(self):
        cursor = open_stream(self.spec)
        cursor.skip_to(13)
        assert cursor.read(1) == bytes([1])
        cursor.skip_to(14)
        assert cursor.read(0) == bytes([])
        with pytest.raises(AssertionError):
            cursor.skip_to(15)

    @pytest.mark.parametrize("integer,rep,offset,position", [(5, 1, 1, 4), (11, 0, 0, 6), (11, 3, 2, 14)])
    def test_resumed_cursor_reads_to_the_end(self, integer, rep, offset, position):
        cursor = StreamCursor(self.spec, position, integer, rep, offset)
        assert cursor.read(14 - position) == self.digits[position:]
        with pytest.raises(AssertionError):
            cursor.next_digit()


# Member sources written from the definitions, for the specs of the byte
# path; the explicit list crosses the byte range of the digit values.
BYTE_PATH_MEMBERS = {
    "naturals": lambda: itertools.count(1),
    "primes": lambda: filter(trial_division_is_prime, itertools.count(1)),
    "composites": lambda: itertools.filterfalse(trial_division_is_prime, itertools.count(4)),
    "poly:1,2,3": lambda: (1 + 2 * n + 3 * n * n for n in itertools.count(1)),
    "explicit:1,2,3,10,254,255,256,257,1000,65535,65536,65793": lambda: iter(
        (1, 2, 3, 10, 254, 255, 256, 257, 1000, 65535, 65536, 65793)
    ),
}
BYTE_PATH_BUDGET = 3000


class TestByteReads:
    """read hands out the encoder's buffer: bytes whose values are the
    digits up to base 256, a list of ints beyond."""

    @given(
        st.sampled_from(sorted(BYTE_PATH_MEMBERS)),
        st.sampled_from((2, 3, 10, 16, 255, 256, 257)),
        st.sampled_from((Fraction(1), HALF3)),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_piecewise_reads_join_to_the_oracle(self, seq, base, c, data):
        spec = NumberSpec(parse_sequence(seq), base, c)
        kind = bytes if base <= 256 else list
        members = BYTE_PATH_MEMBERS[seq]()
        want = concat_stream(members, base, c.numerator, c.denominator, BYTE_PATH_BUDGET)
        fresh = open_stream(spec).read(len(want))
        assert type(fresh) is kind
        assert fresh == kind(want)
        assert open_stream(spec).read(0) == kind()
        assert type(open_stream(spec).read(0)) is kind
        # stops inside copies, at the ends of copies, members and runs, and
        # repeated stops, which read no digit
        edges = stream_edges(spec, len(want))
        candidates = sorted(set(edges["copy"] + edges["member"] + edges["run"]))
        stops = data.draw(
            st.lists(
                st.one_of(st.sampled_from(candidates), st.integers(0, len(want))),
                max_size=10,
            )
        )
        cursor = open_stream(spec)
        joined = kind()
        for stop in sorted(stops):
            piece = cursor.read(stop - cursor.position)
            assert type(piece) is kind
            joined += piece
        assert joined == fresh[: cursor.position]
        if cursor.position < len(want):
            digit = cursor.next_digit()
            assert type(digit) is int
            assert digit == want[cursor.position - 1]


# The benchmark's stream first, then the other sieve-fed and dense kinds.
CHAIN_SPECS = ("composites", "primes", "naturals", "complement:poly:0,0,1")
CHAIN_DIGITS = 400_000


class TestCheckpointChains:
    """A cursor restored from its checkpoint text reads what a fresh
    cursor reads.  A client that restores a cursor from the last
    checkpoint, skips, reads and checkpoints again, window after window,
    reads the digits of one straight read: its resumes start inside the
    sieve span the last window walked, or just past it."""

    @given(
        st.sampled_from(CHAIN_SPECS),
        st.sampled_from((2, 10)),
        st.sampled_from((Fraction(1), HALF3, Fraction(2))),
        st.integers(0, 30_000),
        st.integers(0, 3_000),
    )
    @settings(max_examples=120, deadline=None)
    def test_restore_then_read_equals_a_fresh_read(self, seq, base, c, position, n):
        spec = NumberSpec(parse_sequence(seq), base, c)
        fresh = open_stream(spec).read(position + n)
        cursor = open_stream(spec)
        cursor.skip_to(position)
        restored = StreamCursor.from_checkpoint(cursor.checkpoint())
        assert restored == cursor
        assert restored.read(n) == cursor.read(n) == fresh[position:]
        assert restored.checkpoint() == cursor.checkpoint()

    @pytest.mark.parametrize("c", [Fraction(1), HALF3, Fraction(2)], ids=["1", "3/2", "2"])
    @pytest.mark.parametrize("base", [2, 10])
    @pytest.mark.parametrize("seq", CHAIN_SPECS)
    def test_closed_loop_equals_one_straight_read(self, seq, base, c):
        spec = NumberSpec(parse_sequence(seq), base, c)
        rng = random.Random(f"{seq} {base} {c}")
        straight = open_stream(spec).read(CHAIN_DIGITS)
        line = open_stream(spec).checkpoint()
        windows = 0
        while True:
            position = StreamCursor.from_checkpoint(line).position
            gap, length = rng.randint(0, 5_000), rng.randint(1, 3_000)
            if position + gap + length > CHAIN_DIGITS:
                break
            cursor = StreamCursor.from_checkpoint(line)
            cursor.skip_to(position + gap)
            assert cursor.read(length) == straight[position + gap : position + gap + length]
            line = cursor.checkpoint()
            assert StreamCursor.from_checkpoint(line).checkpoint() == line
            windows += 1
        assert windows > 80
        whole = open_stream(spec)
        whole.skip_to(position)
        assert line == whole.checkpoint()

    def test_restores_share_the_parsed_spec(self):
        text = "composites|b=10|c=3/2"
        assert parse_number_spec(text) is parse_number_spec(text)
        line = f"position=0 integer=0 rep=0 offset=0 spec={text}"
        assert StreamCursor.from_checkpoint(line).spec is parse_number_spec(text)
        # a failed parse is not remembered: it raises every time
        for _ in range(2):
            with pytest.raises(ValueError):
                parse_number_spec("composites|b=1|c=3/2")
