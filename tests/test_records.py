"""The package's value records behave as plain immutable values: the same
text from ``repr``, equality and hashing on their fields in declared
order, defaults, conversions, the same validation messages, and no field
assignment on the frozen ones.  ``StreamCursor`` is the one mutable
record: it compares on its public state and is not hashable."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from cedigits import (
    Complement,
    Composites,
    DigitCounter,
    Explicit,
    HypothesisReport,
    HypothesisSample,
    LilPoint,
    Naturals,
    NumberSpec,
    OracleParams,
    Polynomial,
    Primes,
    StreamCursor,
    Trajectory,
    count_symbol_prefix,
    counter_prefix,
    digit_length,
    discrepancy,
    floor_power,
    hypothesis_report,
    lil_bound,
    open_stream,
    parse_number_spec,
    to_digits,
    trajectory,
)
from cedigits.cli import VerifyRow
from cedigits.oracle import FINITE_SAMPLE_DISCLAIMER
from cedigits.primes import is_prime
from cedigits.stats import prefix_counts_at_boundaries

HALF3 = Fraction(3, 2)
DECIMAL = NumberSpec(Naturals(), 10)
POINT = LilPoint(16, 3, Fraction(-1, 2), 0.25)
SAMPLE = HypothesisSample(100, 25, 1.25, False)


def _examples():
    """(value, an equal value built apart, a value that differs in one
    field, its repr)"""
    spec = NumberSpec(Primes(), 10, HALF3)
    return [
        (Naturals(), Naturals(), Primes(), "Naturals()"),
        (Primes(), Primes(), Composites(), "Primes()"),
        (Composites(), Composites(), Naturals(), "Composites()"),
        (
            Polynomial((1, 2), "primes"),
            Polynomial([1, 2], "primes"),
            Polynomial((1, 2)),
            "Polynomial(coefficients=(1, 2), argument='primes')",
        ),
        (Explicit((2, 5)), Explicit([2, 5]), Explicit((2, 6)), "Explicit(values=(2, 5))"),
        (
            Complement(Primes()),
            Complement(Primes()),
            Complement(Composites()),
            "Complement(inner=Primes())",
        ),
        (
            spec,
            NumberSpec(Primes(), 10, Fraction(6, 4)),
            NumberSpec(Primes(), 16, HALF3),
            "NumberSpec(sequence=Primes(), base=10, multiplier=Fraction(3, 2))",
        ),
        (
            OracleParams(10, 2, 3),
            OracleParams(10, Fraction(2), 3),
            OracleParams(10, 2, 4),
            "OracleParams(base=10, multiplier=Fraction(2, 1), k=3)",
        ),
        (
            POINT,
            LilPoint(16, 3, Fraction(-2, 4), 0.25),
            LilPoint(17, 3, Fraction(-1, 2), 0.25),
            "LilPoint(n=16, count=3, discrepancy=Fraction(-1, 2), statistic=0.25)",
        ),
        (
            Trajectory(spec, 1, (POINT,)),
            Trajectory(NumberSpec(Primes(), 10, HALF3), 1, (POINT,)),
            Trajectory(spec, 2, (POINT,)),
            "Trajectory(spec=NumberSpec(sequence=Primes(), base=10, "
            "multiplier=Fraction(3, 2)), symbol=1, points=(LilPoint(n=16, count=3, "
            "discrepancy=Fraction(-1, 2), statistic=0.25),))",
        ),
        (
            SAMPLE,
            HypothesisSample(100, 25, 1.25, False),
            HypothesisSample(100, 25, 1.25, True),
            "HypothesisSample(x=100, count=25, ratio=1.25, holds_at_x=False)",
        ),
        (
            HypothesisReport("primes", 10, Fraction(1), 1.5, (SAMPLE,), "d"),
            HypothesisReport("primes", 10, Fraction(1), 1.5, (SAMPLE,), "d"),
            HypothesisReport("primes", 10, Fraction(1), 1.5, (SAMPLE,)),
            "HypothesisReport(sequence='primes', base=10, multiplier=Fraction(1, 1), "
            "threshold=1.5, samples=(HypothesisSample(x=100, count=25, ratio=1.25, "
            "holds_at_x=False),), disclaimer='d')",
        ),
        (
            VerifyRow(2, Fraction(1), 1, 2, 2, 1, 1),
            VerifyRow(2, Fraction(1), 1, 2, 2, 1, 1),
            VerifyRow(2, Fraction(1), 1, 2, 2, 1, 0),
            "VerifyRow(base=2, c=Fraction(1, 1), k=1, d_oracle=2, d_stream=2, "
            "ones_oracle=1, ones_stream=1)",
        ),
    ]


EXAMPLES = _examples()
IDS = [type(value).__name__ + str(i) for i, (value, *_) in enumerate(EXAMPLES)]


@pytest.mark.parametrize("value,same,other,text", EXAMPLES, ids=IDS)
class TestFrozenRecords:
    def test_repr(self, value, same, other, text):
        assert repr(value) == text
        assert repr(same) == text

    def test_equality_on_fields(self, value, same, other, text):
        assert value == same and not value != same
        assert value != other and not value == other
        assert value != text  # another type compares unequal, without error

    def test_hash_follows_equality(self, value, same, other, text):
        assert hash(value) == hash(same)
        assert len({value, same, other}) == 2
        assert {value: 1}[same] == 1

    def test_fields_cannot_be_assigned_or_deleted(self, value, same, other, text):
        # the first field named in the repr, and a name that is no field
        names = [*re.findall(r"^\w+\((\w+)=", text), "spare"]
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == same


    def test_copies_and_pickles_as_equal_values(self, value, same, other, text):
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


class TestDefaultsAndConversions:
    def test_defaults(self):
        assert Polynomial((0, 1)).argument == "naturals"
        assert NumberSpec(Naturals(), 10).multiplier == Fraction(1)
        assert HypothesisReport("s", 10, Fraction(1), 1.0, ()).disclaimer == (
            FINITE_SAMPLE_DISCLAIMER
        )
        cursor = StreamCursor(NumberSpec(Naturals(), 10))
        assert (cursor.position, cursor.integer, cursor.rep, cursor.offset) == (0, 0, 0, 0)

    def test_keywords_name_the_fields(self):
        spec = NumberSpec(sequence=Naturals(), base=10, multiplier=2)
        assert spec == NumberSpec(Naturals(), 10, Fraction(2))
        assert OracleParams(base=2, multiplier=1, k=3) == OracleParams(2, 1, 3)
        assert Polynomial(coefficients=(0, 1), argument="primes").argument == "primes"
        assert Explicit(values=(3,)).values == (3,)
        assert Complement(inner=Primes()).inner == Primes()
        cursor = StreamCursor(spec=spec, position=1, integer=1, rep=0, offset=1)
        assert cursor == StreamCursor(spec, 1, 1, 0, 1)

    def test_conversions(self):
        assert type(Polynomial([0, 1]).coefficients) is tuple
        assert type(Explicit([1, 2]).values) is tuple
        assert type(NumberSpec(Naturals(), 10, 2).multiplier) is Fraction
        assert type(OracleParams(10, 2, 1).multiplier) is Fraction
        # the records that only carry values keep what they are given
        assert VerifyRow(2, 1, 1, 2, 2, 1, 1).c == 1
        assert HypothesisReport("s", 10, 1, 1.0, []).samples == []

    def test_values_from_the_library(self):
        spec = NumberSpec(Naturals(), 10)
        traj = trajectory(spec, 1, [20])
        assert traj.spec is spec and traj.symbol == 1 and len(traj.points) == 1
        report = hypothesis_report(Primes(), 10, 1, [100])
        assert report.samples == (HypothesisSample(100, 25, report.samples[0].ratio, False),)
        assert report.disclaimer == FINITE_SAMPLE_DISCLAIMER


VALIDATION = [
    (lambda: Polynomial((5,)), "polynomial must be non-constant (degree >= 1)"),
    (lambda: Polynomial((1, -1, 2)), "polynomial coefficients must be nonnegative"),
    (lambda: Polynomial((1, 0)), "polynomial leading coefficient must be positive"),
    (lambda: Polynomial((0, 1), "odds"), "unknown polynomial argument 'odds'"),
    (lambda: Explicit((0, 2)), "explicit members must be positive"),
    (lambda: Explicit((2, 2)), "explicit members must be strictly increasing"),
    (lambda: Complement(Naturals()), "complement of the naturals is empty"),
    (lambda: Complement(Polynomial((0, 1))), "complement of the naturals is empty"),
    (lambda: NumberSpec(Naturals(), 1), "base must be at least 2"),
    (lambda: NumberSpec(Naturals(), 10, HALF3 - 1), "multiplier must be at least 1"),
    (lambda: OracleParams(1, 1, 1), "base must be at least 2"),
    (lambda: OracleParams(2, Fraction(1, 2), 1), "multiplier must be at least 1"),
    (lambda: OracleParams(2, 1, 0), "block length k must be at least 1"),
    (
        lambda: StreamCursor(NumberSpec(Primes(), 10), 1, 4, 0, 1),
        "4 is not a member of primes",
    ),
    (
        lambda: StreamCursor(NumberSpec(Primes(), 10, HALF3), 3, 11, 2, 0),
        "repetition index out of range",
    ),
    (lambda: StreamCursor(NumberSpec(Primes(), 10), 3, 11, 0, 3), "digit offset out of range"),
    (
        lambda: StreamCursor(NumberSpec(Primes(), 10), 1, 11, 0, 2),
        "position is before the digits read of its member",
    ),
    (
        lambda: StreamCursor(NumberSpec(Primes(), 10), 5),
        "a cursor before its first member has read nothing",
    ),
    (lambda: is_prime(-1), "primality is defined for nonnegative integers"),
    (lambda: floor_power(HALF3, -1), "exponent must be nonnegative"),
    (lambda: lil_bound(1), "base must be at least 2"),
    (lambda: discrepancy(0, 0, 1), "base must be at least 2"),
    (lambda: discrepancy(-1, 0, 10), "counts must be nonnegative"),
    (lambda: DigitCounter(1), "base must be at least 2"),
    (lambda: DigitCounter(10, [0] * 9), "counts must be one nonnegative entry per symbol"),
    (lambda: DigitCounter(10, [-1] + [0] * 9), "counts must be one nonnegative entry per symbol"),
    (lambda: DigitCounter(10).add_block((1,), copies=-1), "copies must be nonnegative"),
    (lambda: DigitCounter(10).add_block((1, 10)), "digit 10 out of range for base 10"),
    (lambda: DigitCounter(10).add(10), "digit 10 out of range for base 10"),
    (lambda: count_symbol_prefix(DECIMAL, 10, 5), "symbol 10 out of range for base 10"),
    (lambda: count_symbol_prefix(DECIMAL, 1, -1), "prefix length must be nonnegative"),
    (lambda: counter_prefix(DECIMAL, -1), "prefix length must be nonnegative"),
    (
        lambda: prefix_counts_at_boundaries(DECIMAL, 1, [5, 5]),
        "boundary members must be strictly increasing",
    ),
    (lambda: to_digits(5, 1), "base must be at least 2"),
    (lambda: digit_length(5, 1), "base must be at least 2"),
    (lambda: digit_length(0, 10), "digit length is defined for positive integers"),
    (lambda: open_stream(DECIMAL).read(-1), "cannot read a negative number of digits"),
]


@pytest.mark.parametrize("build,message", VALIDATION)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_values_at_the_edges():
    # below 4 the composites' closed form x - pi(x) - 1 is clamped to 0
    assert [Composites().count(x) for x in (-5, 0, 1, 2, 3, 4)] == [0, 0, 0, 0, 0, 1]
    assert not Polynomial((0, 1)).is_member(0)
    assert (DigitCounter(10) == 5) is False
    assert repr(DigitCounter(2, [3, 1])) == "DigitCounter(base=2, counts=[3, 1])"
    assert str(NumberSpec(Primes(), 16, HALF3)) == "primes|b=16|c=3/2"


class TestStreamCursor:
    SPEC = NumberSpec(Primes(), 10, HALF3)

    def test_repr_shows_the_public_state(self):
        cursor = open_stream(self.SPEC)
        cursor.read(7)
        assert repr(cursor) == (
            "StreamCursor(spec=NumberSpec(sequence=Primes(), base=10, "
            "multiplier=Fraction(3, 2)), position=7, integer=11, rep=1, offset=1)"
        )

    def test_equality_ignores_how_the_state_was_reached(self):
        walked = open_stream(self.SPEC)
        walked.read(7)
        restored = StreamCursor.from_checkpoint(walked.checkpoint())
        assert walked == restored and not walked != restored
        assert walked == StreamCursor(self.SPEC, 7, 11, 1, 1)
        restored.read(1)
        assert walked != restored
        assert walked != "StreamCursor"

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(open_stream(self.SPEC))

    def test_public_state_moves_as_it_reads(self):
        cursor = open_stream(self.SPEC)
        cursor.read(3)
        cursor.position = cursor.position  # the state is the cursor's own to move
        assert (cursor.position, cursor.integer, cursor.rep, cursor.offset) == (3, 5, 0, 1)


def test_parsed_number_specs_are_shared():
    text = "composites|b=16|c=3/2"
    first = parse_number_spec(text)
    assert parse_number_spec(text) is first
    assert first == NumberSpec(Composites(), 16, HALF3)
    assert StreamCursor.from_checkpoint(f"position=0 integer=0 rep=0 offset=0 spec={text}").spec is first
