import io
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cedigits import (
    DigitCounter,
    Explicit,
    Naturals,
    NumberSpec,
    Primes,
    SequenceExhaustedError,
    UndefinedStatisticError,
    block_stream,
    count_symbol_prefix,
    counter_prefix,
    discrepancy,
    lil_bound,
    lil_statistic,
    open_stream,
    parse_sequence,
    trajectory,
)

from conftest import concat_stream

HALF3 = Fraction(3, 2)


class TestCounter:
    def test_accumulate_binary_example(self):
        counter = DigitCounter(2)
        for d in (1, 1, 0, 1):
            counter.add(d)
        assert counter.counts == [1, 3]
        assert counter.total == 4

    def test_champernowne_25_digit_counts(self):
        # the 25-digit prefix is "1234567891011121314151617";
        # a literal character count puts ten 1s in it (the eleventh
        # arrives with the next digit, the leading 1 of 18)
        prefix = "1234567891011121314151617"
        counter = counter_prefix(NumberSpec(Naturals(), 10), 25)
        assert counter.total == 25
        assert counter.counts[1] == prefix.count("1") == 10
        counter26 = counter_prefix(NumberSpec(Naturals(), 10), 26)
        assert counter26.counts[1] == 11

    def test_rejects_out_of_range_digit(self):
        counter = DigitCounter(2)
        with pytest.raises(ValueError):
            counter.add(2)

    def test_merge_componentwise(self):
        a = DigitCounter(10)
        b = DigitCounter(10)
        for d in (1, 2, 1):
            a.add(d)
        for d in (9, 1):
            b.add(d)
        merged = a.merge(b)
        assert merged.counts[1] == 3
        assert merged.total == 5

    def test_merge_base_mismatch(self):
        with pytest.raises(ValueError):
            DigitCounter(2).merge(DigitCounter(3))

    def test_merge_identity(self):
        a = DigitCounter(5, [1, 2, 3, 4, 5])
        assert a.merge(DigitCounter(5)) == a

    @given(
        st.integers(min_value=2, max_value=12).flatmap(
            lambda b: st.tuples(
                st.just(b),
                st.lists(st.integers(min_value=0, max_value=b - 1), max_size=80),
                st.lists(st.integers(min_value=0, max_value=b - 1), max_size=80),
                st.lists(st.integers(min_value=0, max_value=b - 1), max_size=80),
            )
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_merge_associative_commutative(self, case):
        base, xs, ys, zs = case

        def build(digits):
            c = DigitCounter(base)
            c.add_block(digits)
            return c

        a, b, c = build(xs), build(ys), build(zs)
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))
        assert a.merge(b).total == len(xs) + len(ys)

    def test_add_block_copies(self):
        c = DigitCounter(10)
        c.add_block((1, 2, 1), 4)
        assert c.counts[1] == 8
        assert c.counts[2] == 4
        assert c.total == 12


class TestLil:
    def test_bound_examples(self):
        assert lil_bound(2) == 0.5
        assert lil_bound(4) == math.sqrt(3) / 4
        assert abs(lil_bound(10) - 0.3) < 1e-15
        assert abs(lil_bound(25) - math.sqrt(24) / 25) < 1e-15

    def test_zero_discrepancy(self):
        assert lil_statistic(8, 16, 2) == 0.0

    def test_value_at_16(self):
        # (12 - 16/2) / sqrt(2 * 16 * ln ln 16)
        assert lil_statistic(12, 16, 2) == pytest.approx(0.7002150649682465, abs=1e-12)

    def test_undefined_below_16(self):
        with pytest.raises(UndefinedStatisticError):
            lil_statistic(3, 15, 2)

    @given(
        st.integers(min_value=16, max_value=10**6),
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_sign_matches_exact_discrepancy(self, n, base, count):
        stat = lil_statistic(count, n, base)
        exact = discrepancy(count, n, base)
        assert (stat > 0) == (exact > 0)
        assert (stat == 0) == (exact == 0)

    def test_past_the_float_range(self):
        # the one-digit naturals in base 10, each written c = 10**400 times:
        # 9c digits, c of them ones, so the discrepancy is c/10 and the
        # statistic (c/10) / sqrt(18 c ln ln 9c), about 1e199
        c = 10**400
        log = math.log(c // 10) - (math.log(18 * c) + math.log(math.log(math.log(9 * c)))) / 2
        assert lil_statistic(c, 9 * c, 10) == pytest.approx(math.exp(log), rel=1e-11)
        assert lil_statistic(c // 10, c, 10) == 0.0
        assert lil_statistic(10**600, 10**1400, 10) < 0
        # past the float range the statistic itself is infinite
        assert lil_statistic(10**1000, 9 * 10**1000, 10) == math.inf
        assert lil_statistic(0, 10**1400, 10) == -math.inf

    @given(
        st.integers(min_value=16, max_value=2**1015),
        st.integers(min_value=2, max_value=2**16),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    @example(2**1001 + 12345, 10, None)
    @example(2**1015, 3, None)
    def test_equals_the_plain_formula_where_it_is_finite(self, n, base, data):
        """Scaling by powers of two leaves every bit of the statistic as
        the unscaled formula computes it, for n up to 2**1015 and any
        count up to n."""
        count = data.draw(st.integers(0, n)) if data else n // base + 1
        plain = float(discrepancy(count, n, base)) / math.sqrt(2 * n * math.log(math.log(n)))
        assert math.isfinite(plain)
        assert lil_statistic(count, n, base) == plain

    def test_discrepancy_is_exact(self):
        assert discrepancy(12, 17, 2) == Fraction(7, 2)
        assert discrepancy(11, 25, 10) == Fraction(17, 2)


class TestBlockStream:
    def test_width_one_is_identity(self):
        spec = NumberSpec(Naturals(), 10)
        direct = open_stream(spec).read(30)
        grouped = list(itertools.islice(block_stream(open_stream(spec), 1), 30))
        assert bytes(grouped) == direct

    def test_pairs_of_decimal_champernowne(self):
        cursor = open_stream(NumberSpec(Naturals(), 10))
        assert list(itertools.islice(block_stream(cursor, 2), 5)) == [12, 34, 56, 78, 91]

    def test_binary_pairs(self):
        cursor = open_stream(NumberSpec(Naturals(), 2))
        # digits 1, 1, 0, 1, 1 -> pairs (1,1), (0,1)
        assert list(itertools.islice(block_stream(cursor, 2), 2)) == [3, 1]

    def test_trailing_partial_block_dropped(self):
        cursor = open_stream(NumberSpec(Explicit((1, 2, 3)), 10))
        assert list(block_stream(cursor, 2)) == [12]

    def test_rejects_width_zero(self):
        with pytest.raises(ValueError):
            next(block_stream(open_stream(NumberSpec(Naturals(), 10)), 0))

    @given(st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_values_in_grouped_base(self, m):
        cursor = open_stream(NumberSpec(Primes(), 3, HALF3))
        vals = list(itertools.islice(block_stream(cursor, m), 100))
        assert all(0 <= v < 3**m for v in vals)


class TestPrefixCounting:
    def test_matches_enumeration(self):
        spec = NumberSpec(Primes(), 10, HALF3)
        want = concat_stream(spec.sequence.members(0), 10, 3, 2, 700)
        for n in (0, 1, 17, 300, 700):
            assert count_symbol_prefix(spec, 1, n) == want[:n].count(1)
        counter = counter_prefix(spec, 700)
        assert counter.total == 700
        for symbol in range(10):
            assert counter.counts[symbol] == want.count(symbol)

    def test_partial_block_inside_repetition(self):
        # 5 = 101 three times: 101 101 101; prefix of 7 holds five 1s
        spec = NumberSpec(Explicit((5,)), 2, HALF3)
        assert count_symbol_prefix(spec, 1, 7) == 5
        assert count_symbol_prefix(spec, 0, 7) == 2

    @pytest.mark.parametrize("base", (10, 256, 257, 300))
    @pytest.mark.parametrize("sequence", ("naturals", "explicit:"))
    def test_zero_length_prefix_counts_nothing(self, sequence, base):
        spec = NumberSpec(parse_sequence(sequence), base, HALF3)
        for symbol in (0, 1, base - 1):
            assert count_symbol_prefix(spec, symbol, 0) == 0
        counter = counter_prefix(spec, 0)
        assert counter == DigitCounter(base)
        assert counter.total == 0

    def test_finite_stream_too_short(self):
        spec = NumberSpec(Explicit((5,)), 2, HALF3)
        with pytest.raises(SequenceExhaustedError):
            count_symbol_prefix(spec, 1, 10)

    def test_counts_sum_to_n(self):
        spec = NumberSpec(Naturals(), 3, Fraction(2))
        for n in (1, 2, 50, 1234):
            assert counter_prefix(spec, n).total == n


class TestTrajectory:
    def test_single_checkpoint_example(self):
        traj = trajectory(NumberSpec(Naturals(), 2), 1, [17])
        (point,) = traj.points
        assert point.n == 17
        assert point.count == 12
        assert point.discrepancy == Fraction(7, 2)
        assert point.statistic == pytest.approx(0.5881896741798713, abs=1e-12)

    def test_checkpoint_mid_repetition(self):
        spec = NumberSpec(Naturals(), 2, HALF3)
        want = concat_stream(spec.sequence.members(0), 2, 3, 2, 90)
        traj = trajectory(spec, 1, [16, 33, 90])
        for point, n in zip(traj.points, (16, 33, 90)):
            assert point.count == want[:n].count(1)

    def test_monotonic_checkpoints_required(self):
        with pytest.raises(ValueError):
            trajectory(NumberSpec(Naturals(), 2), 1, [20, 20])

    def test_small_checkpoints_rejected(self):
        with pytest.raises(UndefinedStatisticError):
            trajectory(NumberSpec(Naturals(), 2), 1, [15, 20])

    def test_empty_checkpoints(self):
        traj = trajectory(NumberSpec(Naturals(), 2), 1, [])
        assert traj.points == ()

    def test_zero_statistic_point(self):
        # 43690 = 1010101010101010 in binary: exactly half ones
        traj = trajectory(NumberSpec(Explicit((43690,)), 2), 1, [16])
        assert traj.points[0].statistic == 0.0
        assert traj.points[0].discrepancy == 0

    def test_csv_format(self):
        traj = trajectory(NumberSpec(Naturals(), 2), 1, [17])
        buf = io.StringIO()
        traj.write_csv(buf)
        stat = repr(traj.points[0].statistic)
        assert buf.getvalue() == (
            "n,count,discrepancy_num,discrepancy_den,statistic\n"
            f"17,12,7,2,{stat}\n"
        )

    def test_csv_empty_is_header_only(self):
        traj = trajectory(NumberSpec(Naturals(), 2), 1, [])
        buf = io.StringIO()
        traj.write_csv(buf)
        assert buf.getvalue() == "n,count,discrepancy_num,discrepancy_den,statistic\n"


class TestChunkedCounting:
    def test_partition_equals_sequential(self):
        spec = NumberSpec(Naturals(), 10, HALF3)
        n = 5000
        whole = open_stream(spec)
        sequential = DigitCounter(10)
        sequential.add_block(whole.read(n))
        rng = random.Random(7)
        cuts = sorted(rng.sample(range(1, n), 5))
        edges = [0] + cuts + [n]
        parts = []
        for lo, hi in zip(edges, edges[1:]):
            cursor = open_stream(spec)
            cursor.skip_to(lo)
            chunk = DigitCounter(10)
            chunk.add_block(cursor.read(hi - lo))
            parts.append(chunk)
        rng.shuffle(parts)
        merged = parts[0]
        for p in parts[1:]:
            merged = merged.merge(p)
        assert merged == sequential
        assert merged.total == n
