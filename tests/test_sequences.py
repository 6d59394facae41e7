import itertools
import sys
from bisect import bisect_right
from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cedigits import (
    CapExceededError,
    Complement,
    Composites,
    Explicit,
    Naturals,
    NumberSpec,
    Polynomial,
    Primes,
    SequenceExhaustedError,
    counter_prefix,
    open_stream,
    parse_sequence,
)
from cedigits import primes
from cedigits.primes import (
    SEGMENT_SIZE,
    CompositeBatch,
    composite_batches,
    is_prime,
    iter_composites,
    iter_primes,
    prime_batches,
    prime_count,
    span_width,
)
from cedigits.rational import parse_rational
from cedigits.sequences import MAX_BATCH, parse_int_list

from conftest import (
    lucy_prime_count,
    plain_sieve,
    simple_prime_count,
    trial_division_is_prime,
)


def take(spec, n, after=0):
    return list(itertools.islice(spec.members(after), n))


# the base primes a span strikes itself; 2 to 13 are the wheel's
SIEVING_PRIMES = [p for p in range(17, 3000) if trial_division_is_prime(p)]
WHEEL_PERIOD = 2 * 3 * 5 * 7 * 11 * 13


class TestExamples:
    def test_next_member_composites_starts_at_four(self):
        assert Composites().next_member(0) == 4

    def test_next_member_naturals(self):
        assert Naturals().next_member(0) == 1

    def test_next_member_primes(self):
        assert Primes().next_member(10) == 11

    def test_next_member_past_the_decimal_str_limit_raises_exhausted(self):
        # the error names the bound in full
        with pytest.raises(SequenceExhaustedError, match=f"after 1{'0' * 5000}$"):
            Explicit((1,)).next_member(10**5000)

    def test_one_is_neither_prime_nor_composite(self):
        assert not Primes().is_member(1)
        assert not Composites().is_member(1)
        assert Complement(Primes()).is_member(1)

    def test_squares_membership(self):
        squares = Polynomial((0, 0, 1))
        assert squares.is_member(9)
        assert not squares.is_member(10)

    def test_counting_primes_to_100(self):
        assert Primes().count(100) == 25

    def test_counting_naturals(self):
        assert Naturals().count(7) == 7

    def test_counting_complement_of_primes(self):
        # 1, 4, 6, 8, 9, 10
        assert Complement(Primes()).count(10) == 6

    def test_counting_composites(self):
        assert Composites().count(10) == 5

    def test_empty_explicit_counts_zero(self):
        assert Explicit(()).count(100) == 0


class TestPrimesMachinery:
    def test_agreement_with_trial_division_to_one_million(self):
        """Point primality (strong pseudoprime test) against trial division."""
        limit = 10**6
        flags = bytearray([1]) * (limit + 1)
        flags[0] = flags[1] = 0
        p = 2
        while p * p <= limit:
            if flags[p]:
                flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
            p += 1
        mismatches = [n for n in range(limit + 1) if bool(flags[n]) != is_prime(n)]
        assert mismatches == []
        # the sieve used above is itself checked against trial division
        # on a sample, so the two oracles cannot share a systematic bug
        for n in range(0, 2000):
            assert bool(flags[n]) == trial_division_is_prime(n)

    def test_witness_tiers_at_their_edges(self):
        # the least strong pseudoprime to the first k primes, k = 1 to 8
        # (OEIS A014233), is composite: the tiers' edges are among them;
        # primes near 2**32, 2**61 and 2**64 are prime
        pseudoprimes = [2047, 1373653, 25326001, 3215031751, 2152302898747,
                        3474749660383, 341550071728321, 3825123056546413051]
        assert not any(map(is_prime, pseudoprimes))
        assert all(map(is_prime, [4294967291, 2**61 - 1, 2**64 - 59]))

    def test_generator_matches_point_queries(self):
        gen = list(itertools.islice(iter_primes(2), 1000))
        assert all(is_prime(p) for p in gen)
        assert gen == sorted(gen)
        assert gen[0] == 2 and gen[999] == 7919

    def test_composite_generator(self):
        gen = list(itertools.islice(iter_composites(4), 50))
        assert gen[:8] == [4, 6, 8, 9, 10, 12, 14, 15]
        assert all(not is_prime(c) for c in gen)

    def test_segmented_count_matches_simple_sieve(self):
        for x in (0, 1, 2, 3, 10, 100, 1000, 65535, 65536, 65537, 10**5):
            assert prime_count(x) == simple_prime_count(x)

    def test_span_widths_widen_at_every_second_power_of_two(self):
        """2**16 below 2**21, then 2**17, 2**18, 2**19 and the cap 2**20,
        each from an odd power of two; each width divides the power of
        two where it starts, so every walk keeps to one grid."""
        want = {0: 2**16, 2**21 - 1: 2**16, 2**21: 2**17, 2**23 - 1: 2**17, 2**23: 2**18,
                2**25: 2**19, 2**27 - 1: 2**19, 2**27: 2**20, 10**12: 2**20, 2**64: 2**20}
        assert {n: span_width(n) for n in want} == want
        for k in range(16, 70):
            assert 2**k % span_width(2**k) == 0 and span_width(2**k - 1) <= span_width(2**k)

    @pytest.mark.parametrize("start", [4, 1000, 65_000, 10**6 + 1, 2**21 - 3000])
    def test_walks_cross_growing_segment_edges(self, start):
        # a walk from ``start`` reads the span that holds start from start,
        # and each later span whole; both senses cut it alike, into the
        # walk's first MAX_BATCH integers, the rest of their span and each
        # later span whole.  The window runs 1, 2, 4 and 8 times MAX_BATCH
        # on, from 65 000 across the span edge at 65 536, and from
        # 2**21 - 3000 across the edge where spans widen to 2**17
        def span(m: int) -> int:
            return m - m % span_width(m)  # where the span that holds m starts

        def stretches() -> Iterator[tuple[int, int]]:
            end = span(start) + span_width(start)
            yield start, min(start + MAX_BATCH, end)
            if start + MAX_BATCH < end:
                yield start + MAX_BATCH, end
            while True:
                yield end, end + span_width(end)
                end += span_width(end)

        edges = [start + MAX_BATCH * 2**k for k in range(4)]
        window = range(start, edges[-1] + 40)
        want_primes = [n for n in window if trial_division_is_prime(n)]
        want_composites = [n for n in window if n >= 4 and not trial_division_is_prime(n)]
        assert list(itertools.islice(iter_primes(start), len(want_primes))) == want_primes
        assert list(itertools.islice(iter_composites(start), len(want_composites))) == want_composites
        for walk in prime_batches(start), composite_batches(start):
            views = list(itertools.islice(walk, 3))
            assert [(v.lo + v.start, v.lo + v.stop) for v in views] == [
                *itertools.islice(stretches(), 3)
            ]
            for view in views:
                assert view.stop <= len(view.flags) == span_width(view.lo)
                assert view.lo == span(view.lo + view.start) and view[-1] < view.lo + view.stop
        # a batch is a step-1 range of any length, or 1..MAX_BATCH members,
        # or a stretch of one span read off the sieve flags; a polynomial
        # over the primes maps MAX_BATCH of them at a time
        spanned = (Primes(), Composites(), Complement(Primes()))
        for spec, want in (
            (Naturals(), list(window)),
            (Primes(), want_primes),
            (Composites(), want_composites),
            (Polynomial((1, 1)), list(window)),
            (Polynomial((0, 1), "primes"), want_primes),
            (Explicit(tuple(window)), list(window)),
            (Complement(Primes()), want_composites),
            (Complement(Polynomial((window[-1], 1))), list(window)),
        ):
            batches = list(itertools.islice(spec.batches(start - 1), 40))
            for b in batches:
                assert b and (
                    type(b) is range and b.step == 1
                    or len(b) <= MAX_BATCH
                    or spec in spanned and span(b[0]) == span(b[-1])
                )
            got = list(itertools.islice(itertools.chain.from_iterable(batches), len(want)))
            assert got == want

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            st.integers(0, 20),
            st.builds(lambda k, d: WHEEL_PERIOD * k + d, st.integers(1, 10**4), st.integers(-1, 1)),
            st.builds(lambda p, d: p * p + d, st.sampled_from(SIEVING_PRIMES), st.integers(-1, 1)),
            st.integers(0, 10**10),
        )
    )
    @example(2**21 - 5)
    @example(2**23 - 2**17 + 7)
    @example(2**27 - 1)
    def test_segment_flags_match_point_queries(self, start):
        """The flags at both ends of the first two spans of a walk from
        ``start``, the first read from start, integer by integer: near 0,
        where the wheel is patched, at the ends of the wheel's period,
        where a base prime's square starts its strikes, across the span
        edge, where the walk carries its offsets, and where spans widen."""
        lo = start
        for span_lo, flags, at in itertools.islice(primes._segments(start), 2):
            width = len(flags)
            assert span_lo + at == lo and width == span_width(span_lo) and span_lo % width == 0
            for i in (at, max(width - 2 * MAX_BATCH, at)):
                j = min(i + 2 * MAX_BATCH, width)
                assert flags[i:j] == bytes(map(is_prime, range(span_lo + i, span_lo + j)))
            lo = span_lo + width

    @pytest.mark.parametrize("start", [0, 10**6 + 12_345])
    def test_walk_grows_the_base_primes_from_two(self, monkeypatch, start):
        """A walk that starts with only the prime 2 known grows the base
        primes as it goes, first from 3, an odd start, and carries each
        prime's next odd multiple across four spans, where the primes
        from 997 up join the walk from 10**6 + 12 345, whose first span
        starts at 983 040."""
        monkeypatch.setattr(primes, "_base_primes", [2])
        # and no span kept from an earlier walk, which this one would read
        monkeypatch.setattr(primes, "_kept", (0, bytearray(), [], []))
        first = start - start % SEGMENT_SIZE  # the span on the grid that holds start
        stop = first + 4 * SEGMENT_SIZE
        walked = bytearray()
        spans = []
        for lo, flags, at in itertools.islice(primes._segments(start), 4):
            walked += flags[at:]
            spans.append((lo, at, len(flags)))
        los = range(first, stop, SEGMENT_SIZE)
        assert spans == [(lo, max(start - lo, 0), SEGMENT_SIZE) for lo in los]
        assert walked == plain_sieve(stop)[start:]
        base = primes._base_primes
        assert base[-1] ** 2 >= stop
        assert base == list(itertools.compress(range(base[-1] + 1), plain_sieve(base[-1] + 1)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, SEGMENT_SIZE))
    @example(3, 2)
    @example(17 * 17, 100)
    @example(30_031, SEGMENT_SIZE)
    def test_kernel_from_any_start(self, lo, width):
        """The kernel from any start, odd or even, with the offsets
        ``_offsets`` takes there, strikes the odd multiples it should and
        carries each prime's next odd multiple past the stretch."""
        hi = lo + width
        primes._grow(hi)
        struck = [p for p in primes._base_primes[6:] if p * p < hi]
        offsets = primes._offsets(struck, lo)
        assert primes._sieve(lo, width, struck, offsets) == expected_flags(lo, hi)
        assert offsets == [(p - hi) % (2 * p) for p in struck]

    def test_strikes_leave_the_shared_zeros_zero(self):
        """Every strike is a slice of the one writable ``_ZERO``: after a
        walk across spans at 2**24, a growth of the base primes and a
        count, each of its bytes is still zero and its length unchanged."""
        list(itertools.islice(prime_batches(2**24), 4))
        primes._grow(primes._base_primes[-1] ** 2 + 1)
        assert prime_count(10**8) == 5_761_455
        assert primes._ZERO.count(0) == len(primes._ZERO) == primes.MAX_SPAN // 34 + 1

    def test_deep_walk_matches_point_queries(self):
        # a walk near 10**12 grows the shared base primes to 10**6 and more
        start = 10**12 - 2000
        window = range(start, start + 4000)
        assert list(itertools.islice(iter_primes(start), 100)) == [
            n for n in window if is_prime(n)
        ][:100]
        assert primes._base_primes[-1] ** 2 >= start
        assert all(is_prime(p) for p in primes._base_primes[-200:])

    def test_point_query_range_limit(self):
        with pytest.raises(ValueError):
            is_prime(1 << 64)

    def test_counting_cap_is_an_error_not_an_estimate(self):
        with pytest.raises(CapExceededError):
            Primes().count(10**6, cap=10**5)
        with pytest.raises(CapExceededError):
            Composites().count(10**6, cap=10**5)


KEPT_LIMIT = 2 * 10**6  # a plain sieve checks the flags below it, point queries those above


@cache
def reference_flags() -> bytes:
    return bytes(plain_sieve(KEPT_LIMIT))


def expected_flags(lo: int, hi: int) -> bytes:
    """Prime flags of [lo, hi): a plain sieve's, or point queries past it."""
    if hi <= KEPT_LIMIT:
        return reference_flags()[lo:hi]
    return bytes(map(is_prime, range(lo, hi)))


def walk(start: int, spans: int) -> bytearray:
    """The flags of the first ``spans`` spans of a walk from ``start``,
    from where it reads each, each checked to start where the last one
    ended, at a multiple of its width."""
    walked = bytearray()
    for lo, flags, at in itertools.islice(primes._segments(start), spans):
        assert lo + at == start + len(walked)
        assert len(flags) == span_width(lo) and lo % len(flags) == 0
        walked += flags[at:]
    return walked


def check_kept() -> None:
    """The kept span starts at a multiple of its width and holds exact
    flags, every prime from 17 whose square lies below its end, and for
    each the offset of its next odd multiple past the end, as a fresh
    walk from there takes them."""
    lo, flags, struck, offsets = primes._kept
    assert len(flags) == span_width(lo) and lo % len(flags) == 0  # every span lies on one grid
    end = lo + len(flags)
    assert flags == expected_flags(lo, end)
    root = isqrt(end - 1)
    assert struck == [p for p in range(17, root + 1) if reference_flags()[p]]
    assert offsets == [(p - end) % (2 * p) for p in struck]


class TestKeptSpan:
    """Every walk hands out whole spans of span_width integers, each
    starting at a multiple of its width, and the last span any walk
    sieved is kept for the next: a walk from inside it reads it from
    there, and every span after a walk's first is sieved at the end of
    the walk's own last one, carrying its offsets.  Every walk is checked
    against a plain sieve and point queries, and no consumer of the flags
    changes them."""

    LO = 10**6 + 12_345
    SPAN = LO - LO % SEGMENT_SIZE  # 983 040, where the span that holds LO starts
    END = SPAN + SEGMENT_SIZE  # 1 048 576, where it ends

    def test_walks_from_inside_the_kept_span_slice_it(self):
        walk(self.LO, 1)
        kept = primes._kept
        assert kept[0] == self.SPAN
        before = bytes(kept[1])
        for start in (self.SPAN, self.LO, self.LO + 450, self.END - 2 * MAX_BATCH):
            assert walk(start, 1) == expected_flags(start, self.END)
            assert primes._kept is kept  # nothing sieved
        assert kept[1] == before
        check_kept()

    @pytest.mark.parametrize("back", [1, 500, MAX_BATCH - 1])
    def test_segment_straddling_the_kept_end(self, monkeypatch, back):
        """A walk from inside the kept span reads it, then sieves one span
        at its end, not at its start, where only the primes that join
        take fresh offsets."""
        walk(self.LO, 1)
        kept = primes._kept
        before = bytes(kept[1])
        end = self.END
        primes._grow(end + SEGMENT_SIZE)  # so that only the walk takes offsets
        sieved, fresh = [], []
        span, offsets = primes._span, primes._offsets

        def recorded_span(prev, lo):
            sieved.append(lo)
            return span(prev, lo)

        def recorded_offsets(struck, lo):
            fresh.append(list(struck))
            return offsets(struck, lo)

        monkeypatch.setattr(primes, "_span", recorded_span)
        monkeypatch.setattr(primes, "_offsets", recorded_offsets)
        start = end - back
        assert walk(start, 2) == expected_flags(start, end + SEGMENT_SIZE)
        assert sieved == [end] and primes._kept[0] == end
        roots = range(isqrt(end - 1) + 1, isqrt(end + SEGMENT_SIZE - 1) + 1)
        assert fresh == [[p for p in roots if reference_flags()[p]]]
        assert kept[1] == before
        check_kept()

    @pytest.mark.parametrize("last", [2**17 - 1, 2**20 - 1])
    def test_composite_batches_cut_a_head_then_whole_spans(self, monkeypatch, last):
        """A walk from inside the kept span, 3 * MAX_BATCH - 1 flags past
        its start, yields the composites of its first MAX_BATCH integers,
        then those of the rest of the span, to ``last``, then each next
        span whole.  A walk from ``last`` itself has a head one integer
        wide: a prime there (2**17 - 1) makes no batch, and a composite
        (2**20 - 1) a batch of one."""
        lo = last + 1 - SEGMENT_SIZE
        monkeypatch.setattr(primes, "_kept", (0, bytearray(), [], []))
        walk(lo, 1)
        start = lo + 3 * MAX_BATCH - 1
        batches = list(itertools.islice(composite_batches(start), 3))
        assert 0 < len(batches[0]) <= MAX_BATCH
        members = [m for b in batches for m in b]
        assert members == [n for n in range(start, members[-1] + 1) if not reference_flags()[n]]
        end = last + 1 + span_width(last + 1)
        assert [(b.lo + b.start, b.lo + b.stop) for b in batches] == [
            (start, start + MAX_BATCH), (start + MAX_BATCH, last + 1), (last + 1, end)
        ]
        head = next(composite_batches(last))
        assert (list(head) == [last]) == (not is_prime(last))
        assert head.lo + head.start == (last if list(head) == [last] else last + 1)

    def test_walk_from_the_kept_end_carries_its_offsets(self, monkeypatch):
        walk(self.LO, 1)
        end = self.END
        fresh = []
        offsets = primes._offsets

        def recorded(struck, lo):
            fresh.append(list(struck))
            return offsets(struck, lo)

        monkeypatch.setattr(primes, "_offsets", recorded)
        assert walk(end, 1) == expected_flags(end, end + SEGMENT_SIZE)
        # only the primes that join the new span take fresh offsets
        roots = range(isqrt(end - 1) + 1, isqrt(end + SEGMENT_SIZE - 1) + 1)
        assert fresh == [[p for p in roots if reference_flags()[p]]]
        assert primes._kept[0] == end
        check_kept()

    @pytest.mark.parametrize("start", [LO, LO + 450, 10**10 + 3])
    def test_walk_continues_past_the_kept_span(self, start):
        """From inside the kept span a walk reads it and carries its
        offsets into the next two spans; from deep in the stream it sieves
        a first span of its own, from the multiple of its span's width at
        or below its start."""
        walk(self.LO, 1)
        walked = walk(start, 3)
        if start < KEPT_LIMIT:
            assert walked == expected_flags(start, start + len(walked))
        else:  # point queries on the first and the last span
            for lo in (start, primes._kept[0]):
                assert walked[lo - start : lo - start + 2000] == expected_flags(lo, lo + 2000)
        assert primes._kept[0] + len(primes._kept[1]) == start + len(walked)
        check_kept()

    @pytest.mark.parametrize(
        "start", [2, 4, 1000, 65_535, 65_536, 65_537, LO, 2**21 - 70_000, 2**23 - 300_000]
    )
    def test_cuts_depend_on_the_start_alone(self, monkeypatch, start):
        """A walk from one start cuts its prime views and its composite
        views in the same places whichever span is kept when it begins:
        none, the span at 0 that a count keeps, the span that holds LO but
        starts before it, or one far past start.  The last two starts walk
        across the edges where spans widen, at 2**21 and 2**23."""
        views_taken = 160 if start < 2**21 - SEGMENT_SIZE else 8

        def cuts(keep, kept) -> tuple[list, list]:
            keep()  # right before each walk, checked to keep the span described
            assert kept(*primes._kept[:2])
            views = itertools.islice(prime_batches(start), views_taken)
            prime_cuts = [(v.lo + v.start, v.lo + v.stop, len(v)) for v in views]
            keep()
            assert kept(*primes._kept[:2])
            batches = itertools.islice(composite_batches(start), views_taken)
            return prime_cuts, [(b[0], b[-1], len(b)) for b in batches]

        def unkept() -> None:
            monkeypatch.setattr(primes, "_kept", (0, bytearray(), [], []))

        want = cuts(unkept, lambda lo, flags: not flags)
        assert cuts(lambda: prime_count(10**6), lambda lo, flags: lo == 0 and flags) == want
        assert cuts(lambda: walk(10**6, 1), lambda lo, flags: lo < self.LO < lo + len(flags)) == want
        far = max(5 * 10**6, 2 * start)
        assert cuts(lambda: walk(far, 1), lambda lo, flags: lo > start) == want
        if start > 2**21 - SEGMENT_SIZE:  # the whole spans after the first cross a change of width
            assert len({stop - lo for lo, stop, _ in want[0][2:]}) == 2

    def test_consumers_never_change_the_flags_they_are_given(self, monkeypatch):
        """prime_count, prime_batches, composite_batches and the stream's
        counters run between walks from inside one kept span; every flag
        string handed out is unchanged after all of them, and exact."""
        handed: list[tuple[int, bytearray, bytes]] = []
        segments = primes._segments

        def recorded(start):
            for lo, flags, at in segments(start):
                handed.append((lo, flags, bytes(flags)))
                yield lo, flags, at

        monkeypatch.setattr(primes, "_segments", recorded)
        consumers = (
            lambda start: prime_count(2 * 10**7),  # sieves [0, 73 800]: two spans
            lambda start: [list(b.split(start + 700)[1]) for b in itertools.islice(prime_batches(start), 30)],
            lambda start: list(itertools.islice(composite_batches(start), 4)),  # three spans
            lambda start: counter_prefix(NumberSpec(Primes(), 10), 10**6),
            lambda start: open_stream(NumberSpec(Composites(), 16, Fraction(3, 2))).read(10**6),
        )
        walk(self.LO, 1)
        for step, consume in enumerate(consumers):
            start = self.LO + 100 * step
            walked = walk(start, 1)  # keeps a span that holds start
            assert walked == expected_flags(start, start + len(walked))
            kept = primes._kept
            before = bytes(kept[1])
            consume(start)
            assert kept[1] == before
            check_kept()
        assert len({id(flags) for _, flags, _ in handed}) > 3
        for lo, flags, before in handed:
            assert flags == before == expected_flags(lo, lo + len(flags))

    def test_a_walk_sieves_on_from_its_own_span_once_another_is_kept(self, monkeypatch):
        monkeypatch.setattr(primes, "_kept", (0, bytearray(), [], []))
        segments = primes._segments(self.LO)
        next(segments)
        prime_count(10**6)  # keeps a span of its own, at 0
        carried = []
        span = primes._span

        def recorded(prev, lo):
            carried.append((prev[0] + len(prev[1]), lo))
            return span(prev, lo)

        monkeypatch.setattr(primes, "_span", recorded)
        for lo, flags, at in itertools.islice(segments, 5):
            assert at == 0 and flags == expected_flags(lo, lo + len(flags))
        # each span is sieved at the end of the walk's last, not of the kept one
        assert carried == [(lo, lo) for lo in range(self.END, self.END + 5 * SEGMENT_SIZE, SEGMENT_SIZE)]

    def test_interleaved_walks_stay_exact(self, monkeypatch):
        """Three live walks, pulled in turn, with a count after every
        pull but the first, which keeps a span of its own.  The first
        two start in one span and both go on past its end, the second
        first: each carries that span's offsets, which the other's carry
        must have left as they were.  The third starts just before that
        span and sieves spans of its own."""
        monkeypatch.setattr(primes, "_kept", (0, bytearray(), [], []))
        starts = (self.LO, self.LO + SEGMENT_SIZE // 2, self.SPAN - 300)
        walks = [primes._segments(start) for start in starts]
        at = list(starts)
        order = [0, 1, 2, 1, 0, 2] + [1, 0, 2] * 2
        for step, k in enumerate(order):
            lo, flags, i = next(walks[k])
            assert lo + i == at[k]
            assert flags[i:] == expected_flags(at[k], lo + len(flags))
            at[k] = lo + len(flags)
            if step:
                prime_count(10**6 + step)
        check_kept()

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("inside", "end", "straddle", "before", "anywhere")),
                st.integers(0, SEGMENT_SIZE - 1),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_walks_placed_about_the_kept_span(self, walks):
        for where, shift, spans in walks:
            lo = primes._kept[0] + len(primes._kept[1])
            if not 0 < lo < 13 * 10**5:  # nothing kept yet, or kept too deep to check
                lo = self.END
            start = {
                "inside": lo - SEGMENT_SIZE + shift,
                "end": lo,
                "straddle": lo - 1 - shift % MAX_BATCH,
                "before": max(lo - SEGMENT_SIZE - 1 - shift, 0),
                "anywhere": shift * 19,
            }[where]
            walked = walk(max(start, 0), spans)
            assert walked == expected_flags(max(start, 0), max(start, 0) + len(walked))
            check_kept()


SMALL_PRIMES = [p for p in range(2, 98) if trial_division_is_prime(p)]


# every prime n up to 300 and three past it: where a = pi(cbrt(x)) steps up
CUBE_ROOTS = [n for n in range(2, 301) if trial_division_is_prime(n)] + [463, 467, 997]


class TestPrimeCount:
    """prime_count by Meissel's formula, against sieves, the Lucy recursion
    and published values."""

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_around_prime_squares(self, p):
        # p*p is where the prime p starts striking integers out
        for x in (p * p - 1, p * p, p * p + 1):
            assert prime_count(x) == simple_prime_count(x)

    @pytest.mark.parametrize("p", [997, 1009, 9973, 10007, 31607])
    def test_around_large_prime_squares(self, p):
        # p*p and the even p*p + 1 are composite, so the three counts agree
        x = p * p
        want = lucy_prime_count(x)
        assert [prime_count(v, cap=x + 1) for v in (x - 1, x, x + 1)] == [want] * 3

    @pytest.mark.parametrize("n", CUBE_ROOTS)
    def test_around_cubes(self, n):
        # n**3 and n**3 + 1 = (n + 1)(n*n - n + 1) are composite, so the
        # three counts agree, while c steps from n - 1 to n and a from
        # pi(n - 1) to pi(n) between the first two
        x = n**3
        want = lucy_prime_count(x)
        assert [prime_count(v, cap=x + 1) for v in (x - 1, x, x + 1)] == [want] * 3

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 33, 333, 3330])
    def test_around_wheel_periods(self, k):
        # phi(y, 6) is read off one period of the wheel, 30030 integers
        for x in (k * 30030 - 1, k * 30030, k * 30030 + 1):
            assert prime_count(x) == lucy_prime_count(x)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 * 10**5))
    def test_matches_oracle(self, pi_oracle, x):
        assert prime_count(x) == pi_oracle(x)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**7))
    def test_matches_lucy(self, x):
        assert prime_count(x) == lucy_prime_count(x)

    def test_no_primes_below_two(self):
        assert [prime_count(x) for x in (-(10**9), -10, -1, 0, 1)] == [0] * 5

    def test_cube_root_is_exact(self):
        for n in [*range(2, 3000), 10**6, 10**9, 2**70 + 1]:
            for x in (n**3 - 1, n**3, n**3 + 1):
                c = primes._cube_root(x)
                assert c**3 <= x < (c + 1) ** 3

    def test_depth_does_not_grow_with_a(self):
        # a = pi(1000) = 168 at 10**9: a recursion on b would need as many
        # frames, one on the divisions needs log(10**9) / log(17) < 8
        depth, frame = 0, sys._getframe()
        while frame:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            assert prime_count(10**9, cap=10**9) == 50_847_534
        finally:
            sys.setrecursionlimit(limit)

    def test_matches_segmented_sieve(self):
        xs = (10**6, 10**7 - 1, 10**7)
        want = dict.fromkeys(xs, 0)
        for seg in prime_batches(2):
            for x in xs:
                want[x] += bisect_right(seg, x)
            if seg[-1] > xs[-1]:
                break
        assert [prime_count(x) for x in xs] == [want[x] for x in xs]
        assert want[10**7] == want[10**7 - 1] == 664_579

    def test_published_value_at_the_default_cap(self):
        assert prime_count(10**8) == 5_761_455

    def test_published_value_at_ten_to_the_ten(self):
        assert prime_count(10**10, cap=10**10) == 455_052_511

    def test_cap(self):
        with pytest.raises(CapExceededError):
            prime_count(10**8 + 1)
        assert prime_count(10**9, cap=10**9) == 50_847_534

    def test_cap_past_the_decimal_str_limit(self):
        # the refusal names x in full
        with pytest.raises(CapExceededError, match=f"^prime count at 1{'0' * 5000} exceeds"):
            prime_count(10**5000)


class TestPolynomial:
    def test_no_member_below_one(self):
        # f(1) >= 1, so no argument n >= 1 has f(n) <= 0
        for spec in Polynomial((3, 1)), Polynomial((0, 1), "primes"):
            assert not any(map(spec.is_member, (-7, -1, 0)))

    def test_values_over_naturals(self):
        f = Polynomial((3, 0, 1))  # 3 + n**2
        assert take(f, 5) == [4, 7, 12, 19, 28]

    def test_values_over_primes(self):
        f = Polynomial((0, 0, 1), "primes")
        assert take(f, 5) == [4, 9, 25, 49, 121]
        assert f.is_member(49)
        assert not f.is_member(36)

    def test_short_read_over_primes_evaluates_one_batch_at_most(self, monkeypatch):
        """A span of the primes holds up to 6 542 of them; a read of 200
        digits maps the polynomial over MAX_BATCH of them at most, after
        the one value at 1 that finds where the batches start."""
        calls = []
        value = Polynomial.value

        def counted(self, n):
            calls.append(n)
            return value(self, n)

        monkeypatch.setattr(Polynomial, "value", counted)
        digits = open_stream(NumberSpec(Polynomial((0, 1), "primes"), 10)).read(200)
        assert digits == open_stream(NumberSpec(Primes(), 10)).read(200)
        assert calls[0] == 1 and 0 < len(calls) - 1 <= MAX_BATCH

    def test_counting_over_primes(self):
        f = Polynomial((0, 0, 1), "primes")
        # p**2 <= 150 for p in {2, 3, 5, 7, 11}
        assert f.count(150) == 5

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            Polynomial((5,))

    def test_rejects_negative_coefficient(self):
        with pytest.raises(ValueError):
            Polynomial((-1, 2))

    def test_rejects_zero_leading(self):
        with pytest.raises(ValueError):
            Polynomial((1, 0))

    def test_rejects_unknown_argument(self):
        with pytest.raises(ValueError):
            Polynomial((0, 1), "evens")


class TestComplement:
    def test_members_walk_gaps(self):
        assert take(Complement(Primes()), 8) == [1, 4, 6, 8, 9, 10, 12, 14]

    @pytest.mark.parametrize("inner", [Primes(), Composites()])
    def test_complements_of_the_sieve_streams_after_small_members(self, inner):
        """The complement of the primes is 1 and then the composites, that
        of the composites 1 and then the primes: the members after each of
        0..11, across the small ones, against ``is_member``."""
        spec = Complement(inner)
        for after in range(12):
            want = [n for n in range(after + 1, 200) if spec.is_member(n)][:20]
            assert take(spec, 20, after) == want

    def test_complement_of_finite_list_is_cofinite(self):
        spec = Complement(Explicit((2, 3, 7)))
        assert take(spec, 8) == [1, 4, 5, 6, 8, 9, 10, 11]

    def test_complement_of_naturals_rejected(self):
        with pytest.raises(ValueError):
            Complement(Naturals())
        # n + 0 over the naturals is the naturals too
        with pytest.raises(ValueError):
            parse_sequence("complement:poly:0,1")

    def test_complement_of_shifted_naturals_is_one_range(self):
        # 1..a leaves as one range, however wide, and nothing is left past a
        spec = Complement(Polynomial((10**30, 1)))
        assert list(itertools.islice(spec.batches(), 2)) == [range(1, 10**30 + 1)]
        assert list(spec.batches(10**30 - 5)) == [range(10**30 - 4, 10**30 + 1)]
        assert list(spec.batches(10**30)) == []

    @pytest.mark.parametrize(
        "inner",
        [Primes(), Composites(), Polynomial((3, 1)), Explicit((2, 5)), Complement(Primes())],
    )
    def test_counts_below_one_are_zero(self, inner):
        # every inner count is 0 below 1, so the complement's is clamped there
        assert [Complement(inner).count(x) for x in (-7, -1, 0)] == [0, 0, 0]

    def test_complement_of_shifted_naturals_ends(self):
        # n + 3 covers every integer from 4 on, so the complement is 1, 2, 3
        spec = parse_sequence("complement:poly:3,1")
        assert take(spec, 10) == [1, 2, 3]
        assert take(spec, 10, after=2) == [3]
        assert spec.count(10) == 3
        assert spec.next_member(2) == 3
        with pytest.raises(SequenceExhaustedError):
            spec.next_member(3)
        # unnested, the double complement is n + 3 itself
        assert take(parse_sequence("complement:complement:poly:3,1"), 5) == [4, 5, 6, 7, 8]

    def test_empty_inner_batches_are_crossed(self):
        # a spec may hand out an empty batch; the complement walks past it
        class WithEmptyBatches(Explicit):
            def batches(self, after=0):
                for batch in super().batches(after):
                    yield ()
                    yield batch

        spec = Complement(WithEmptyBatches((2, 3, 7)))
        assert take(spec, 8) == [1, 4, 5, 6, 8, 9, 10, 11]
        assert take(spec, 3, after=3) == [4, 5, 6]

    @pytest.mark.parametrize("inner", [Polynomial((0, 0, 1)), Primes()])
    def test_batches_are_bounded_and_never_empty(self, inner):
        # sparse inner specs leave long gaps, cut and joined into batches
        # of 1..MAX_BATCH members; the primes leave the composites, views
        # of the sieve flags that each lie in one span
        after = 10**6
        batches = list(itertools.islice(Complement(inner).batches(after), 20))
        for b in batches:
            assert 0 < len(b) <= MAX_BATCH or (
                type(b) is CompositeBatch and b.stop <= len(b.flags) == span_width(b.lo)
            )
        got = list(itertools.chain.from_iterable(batches))
        want = [n for n in range(after + 1, got[-1] + 1) if not inner.is_member(n)]
        assert got == want
        assert len(got) >= 20 * MAX_BATCH // 2


class TestExplicit:
    def test_exhaustion(self):
        spec = Explicit((3, 5))
        assert spec.next_member(3) == 5
        with pytest.raises(SequenceExhaustedError):
            spec.next_member(5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Explicit((3, 3))
        with pytest.raises(ValueError):
            Explicit((0, 1))


SPEC_POOL = [
    Naturals(),
    Primes(),
    Composites(),
    Polynomial((3, 0, 1)),
    Polynomial((0, 2), "primes"),
    Explicit(()),
    Explicit((2, 5, 9, 40)),
    Complement(Primes()),
    Complement(Explicit((1, 2, 3))),
    Complement(Polynomial((0, 0, 1))),
]

spec_strategy = st.sampled_from(SPEC_POOL)


class TestInvariants:
    @given(spec_strategy, st.integers(min_value=0, max_value=3000))
    @settings(max_examples=120, deadline=None)
    def test_complement_counting_identity(self, spec, x):
        if isinstance(spec, Naturals):
            return
        assert spec.count(x) + Complement(spec).count(x) == max(x, 0)

    @given(spec_strategy, st.integers(min_value=0, max_value=2000))
    @settings(max_examples=80, deadline=None)
    def test_counting_steps_by_one_at_next_member(self, spec, a):
        try:
            nxt = spec.next_member(a)
        except SequenceExhaustedError:
            return
        assert spec.count(nxt) == spec.count(a) + 1
        assert spec.is_member(nxt)

    @given(spec_strategy)
    @settings(max_examples=30, deadline=None)
    def test_members_strictly_increasing_and_positive(self, spec):
        ms = take(spec, 40)
        assert all(m >= 1 for m in ms)
        assert all(b > a for a, b in zip(ms, ms[1:]))

    @given(spec_strategy)
    @settings(max_examples=30, deadline=None)
    def test_double_complement_roundtrip(self, spec):
        if isinstance(spec, Naturals):
            return
        ms = take(spec, 25)
        rt = take(Complement(Complement(spec)), 25)
        assert rt == ms

    @given(spec_strategy, st.integers(min_value=1, max_value=500))
    @settings(max_examples=80, deadline=None)
    def test_membership_consistent_with_counting(self, spec, n):
        assert spec.is_member(n) == (spec.count(n) - spec.count(n - 1) == 1)


class TestParse:
    @pytest.mark.parametrize("spec", SPEC_POOL, ids=lambda s: s.canonical)
    def test_roundtrip(self, spec):
        assert parse_sequence(spec.canonical) == spec

    def test_nested_complement(self):
        spec = parse_sequence("complement:poly:3,0,1")
        assert spec == Complement(Polynomial((3, 0, 1)))

    @pytest.mark.parametrize(
        "text", ["", "natural", "poly:", "poly:a,b", "explicit:3,2", "complement:"]
    )
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_sequence(text)

    @pytest.mark.parametrize("item", ["+2", "-2", "1_0", " 2", "2 ", "\u0665", "2.0", "1e3", ""])
    def test_int_list_items_take_ascii_digits_only(self, item):
        with pytest.raises(ValueError, match="bad member list"):
            parse_int_list(f"1,{item}", "member")

    def test_int_list_items_past_the_decimal_str_limit(self):
        big = "1" + "0" * 5000
        assert parse_int_list(f"3,{big}", "member") == (3, 10**5000)
        assert parse_sequence(f"explicit:3,{big}").canonical == f"explicit:3,{big}"
        assert parse_sequence(f"poly:{big},1").canonical == f"poly:{big},1"

    @pytest.mark.parametrize(
        "text,value",
        [("2", 2), ("3/2", Fraction(3, 2)), ("1.5", Fraction(3, 2)), ("10.25", Fraction(41, 4)),
         ("6/4", Fraction(3, 2))],
    )
    def test_rationals_in_the_canonical_forms(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "text",
        ["", "+3/2", "-3/2", "3/0", "1.", ".5", "1e0", " 3/2", "3 /2", "1_5/1_0",
         "\u0661", "3/2/1", "1.5/2", "3/2.0"],
    )
    def test_rationals_in_other_forms_refused(self, text):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)
