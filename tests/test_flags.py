"""Prime batches as views of the sieve flags, and the counts read off them.

``prime_batches`` hands out each batch as a ``FlagBatch``: a read-only
sequence over a stretch of one span's flags, whose members are found by
counting flags and whose slices are views of the same flags; its
members are extracted, by ``_between``, only when it is iterated.
``composite_batches`` hands out the same flags read with the opposite
sense, as ``CompositeBatch`` views.  Both cut a walk alike: its first
MAX_BATCH integers, the rest of their span, then each span whole; spans
widen with depth.  The scan counts the digits of the members it crosses
whole off those flags, once per view, member length and stop (and a
``range`` run from closed forms), never writing them out.  These tests
hold the views to a plain extraction, and the counts to the literal
expansion of ``concat_stream`` over an independent sieve.
"""

import itertools
import math
import random
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from itertools import accumulate, chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cedigits import (
    Complement,
    Composites,
    Naturals,
    NumberSpec,
    Polynomial,
    Primes,
    StreamCursor,
    count_symbol_prefix,
    counter_prefix,
    to_digits,
    trajectory,
)
from cedigits import stats
from cedigits.primes import (
    MAX_BATCH,
    MAX_SPAN,
    SEGMENT_SIZE,
    CompositeBatch,
    FlagBatch,
    _count_flags,
    _segments,
    composite_batches,
    prime_batches,
    prime_count,
    span_width,
)
from cedigits.stats import MIN_STATISTIC_N, _run_counts, prefix_counts_at_boundaries
from cedigits.stream import _MIN_WHOLE, _member_runs, _run_encoder

from conftest import concat_stream, digits_of, plain_sieve

WHEEL_PERIOD = 2 * 3 * 5 * 7 * 11 * 13
STARTS = sorted(
    {2, 3, 17, 51_846, 394_778, 10**6 + 12345}
    # through the first span, at 2 plus MAX_BATCH times powers of two
    | {2 + MAX_BATCH * 2**k + d for k in range(7) for d in (-1, 0, 1)}
    | {k * WHEEL_PERIOD + d for k in (1, 2, 7) for d in (-1, 1)}
    | {k * SEGMENT_SIZE + d for k in (1, 2) for d in (-1, 0, 1)}
)
ONE = re.compile(b"\x01")


@contextmanager
def extractions(cls: type = FlagBatch):
    """Record, while the block runs, each extraction of members from a
    view of exactly ``cls`` as (view, members): ``_between`` is the one
    place members are picked out of the flags."""
    found = []
    between = cls._between

    def recorded(view, start, stop):
        members = between(view, start, stop)
        found.append((view, members))
        return members

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cls, "_between", recorded)
        yield found


def plain_batches(start: int, spans: int) -> list[list[int]]:
    """The primes of the first ``spans`` spans of a walk from ``start``,
    found by ``re.finditer`` from where the walk reads each span, and cut
    as a walk cuts them: those below start + MAX_BATCH, then the rest of
    the first span, then each later span whole, one list per stretch that
    holds a prime."""
    start = max(start, 2)
    found = []
    for i, (lo, flags, at) in enumerate(itertools.islice(_segments(start), spans)):
        members = [lo + m.start() for m in ONE.finditer(flags, at)]
        head = bisect_left(members, start + MAX_BATCH) if i == 0 else 0
        found += [members[:head], members[head:]]
    return [batch for batch in found if batch]


@pytest.mark.parametrize("start", STARTS)
def test_flag_batches_equal_a_plain_extraction(start):
    spans = 3  # past the end of the first span, and through the second whole
    want = plain_batches(start, spans)
    views = list(itertools.islice(prime_batches(start), len(want)))
    # length, first and last member come from the flags alone
    with extractions() as found:
        assert [(len(v), v[0], v[-1]) for v in views] == [(len(b), b[0], b[-1]) for b in want]
    assert not found
    assert [list(v) for v in views] == want
    # an independent sieve holds the same primes
    members = [m for b in want for m in b]
    flags = plain_sieve(members[-1] + 1)
    assert members == [n for n in range(max(start, 2), members[-1] + 1) if flags[n]]


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 3 * 10**6))
@example(2)
@example(10**6)
@example(2**21 - 10)
@example(2**23 - 10)
def test_batches_run_to_span_ends(start):
    """The first batch reads its span from start, at most MAX_BATCH
    integers of it, the next the rest of that span, and each later one a
    span whole, from 0 to its end.  Each counts every prime of its
    stretch, and each starts where the one before it ended."""
    views = list(itertools.islice(prime_batches(start), 20))
    first = views[0].lo + views[0].start
    width = span_width(start)
    end = start - start % width + width  # of start's span
    # from start, or from the next span when start's holds no prime past it
    assert first == start or first == end
    head = min(start + MAX_BATCH, end) if first == start else end + span_width(end)
    assert views[0].lo + views[0].stop == head
    for v in views:
        assert 0 < len(v) == v.flags.count(1, v.start, v.stop)
        assert len(v.flags) == span_width(v.lo) and v.lo % len(v.flags) == 0
    for a, b in zip(views, views[1:]):
        assert b.stop == len(b.flags) and b.lo + b.start == a.lo + a.stop and a[-1] < b[0]
        assert b.start == 0 or b.lo == views[0].lo


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=3 * 65_520).map(lambda b: bytearray(x & 1 for x in b)), st.data())
def test_flag_count_equals_a_byte_count(flags, data):
    """Counting flags by Adler-32 sums gives ``bytearray.count`` over any
    bounds of any buffer of 0/1 flags, and over the whole buffer, the
    form in which the kernel counts each residue column."""
    start = data.draw(st.integers(0, len(flags)))
    stop = data.draw(st.integers(start, len(flags)))
    assert _count_flags(flags, start, stop) == flags.count(1, start, stop)
    assert _count_flags(flags, 0, len(flags)) == flags.count(1)


@pytest.mark.parametrize("size", [65_519, 65_520, 65_521, 131_040, 131_041])
def test_flag_count_is_exact_where_chunk_sums_peak(size):
    """A chunk of 65 520 flags all set sums to 65 520, the most Adler-32's
    low half holds below its modulus 65 521: whole buffers up to that
    take one sum, longer ones and any stretch are counted by chunks."""
    ones = bytearray([1]) * size
    assert _count_flags(ones, 0, size) == size
    assert _count_flags(ones, 1, size) == size - 1


def test_batch_sizes_sum_to_exact_counts_deep():
    """The batches of four spans of MAX_SPAN integers from 2**27 count
    the primes that Meissel's formula counts there, from a table that
    stops near 2.6 * 10**6."""
    lo = 2**27
    assert span_width(lo) == MAX_SPAN
    hi = lo + 4 * MAX_SPAN
    views = list(itertools.takewhile(lambda v: v.lo < hi, prime_batches(lo)))
    # the walk's first MAX_BATCH integers, the rest of their span, then spans whole
    assert [(v.lo, v.start, v.stop) for v in views] == [
        (lo, 0, MAX_BATCH), (lo, MAX_BATCH, MAX_SPAN),
        *((at, 0, MAX_SPAN) for at in range(lo + MAX_SPAN, hi, MAX_SPAN)),
    ]
    want = prime_count(hi - 1, cap=hi) - prime_count(lo - 1, cap=hi)
    assert sum(map(len, views)) == want


def full_view() -> tuple[FlagBatch, list[int]]:
    """A fresh view of the largest of the first batches of primes past
    10**6 (the walk's first MAX_BATCH integers, the rest of their span,
    the next span), and its members by a plain extraction."""
    want = plain_batches(10**6, 2)
    i = max(range(len(want)), key=lambda i: len(want[i]))
    return next(itertools.islice(prime_batches(10**6), i, None)), want[i]


def test_view_acts_as_a_sequence():
    view, members = full_view()
    with extractions() as found:
        assert len(view) == len(members) > 600 and bool(view)
        assert (view[0], view[-1], view[len(view) - 1]) == (members[0], members[-1], members[-1])
        assert not found  # no extraction yet
        assert view[-2] == members[-2] and view[-len(view)] == members[0]
        assert type(view[5:9]) is FlagBatch and not found  # a slice is a view
    assert list(view[5:9]) == members[5:9] and list(view[::100]) == members[::100]
    assert list(view) == members and list(reversed(view)) == members[::-1]
    assert members[7] in view and members[7] + 1 not in view
    assert view.index(members[9]) == 9
    for x in (members[0] - 1, members[0], members[500], members[500] + 1, members[-1] + 1):
        assert bisect_left(view, x) == bisect_left(members, x)
        assert bisect_right(view, x) == bisect_right(members, x)
    with pytest.raises(IndexError):
        view[len(view)]


@pytest.mark.parametrize("cut", ["below", "first", "inside", "last", "above"])
def test_view_splits_by_value(cut):
    view, members = full_view()
    value = {
        "below": members[0] - 5,
        "first": members[0],
        "inside": members[400] + 1,
        "last": members[-1],
        "above": members[-1] + 5,
    }[cut]
    with extractions() as found:
        low, high = view.split(value)
    assert not found
    below = bisect_left(members, value)
    assert (len(low), len(high)) == (below, len(members) - below)
    assert (list(low), list(high)) == (members[:below], members[below:])


def wide_view() -> tuple[FlagBatch, list[int]]:
    """A fresh view of the span at 2**24, 2**18 integers wide, and its
    members by a plain extraction.  The walk starts at 2**24 - 1, which
    is not prime, so its first view is that span whole."""
    (want,) = plain_batches(2**24 - 1, 2)
    return next(prime_batches(2**24 - 1)), want


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([full_view, wide_view]),
    st.lists(st.one_of(st.none(), st.integers(-20_000, 20_000)), min_size=4, max_size=4),
    st.sampled_from([None, 1, -1, 2, 100]),
    st.lists(st.integers(-20_000, 20_000), max_size=6),
)
@example(full_view, [5, 9, None, None], None, [0, -1, 3])
@example(wide_view, [100, -100, 7, -7], None, [9000, 10, -1, 12_000, 0])
@example(wide_view, [20_000, None, None, None], 1, [0])
def test_view_slices_act_as_list_slices(make, bounds, step, indices):
    """A slice of a view, and a slice of that slice, against the same
    slices of its member list, with members looked up in any order before
    and after.  A slice with no step is a view and extracts nothing."""
    view, members = make()
    a, b, c, d = bounds

    def lookups(got, want) -> None:
        for k in indices:
            if -len(want) <= k < len(want):
                assert got[k] == want[k]
            else:
                with pytest.raises(IndexError):
                    got[k]

    lookups(view, members)
    got, want = view[a:b:step], members[a:b:step]
    if step in (None, 1):
        with extractions() as found:
            assert type(got) is FlagBatch and len(got) == len(want) and not found
            lookups(got, want)
            inner = got[c:d]
            assert type(inner) is FlagBatch and len(inner) == len(want[c:d])
            assert list(inner) == want[c:d]
        assert all(v is inner for v, _ in found)  # neither got nor view is extracted
    assert list(got) == want



@st.composite
def composite_starts(draw) -> int:
    """A walk's start: inside the span a walk just read, and so kept; at
    or beside a multiple of MAX_BATCH in a span, within MAX_BATCH of its
    end included; or a few times MAX_BATCH before a span edge where
    spans widen, at 2**21 and 2**23, or at 2**16, the first edge of all."""
    kind = draw(st.sampled_from(["kept", "block", "edge"]))
    if kind == "kept":
        anchor = draw(st.integers(4, 3 * 10**6))
        next(composite_batches(anchor))  # keeps the span that holds anchor
        lo = anchor - anchor % span_width(anchor)
        return draw(st.integers(max(anchor, 4), lo + span_width(anchor) - 1))
    if kind == "block":
        lo = draw(st.sampled_from([0, SEGMENT_SIZE, 2**21, 2**23]))
        width = span_width(lo)
        block = draw(st.sampled_from([0, 1, 7, width // MAX_BATCH - 1, width // MAX_BATCH]))
        return max(lo + block * MAX_BATCH + draw(st.integers(-1, 1)), 4)
    edge = draw(st.sampled_from([2**16, 2**21, 2**23]))
    return edge - draw(st.integers(1, 3 * MAX_BATCH))


@cache
def plain_flags() -> bytearray:
    """Prime flags by a plain sieve, past the first three views of every
    walk that ``composite_starts`` draws."""
    return plain_sieve(2**23 + 2**20)


@settings(max_examples=80, deadline=None)
@given(composite_starts(), st.data())
@example(4, None)
@example(2**21 - 1, None)
def test_composite_views_equal_the_composites(start, data):
    """The first views of a walk of the composites, the flags of its
    first MAX_BATCH integers, of the rest of their span and of the next
    span read with the opposite sense, against the integers that a plain
    sieve finds not prime: their length, members looked up in any order,
    ``split`` and slices, each on a view that earlier lookups have left
    counting from anywhere.  Only iteration extracts members: a view
    whose slices and halves are iterated is not."""
    views = list(itertools.islice(composite_batches(start), 3))
    assert all(type(v) is CompositeBatch for v in views)
    prime = plain_flags()
    members = []
    for view in views:
        want = [n for n in range(view.lo + view.start, view.lo + view.stop) if not prime[n]]
        with extractions(CompositeBatch) as found:
            assert (len(view), view[-1]) == (len(want), want[-1])
        assert want[0] >= 4 and not found  # want is increasing
        members += want

        def draw_index(size: int = len(want)) -> int:
            return data.draw(st.integers(0, size - 1)) if data else size // 2

        with extractions(CompositeBatch) as found:
            for _ in range(4 if data else 1):
                k = draw_index()
                assert view[k] == want[k]
                n = draw_index(len(want) - k) + 1
                assert list(view[k : k + n]) == want[k : k + n]
                value = want[draw_index()] + (data.draw(st.integers(-2, 2)) if data else 0)
                low, high = view.split(value)
                below = bisect_left(want, value)
                assert (len(low), len(high)) == (below, len(want) - below)
                assert (list(low), list(high)) == (want[:below], want[below:])
                a, b = sorted((draw_index(), draw_index() + 1))
                inner = view[a:b]
                assert type(inner) is CompositeBatch and len(inner) == b - a
                if b > a:
                    assert (inner[0], inner[-1], inner[(b - a) // 2]) == (want[a], want[b - 1], want[a + (b - a) // 2])
                assert list(inner) == want[a:b]
        assert all(v is not view for v, _ in found)
        assert list(view[::7]) == want[::7] and list(view) == want
    # the views hold every composite from start on, in order, once
    first = max(start, 4)
    assert members == [n for n in range(first, members[-1] + 1) if not prime[n]]


@pytest.mark.parametrize("c", [Fraction(1), Fraction(3, 2)])
@pytest.mark.parametrize(
    "base,stops", [(10, [10**k - 1 for k in range(1, 8)]), (2, [2**k - 1 for k in range(1, 24)])]
)
def test_composites_at_class_edges_are_the_naturals_less_the_primes(base, stops, c):
    """The naturals are 1, the primes and the composites.  So at each
    class edge, up to 10**7 - 1 and 2**23 - 1, past the edges where spans
    widen (2**21, 2**23) and beyond a brute force, the composites'
    position and count of every symbol, scanned off the sieve flags a
    view at a time, are the naturals' (closed forms) less the primes'
    (written out as lists) less the block of 1; those of
    ``complement:primes``, which holds 1, less no block."""
    def scan(seq, symbol: int) -> list[tuple[int, int]]:
        return prefix_counts_at_boundaries(NumberSpec(seq, base, c), symbol, stops)

    # every symbol at once, as the scan kernel counts them
    listed = [*stats._scan(NumberSpec(Polynomial((0, 1), "primes"), base, c), stops, members=True)]
    one = c.numerator // c.denominator  # copies of the one-digit block of 1
    for symbol in range(base):
        naturals = scan(Naturals(), symbol)
        for seq, head in ((Composites(), one), (Complement(Primes()), 0)):
            want = [
                (n_pos - p_pos - head, n_count - p_counts[symbol] - head * (symbol == 1))
                for (n_pos, n_count), (p_pos, p_counts) in zip(naturals, listed)
            ]
            assert scan(seq, symbol) == want

BASES = (2, 3, 7, 10, 16, 36, 255, 256, 257)
MULTIPLIERS = (Fraction(1), Fraction(3, 2), Fraction(2))
LIMIT = 150_000
# an independent sieve; its primes reach past the end of the first span
# of a walk from 2, and through several more
ORACLE_PRIMES = [n for n, f in enumerate(plain_sieve(700_000)) if f]
_streams: dict = {}


def batch_starts() -> set[int]:
    """The first prime of every batch of a walk from 2, from the oracle's
    primes: the walk reads the span at 0 from 2, its first MAX_BATCH
    integers and then the rest, and each later span, at a multiple of
    SEGMENT_SIZE, whole."""
    los = [2 + MAX_BATCH, *range(0, ORACLE_PRIMES[-1], SEGMENT_SIZE)]
    return {ORACLE_PRIMES[bisect_left(ORACLE_PRIMES, lo)] for lo in los}


BATCH_STARTS = batch_starts()


def oracle(base: int, c: Fraction):
    """The stream's first LIMIT digits and the (member, end position)
    of every block in it."""
    key = base, c
    if key not in _streams:
        stream = concat_stream(ORACLE_PRIMES, base, c.numerator, c.denominator, LIMIT)
        assert len(stream) == LIMIT
        ends, pos = [], 0
        for p in ORACLE_PRIMES:
            length = len(digits_of(p, base))
            pos += length * (c.numerator**length // c.denominator**length)
            if pos > LIMIT:
                break
            ends.append((p, pos))
        _streams[key] = stream, ends
    return _streams[key]


def edges(base: int) -> set[int]:
    """Integers at which a walk from 2 starts a span, the multiples of
    SEGMENT_SIZE, and powers of the base, up to the oracle's last prime."""
    found = set(range(SEGMENT_SIZE, ORACLE_PRIMES[-1], SEGMENT_SIZE))
    power = base
    while power < ORACLE_PRIMES[-1]:
        found.add(power)
        power *= base
    return found


def stop_candidates(base: int, c: Fraction) -> list[int]:
    """Positions at window, batch, span and base**k edges, and inside
    members and copies."""
    _, ends = oracle(base, c)
    near = edges(base)
    stops = {0, 1, LIMIT - 1, LIMIT}
    for i, (p, end) in enumerate(ends):
        around = ORACLE_PRIMES[max(i - 1, 0) : i + 2]  # p is a batch's first, second or last
        if BATCH_STARTS.intersection(around) or any(abs(p - e) < 40 for e in near):
            length = len(digits_of(p, base))
            start = ends[i - 1][1] if i else 0
            stops.update((start, start + 1, end - 1, end, (start + end) // 2, start + length + 1))
    return sorted(s for s in stops if 0 <= s <= LIMIT)


@given(st.sampled_from(BASES), st.sampled_from(MULTIPLIERS), st.data())
@example(10, Fraction(1), None)
@example(2, Fraction(3, 2), None)
@example(256, Fraction(2), None)
@settings(max_examples=60, deadline=None)
def test_prime_scans_match_oracle(base, c, data):
    stream, ends = oracle(base, c)
    spec = NumberSpec(Primes(), base, c)
    candidates = stop_candidates(base, c)
    members = [p for p, _ in ends]
    bounds = {m + d for m in members[:: max(1, len(members) // 7)] for d in (-1, 0, 1)}
    bounds |= {e + d for e in edges(base) | BATCH_STARTS for d in (-1, 0)}
    bounds = sorted(b for b in bounds if b < members[-1])
    if data is None:  # the explicit examples take every candidate
        stops, symbol = candidates, 1
    else:
        stops = sorted(set(data.draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=6))))
        bounds = sorted(set(data.draw(st.lists(st.sampled_from(bounds), min_size=1, max_size=8))))
        symbol = data.draw(st.integers(0, base - 1))
    for n in stops[-6:]:
        tally = Counter(stream[:n])
        assert counter_prefix(spec, n).counts == [tally[s] for s in range(base)]
        assert count_symbol_prefix(spec, symbol, n) == tally[symbol]
    cps = [n for n in stops if n >= MIN_STATISTIC_N]
    points = trajectory(spec, symbol, cps).points
    assert [p.count for p in points] == [stream[:n].count(symbol) for n in cps]
    want = []
    for b in bounds:
        pos = ends[bisect_right(members, b) - 1][1] if b >= members[0] else 0
        want.append((pos, stream[:pos].count(symbol)))
    assert prefix_counts_at_boundaries(spec, symbol, bounds) == want


@pytest.mark.parametrize("base", [b for b in BASES if b <= 256] + [8])
def test_run_counts_equal_written_counts(base):
    """The counter on flag views of either sense and on ranges, run by
    run, against the digits the encoder writes for the same run.  A view
    of the composites is counted as all its integers less its primes;
    one from a prime below a power of the base (7 in base 8, 8191 in
    base 2) holds that prime, one digit shorter than its members."""
    count = _run_counts(base)
    spec = NumberSpec(Primes(), base)
    # the first runs hold the primes that divide the base
    runs = list(itertools.islice(_member_runs(spec), 3))
    runs += itertools.islice(_member_runs(spec, 10**6 - 3), 8)
    composites = NumberSpec(Composites(), base)
    for after in (0, base - 2, base**2 - 2, 2**13 - 2, 10**6 - 3):
        runs += itertools.islice(_member_runs(composites, after), 3)
    assert any(type(run) is CompositeBatch and len(run) >= _MIN_WHOLE for run, _, _ in runs)
    for a, n in ((base**4 - 4, 4), (10**6 + 3, MAX_BATCH)):
        runs.append((range(a, a + n), len(digits_of(a, base)), 1))
    for run, length, _ in runs:
        digits = _run_encoder(base)(run[:], length)
        assert count(run, length) == [digits.count(s) for s in range(base)]
    assert count((2, 3), 1) is None  # lists are written


@pytest.mark.parametrize("base", [2, 10, 36, 40, 256])
def test_rows_of_a_whole_span_count_without_carry(base):
    """Views over one whole span with a flag on every integer prime to
    the base, so that every row of the kernel holds one flag per column
    it reads, as many as one byte holds.  The counts equal those of the
    digits of the flagged integers, all of one length, for the whole span
    and for a stretch that starts and ends inside a row.  Views from at
    or below the base read every column: there 2 and every odd integer
    are flagged, the most primes any 256 integers hold, and the counts
    equal those of the digits written out to the view's length, as the
    composites' difference counts a prime one digit shorter."""
    power = base
    while power < 2 * SEGMENT_SIZE:
        power *= base
    lo = power + 12345
    flags = bytearray(math.gcd(lo + i, base) == 1 for i in range(SEGMENT_SIZE))
    length = len(to_digits(lo, base))
    count = _run_counts(base)
    for start, stop in ((0, SEGMENT_SIZE), (777, SEGMENT_SIZE - 5)):
        tally = Counter(chain.from_iterable(
            to_digits(lo + i, base) for i in range(start, stop) if flags[i]
        ))
        view = FlagBatch(flags, lo, start, stop, flags.count(1, start, stop))
        assert len(to_digits(lo + stop - 1, base)) == length
        assert count(view, length) == [tally[d] for d in range(base)]
    flags = bytearray(i == 2 or i % 2 for i in range(5 * 256 + 100))
    length = len(to_digits(len(flags) - 1, base))
    for start, stop in ((0, len(flags)), (1, len(flags) - 5), (base, len(flags))):
        tally = Counter(chain.from_iterable(
            to_digits(base**length + i, base)[1:] for i in range(start, stop) if flags[i]
        ))
        view = FlagBatch(flags, 0, start, stop, flags.count(1, start, stop))
        assert count(view, length) == [tally[d] for d in range(base)]


@pytest.mark.parametrize("base", [7, 17, 36])
def test_deep_span_counts_equal_a_plain_sieve(base):
    """The primes of the span at 2**28, 2**20 integers wide, counted off
    their flags, whole and from and to inside a row, against the digits
    of the primes an independent sieve of that span finds."""
    lo = 2**28
    width = span_width(lo)
    assert width == 2**20
    flags = bytearray([1]) * width
    root = math.isqrt(lo + width)
    for p in itertools.compress(range(root + 1), plain_sieve(root + 1)):
        flags[-lo % p :: p] = bytes(len(range(-lo % p, width, p)))
    head, view = itertools.islice(prime_batches(lo), 2)
    assert (head.lo, head.start, head.stop) == (lo, 0, MAX_BATCH) and head.flags == flags
    assert (view.lo, view.start, view.stop) == (lo, MAX_BATCH, width) and view.flags == flags
    length = len(digits_of(lo, base))
    assert len(digits_of(lo + width - 1, base)) == length
    count = _run_counts(base)
    for start, stop in ((0, width), (12_345, width - 777)):
        tally = Counter(chain.from_iterable(
            digits_of(lo + i, base) for i in range(start, stop) if flags[i]
        ))
        run = FlagBatch(view.flags, lo, start, stop, flags.count(1, start, stop))
        assert count(run, length) == [tally[d] for d in range(base)]


def prime_oracle(base: int, c: Fraction, positions: list[int], bounds: list[int]):
    """Symbol-1 counts at digit ``positions`` and (position, count) after
    each boundary member, one prime's ``concat_stream`` at a time, so
    that streams of millions of digits are never held whole."""
    at, pos, ones, wants, found = 0, 0, 0, [], []
    primes = iter(ORACLE_PRIMES)
    for b in bounds:
        while (p := next(primes)) <= b:
            block = concat_stream([p], base, c.numerator, c.denominator, 10**9)
            while at < len(positions) and positions[at] <= pos + len(block):
                wants.append(ones + block[: positions[at] - pos].count(1))
                at += 1
            pos, ones = pos + len(block), ones + block.count(1)
        primes = chain([p], primes)
        found.append((pos, ones))
    return wants, found


@pytest.mark.parametrize("c", [Fraction(1), Fraction(3, 2)])
@pytest.mark.parametrize("base,power", [(2, 2**15), (10, 10**5), (36, 36**3)])
def test_stops_inside_a_joined_span(base, power, c):
    """Runs of primes of one length in one span are counted as one run;
    stops and boundaries inside such a span, and across a power of the
    base inside it, still see the exact counts."""
    lo = max(power - power % SEGMENT_SIZE, 2)  # a walk from 2 reads a span from here
    bounds = sorted({lo + 9000, lo + 20_000, power - 1, power, power + 1, power + 3000})
    bounds = [b for b in bounds if b < lo + SEGMENT_SIZE - 1]
    ends = [pos for pos, _ in prime_oracle(base, c, [], bounds)[1]]
    positions = {e + d for e in ends for d in (-1, 0, 1)}
    positions |= {(a + b) // 2 for a, b in zip(ends, ends[1:])}
    positions = sorted(n for n in positions if n <= ends[-1])
    want, found = prime_oracle(base, c, positions, bounds)
    spec = NumberSpec(Primes(), base, c)
    assert prefix_counts_at_boundaries(spec, 1, bounds) == found
    assert [p.count for p in trajectory(spec, 1, positions).points] == want


WIDE = 2**21  # where spans widen to 2**17


@cache
def wide_primes() -> list[int]:
    """The primes through the first two spans of width 2**17, by a plain
    sieve."""
    limit = WIDE + 2 * 2**17
    return [*itertools.compress(range(limit), plain_sieve(limit))]


def wide_oracle(base: int, c: Fraction, picks: list[int]):
    """For each picked prime, in increasing order, the stream's symbol
    counts at positions from the start of its block to its end, inside
    its first and last copy, and at its end, each as (position, counts);
    one prime's block at a time, so the stream is never held whole."""
    counts, pos, found, ends = [0] * base, 0, [], []
    for p in wide_primes():
        if p > picks[-1]:
            break
        ds = digits_of(p, base)
        reps = c.numerator ** len(ds) // c.denominator ** len(ds)
        if p in picks:
            block = concat_stream([p], base, c.numerator, c.denominator, len(ds) * reps)
            offsets = {0, 1, min(len(ds) + 1, len(block)), len(block) // 2, len(block) - 1}
            for off in sorted(offsets):
                part = Counter(block[:off])
                found.append((pos + off, [n + part[s] for s, n in enumerate(counts)]))
        for d in ds:
            counts[d] += reps
        pos += len(ds) * reps
        if p in picks:
            ends.append((pos, list(counts)))
    return found, ends


@pytest.mark.parametrize("base,c", [(10, Fraction(1)), (2, Fraction(3, 2)), (7, Fraction(1))])
def test_stops_inside_a_wide_span(base, c, monkeypatch):
    """Stops and boundaries inside the first span of width 2**17, near
    its ends and across into the next, see the counts of a literal
    expansion.  The scan counts the members before and after each cut
    off the flags, so no batch it counts whole is extracted, and it
    writes out no more than the two members a stop cuts into, and the
    members between two stops too few to be worth counting so."""
    primes = wide_primes()
    at = [bisect_left(primes, WIDE + d) for d in (0, 100, 40_000, 2**17 - 200, 2**17, 2**17 + 5000)]
    picks = sorted({primes[i] for i in at} | {primes[at[4] - 1]})  # the span's last prime
    want, ends = wide_oracle(base, c, picks)
    counted = []
    kernel = stats._run_counts

    def recording(base):
        count = kernel(base)

        def recorded(run, length):
            if type(run) is FlagBatch:
                counted.append(run)
            return count(run, length)

        return recorded

    monkeypatch.setattr(stats, "_run_counts", recording)
    spec = NumberSpec(Primes(), base, c)
    stops = sorted({pos for pos, _ in want})
    with extractions() as found:
        assert [*stats._scan(spec, stops)] == sorted({pos: counts for pos, counts in want}.items())
        assert [*stats._scan(spec, picks, members=True)] == ends
    extracted = [view for view, _ in found]
    assert not any(run is view for run in counted for view in extracted)
    assert any(len(run.flags) == 2**17 and 0 < run.start and run.stop < 2**17 for run in counted)
    assert 0 < max(len(members) for _, members in found) < _MIN_WHOLE + 2


def test_kernel_runs_once_per_span_length_and_stop(monkeypatch):
    """Over 10**6 base-10 digits, the flag kernel counts each span at each
    member length at most once between two stops, and takes whole spans."""
    calls = []
    stop = [0]
    kernel = stats._run_counts

    def recording(base):
        count = kernel(base)

        def recorded(run, length):
            if type(run) is FlagBatch:
                calls.append((run.lo, length, stop[0], run.stop - run.start))
            return count(run, length)

        return recorded

    monkeypatch.setattr(stats, "_run_counts", recording)
    spec = NumberSpec(Primes(), 10)
    stops = [1000, 250_000, 250_001, 500_000, 10**6]
    scan = stats._scan(spec, stops)
    for stop[0], n in enumerate(stops):
        assert next(scan)[0] == n
    keys = Counter(call[:3] for call in calls)
    assert max(keys.values()) == 1
    assert len(calls) <= len({call[:2] for call in calls}) + len(stops)
    assert SEGMENT_SIZE in {call[3] for call in calls}


def test_a_prefix_scan_counts_its_written_pieces_through_add_block(monkeypatch):
    """Over 10**6 base-10 digits of the primes, the pieces a scan writes
    out go to ``DigitCounter.add_block``, and the runs the flag kernel
    counts do not: the digits of the two add up to the prefix, each
    counted once."""
    blocks, counted = [], []
    add_block = stats.DigitCounter.add_block
    kernel = stats._run_counts

    def recording_block(self, digits, copies=1):
        blocks.append(len(digits) * copies)
        add_block(self, digits, copies)

    def recording(base):
        count = kernel(base)

        def recorded(run, length):
            found = count(run, length)
            if found is not None:
                counted.append(len(run) * length)
            return found

        return recorded

    monkeypatch.setattr(stats.DigitCounter, "add_block", recording_block)
    monkeypatch.setattr(stats, "_run_counts", recording)
    n = 10**6
    counter = counter_prefix(NumberSpec(Primes(), 10), n)
    assert blocks and counted
    assert sum(blocks) + sum(counted) == counter.total == sum(counter.counts) == n


@pytest.mark.parametrize("base,c", [(10, Fraction(1)), (2, Fraction(3, 2)), (257, Fraction(1))])
def test_skip_across_flag_views_then_read_and_resume(base, c):
    spec = NumberSpec(Primes(), base, c)
    n = 400_000
    cursor = StreamCursor(spec)
    with extractions() as extracted:
        cursor.skip_to(n)
    assert len(extracted) <= 1  # at most the run the cursor stands in
    digits = cursor.read(5000)
    line = cursor.checkpoint()
    fresh = StreamCursor(spec)
    assert fresh.read(n + 5000)[n:] == digits
    assert fresh.checkpoint() == line
    resumed = StreamCursor.from_checkpoint(line)
    assert resumed.checkpoint() == line
    assert resumed.read(3000) == fresh.read(3000)


def test_a_prefix_scan_counts_each_span_once(monkeypatch):
    """Over 10**7 base-10 digits of the primes, and to their class edges
    up to 10**7 - 1, each view the scan crosses whole is sized by the
    kernel's residue columns as they count its digits.  Flags are counted
    apart from them only for the walk's first view, the runs the stops
    cut and the views too near a stop for a bound on their members to
    clear it: when every view was sized by a count of its own, the digit
    scan counted 21 595 730 flags so, and the edge scan every flag.  At
    the edges no span is counted apart, not even where a boundary falls
    between two runs of one span and the move to it crosses no digit."""
    counted = [0]
    count_flags = _count_flags

    def recording(flags, start, stop):
        counted[0] += stop - start
        return count_flags(flags, start, stop)

    monkeypatch.setattr("cedigits.primes._count_flags", recording)
    counter = counter_prefix(NumberSpec(Primes(), 10), 10**7)
    assert (counter.counts[1], counter.total) == (1_766_602, 10**7)
    assert counted[0] < 21_595_730 // 2
    counted[0] = 0
    edges = [10**k - 1 for k in range(1, 8)]
    ends = prefix_counts_at_boundaries(NumberSpec(Primes(), 10), 1, edges)
    lengths = [prime_count(x) - prime_count(x // 10) for x in edges]
    assert [pos for pos, _ in ends] == [*accumulate(k * n for k, n in enumerate(lengths, 1))]
    assert counted[0] < SEGMENT_SIZE  # no span is counted apart from the kernel


@pytest.mark.parametrize("sequence", [Primes(), Composites()])
def test_a_restored_cursor_counts_at_most_max_batch_flags_before_it_reads(sequence, monkeypatch):
    """A cursor restored at the end of a member deep in the stream sizes
    only the walk's first view, of at most MAX_BATCH integers, to read
    on; the views after it stay unsized until a move reaches them."""
    spec = NumberSpec(sequence, 10)
    cursor = StreamCursor(spec)
    cursor.skip_to(10**6)
    cursor.skip_to(cursor.position + len(str(cursor.integer)) - cursor.offset)
    line = cursor.checkpoint()
    counted = []
    count_flags = _count_flags

    def recording(flags, start, stop):
        counted.append(stop - start)
        return count_flags(flags, start, stop)

    monkeypatch.setattr("cedigits.primes._count_flags", recording)
    digits = StreamCursor.from_checkpoint(line).read(100)
    assert sum(counted) <= MAX_BATCH
    assert digits == cursor.read(100)


@st.composite
def unsized_views(draw) -> tuple[FlagBatch, list[int]]:
    """A view of either sense over random flags, of a drawn density,
    built without its size, and its members by a plain extraction."""
    cls = draw(st.sampled_from([FlagBatch, CompositeBatch]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0]))
    flags = bytearray(rng.random() < density for _ in range(draw(st.integers(0, 3000))))
    start = draw(st.integers(0, len(flags)))
    stop = draw(st.integers(start, len(flags)))
    lo = draw(st.integers(0, 10**7))
    members = [lo + i for i in range(start, stop) if flags[i] == cls._SENSE]
    return cls(flags, lo, start, stop), members


@settings(max_examples=300, deadline=None)
@given(
    unsized_views(),
    st.integers(-100, 3100),
    st.tuples(st.none() | st.integers(-3000, 3000), st.none() | st.integers(-3000, 3000)),
    st.lists(st.integers(-3000, 3000), max_size=5),
)
def test_views_of_unknown_size_act_as_their_member_list(drawn, cut, bounds, indices):
    """bool(), the first and the last member take no count, and an empty
    view has neither; split halves an unsized view into unsized views
    and a sized one into sized views; len(), lookups and slices equal the
    member list's."""
    view, members = drawn
    value = view.lo + cut
    assert bool(view) == bool(members)
    if members:
        assert (view[0], view[-1]) == (members[0], members[-1])
    else:
        for i in (0, -1):
            with pytest.raises(IndexError):
                view[i]
    low, high = view.split(value)
    assert view.size is low.size is high.size is None
    below = bisect_left(members, value)
    for half, want in (low, members[:below]), (high, members[below:]):
        assert bool(half) == bool(want) and half.size is None
        assert len(half) == len(want) and list(half) == want
    assert len(view) == view.size == len(members)
    low, high = view.split(value)
    assert (low.size, high.size) == (below, len(members) - below)
    for k in indices:
        if -len(members) <= k < len(members):
            assert view[k] == members[k]
        else:
            with pytest.raises(IndexError):
                view[k]
    a, b = bounds
    assert list(view[a:b]) == members[a:b] and len(view[a:b]) == len(members[a:b])


def beside(edges, is_member) -> list[int]:
    """The last member below each edge and the first from it."""
    found = set()
    for x in edges:
        below, above = x - 1, x
        while not is_member(below):
            below -= 1
        while not is_member(above):
            above += 1
        found |= {below, above}
    return sorted(found)


@pytest.mark.parametrize("base", [10, 36, 257])
def test_stops_inside_unsized_views_match_the_primes_as_lists(base, monkeypatch):
    """The primes and the composites, counted off their flags to a stop
    inside a member beside 10**6, 2**21, 2**23 and 10**7, against
    poly-primes:0,1, the same primes as lists written out member by
    member; the composites against the naturals, by closed forms, less
    those primes and 1.  Every view there is a span whole, which a walk
    from the start crosses unsized up to the stop's own.  Above base 256
    every member is written out, so one scan walks to all the stops, and
    the composites stop by 2**21.  The walk is the same in every base to
    256, so base 10 and base 36, with rows of 100 and 36 integers, stand
    for them; the CI diff of primes against poly-primes:0,1 stops inside
    unsized views in bases 2, 3, 16 and 256."""
    edges = (10**6, 2**21, 2**23, 10**7)
    primes_at = beside(edges, Primes().is_member)
    composites_at = beside(edges[: 2 if base > 256 else 4], Composites().is_member)
    bounds = sorted({m - 1 for m in primes_at + composites_at})
    lists, naturals = (
        dict(zip(bounds, stats._scan(NumberSpec(seq, base), bounds, members=True)))
        for seq in (Polynomial((0, 1), "primes"), Naturals())
    )

    def cut_into(m: int, pos: int, counts: list[int]) -> tuple[int, list[int]]:
        # (position, counts) once m's digits up to just past its middle are read
        digits = digits_of(m, base)
        digits = digits[: len(digits) // 2 + 1]
        return pos + len(digits), [c + digits.count(d) for d, c in enumerate(counts)]

    one = [int(d == 1) for d in range(base)]
    expected = {
        Primes(): [cut_into(p, *lists[p - 1]) for p in primes_at],
        Composites(): [
            cut_into(
                m,
                naturals[m - 1][0] - lists[m - 1][0] - 1,
                [*map(lambda n, p, u: n - p - u, naturals[m - 1][1], lists[m - 1][1], one)],
            )
            for m in composites_at
        ],
    }
    unsized = []
    kernel = stats._run_counts

    def recording(base):
        count = kernel(base)

        def recorded(run, length):
            if isinstance(run, FlagBatch) and run.size is None:
                unsized.append(run)
            return count(run, length)

        return recorded

    monkeypatch.setattr(stats, "_run_counts", recording)
    for sequence, want in expected.items():
        spec = NumberSpec(sequence, base)
        stops = [pos for pos, _ in want]
        if base > 256:
            assert [*stats._scan(spec, stops)] == want
        else:
            assert [(n, counter_prefix(spec, n).counts) for n in stops] == want
    assert unsized  # the kernel sized views that a walk crossed unsized
