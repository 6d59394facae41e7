"""The batched scan against the brute-force oracle ``concat_stream``.

Every counting entry point (count_symbol_prefix, counter_prefix,
prefix_counts_at_boundaries, trajectory) runs through one kernel over
the stream's runs.  These properties compare it with the literal block
expansion over independently enumerated members, at stop points chosen
where a batched scan could go wrong: on run edges, inside a repetition,
at powers of the base and across sieve segment boundaries.
"""

import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cedigits import (
    Complement,
    Composites,
    Explicit,
    Naturals,
    NumberSpec,
    OracleParams,
    Polynomial,
    Primes,
    SequenceExhaustedError,
    StreamCursor,
    count_symbol_prefix,
    counter_prefix,
    d_exact,
    digit_length,
    floor_power,
    ones_exact_champernowne,
    to_digits,
    trajectory,
)
from cedigits.primes import MAX_BATCH, SEGMENT_SIZE, iter_composites, iter_primes
from cedigits.stats import MIN_STATISTIC_N, prefix_counts_at_boundaries
from cedigits.stream import _member_runs, _run_encoder, iter_blocks

from conftest import concat_stream, digits_of, trial_division_is_prime

MULTIPLIERS = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 3))
# 2..40 covers the format() bases and the chunk tables; 1000 takes the
# one-pass tally of a full counter
BASES = st.one_of(st.integers(min_value=2, max_value=40), st.just(1000))
LIMIT = 3000


def _primes():
    return (n for n in itertools.count(2) if trial_division_is_prime(n))


def _poly(coeffs):
    return lambda n: sum(c * n**i for i, c in enumerate(coeffs))


@st.composite
def sequences(draw):
    """A sequence spec and an independent enumeration of its members."""
    kind = draw(
        st.sampled_from(
            ("naturals", "primes", "composites", "poly", "poly-primes", "explicit", "complement")
        )
    )
    if kind == "naturals":
        return Naturals(), lambda: itertools.count(1)
    if kind == "primes":
        return Primes(), _primes
    if kind == "composites":
        return Composites(), lambda: (n for n in itertools.count(4) if not trial_division_is_prime(n))
    if kind in ("poly", "poly-primes"):
        coeffs = tuple(draw(st.lists(st.integers(0, 5), min_size=1, max_size=2))) + (
            draw(st.integers(1, 3)),
        )
        f = _poly(coeffs)
        if kind == "poly":
            return Polynomial(coeffs), lambda: map(f, itertools.count(1))
        return Polynomial(coeffs, "primes"), lambda: map(f, _primes())
    if kind == "explicit":
        values = tuple(sorted(draw(st.sets(st.integers(1, 5000), max_size=60))))
        return Explicit(values), lambda: iter(values)
    inner = draw(st.sampled_from(("primes", "squares", "explicit")))
    if inner == "primes":
        spec, member = Primes(), trial_division_is_prime
    elif inner == "squares":
        spec, member = Polynomial((0, 0, 1)), lambda n: int(n**0.5 + 0.5) ** 2 == n
    else:
        values = frozenset(draw(st.sets(st.integers(1, 300), max_size=40)))
        spec, member = Explicit(tuple(sorted(values))), values.__contains__
    return Complement(spec), lambda: (n for n in itertools.count(1) if not member(n))


def expand(members, base, c, limit):
    """Blocks (member, start position, length, copies) of the members
    whose first copy starts before ``limit``."""
    blocks = []
    pos = 0
    for m in members:
        if pos >= limit:
            break
        length = len(digits_of(m, base))
        copies = c.numerator**length // c.denominator**length
        blocks.append((m, pos, length, copies))
        pos += length * copies
    return blocks


def structural_stops(blocks, base, limit):
    """Positions where a run view could split wrongly."""
    stops = {0, 1, limit}
    for m, start, length, copies in blocks:
        stops.update((start, start + 1, start + length, start + length * copies - 1))
        if copies > 1:
            stops.add(start + length * (copies // 2) + length // 2)
    power = base
    while power <= limit:
        stops.update((power - 1, power, power + 1))
        power *= base
    return sorted(s for s in stops if 0 <= s <= limit)


@st.composite
def cases(draw):
    spec, members = draw(sequences())
    base = draw(BASES)
    c = draw(st.sampled_from(MULTIPLIERS))
    number = NumberSpec(spec, base, c)
    stream = concat_stream(members(), base, c.numerator, c.denominator, LIMIT)
    blocks = expand(members(), base, c, len(stream))
    candidates = structural_stops(blocks, base, LIMIT)
    stops = sorted(set(draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=8))))
    return number, members, stream, blocks, stops


@given(cases(), st.integers(min_value=0, max_value=39))
@settings(max_examples=150, deadline=None)
def test_position_scans_match_oracle(case, symbol_seed):
    number, _, stream, _, stops = case
    symbol = symbol_seed % number.base
    want = [0] * number.base
    done = 0
    for n in stops:
        if n > len(stream):
            with pytest.raises(SequenceExhaustedError):
                counter_prefix(number, n)
            with pytest.raises(SequenceExhaustedError):
                count_symbol_prefix(number, symbol, n)
            continue
        for d in stream[done:n]:
            want[d] += 1
        done = n
        counter = counter_prefix(number, n)
        assert counter.counts == want
        assert counter.total == n
        assert count_symbol_prefix(number, symbol, n) == want[symbol]
    cps = [n for n in stops if n >= MIN_STATISTIC_N]
    if cps and cps[-1] > len(stream):
        with pytest.raises(SequenceExhaustedError):
            trajectory(number, symbol, cps)
    else:
        points = trajectory(number, symbol, cps).points
        assert [(p.n, p.count) for p in points] == [(n, stream[:n].count(symbol)) for n in cps]


@given(cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_boundary_scan_matches_oracle(case, data):
    number, _, stream, blocks, _ = case
    base = number.base
    # the members ran out inside the expansion: boundaries may pass the end
    exhausted = len(stream) < LIMIT
    last = blocks[-1][0] if blocks else 0
    candidates = {0, 1, last + 10}
    for m, *_ in blocks:
        candidates.update((m - 1, m, m + 1))
    power = base
    while power <= last + 1:
        candidates.update((power - 1, power))
        power *= base
    # otherwise the scan may read only members expanded here
    candidates = sorted(b for b in candidates if b >= 0 and (exhausted or b < last))
    if not candidates:
        return
    boundaries = sorted(
        set(data.draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=8)))
    )
    symbol = data.draw(st.integers(min_value=0, max_value=base - 1))
    want = []
    for b in boundaries:
        pos = sum(length * copies for m, _, length, copies in blocks if m <= b)
        want.append((pos, stream[:pos].count(symbol)))
    assert prefix_counts_at_boundaries(number, symbol, boundaries) == want


@given(
    st.one_of(BASES, st.sampled_from((64, 255, 256, 257))),
    st.sampled_from(MULTIPLIERS),
    sequences(),
    st.integers(min_value=0, max_value=3000),
)
@settings(max_examples=150, deadline=None)
def test_run_view_digits_equal_to_digits(base, c, seq, after):
    spec, members = seq
    want = [m for m in itertools.islice(members(), 400) if m > after][:150]
    number = NumberSpec(spec, base, c)
    got = []
    for run, length, copies in _member_runs(number, after):
        digits = _run_encoder(base)(run, length)
        assert len(digits) == len(run) * length
        assert copies == floor_power(c, length)
        for i, m in enumerate(run):
            assert tuple(digits[i * length : (i + 1) * length]) == to_digits(m, base)
        got.extend(run)
        if len(got) >= len(want):
            break
    assert got[: len(want)] == want
    # the block view is cut from the same runs
    blocks = list(itertools.islice(iter_blocks(number, after), len(want)))
    assert blocks == [
        (m, to_digits(m, base), floor_power(c, len(to_digits(m, base)))) for m in want
    ]


COLUMN_BASES = (2, 3, 7, 8, 10, 16, 255, 256)


@given(
    st.sampled_from(COLUMN_BASES),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(("first", "mid", "last")),
    st.integers(min_value=1, max_value=MAX_BATCH),
    st.data(),
)
@example(2, 11, "last", MAX_BATCH, None)
@example(10, 4, "first", MAX_BATCH, None)
@example(256, 2, "last", MAX_BATCH, None)
@settings(max_examples=300, deadline=None)
def test_range_runs_written_column_by_column(base, k, where, n, data):
    """A run of consecutive members of one length, written column by
    column, against to_digits member by member: runs from the start of
    the length class, from inside it, and ending exactly at base**k - 1."""
    first, last = base ** (k - 1), base**k - 1
    if where == "first":
        start = first
    elif where == "last":
        start = max(first, last + 1 - n)
    else:
        start = data.draw(st.integers(min_value=first, max_value=last))
    run = range(start, min(start + n, last + 1))
    digits = _run_encoder(base)(run, k)
    assert isinstance(digits, bytes)
    assert digits == bytes(itertools.chain.from_iterable(to_digits(m, base) for m in run))


@pytest.mark.parametrize("base", (2, 3, 10, 255, 256))
@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=MAX_BATCH), st.integers(0, 3)),
        min_size=1,
        max_size=6,
    )
)
@example([(1, 0), (7, 1), (MAX_BATCH, 0), (3, 2)])
@settings(max_examples=60, deadline=None)
def test_range_runs_reuse_and_regrow_the_cycle_tiles(base, runs):
    """One encoder writes range runs one after another, each of n members
    starting one below a multiple of the period of a place, base**(place
    + 1), so a later run slices the tiles an earlier one grew, or grows
    them again, and its high places step after its first member."""
    encode = _run_encoder.__wrapped__(base)  # an encoder with no tiles yet
    length = digit_length(MAX_BATCH, base) + 6
    for multiple, (n, place) in enumerate(runs, start=1):
        start = base ** (length - 1) + multiple * base ** (place + 1) - 1
        run = range(start, start + n)
        want = bytes(itertools.chain.from_iterable(to_digits(m, base) for m in run))
        assert encode(run, length) == want


@given(
    st.sampled_from(COLUMN_BASES + (1000, 65535)),
    st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(2))),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_naturals_scans_and_reads_match_oracle(base, c, data):
    """Over the naturals, whose runs are written column by column up to
    base 256 and counted by their closed form in every base,
    counter_prefix and piecewise reads against the literal expansion, at
    stops inside copies, on run edges and at powers of the base."""
    limit = 40000
    stream = concat_stream(itertools.count(1), base, c.numerator, c.denominator, limit)
    blocks = expand(itertools.count(1), base, c, limit)
    candidates = structural_stops(blocks, base, limit)
    stops = sorted(set(data.draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=8))))
    number = NumberSpec(Naturals(), base, c)
    cursor = StreamCursor(number)
    done = 0
    for n in stops:
        tally = Counter(stream[:n])
        assert counter_prefix(number, n).counts == [tally[s] for s in range(base)]
        assert cursor.read(n - done) == (bytes if base <= 256 else list)(stream[done:n])
        done = n


@pytest.mark.parametrize("after", [10**6, 10**18])
def test_blocks_of_a_length_class_are_written_a_batch_at_a_time(after):
    """The naturals past 10**k leave as one run of 9 * 10**k members, the
    whole class; its first block is written with at most MAX_BATCH of
    them, not the 63 MB of the class at k = 6."""
    tracemalloc.start()
    try:
        block = next(iter_blocks(NumberSpec(Naturals(), 10), after))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block == (after + 1, to_digits(after + 1, 10), 1)
    assert peak < 256 * 1024


def test_a_length_class_wider_than_a_machine_word_is_one_run():
    """The naturals past 10**25 leave as one run of the whole class,
    though len() refuses a range that wide."""
    run, length, copies = next(_member_runs(NumberSpec(Naturals(), 10), 10**25))
    assert (run[0], run[-1], length, copies) == (10**25 + 1, 10**26 - 1, 26, 1)


@pytest.mark.parametrize("base", (2, 10, 257))
def test_length_classes_of_the_naturals_leave_as_at_most_two_runs(base):
    """A batch of the naturals from lo ends at lo * 2**64, so every length
    class to 100 digits leaves as one run, or two cut at 2**(64 j)."""
    runs = _member_runs(NumberSpec(Naturals(), base))
    runs = list(itertools.takewhile(lambda run: run[1] <= 100, runs))
    edges = [(run[0], run[-1] + 1) for run, _, _ in runs]
    assert edges[0][0] == 1 and edges[-1][1] == base**100
    assert all(hi == lo for (_, hi), (lo, _) in zip(edges, edges[1:]))
    cuts = {hi for _, hi in edges} - {base**k for k in range(1, 101)}
    assert cuts <= {2 ** (64 * j) for j in range(1, 14)}  # 257**100 < 2**832
    assert max(Counter(length for _, length, _ in runs).values()) <= 2


@pytest.mark.parametrize("base", (2, 10, 257))
@pytest.mark.parametrize("c", (Fraction(1), Fraction(3, 2)))
def test_naturals_match_the_closed_forms_to_100_digits(base, c):
    """Position and ones at the last copy of 2 * b**(k - 1) - 1, for k up
    to 100, against d_exact and ones_exact_champernowne."""
    spec = NumberSpec(Naturals(), base, c)
    ks = range(1, 101)
    scanned = prefix_counts_at_boundaries(spec, 1, [2 * base ** (k - 1) - 1 for k in ks])
    want = [
        (d_exact(OracleParams(base, c, k)), ones_exact_champernowne(OracleParams(base, c, k)))
        for k in ks
    ]
    assert scanned == want


@pytest.mark.parametrize("base", (8, 10, 16))
def test_list_runs_written_by_one_format(base):
    """Lists of members of one length, which bases 8, 10 and 16 write with
    one printf-style format, against to_digits: runs of one member and of
    MAX_BATCH, and members past str()'s limit on decimal digits, which
    base 10 writes through Decimal."""
    rng = random.Random(base)
    encode = _run_encoder(base)
    huge = [10**5000 + i for i in (0, 1, 9, 10, 99)]
    runs = [(huge[:1], len(to_digits(huge[0], base))), (huge, len(to_digits(huge[0], base)))]
    for k in (1, 2, 7, 15):
        pool = range(base ** (k - 1), base**k)
        runs += [(sorted(rng.sample(pool, min(n, len(pool)))), k) for n in (1, MAX_BATCH)]
    assert MAX_BATCH in [len(run) for run, _ in runs]
    for run, k in runs:
        want = bytes(itertools.chain.from_iterable(to_digits(m, base) for m in run))
        assert encode(run, k) == want


@pytest.mark.parametrize("base,c", [(10, Fraction(1)), (2, Fraction(3, 2)), (7, Fraction(2))])
def test_complement_of_primes_is_one_then_the_composites(base, c):
    """complement:primes, which takes the composites from the inverted
    sieve flags, against the literal expansion of 1 and the composites:
    reads, prefix counts and reads resumed from checkpoint text."""
    limit = 30000
    members = (n for n in itertools.count(1) if not trial_division_is_prime(n))
    stream = concat_stream(members, base, c.numerator, c.denominator, limit)
    number = NumberSpec(Complement(Primes()), base, c)
    one = bytes(to_digits(1, base)) * floor_power(c, 1)
    composites = StreamCursor(NumberSpec(Composites(), base, c))
    assert one + composites.read(limit - len(one)) == bytes(stream)
    assert StreamCursor(number).read(limit) == bytes(stream)
    stops = [1, len(one), len(one) + 1, 777, 4321, limit]
    for n in stops:
        tally = Counter(stream[:n])
        assert counter_prefix(number, n).counts == [tally[s] for s in range(base)]
    line = StreamCursor(number).checkpoint()
    for start, stop in zip([0] + stops, stops):
        cursor = StreamCursor.from_checkpoint(line)
        assert cursor.read(stop - start) == bytes(stream[start:stop])
        line = cursor.checkpoint()
    for after in range(6):
        want = [m for m in (1, 4, 6, 8, 9, 10, 12, 14, 15) if m > after][:5]
        assert list(itertools.islice(Complement(Primes()).members(after), 5)) == want


def test_long_members_past_the_decimal_str_limit():
    """Members of 5001 decimal digits, past str()'s default limit: the
    cursor is restored from the text of its checkpoint."""
    lo = 10**5000
    position = sum(length * 9 * 10 ** (length - 1) for length in range(1, 5001))
    line = StreamCursor(NumberSpec(Naturals(), 10), position, lo, 0, 0).checkpoint()
    cursor = StreamCursor.from_checkpoint(line)
    assert cursor.position == position and cursor.integer == lo
    want = bytes([d for m in (lo, lo + 1, lo + 2) for d in to_digits(m, 10)])
    assert cursor.read(3 * 5001) == want
    # a whole run whose places from 4 up step once, at lo + 10**4
    run = range(lo + 9500, lo + 9500 + MAX_BATCH)
    digits = _run_encoder(10)(run, 5001)
    assert len(digits) == len(run) * 5001
    for i in (0, 499, 500, MAX_BATCH - 1):
        assert digits[i * 5001 : (i + 1) * 5001] == bytes(to_digits(run[i], 10))


def test_repeated_copies_are_counted_not_written():
    # 2**23 and 2**23 + 1 have 24 binary digits, so each is written 2**24
    # times under c = 2: 805 306 368 digits in all
    spec = NumberSpec(Explicit((2**23, 2**23 + 1)), 2, Fraction(2))
    span = 24 * 2**24
    n = span + 24 * 1000 + 5  # 1000 copies and 5 digits into the second member
    ones = 2**24 + 2 * 1000 + 1
    tracemalloc.start()
    try:
        assert count_symbol_prefix(spec, 1, n) == ones
        points = trajectory(spec, 1, [span - 24, span - 23, n]).points
        assert [p.count for p in points] == [2**24 - 1, 2**24, ones]
        boundaries = prefix_counts_at_boundaries(spec, 1, [2**23, 2**23 + 1, 2**24])
        assert boundaries == [(span, 2**24), (2 * span, 3 * 2**24), (2 * span, 3 * 2**24)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


class TestSegmentBoundary:
    """The sieve hands out members one span at a time; a stream from the
    start reads its first span to SEGMENT_SIZE, between the primes 65521
    and 65537."""

    edge = SEGMENT_SIZE
    window = range(edge - 600, edge + 600)

    def test_generators_cross_the_edge(self):
        primes = [n for n in self.window if trial_division_is_prime(n)]
        composites = [n for n in self.window if not trial_division_is_prime(n)]
        lo = self.window[0]
        assert list(itertools.takewhile(lambda p: p < self.window[-1] + 1, iter_primes(lo))) == primes
        assert list(itertools.takewhile(lambda p: p < self.window[-1] + 1, iter_composites(lo))) == composites
        for spec, want in ((Primes(), primes), (Composites(), composites)):
            batched = itertools.chain.from_iterable(spec.batches(lo - 1))
            assert list(itertools.islice(batched, len(want))) == want

    @pytest.mark.parametrize("base", [2, 3, 10, 1000])
    def test_scans_cross_the_edge(self, base):
        members = [n for n in range(2, self.edge + 40) if trial_division_is_prime(n)]
        stream = concat_stream(members, base, 1, 1, 10**9)
        spec = NumberSpec(Primes(), base)
        blocks = expand(members, base, Fraction(1), len(stream))
        near = [(m, start, length) for m, start, length, _ in blocks if abs(m - self.edge) < 12]
        stops = sorted({p for _, start, length in near for p in (start, start + 1, start + length - 1)})
        for n in stops:
            tally = Counter(stream[:n])
            assert counter_prefix(spec, n).counts == [tally[s] for s in range(base)]
        traj = trajectory(spec, 1, stops)
        assert [p.count for p in traj.points] == [stream[:n].count(1) for n in stops]
        boundaries = [m for m, _, _ in near] + [self.edge]
        boundaries = sorted(set(boundaries))
        want = []
        for b in boundaries:
            pos = sum(length for m, _, length, _ in blocks if m <= b)
            want.append((pos, stream[:pos].count(1)))
        assert prefix_counts_at_boundaries(spec, 1, boundaries) == want
        # the cursor's blocks are cut from the same runs
        blocks_after = itertools.islice(iter_blocks(spec, self.edge - 20), 8)
        want_after = [m for m in members if m > self.edge - 20][:8]
        assert [(m, d) for m, d, _ in blocks_after] == [
            (m, to_digits(m, base)) for m in want_after
        ]
