"""Digit-frequency counters and the iterated-logarithm statistic.

The normalized statistic at prefix length n for symbol k in base b is

    (count - n/b) / sqrt(2 n log log n)

with natural logarithms.  Almost every number obeys the law of the
iterated logarithm: the statistic's limsup is sqrt(b - 1)/b.  The
concatenation streams built by this package drive the symbol-1
statistic to infinity instead, which the trajectory measurements make
visible.

Every prefix count walks one fresh StreamCursor to its stops and counts
into one DigitCounter.  The members of a run the cursor crosses whole,
every copy of each, are counted without being written out when they are
a range of consecutive members, or primes or composites read off their
sieve flags (``_run_counts``); a run of either holds the members of one
length in one view of a sieve span, whole past a walk's first, so each
view is counted once per member length and stop, and that count sizes
a view the scan crosses whole; a stop inside a view writes out only the
member it cuts.  Other runs, and the pieces of runs, members and copies
the cursor hands out, are written out and go to ``add_block``, which
counts each once and multiplies by its copy count.  Counts and positions
are Python ints throughout, so the scan is as exact as a digit-by-digit
walk.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cache, lru_cache, reduce
from io import TextIOBase
from itertools import accumulate, repeat
from operator import add, mul, sub

from .errors import SequenceExhaustedError, UndefinedStatisticError
from .primes import FlagBatch
from .rational import format_integer
from .sequences import Record, _size
from .stream import NumberSpec, StreamCursor, _run_encoder

__all__ = [
    "DigitCounter",
    "LilPoint",
    "Trajectory",
    "lil_bound",
    "lil_statistic",
    "discrepancy",
    "block_stream",
    "count_symbol_prefix",
    "counter_prefix",
    "prefix_counts_at_boundaries",
    "trajectory",
    "TRAJECTORY_CSV_HEADER",
]

MIN_STATISTIC_N = 16

# From this base on, a counter tallies a block rather than counting each symbol.
_TALLY_MIN_BASE = 64

TRAJECTORY_CSV_HEADER = "n,count,discrepancy_num,discrepancy_den,statistic"


def lil_bound(base: int) -> float:
    """The law-of-the-iterated-logarithm bound sqrt(b - 1)/b."""
    if base < 2:
        raise ValueError("base must be at least 2")
    return math.sqrt(base - 1) / base


def discrepancy(count: int, n: int, base: int) -> Fraction:
    """Exact excess of a symbol count over the fair share n/b."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if n < 0 or count < 0:
        raise ValueError("counts must be nonnegative")
    return Fraction(base * count - n, base)


def lil_statistic(count: int, n: int, base: int) -> float:
    """Normalized discrepancy (count - n/b) / sqrt(2 n ln ln n).

    Defined for prefix lengths n >= 16, where ln ln n >= 1.  Shorter
    prefixes raise UndefinedStatisticError.  Powers of two scale n and
    the discrepancy into the float range without changing the result's
    bits; a statistic past that range is an infinity of its sign.
    """
    if n < MIN_STATISTIC_N:
        raise UndefinedStatisticError(
            f"statistic needs a prefix of at least {MIN_STATISTIC_N} digits, got {n}"
        )
    d = discrepancy(count, n, base)
    up = max(abs(d.numerator).bit_length() - 1000, 0)  # d / 2**up is below 2**1000
    down = max(n.bit_length() - 1000, 0) // 2  # and n / 4**down below 2**1001
    num = d.numerator / (d.denominator << up)
    den = math.sqrt(2 * (n / (1 << 2 * down)) * math.log(math.log(n)))
    try:
        return math.ldexp(num / den, up - down)
    except OverflowError:
        return math.inf if d > 0 else -math.inf


class DigitCounter:
    """Counts of each base-b symbol over some set of stream positions.

    Counters over disjoint position sets merge by componentwise
    addition, which makes chunked counting associative and commutative.
    Each update replaces ``counts`` with a new list, so a list read off
    a counter keeps its values.
    """

    __slots__ = ("base", "counts", "total")

    def __init__(self, base: int, counts: Iterable[int] | None = None):
        if base < 2:
            raise ValueError("base must be at least 2")
        self.base = base
        self.counts = [0] * base if counts is None else list(counts)
        if len(self.counts) != base or any(c < 0 for c in self.counts):
            raise ValueError("counts must be one nonnegative entry per symbol")
        self.total = sum(self.counts)

    def add(self, digit: int) -> None:
        """Record one occurrence of a symbol."""
        self.add_block((digit,))

    def add_block(self, digits: Iterable[int], copies: int = 1) -> None:
        """Record every digit of a block, ``copies`` times over, at C
        speed: one ``count`` per symbol below _TALLY_MIN_BASE, one tally
        from there.  A block with a digit out of range is refused whole."""
        if copies < 0:
            raise ValueError("copies must be nonnegative")
        if not isinstance(digits, (bytes, list, tuple)):
            digits = list(digits)
        base = self.base
        if base < _TALLY_MIN_BASE:
            found = [*map(digits.count, range(base))]
            if sum(found) == len(digits):
                return self._add(found, copies)
        else:
            tally = Counter(digits)
            if 0 <= min(tally, default=0) and max(tally, default=0) < base:
                counts = self.counts[:]
                for d, k in tally.items():
                    counts[d] += k * copies
                self.counts, self.total = counts, self.total + len(digits) * copies
                return
        bad = next(d for d in digits if d not in range(base))
        raise ValueError(f"digit {format_integer(bad)} out of range for base {base}")

    def _add(self, found: list[int], copies: int) -> None:
        # count ``copies`` times over a block whose counts are ``found``
        self.counts = [*map(add, self.counts, map(mul, found, repeat(copies)))]
        self.total += sum(found) * copies

    def merge(self, other: "DigitCounter") -> "DigitCounter":
        """Componentwise sum of two counters over the same base."""
        if self.base != other.base:
            raise ValueError(f"cannot merge counters of base {self.base} and {other.base}")
        return DigitCounter(self.base, [a + b for a, b in zip(self.counts, other.counts)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DigitCounter):
            return NotImplemented
        return self.base == other.base and self.counts == other.counts

    def __repr__(self) -> str:
        return f"DigitCounter(base={self.base}, counts={self.counts})"


def block_stream(cursor: StreamCursor, m: int) -> Iterator[int]:
    """View m-tuples of consecutive digits as single base b**m digits.

    Tuples are non-overlapping and aligned with the cursor's current
    position; a trailing partial tuple of a finite stream is dropped.
    With m = 1 this is the plain digit stream.
    """
    if m < 1:
        raise ValueError("block width must be at least 1")
    base = cursor.spec.base
    while True:
        try:
            digits = cursor.read(m)
        except SequenceExhaustedError:
            return
        yield reduce(lambda value, d: value * base + d, digits, 0)


def _check_symbol(spec: NumberSpec, symbol: int) -> None:
    if not 0 <= symbol < spec.base:
        raise ValueError(f"symbol {format_integer(symbol)} out of range for base {spec.base}")


@lru_cache(maxsize=8)
def _run_counts(base: int) -> Callable[[Sequence[int], int], list[int] | None]:
    """Function giving every symbol's count in one copy of every member
    of a run of ``length``-digit members, without writing the run out;
    None for a run it does not count so, which the scan writes out and
    counts instead.  Above base 256 only a range is counted so.

    A ``range`` run counts digit d at place i, with s = base**i, as the
    members whose remainder mod base * s lies in [d * s, (d + 1) * s):
    that many in every whole cycle and a clamped part of one cycle, the
    difference of two closed forms; each place moves three steps of one
    running sum over the digits, so every digit is counted at once, and
    carries each end's quotient and remainder by s on to the next place,
    so a place divides only by the base.
    A run of primes, a ``FlagBatch``, is counted off its sieve flags.
    With G = base**low, the low places of a member m are the digits of
    m mod G: one strided column of the flags per residue, read as an
    integer and counted by ``int.bit_count``, gives the members of each.
    Every member lies in a residue counted, so the columns add up to the
    run's size, which sizes a view the scan crosses before it is sized.
    The high places, m // G, are weighed by the count of each row of G flags:
    the columns, read as integers with one byte per row, add up to all
    those counts at once, in two sums, one for the residues whose column
    starts a row late.  Both are reduced place by place.  G is the
    largest power of the base within the run's width and 256, and never
    below the base.
    A row of G integers then holds fewer than 256 primes: at most one per
    residue prime to the base in a run above the base, and at most 129
    (2 and the odd integers) in any 256 consecutive integers, so one byte
    holds its count without carry.
    A run of composites, a ``CompositeBatch``, reads the same flags with
    the opposite sense: its counts are those of every integer its flags
    stand for, by the closed form, less those of the primes among them,
    counted off the flags as above, and its size is its width less the
    primes.  The two cover the same integers to the same ``length``
    places, so the difference is exact, also where the run's first flags
    are primes one digit shorter than its members.
    """
    @cache
    def held(size: int, every: bool) -> list[int]:
        # the residues mod size that hold members: every one for a run
        # from the base or below, else those prime to the base
        return [r for r in range(size) if every or math.gcd(r, base) == 1]

    def tally(counts: list[int], first: int, weights: list[int], places: int) -> None:
        # the digits at the lowest ``places`` places of first, first + 1,
        # ..., first + len(weights) - 1, each counted ``weights[k]`` times
        for _ in range(places):
            for k in range(min(base, len(weights))):
                counts[(first + k) % base] += sum(weights[k::base])
            aligned = [0] * (first % base) + weights + [0] * (base - 1)
            weights = [*map(sum, zip(*[iter(aligned)] * base))]
            first //= base

    def flag_counts(run: FlagBatch, length: int) -> list[int]:
        flags, start, stop = run.flags, run.start, run.stop
        first = run.lo + start  # the integer of flag ``start``
        low = 1  # G = base**low, the largest power within the run and 256, at least the base
        while low < length and base ** (low + 1) <= min(stop - start, 256):
            low += 1
        size = base**low
        at = first % size  # a residue below this starts its column a row later
        weights = [0] * size
        total = late = 0
        for r in held(size, first <= base):
            column = int.from_bytes(flags[start + (r - first) % size : stop : size], "little")
            weights[r] = column.bit_count()
            if r < at:
                late += column
            else:
                total += column
        run.size_from(sum(weights))
        counts = [0] * base
        tally(counts, 0, weights, low)
        rows = (run.lo + stop - 1) // size - first // size + 1
        tally(counts, first // size, list((total + (late << 8)).to_bytes(rows, "little")), length - low)
        return counts

    def spread(start: int, stop: int, length: int) -> list[int]:
        # every digit's count at the lowest ``length`` places of the
        # integers of [start, stop).  At place i, with s = base**i, the
        # integers of [0, end) hold q * s + s of each digit below d,
        # q * s + part of d and q * s of each digit above, where q, d and
        # part come from end = (q * base + d) * s + part; steps[d] is what
        # every digit from d on holds more than the one before it.  Each
        # place carries end // s and part = end % s on from the last, so
        # it divides only by the base: q * s = (end - d * s - part) // base
        steps = [0] * (base + 1)
        for end, sign in ((stop, 1), (start, -1)):
            high, part, s = end, 0, 1
            for _ in range(length):
                high, d = divmod(high, base)
                ds = d * s
                steps[0] += sign * ((end - ds - part) // base + s)
                steps[d] -= sign * (s - part)
                steps[d + 1] -= sign * part
                part += ds
                s *= base
        return [*accumulate(steps[:base])]

    def count(run: Sequence[int], length: int) -> list[int] | None:
        if type(run) is range and run.step == 1:
            return spread(run.start, run.stop, length)
        if base > 256 or not isinstance(run, FlagBatch):
            return None
        if type(run) is FlagBatch:
            return flag_counts(run, length)
        # composites: every integer of their flags less the primes
        every = spread(run.lo + run.start, run.lo + run.stop, length)
        return [*map(sub, every, flag_counts(run, length))]

    return count


def _scan(
    spec: NumberSpec, stops: Sequence[int], members: bool = False
) -> Iterator[tuple[int, list[int]]]:
    """The prefix scan behind every counting entry point.

    Walks one fresh cursor to each stop in turn, counting into one
    DigitCounter, and yields (position, the counter's ``counts``) there.
    A stop is a digit position, or with ``members`` a boundary member m,
    whose position is the end of all copies of all members <= m.  Stops
    must be increasing.

    Raises:
        SequenceExhaustedError: when a finite stream ends before a
            position stop.  Boundary members past the end all stop at
            the end.
    """
    counter = DigitCounter(spec.base)
    run_counts = _run_counts(spec.base)
    encode = _run_encoder(spec.base)

    def add(digits: Sequence[int], length: int, copies: int) -> None:
        counter.add_block(digits, copies)

    def count_run(run: Sequence[int], length: int, copies: int) -> int:
        found = run_counts(run, length)
        if found is None:
            counter.add_block(encode(run, length), copies)
        else:
            counter._add(found, copies)
        return _size(run)  # a view of flags, sized by its count

    cursor = StreamCursor(spec)
    for stop in stops:
        if members:
            cursor._advance_past(stop, add, count_run)
        else:
            cursor._advance(stop - cursor.position, add, count_run)
        yield cursor.position, counter.counts


def count_symbol_prefix(spec: NumberSpec, symbol: int, n: int) -> int:
    """Count of a symbol over the first n digits.

    Scans the stream itself, with no closed form; this is the
    measurement side that the closed forms are checked against.
    """
    _check_symbol(spec, symbol)
    if n < 0:
        raise ValueError("prefix length must be nonnegative")
    ((_, counts),) = _scan(spec, [n])
    return counts[symbol]


def counter_prefix(spec: NumberSpec, n: int) -> DigitCounter:
    """Full symbol counter over the first n digits of the stream."""
    if n < 0:
        raise ValueError("prefix length must be nonnegative")
    ((_, counts),) = _scan(spec, [n])
    return DigitCounter(spec.base, counts)


def prefix_counts_at_boundaries(
    spec: NumberSpec, symbol: int, boundary_members: Iterable[int]
) -> list[tuple[int, int]]:
    """(position, symbol count) after all copies of all members <= m,
    for each boundary member m, in one pass over the stream.

    Boundary members must be increasing.  They need not themselves be
    members of the sequence.
    """
    _check_symbol(spec, symbol)
    boundaries = list(boundary_members)
    if any(b2 <= b1 for b1, b2 in zip(boundaries, boundaries[1:])):
        raise ValueError("boundary members must be strictly increasing")
    return [(pos, counts[symbol]) for pos, counts in _scan(spec, boundaries, members=True)]


class LilPoint(Record):
    """One trajectory sample: exact counts plus the float statistic."""

    __slots__ = ("n", "count", "discrepancy", "statistic")
    n: int
    count: int
    discrepancy: Fraction
    statistic: float

    def __init__(self, n: int, count: int, discrepancy: Fraction, statistic: float) -> None:
        self._fill(n, count, discrepancy, statistic)


class Trajectory(Record):
    __slots__ = ("spec", "symbol", "points")
    spec: NumberSpec
    symbol: int
    points: tuple[LilPoint, ...]

    def __init__(self, spec: NumberSpec, symbol: int, points: tuple[LilPoint, ...]) -> None:
        self._fill(spec, symbol, points)

    def write_csv(self, out: TextIOBase) -> None:
        """Write the trajectory as CSV with LF line endings."""
        out.write(TRAJECTORY_CSV_HEADER + "\n")
        for p in self.points:
            fields = p.n, p.count, *p.discrepancy.as_integer_ratio()
            out.write(",".join(map(format_integer, fields)) + f",{p.statistic!r}\n")

    def write_csv_path(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            self.write_csv(fh)


def trajectory(
    spec: NumberSpec, symbol: int, checkpoints: Iterable[int]
) -> Trajectory:
    """Sample the statistic of one symbol at increasing prefix lengths.

    Runs a single pass over the stream; each checkpoint may fall in the
    middle of a block and is split exactly.  Checkpoints must be
    strictly increasing and at least 16, where the statistic exists.
    """
    _check_symbol(spec, symbol)
    cps = list(checkpoints)
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if any(cp < MIN_STATISTIC_N for cp in cps):
        raise UndefinedStatisticError(
            f"checkpoints below {MIN_STATISTIC_N} have no statistic"
        )
    points = tuple(
        LilPoint(n, c, discrepancy(c, n, spec.base), lil_statistic(c, n, spec.base))
        for n, c in zip(cps, (counts[symbol] for _, counts in _scan(spec, cps)))
    )
    return Trajectory(spec, symbol, points)
