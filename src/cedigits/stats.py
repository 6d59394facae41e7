"""Digit-frequency counters and the iterated-logarithm statistic.

The normalized statistic at prefix length n for symbol k in base b is

    (count - n/b) / sqrt(2 n log log n)

with natural logarithms.  Almost every number obeys the law of the
iterated logarithm: the statistic's limsup is sqrt(b - 1)/b.  The
concatenation streams built by this package drive the symbol-1
statistic to infinity instead, which the trajectory measurements make
visible.

Every prefix count walks one fresh StreamCursor to its stops with a
counting sink.  The members of a run the cursor crosses whole, every
copy of each, are counted without being written out when they are a
range of consecutive members, or primes or composites read off their
sieve flags (``_run_counts``); a run of either holds the members of one
length in one view of a sieve span, whole past a walk's first, so each
view is counted once per member length and stop, and a stop inside it
writes out only the member it cuts.  The rest the cursor hands out as
pieces of runs, members and copies; each is counted at C speed and
multiplied by its copy count, so repeated copies are never written out.
Counts and positions are Python ints throughout, so the scan is as
exact as a digit-by-digit walk.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cache, lru_cache, reduce
from io import TextIOBase
from itertools import accumulate, repeat
from operator import sub

from .errors import SequenceExhaustedError, UndefinedStatisticError
from .primes import FlagBatch, _count_flags
from .sequences import Record
from .stream import NumberSpec, StreamCursor

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

# From this base on, a full counter tallies a run in one pass rather than
# scanning the run once per symbol.
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
        """Record every digit of a block, ``copies`` times over."""
        if copies < 0:
            raise ValueError("copies must be nonnegative")
        counts = self.counts
        base = self.base
        added = 0
        for d in digits:
            if not 0 <= d < base:
                raise ValueError(f"digit {d} out of range for base {base}")
            counts[d] += copies
            added += 1
        self.total += added * copies

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
        raise ValueError(f"symbol {symbol} out of range for base {spec.base}")


@lru_cache(maxsize=8)
def _run_counts(base: int) -> Callable[[Sequence[int], int, Sequence[int]], list[int] | None]:
    """Function giving, for each of ``symbols``, its count in one copy of
    every member of a run of ``length``-digit members, without writing
    the run out; None for a run it does not count so, which the scan
    has written out and counts instead.  Above base 256 only a range
    is counted so.

    A ``range`` run counts digit d at place i, with s = base**i, as the
    members whose remainder mod base * s lies in [d * s, (d + 1) * s):
    that many in every whole cycle and a clamped part of one cycle, the
    difference of two closed forms; each place moves three steps of one
    running sum over the digits, so every digit is counted at once.
    A run of primes, a ``FlagBatch``, is counted off its sieve flags.
    With G = base**low, the low places of a member m are the digits of
    m mod G: one strided column of the flags per residue, counted by
    ``primes._count_flags``, gives the members of each.  The high places,
    m // G, are weighed by the count of each row of G flags: the columns,
    read as integers with one byte per row, add up to all those counts at
    once.  Both are reduced place by place.  G is the largest power of
    the base within the run's width and 256, and never below the base.
    A row of G integers then holds fewer than 256 primes: at most one per
    residue prime to the base in a run above the base, and at most 129
    (2 and the odd integers) in any 256 consecutive integers, so one byte
    holds its count without carry.
    A run of composites, a ``CompositeBatch``, reads the same flags with
    the opposite sense: its counts are those of every integer its flags
    stand for, by the closed form, less those of the primes among them,
    counted off the flags as above.  The two cover the same integers to
    the same ``length`` places, so the difference is exact, also where
    the run's first flags are primes one digit shorter than its members.
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
        counts = [0] * base
        weights = [0] * size
        total = 0
        for r in held(size, first <= base):
            column = flags[start + (r - first) % size : stop : size]
            weights[r] = _count_flags(column, 0, len(column))
            total += int.from_bytes(column, "little") << (8 if r < first % size else 0)
        tally(counts, 0, weights, low)
        rows = (run.lo + stop - 1) // size - first // size + 1
        tally(counts, first // size, list(total.to_bytes(rows, "little")), length - low)
        return counts

    def spread(start: int, stop: int, length: int) -> list[int]:
        # every digit's count at the lowest ``length`` places of the
        # integers of [start, stop).  At place i, with s = base**i, the
        # integers of [0, end) hold q * s + s of each digit below d,
        # q * s + part of d and q * s of each digit above, where q, d and
        # part come from end = (q * base + d) * s + part; steps[d] is what
        # every digit from d on holds more than the one before it
        steps = [0] * (base + 1)
        s = 1
        for _ in range(length):
            for end, sign in ((stop, 1), (start, -1)):
                q, r = divmod(end, s * base)
                d, part = divmod(r, s)
                steps[0] += sign * (q * s + s)
                steps[d] -= sign * (s - part)
                steps[d + 1] -= sign * part
            s *= base
        return [*accumulate(steps[:base])]

    def count(run: Sequence[int], length: int, symbols: Sequence[int]) -> list[int] | None:
        if type(run) is range and run.step == 1:
            counts = spread(run.start, run.stop, length)
        elif base > 256 or not isinstance(run, FlagBatch):
            return None
        elif type(run) is FlagBatch:
            counts = flag_counts(run, length)
        else:  # composites: every integer of their flags less the primes
            every = spread(run.lo + run.start, run.lo + run.stop, length)
            counts = [*map(sub, every, flag_counts(run, length))]
        return [counts[d] for d in symbols]

    return count


def _scan(
    spec: NumberSpec,
    stops: Sequence[int],
    symbol: int | None = None,
    members: bool = False,
) -> Iterator[tuple[int, list[int]]]:
    """The prefix scan behind every counting entry point.

    Walks one fresh cursor to each stop in turn and yields (position,
    counts) there.  ``counts`` holds the occurrences of every symbol,
    indexed by symbol, or with ``symbol`` given, of that symbol alone.
    A stop is a digit position, or with ``members`` a boundary member m,
    whose position is the end of all copies of all members <= m.  Stops
    must be increasing.

    Raises:
        SequenceExhaustedError: when a finite stream ends before a
            position stop.  Boundary members past the end all stop at
            the end.
    """
    symbols = range(spec.base) if symbol is None else (symbol,)
    tally = symbol is None and spec.base >= _TALLY_MIN_BASE
    counts = [0] * len(symbols)

    def add(digits: Sequence[int], length: int, copies: int) -> None:
        if tally:
            for d, k in Counter(digits).items():
                counts[d] += k * copies
        else:
            for j, s in enumerate(symbols):
                counts[j] += digits.count(s) * copies

    run_counts = _run_counts(spec.base)

    def count_run(run: Sequence[int], length: int, copies: int) -> bool:
        found = run_counts(run, length, symbols)
        if found is None:
            return False
        for j, c in enumerate(found):
            counts[j] += c * copies
        return True

    cursor = StreamCursor(spec)
    for stop in stops:
        if members:
            cursor._advance_past(stop, add, count_run)
        else:
            cursor._advance(stop - cursor.position, add, count_run)
        yield cursor.position, list(counts)


def count_symbol_prefix(spec: NumberSpec, symbol: int, n: int) -> int:
    """Count of a symbol over the first n digits.

    Scans the stream itself, with no closed form; this is the
    measurement side that the closed forms are checked against.
    """
    _check_symbol(spec, symbol)
    if n < 0:
        raise ValueError("prefix length must be nonnegative")
    ((_, counts),) = _scan(spec, [n], symbol)
    return counts[0]


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
    return [(pos, counts[0]) for pos, counts in _scan(spec, boundaries, symbol, members=True)]


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
            out.write(
                f"{p.n},{p.count},{p.discrepancy.numerator},"
                f"{p.discrepancy.denominator},{p.statistic!r}\n"
            )

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
        for n, (c,) in _scan(spec, cps, symbol)
    )
    return Trajectory(spec, symbol, points)
