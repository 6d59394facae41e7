"""Primality, prime generation, and exact prime counting.

Bulk generation runs a segmented sieve of Eratosthenes over spans that
widen with depth, from SEGMENT_SIZE integers below 2**21 to MAX_SPAN
from 2**27 (``span_width``), each from a multiple of its width, so that
streaming the primes (or the composites) never materializes more than a
span per walk and the one the process keeps.  A span loops over every
base prime in Python, so a wider one shares that loop among more
integers.  A walk leaves the spans as views of their flags, cut alike
for the primes, a ``FlagBatch``, and the composites, a ``CompositeBatch``
of the opposite sense: at most MAX_BATCH integers from its start, the
rest of that span, then each span whole (``_views``).  A view finds its
members by counting flags and slices into views, and picks members out
only when iterated, so a read extracts only the stretch it writes.
A walk's start alone sets its cuts.
Each span starts as one wheel period, rotated to the span's start and
repeated to its width, on which the multiples of 2, 3, 5, 7, 11 and 13
are already struck; each larger base prime strikes its odd multiples
with one copy of shared zeros, a walk carries its next odd multiple from
one span to the next, and the base primes are sieved by the same kernel.
Flags are counted by Adler-32 sums at memory speed: a view's to size it,
and, for the digit counts, each residue column's.  The last span
sieved is kept, so a walk that resumes inside it, as a cursor restored
from its checkpoint does, reads it from there instead of sieving, and
sieves on from its end.
Counting sieves only [0, x // cbrt(x)], about x**(2/3), with the same
kernel, and takes pi(x) from Meissel's formula over that table and the
primes it holds up to sqrt(x), exact and in integers throughout.
Point queries use a strong-pseudoprime (Miller-Rabin) test with witness
sets that are deterministic for every modulus below 2**64.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from functools import cache
from itertools import accumulate, chain, compress, repeat
from math import isqrt, prod

from .errors import CapExceededError

# Spans widen with depth from SEGMENT_SIZE to MAX_SPAN integers (see
# span_width).
SEGMENT_SIZE = 1 << 16
MAX_SPAN = 1 << 20
# most members in a batch that is a list (explicit members, polynomial
# values, gaps), and the integers that a walk's first flag view covers
MAX_BATCH = 1024

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Deterministic witness tiers.  Each entry is (limit, k): the first k
# small primes are a proven deterministic witness set for all n < limit.
_MR_TIERS = (
    (1_373_653, 2),
    (3_215_031_751, 4),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (1 << 64, 12),
)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64.

    Args:
        n: the integer to test.

    Returns:
        True when n is prime.

    Raises:
        ValueError: if n is negative or at least 2**64, the range where
            the fixed witness sets stop being a proof.
    """
    if n < 0:
        raise ValueError("primality is defined for nonnegative integers")
    if n >= 1 << 64:
        raise ValueError("point primality queries are limited to the 64-bit range")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    witnesses = _SMALL_PRIMES[: next(k for limit, k in _MR_TIERS if n < limit)]
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Every span starts as one wheel period, on which the multiples of the
# wheel primes are already struck, rotated to the span's start and
# repeated to its width, so a walk strikes only the primes from 17 up.
_WHEEL_PRIMES = _SMALL_PRIMES[:6]
_WHEEL_PERIOD = prod(_WHEEL_PRIMES)  # 30030


def _wheel() -> bytearray:
    pattern = bytearray([1]) * _WHEEL_PERIOD
    for p in _WHEEL_PRIMES:
        pattern[::p] = bytes(_WHEEL_PERIOD // p)
    return pattern


_WHEEL = _wheel()
# The flags of 0..16, where the wheel is wrong: it keeps 1 and strikes the
# wheel primes themselves.  17 is the least prime a walk strikes.
_SMALL = bytes(n in _WHEEL_PRIMES for n in range(17))
# Every strike is a slice of these zeros: a prime from 17 up strikes at
# most this many odd integers of a span.  A bytearray, because slice
# assignment copies any other value into one first; never written to.
_ZERO = bytearray(MAX_SPAN // (2 * len(_SMALL)) + 1)


def span_width(n: int) -> int:
    """Width of the sieve span that holds the integer n >= 0: a power of
    two about 64 * sqrt(n), from SEGMENT_SIZE below 2**21 up to MAX_SPAN
    from 2**27, which doubles at every second power of two from 2**21.
    A span of each width starts at a multiple of it, and every width
    divides the power of two at which it starts, so the span that holds n
    is [n - n % w, n - n % w + w) with w = span_width(n), whatever span a
    walk came from.  A span loops over every base prime below the square
    root of its end in Python, so its width sets how many integers share
    that loop."""
    return min(MAX_SPAN, max(SEGMENT_SIZE, 1 << n.bit_length() // 2 + 6))


def _sieve(lo: int, width: int, primes: list[int], offsets: list[int]) -> bytearray:
    """Prime flags for [lo, lo + width), width <= MAX_SPAN: the sieve
    kernel.  ``primes`` are the primes from 17 up whose square is below
    lo + width, and ``offsets[i]`` is where the next odd multiple of
    ``primes[i]`` to strike lies, counted from lo: the wheel struck the
    even ones.  The offsets move on to the stretch from lo + width."""
    at = lo % _WHEEL_PERIOD
    flags = (_WHEEL[at:] + _WHEEL[:at]) * -(-width // _WHEEL_PERIOD)
    del flags[width:]
    if lo < len(_SMALL):
        flags[: len(_SMALL) - lo] = _SMALL[lo : lo + width]
    for i, p in enumerate(primes):
        off, step = offsets[i], 2 * p
        flags[off::step] = _ZERO[: (width - 1 - off) // step + 1]
        offsets[i] = (off - width) % step
    return flags


def _offsets(primes: list[int], lo: int) -> list[int]:
    """Where each prime p starts to strike in a walk from lo, counted from
    lo: at its first odd multiple from lo on, but not below p * p, so that
    p itself stays."""
    j = bisect_right(primes, isqrt(lo))
    return [(p - lo) % (2 * p) for p in primes[:j]] + [p * p - lo for p in primes[j:]]


# All primes up to some bound, shared by every sieve and grown on demand.
# The list lives as long as the process, so a resume deep in a stream does
# not sieve its base primes again: near 10**12 it holds 110 000, 4 MiB.
# It only ever grows at its end, so a walk's primes stay a prefix of it.
_base_primes: list[int] = [2]


def _grow(hi: int) -> None:
    """Extend ``_base_primes`` until its last prime's square is at least
    hi, so it holds every prime below sqrt(hi).  Each step sieves on from
    the last prime p with the kernel, up to p * p, 4 * p or one span
    past p, whichever comes first: the primes it needs are all known."""
    while (last := _base_primes[-1]) ** 2 < hi:
        lo = last + 1
        width = min(last * last - last, 3 * last, SEGMENT_SIZE)
        top = bisect_right(_base_primes, isqrt(lo + width - 1))
        primes = _base_primes[len(_WHEEL_PRIMES) : top]
        flags = _sieve(lo, width, primes, _offsets(primes, lo))
        _base_primes.extend(compress(range(lo, lo + width), flags))


# The last span any walk sieved, at a multiple lo of its width: (lo,
# flags of [lo, lo + span_width(lo)), the primes from 17 up that struck it,
# their offsets past it).  It holds its own primes, so its offsets never
# pair with another ``_base_primes``; it is replaced whole, never mutated.
_kept: tuple[int, bytearray, list[int], list[int]] = (0, bytearray(), [], [])


def _span(prev: tuple[int, bytearray, list[int], list[int]], lo: int) -> tuple:
    """Sieve the span from lo, carrying the offsets of ``prev`` when it
    ends at lo and taking fresh ones otherwise, and keep it in ``_kept``."""
    global _kept
    at, flags, primes, offsets = prev
    if at + len(flags) != lo:
        primes, offsets = [], []
    width = span_width(lo)
    hi = lo + width
    _grow(hi)
    new = _base_primes[len(_WHEEL_PRIMES) + len(primes) : bisect_right(_base_primes, isqrt(hi - 1))]
    primes, offsets = primes + new, offsets + _offsets(new, lo)
    _kept = lo, _sieve(lo, width, primes, offsets), primes, offsets
    return _kept


def _segments(start: int) -> Iterator[tuple[int, bytearray, int]]:
    """Prime flags of consecutive spans, from the one that holds ``start``
    on, without end, as (lo, flags of [lo, lo + len(flags)), at), read
    from index at.  A span's width is ``span_width(lo)`` and lo is a
    multiple of it, so the next span starts at lo + len(flags) and the
    spans depend on start alone.  The first span is ``_kept`` when it
    holds start, else sieved afresh, and is read from start; each later
    span is sieved on from the walk's last one, carrying its offsets, and
    is read whole.  A prime joins at the first span that ends past its
    square.  Spans are handed out as they are, so no consumer may mutate
    the flags."""
    lo = max(start, 0)
    span = _kept
    if not 0 <= lo - span[0] < len(span[1]):
        span = _span(span, lo - lo % span_width(lo))
    at = lo - span[0]
    while True:
        yield span[0], span[1], at
        span, at = _span(span, span[0] + len(span[1])), 0


_ONE = re.compile(b"\x01")


class FlagBatch(Sequence):
    """The primes of the flag indices [start, stop) of one span's flags,
    whose index 0 is the integer ``lo``: a read-only sequence of ``size``
    members, the flags equal to ``_SENSE``.  Member k is found by counting
    flags, and a slice with no step is a view of the same flags, so a cut
    through a span costs its members no extraction.  Members are picked
    out, by ``_between``, only when a view is iterated, afresh each time:
    a reader slices the stretch it writes and iterates that.  The view of
    the other sense overrides only ``_between`` and ``_next``; a view
    built without its size counts it."""

    __slots__ = ("flags", "lo", "start", "stop", "size", "_seen")
    _SENSE = 1

    def __init__(
        self, flags: bytearray, lo: int, start: int, stop: int, size: int | None = None
    ) -> None:
        self.flags, self.lo, self.start, self.stop = flags, lo, start, stop
        self.size = self._count(start, stop) if size is None else size
        # (k, i): flag index i has k members of the view before it
        self._seen = 0, start

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            first, end, step = i.indices(self.size)
            if step != 1:
                return list(self)[i]
            end = max(first, end)
            start = self._flag(first) if first < self.size else self.stop
            stop = self._flag(end) if end < self.size else self.stop
            return type(self)(self.flags, self.lo, start, stop, end - first)
        return self.lo + self._flag(range(self.size)[i])

    def __iter__(self) -> Iterator[int]:
        return iter(self._between(self.start, self.stop))

    def _count(self, start: int, stop: int) -> int:
        """The members among flag indices [start, stop), of the view's sense."""
        ones = _count_flags(self.flags, start, stop)
        return ones if self._SENSE else stop - start - ones

    def _between(self, start: int, stop: int) -> list[int]:
        """The members of flag indices [start, stop)."""
        return [self.lo + m.start() for m in _ONE.finditer(self.flags, start, stop)]

    def _flag(self, k: int) -> int:
        """Flag index of member k, 0 <= k < size: the first and the last
        by one search, any other from the last member so found.  Chunks
        that double step back from it, counted by ``_count``, until no
        more than k members lie before; ``_next`` goes on from there."""
        if k == 0:
            return self.flags.find(self._SENSE, self.start, self.stop)
        if k == self.size - 1:
            return self.flags.rfind(self._SENSE, self.start, self.stop)
        seen, at = self._seen
        # the first chunk spans the members between at the view's mean gap
        step = 64 + abs(k - seen) * (self.stop - self.start) // self.size
        while seen > k:
            back = max(at - step, self.start)
            seen, at, step = seen - self._count(back, at), back, 2 * step
        at = self._next(at, k - seen, step)
        self._seen = k, at
        return at

    def _next(self, at: int, left: int, step: int) -> int:
        """Flag index of the member with ``left`` members from flag index
        at before it.  Chunks that double from ``step`` flags find one
        that holds the member, and its halves one of 64 flags or fewer, in
        which one search per member finds it.  So a lookup near the last
        costs a few C calls, and one far away counts a few times the flags
        between the two.  The flags of other views lie past the member, so
        they never end the search early."""
        flags = self.flags
        while (n := flags.count(1, at, at + step)) <= left:
            left, at, step = left - n, at + step, 2 * step
        while step > 64:
            step //= 2
            if (n := flags.count(1, at, at + step)) <= left:
                left, at = left - n, at + step
        at = flags.find(1, at)
        for _ in range(left):
            at = flags.find(1, at + 1)
        return at

    def split(self, value: int) -> tuple[FlagBatch, FlagBatch]:
        """The members below ``value`` and the others, as two views; the
        flags are counted from the last member found."""
        cut = min(max(value - self.lo, self.start), self.stop)
        seen, at = self._seen
        below = seen + self._count(at, cut) if at <= cut else seen - self._count(cut, at)
        return (
            type(self)(self.flags, self.lo, self.start, cut, below),
            type(self)(self.flags, self.lo, cut, self.stop, self.size - below),
        )


class CompositeBatch(FlagBatch):
    """The composites of the flag indices [start, stop) of one span's
    flags: the same view read with the opposite sense, whose members are
    the flags that are 0.  Composites are dense, so member k lies k flags
    on plus one for each prime flag crossed: ``_next`` finds it by
    counting the primes a few times over a stretch of about k flags, where
    the sparse primes search by halving chunks, and ``_between`` picks
    members out by ``compress`` over the inverted flags, where the primes
    match them one by one."""

    __slots__ = ()
    _SENSE = 0
    _INVERTED = bytes.maketrans(b"\x00\x01", b"\x01\x00")

    def _between(self, start: int, stop: int) -> list[int]:
        inverted = self.flags[start:stop].translate(self._INVERTED)
        return [*compress(range(self.lo + start, self.lo + stop), inverted)]

    def _next(self, at: int, left: int, step: int) -> int:
        """The least fixed point of i = at + left + (the 1s of flags[at :
        i + 1]), reached from i = at + left by counting only the flags each
        step adds, so a lookup ``left`` members on counts about that many
        flags."""
        i = at + left
        ones = self.flags.count(1, at, i + 1)
        while ones:
            i, ones = i + ones, self.flags.count(1, i + 1, i + ones + 1)
        return i


def _count_flags(flags: bytearray, start: int, stop: int) -> int:
    """The number of 1s in flags[start:stop], of 0/1 flags, at memory
    speed: Adler-32 seeded with 0 holds the byte sum mod 65 521 in its
    low half, exact for chunks of at most 65 520 such bytes.  A stretch
    of one chunk, as a residue column of a span or a walk's first view,
    takes one call, on the buffer itself when the stretch is all of it."""
    import zlib  # here: a cold start without a walk skips it

    if stop - start <= 65_520:
        return zlib.adler32(flags if stop - start == len(flags) else flags[start:stop], 0) & 0xFFFF
    with memoryview(flags) as view:
        return sum(
            zlib.adler32(view[at : min(at + 65_520, stop)], 0) & 0xFFFF
            for at in range(start, stop, 65_520)
        )


def _views(view_cls: type[FlagBatch], start: int) -> Iterator[FlagBatch]:
    """The members >= start of the sense of ``view_cls``, in order,
    without end, as views of their sieve flags: the first covers at
    most MAX_BATCH integers from start, so a restored cursor counts no
    more before it reads, the next the rest of start's span, and each
    later one a span whole.  Each is sized by ``_count``; a stretch
    without a member yields no view."""
    head = MAX_BATCH
    for lo, flags, at in _segments(start):
        for stop in min(at + head, len(flags)), len(flags):
            if (view := view_cls(flags, lo, at, stop)).size:
                yield view
            at = stop
        head = 0


def prime_batches(start: int = 2) -> Iterator[FlagBatch]:
    """Yield the primes >= start in increasing order, as ``_views``."""
    return _views(FlagBatch, max(start, 2))


def iter_primes(start: int = 2) -> Iterator[int]:
    """Yield primes >= start in increasing order, without end."""
    return chain.from_iterable(prime_batches(start))


def composite_batches(start: int = 4) -> Iterator[CompositeBatch]:
    """Yield the composites >= start in increasing order, as ``_views``."""
    return _views(CompositeBatch, max(start, 4))


def iter_composites(start: int = 4) -> Iterator[int]:
    """Yield composites >= start in increasing order, from 4 on: the unit
    1 is neither prime nor composite, and no flag below 4 is ever seen."""
    return chain.from_iterable(composite_batches(start))


DEFAULT_COUNTING_CAP = 10**8


@cache
def _wheel_phi() -> Sequence[int]:
    """Prefix sums t of one wheel period: phi(y, 6), the count of the
    integers of [1, y] prime to every wheel prime, is
    y // 30030 * t[-1] + t[y % 30030].  Built on the first count only."""
    from array import array

    return array("H", accumulate(_WHEEL))


def _cube_root(x: int) -> int:
    """floor(x ** (1/3)) for x >= 1, by Newton's method in integers from
    a power of two above the root."""
    c = 1 << -(-x.bit_length() // 3)
    while (d := (2 * c + x // (c * c)) // 3) < c:
        c = d
    return c


def prime_count(x: int, cap: int = DEFAULT_COUNTING_CAP) -> int:
    """Exact number of primes <= x, by Meissel's formula over a sieve of
    [0, x // c], about x**(2/3) bytes, in integers throughout.

    Let c = floor(x ** (1/3)), a = max(pi(c), 6), p_k be the k-th prime
    and phi(y, b) count the integers of [1, y] with no prime factor among
    p_1, ..., p_b.  phi(x, a) counts 1, the primes of (p_a, x] and the
    products of two primes above p_a: three such primes multiply past x.
    So pi(x) = phi(x, a) + a - 1 - the sum over a < k <= pi(sqrt(x)) of
    pi(x // p_k) - (k - 1).  Each x // p_k is at most x // c, and so is
    every pi argument below: the prime flags of [0, x // c] are sieved
    once, and pi(v) is a per-64 block count plus one ``bytes.count``.
    The p_k are read off the same flags: x // c >= sqrt(x).

    phi(y, b) is phi(y, 6), read off the wheel, minus phi(y // p_i, i - 1)
    for i = 7, ..., b.  Where y // p_i < p_i ** 2, that term counts 1 and
    the primes of (p_(i-1), y // p_i]: a call with b > 6 has
    y >= p_(b+1) ** 2, so y // p_i > p_i.  Only the other terms recurse,
    each on at most y // 17, so the depth grows with the number of
    divisions, not with a.  The terms, not the sieve, set the time: it
    grows about sevenfold per tenfold x from 10**9 to 10**11, where the
    Lucy recursion's x**(3/4) grows 5.6-fold.

    Args:
        x: upper bound of the count.
        cap: the largest x this call is willing to count.

    Raises:
        CapExceededError: when x exceeds cap. The count is never
            approximated.
    """
    if x > cap:
        raise CapExceededError(f"prime count at {x} exceeds the counting cap {cap}")
    if x < len(_SMALL):  # a = 6 needs x >= p_6 = 13
        return _SMALL.count(1, 0, max(x + 1, 0))
    # array is imported here, not with the module: loading it costs every
    # path that never counts some 40 KiB of RSS
    from array import array

    c = _cube_root(x)
    top = x // c
    flags = bytearray()
    for _, span, _ in _segments(0):
        flags += span
        if len(flags) > top:
            break
    del flags[top + 1 :]
    blocks = array("I", accumulate(
        map(flags.count, repeat(1), range(0, top + 1, 64), range(64, top + 65, 64)),
        initial=0,
    ))

    def pi(v: int) -> int:
        return blocks[v >> 6] + flags.count(1, v & -64, v + 1)

    primes = [*compress(range(isqrt(x) + 1), flags)]
    wheel_phi = _wheel_phi()

    def phi(y: int, b: int) -> int:
        q, r = divmod(y, _WHEEL_PERIOD)
        total = q * wheel_phi[-1] + wheel_phi[r]
        for i in range(len(_WHEEL_PRIMES), b):
            p = primes[i]
            z = y // p
            if z < p * p:  # then z <= top: y <= x and p <= c
                total -= blocks[z >> 6] + flags.count(1, z & -64, z + 1) - i + 1
            else:
                total -= phi(z, i)
        return total

    a = max(pi(c), len(_WHEEL_PRIMES))
    count = phi(x, a) + a - 1
    for k in range(a, len(primes)):
        count -= pi(x // primes[k]) - k
    return count
