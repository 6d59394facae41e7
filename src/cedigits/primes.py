"""Primality, prime generation, and exact prime counting.

Bulk generation runs a segmented sieve of Eratosthenes so that streaming
the primes (or the composites) never materializes more than one segment,
and hands the members out in lists of at most MAX_BATCH.  Each segment
starts as a slice of one wheel pattern on which the multiples of 2, 3, 5,
7, 11 and 13 are already struck; a walk carries each larger base prime's
next multiple from one segment to the next, and the base primes are
sieved by the same kernel.
Counting does not sieve: pi(x) comes from the combinatorial Legendre/Lucy
recursion over the values floor(x/i), exact and in integers throughout.
Point queries use a strong-pseudoprime (Miller-Rabin) test with witness
sets that are deterministic for every modulus below 2**64.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import chain, compress, islice, repeat
from math import isqrt, prod
from operator import mod
from typing import Iterator

from .errors import CapExceededError

SEGMENT_SIZE = 1 << 16
FIRST_SEGMENT = 1 << 10
MAX_BATCH = 1024  # most members in one batch of any sequence, and in one run of a stream

# Deterministic witness tiers.  Each entry is (limit, witnesses): the
# witness list is a proven deterministic test for all n < limit.
_MR_TIERS = (
    (1_373_653, (2, 3)),
    (3_215_031_751, (2, 3, 5, 7)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (1 << 64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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
    witnesses: tuple[int, ...] = _MR_TIERS[-1][1]
    for limit, ws in _MR_TIERS:
        if n < limit:
            witnesses = ws
            break
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


# Every segment starts as a slice of one wheel tile, on which the
# multiples of the wheel primes are already struck, so a walk strikes only
# the primes from 17 up.  The tile is one period longer than a segment, so
# a segment starting anywhere in the period is one slice of it.
_WHEEL_PRIMES = (2, 3, 5, 7, 11, 13)
_WHEEL_PERIOD = prod(_WHEEL_PRIMES)  # 30030


def _wheel() -> bytearray:
    pattern = bytearray([1]) * _WHEEL_PERIOD
    for p in _WHEEL_PRIMES:
        pattern[::p] = bytes(_WHEEL_PERIOD // p)
    return (pattern * (SEGMENT_SIZE // _WHEEL_PERIOD + 2))[: _WHEEL_PERIOD + SEGMENT_SIZE]


_WHEEL = _wheel()
# The flags of 0..16, where the wheel is wrong: it keeps 1 and strikes the
# wheel primes themselves.  17 is the least prime a walk strikes.
_SMALL = bytes(n in _WHEEL_PRIMES for n in range(17))
# Every strike is a slice of these zeros: a prime from 17 up strikes at
# most this many integers of a segment.
_ZERO = bytearray(SEGMENT_SIZE // len(_SMALL) + 1)


def _sieve(lo: int, width: int, primes: list[int], offsets: list[int]) -> bytearray:
    """Prime flags for [lo, lo + width), width <= SEGMENT_SIZE: the sieve
    kernel.  ``primes`` are the primes from 17 up whose square is below
    lo + width, and ``offsets[i]`` is where the next multiple of
    ``primes[i]`` to strike lies, counted from lo.  The offsets move on to
    the next segment, the one starting at lo + width."""
    at = lo % _WHEEL_PERIOD
    flags = _WHEEL[at : at + width]
    if lo < len(_SMALL):
        flags[: len(_SMALL) - lo] = _SMALL[lo : lo + width]
    for i, p in enumerate(primes):
        off = offsets[i]
        flags[off::p] = _ZERO[: (width - 1 - off) // p + 1]
        offsets[i] = (off - width) % p
    return flags


def _offsets(primes: list[int], lo: int) -> list[int]:
    """Where each prime p starts to strike in a walk from lo, counted from
    lo: at its first multiple from lo on, but not below p * p, so that p
    itself stays."""
    j = bisect_right(primes, isqrt(lo))
    return [*map(mod, repeat(-lo), primes[:j]), *[p * p - lo for p in primes[j:]]]


# All primes up to some bound, shared by every sieve and grown on demand.
# The list lives as long as the process, so a resume deep in a stream does
# not sieve its base primes again: near 10**12 it holds 110 000, 4 MiB.
# It only ever grows at its end, so a walk's primes stay a prefix of it.
_base_primes: list[int] = [2]


def _grow(hi: int) -> None:
    """Extend ``_base_primes`` until its last prime's square is at least
    hi, so it holds every prime below sqrt(hi).  Each step sieves on from
    the last prime p with the kernel, up to p * p, 4 * p or one segment
    past p, whichever comes first: the primes it needs are all known."""
    while (last := _base_primes[-1]) ** 2 < hi:
        lo = last + 1
        width = min(last * last - last, 3 * last, SEGMENT_SIZE)
        top = bisect_right(_base_primes, isqrt(lo + width - 1))
        primes = _base_primes[len(_WHEEL_PRIMES) : top]
        flags = _sieve(lo, width, primes, _offsets(primes, lo))
        _base_primes.extend(compress(range(lo, lo + width), flags))


def _segments(start: int) -> Iterator[tuple[int, bytearray]]:
    """Prime flags of consecutive segments from ``start`` on, without end.
    The first is FIRST_SEGMENT wide and each later one as wide as all before
    it, up to SEGMENT_SIZE: a short walk sieves little more than it reads.
    The walk carries each base prime's next multiple from one segment to
    the next; a prime joins at the first segment that ends past its
    square."""
    first = lo = max(start, 0)
    width = FIRST_SEGMENT
    primes: list[int] = []  # the base primes from 17 up that strike this walk
    offsets: list[int] = []
    while True:
        hi = lo + width
        _grow(hi)
        top = bisect_right(_base_primes, isqrt(hi - 1))
        new = _base_primes[len(_WHEEL_PRIMES) + len(primes) : top]
        primes += new
        offsets += _offsets(new, lo)
        yield lo, _sieve(lo, width, primes, offsets)
        lo = hi
        width = min(hi - first, SEGMENT_SIZE)


_INVERT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def prime_batches(start: int = 2) -> Iterator[list[int]]:
    """Yield the primes >= start in increasing order, in lists of at most
    MAX_BATCH, without end.  The regex engine finds the set flags at C
    speed."""
    for lo, flags in _segments(max(start, 2)):
        members = [lo + m.start() for m in re.finditer(b"\x01", flags)]
        for i in range(0, len(members), MAX_BATCH):
            yield members[i : i + MAX_BATCH]


def iter_primes(start: int = 2) -> Iterator[int]:
    """Yield primes >= start in increasing order, without end."""
    return chain.from_iterable(prime_batches(start))


def composite_batches(start: int = 4) -> Iterator[list[int]]:
    """Yield the composites >= start in increasing order, in lists of at
    most MAX_BATCH, without end.  Composites are dense, so ``compress`` over
    the inverted flags picks them out faster than a search for each one."""
    for lo, flags in _segments(max(start, 4)):
        members = compress(range(lo, lo + len(flags)), flags.translate(_INVERT))
        while batch := list(islice(members, MAX_BATCH)):
            yield batch


def iter_composites(start: int = 4) -> Iterator[int]:
    """Yield composites >= start in increasing order, from 4 on: the unit
    1 is neither prime nor composite, and no flag below 4 is ever seen."""
    return chain.from_iterable(composite_batches(start))


DEFAULT_COUNTING_CAP = 10**8


def prime_count(x: int, cap: int = DEFAULT_COUNTING_CAP) -> int:
    """Exact number of primes <= x, by the Legendre/Lucy recursion over
    the values floor(x/i): O(x**(3/4)) integer steps and O(sqrt(x))
    memory, with no sieve of [0, x].

    S(v) counts the integers in [2, v] not struck out by the primes
    taken so far; it starts at v - 1.  Taking the prime p strikes out
    the integers of [p*p, v] whose least prime factor is p, which is
    S(v // p) - S(p - 1) of them for every v >= p*p.  Once every prime
    up to sqrt(x) is taken, S(x) is pi(x).  Only the values v = floor(x/i)
    are ever read, so two tables hold them: ``small[v]`` for v <= r and
    ``large[i]`` = S(x // i) for i <= r, with r = isqrt(x).

    Args:
        x: upper bound of the count.
        cap: the largest x this call is willing to count.

    Raises:
        CapExceededError: when x exceeds cap. The count is never
            approximated.
    """
    if x > cap:
        raise CapExceededError(f"prime count at {x} exceeds the counting cap {cap}")
    if x < 2:
        return 0
    r = isqrt(x)
    small = list(range(-1, r))  # small[0] is never read
    large = [0] + [x // i - 1 for i in range(1, r + 1)]  # nor is large[0]
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:
            continue  # p is not prime
        sp = small[p - 1]
        p2 = p * p
        # Every right-hand side must still be the value from before p:
        # large goes first and up, reading large entries it has not
        # reached yet, then small goes down, reading entries below the
        # one it writes.
        for i in range(1, min(r, x // p2) + 1):
            d = i * p
            large[i] -= (large[d] if d <= r else small[x // d]) - sp
        for v in range(r, p2 - 1, -1):
            small[v] -= small[v // p] - sp
    return large[1]
