"""Primality, prime generation, and exact prime counting.

Bulk generation runs a segmented sieve of Eratosthenes so that streaming
the primes (or the composites) never materializes more than one segment,
and hands the members out in lists of at most MAX_BATCH.
Counting does not sieve: pi(x) comes from the combinatorial Legendre/Lucy
recursion over the values floor(x/i), exact and in integers throughout.
Point queries use a strong-pseudoprime (Miller-Rabin) test with witness
sets that are deterministic for every modulus below 2**64.
"""

from __future__ import annotations

import re
from itertools import chain, compress, islice
from math import isqrt
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


def _segment_flags(lo: int, hi: int, base: list[int]) -> bytearray:
    """Prime flags for the half-open range [lo, hi)."""
    flags = bytearray([1]) * (hi - lo)
    for p in base:
        if p * p >= hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        flags[start - lo :: p] = bytearray(len(range(start, hi, p)))
    if lo < 2:
        flags[: 2 - lo] = bytes(2 - lo)
    return flags


# All primes up to some bound, shared by every sieve and grown on demand.
# The list lives as long as the process, so a resume deep in a stream does
# not sieve its base primes again: near 10**12 it holds 110 000, 4 MiB.
_base_primes: list[int] = [2]


def _segments(start: int) -> Iterator[tuple[int, bytearray]]:
    """Prime flags of consecutive segments from ``start`` on, without end.
    The first is FIRST_SEGMENT wide and each later one as wide as all before
    it, up to SEGMENT_SIZE: a short walk sieves little more than it reads."""
    first = lo = max(start, 0)
    width = FIRST_SEGMENT
    while True:
        hi = lo + width
        while _base_primes[-1] * _base_primes[-1] < hi:
            top = 4 * _base_primes[-1]  # every prime below sqrt(top) is in the list
            _base_primes[:] = compress(range(top), _segment_flags(0, top, _base_primes))
        yield lo, _segment_flags(lo, hi, _base_primes)
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
