"""Primality, prime generation, and exact prime counting.

Bulk generation runs a segmented sieve of Eratosthenes so that streaming
the primes (or the composites) never materializes more than one segment.
Point queries use a strong-pseudoprime (Miller-Rabin) test with witness
sets that are deterministic for every modulus below 2**64.
"""

from __future__ import annotations

import re
from itertools import compress
from typing import Iterator

from .errors import CapExceededError

SEGMENT_SIZE = 1 << 16

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


def primes_up_to(n: int) -> list[int]:
    """All primes <= n via a plain sieve. Intended for small n."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= n:
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
        p += 1
    return [i for i in range(2, n + 1) if flags[i]]


def _segment_flags(lo: int, hi: int, base: list[int]) -> bytearray:
    """Prime flags for the half-open range [lo, hi)."""
    flags = bytearray([1]) * (hi - lo)
    for p in base:
        if p * p >= hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        flags[start - lo :: p] = bytearray(len(range(start, hi, p)))
    if lo == 0:
        flags[0:2] = b"\x00\x00"
    elif lo == 1:
        flags[0] = 0
    return flags


class _SegmentWalker:
    """Shared segment iteration for the prime and composite generators."""

    def __init__(self, start: int):
        self.lo = max(start, 0)
        self.base: list[int] = primes_up_to(1 << 10)

    def segments(self) -> Iterator[tuple[int, bytearray]]:
        lo = self.lo
        while True:
            hi = lo + SEGMENT_SIZE
            while self.base[-1] * self.base[-1] < hi:
                self.base = primes_up_to(self.base[-1] * 4)
            yield lo, _segment_flags(lo, hi, self.base)
            lo = hi


_INVERT = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def prime_segments(start: int = 2) -> Iterator[list[int]]:
    """Yield the primes >= start in increasing order, one list per sieve
    segment, without end.  The regex engine finds the set flags at C
    speed."""
    for lo, flags in _SegmentWalker(max(start, 2)).segments():
        yield [lo + m.start() for m in re.finditer(b"\x01", flags)]


def iter_primes(start: int = 2) -> Iterator[int]:
    """Yield primes >= start in increasing order, without end."""
    for lo, flags in _SegmentWalker(max(start, 2)).segments():
        for m in re.finditer(b"\x01", flags):
            yield lo + m.start()


def iter_composites(start: int = 4) -> Iterator[int]:
    """Yield composites >= start in increasing order.

    Composites begin at 4; the unit 1 is neither prime nor composite.
    The walk starts at 4 or later, so no flag below 4 is ever seen.
    Composites are dense, so ``compress`` over the inverted flags picks
    them out faster than a search for each one.
    """
    for lo, flags in _SegmentWalker(max(start, 4)).segments():
        yield from compress(range(lo, lo + len(flags)), flags.translate(_INVERT))


_count_cache: dict[int, int] = {}

DEFAULT_COUNTING_CAP = 10**8


def prime_count(x: int, cap: int = DEFAULT_COUNTING_CAP) -> int:
    """Exact number of primes <= x, computed by segmented sieve.

    Args:
        x: upper bound of the count.
        cap: largest x this call is willing to sieve.

    Raises:
        CapExceededError: when x exceeds cap. The count is never
            approximated.
    """
    if x > cap:
        raise CapExceededError(f"prime count at {x} exceeds the sieve cap {cap}")
    if x < 2:
        return 0
    if x in _count_cache:
        return _count_cache[x]
    total = 0
    walker = _SegmentWalker(0)
    for lo, flags in walker.segments():
        hi = lo + len(flags)
        if hi > x + 1:
            total += flags.count(1, 0, x + 1 - lo)
            break
        total += flags.count(1)
    _count_cache[x] = total
    return total
