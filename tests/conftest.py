"""Shared brute-force oracles, written independently of the package code.

Everything here works straight from definitions: trial division for
primality, literal block concatenation for streams, a plain sieve and
the Legendre/Lucy recursion for prime counts.  Tests compare the package
against these, never the other way round.
"""

from __future__ import annotations

from math import isqrt

import pytest


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def plain_sieve(limit: int) -> bytearray:
    """Prime flags of 0, 1, ..., limit - 1 by a plain one-shot sieve."""
    flags = bytearray([1]) * limit
    flags[:2] = bytes(min(limit, 2))
    p = 2
    while p * p < limit:
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit, p)))
        p += 1
    return flags


def simple_prime_count(x: int) -> int:
    """pi(x) by a plain one-shot sieve."""
    return sum(plain_sieve(x + 1)) if x >= 2 else 0


def lucy_prime_count(x: int) -> int:
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
    """
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


def digits_of(n: int, base: int) -> list[int]:
    out = []
    while n:
        out.append(n % base)
        n //= base
    out.reverse()
    return out


def concat_stream(members, base: int, c_num: int, c_den: int, limit: int) -> list[int]:
    """First ``limit`` digits of a concatenation stream, by literal
    block-by-block expansion of the given members."""
    acc: list[int] = []
    for m in members:
        ds = digits_of(m, base)
        reps = c_num ** len(ds) // c_den ** len(ds)
        acc.extend(ds * reps)
        if len(acc) >= limit:
            return acc[:limit]
    return acc


def concat_stream_full(members, base: int, c_num: int, c_den: int) -> list[int]:
    """Every digit of the (finite) member list, blocks fully expanded."""
    acc: list[int] = []
    for m in members:
        ds = digits_of(m, base)
        reps = c_num ** len(ds) // c_den ** len(ds)
        acc.extend(ds * reps)
    return acc


@pytest.fixture(scope="session")
def pi_oracle():
    cache: dict[int, int] = {}

    def pi(x: int) -> int:
        if x not in cache:
            cache[x] = simple_prime_count(x)
        return cache[x]

    return pi


_criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    """Collect an acceptance checklist line for the terminal summary."""
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.line(line)
