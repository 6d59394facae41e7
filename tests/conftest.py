"""Shared brute-force oracles, written independently of the package code.

Everything here works straight from definitions: trial division for
primality, literal block concatenation for streams, a plain sieve for
prime counts.  Tests compare the package against these, never the other
way round.
"""

from __future__ import annotations

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
