"""Independent expected outputs for the benchmark workloads.

Nothing here imports cedigits.  Digits, repetitions and prime counts come
from the brute-force oracles of the test suite (``tests/conftest.py``,
loaded read-only): ``digits_of`` and ``concat_stream_full`` write blocks
by repeated division and literal concatenation, ``simple_prime_count``
and ``trial_division_is_prime`` check the one sieve written here.

The full-size references that take long to compute are generated once
and committed as ``bench/reference.json``:

    python3 bench/reference.py

The cursor workload draws its windows from the seed, so its digests are
computed by ``window_digests`` at the start of every run instead.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from child import window_digest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

# pi(x) as published (OEIS A006880), independent of any code
PUBLISHED_PRIME_PI = {10**6: 78498, 10**7: 664579, 10**8: 5761455}

VERIFY_BASES = (2, 3, 10)
VERIFY_CS = (Fraction(1), Fraction(3, 2), Fraction(2))
VERIFY_MAX_DIGITS = 10**7

# primes_count reads -n from this grid, so every seed has a committed answer
COUNT_START = 10**7
COUNT_STEP = 1000
COUNT_POINTS = 100


class ReferenceMismatch(Exception):
    """The reference's own cross-check against the test-suite oracles failed."""


@lru_cache(maxsize=None)
def oracles():
    path = os.path.join(ROOT, "tests", "conftest.py")
    spec = importlib.util.spec_from_file_location("cedigits_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sieve(limit: int) -> bytearray:
    """Prime flags for 0..limit, cross-checked against the oracles."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    oracle = oracles()
    if flags.count(1) != oracle.simple_prime_count(limit):
        raise ReferenceMismatch(f"sieve count below {limit} disagrees with simple_prime_count")
    rng = random.Random(limit)
    sample = itertools.chain(range(min(limit, 3000) + 1), (rng.randrange(limit + 1) for _ in range(300)))
    for n in sample:
        if bool(flags[n]) != oracle.trial_division_is_prime(n):
            raise ReferenceMismatch(f"sieve flag of {n} disagrees with trial division")
    return flags


# byte translation that swaps the 0/1 prime flags into composite flags
_NOT = bytes([1, 0]) + bytes(254)


def _blocks(kind: str, base: int, c: Fraction) -> Iterator[list[int]]:
    """Every block of the stream over the primes or the composites, each
    written out by the test suite's literal concatenation."""
    concat = oracles().concat_stream_full
    first = 2 if kind == "primes" else 4
    limit = 1 << 20
    while True:
        flags = _sieve(limit)
        if kind == "composites":
            flags = flags.translate(_NOT)
        for m in itertools.compress(range(first, limit + 1), flags[first:]):
            yield concat([m], base, c.numerator, c.denominator)
        first = limit + 1
        limit *= 2


def prime_digit_counts(ns: Sequence[int], base: int = 10) -> list[list[int]]:
    """Symbol counts over the first n digits of the prime stream, c = 1,
    for each n of the increasing list ns."""
    out: list[list[int]] = []
    counts = [0] * base
    pos = 0
    for block in _blocks("primes", base, Fraction(1)):
        end = pos + len(block)
        while len(out) < len(ns) and ns[len(out)] <= end:
            partial = counts[:]
            for d in block[: ns[len(out)] - pos]:
                partial[d] += 1
            out.append(partial)
        if len(out) == len(ns):
            return out
        for d in block:
            counts[d] += 1
        pos = end
    raise AssertionError("unreachable: the prime stream is infinite")


def window_digests(
    windows: Sequence[tuple[int, int]], kind: str, base: int, c: Fraction
) -> tuple[list[str], list[int]]:
    """Digest of every window's digits and the stream position after it.

    Window i starts ``gap`` digits after the end of window i - 1 (the
    first after position 0) and covers ``length`` digits.
    """
    spans = []
    pos = 0
    for gap, length in windows:
        spans.append((pos + gap, pos + gap + length))
        pos += gap + length
    digests: list[str] = []
    current: list[int] = []
    pos = 0
    for block in _blocks(kind, base, c):
        end = pos + len(block)
        while len(digests) < len(spans) and spans[len(digests)][0] < end:
            start, stop = spans[len(digests)]
            current.extend(block[max(start - pos, 0) : min(stop, end) - pos])
            if stop > end:
                break
            digests.append(window_digest(current))
            current = []
        if len(digests) == len(spans):
            return digests, [stop for _, stop in spans]
        pos = end
    raise AssertionError("unreachable: the composite stream is infinite")


def verify_rows(
    bases: Sequence[int], cs: Sequence[Fraction], max_digits: int
) -> list[list[int]]:
    """[b, c_num, c_den, k, position, ones] after all copies of the
    integers 1 .. 2*b**(k-1) - 1 on the naturals stream, for each k
    whose position stays within max_digits, by walking every integer."""
    digits_of = oracles().digits_of
    rows = []
    for b in bases:
        for c in cs:
            pos = ones = 0
            k = 1
            for m in itertools.count(1):
                ds = digits_of(m, b)
                reps = c.numerator ** len(ds) // c.denominator ** len(ds)
                pos += len(ds) * reps
                ones += ds.count(1) * reps
                if pos > max_digits:
                    break
                if m == 2 * b ** (k - 1) - 1:
                    rows.append([b, c.numerator, c.denominator, k, pos, ones])
                    k += 1
    return sorted(rows)


def prime_pi(xs: Sequence[int]) -> dict[int, int]:
    return {x: oracles().simple_prime_count(x) for x in xs}


def load() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> None:
    checked = prime_pi([x for x in PUBLISHED_PRIME_PI if x <= 10**7])
    if any(PUBLISHED_PRIME_PI[x] != v for x, v in checked.items()):
        raise ReferenceMismatch("published pi(x) disagrees with simple_prime_count")
    ns = [COUNT_START + i * COUNT_STEP for i in range(COUNT_POINTS)]
    data = {
        "prime_pi": {str(x): v for x, v in PUBLISHED_PRIME_PI.items()},
        "verify_rows": verify_rows(VERIFY_BASES, VERIFY_CS, VERIFY_MAX_DIGITS),
        "prime_digit_counts": {
            "start": COUNT_START,
            "step": COUNT_STEP,
            "counts": prime_digit_counts(ns),
        },
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}: {len(data['verify_rows'])} verify rows, {len(ns)} count points")


if __name__ == "__main__":
    sys.exit(main())
