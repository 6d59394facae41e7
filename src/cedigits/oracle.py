"""Closed-form ground truth for the concatenation streams.

Everything here is a pure function of its arguments.  The integer-valued
forms (digit position and ones count at block-length boundaries, and the
deficit incurred by deleting a subsequence) are exact; the leading-order
forms are the first terms of the same quantities and are useful for
growth checks.  The streaming pipeline is validated against these
functions, never the other way around.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .primes import DEFAULT_COUNTING_CAP
from .rational import floor_power
from .sequences import Record, SequenceSpec

__all__ = [
    "OracleParams",
    "HypothesisSample",
    "HypothesisReport",
    "d_exact",
    "d_leading",
    "ones_exact_champernowne",
    "ones_excess_exact",
    "ones_excess_leading",
    "comparison_deficit",
    "alpha_threshold",
    "excess_lower_bound",
    "hypothesis_report",
    "is_integral_multiplier",
    "FINITE_SAMPLE_DISCLAIMER",
]


class OracleParams(Record):
    """Base b >= 2, exact rational multiplier c >= 1, block length k >= 1."""

    __slots__ = ("base", "multiplier", "k")
    base: int
    multiplier: Fraction
    k: int

    def __init__(self, base: int, multiplier: Fraction | int, k: int) -> None:
        multiplier = Fraction(multiplier)
        self._fill(base, multiplier, k)
        if base < 2:
            raise ValueError("base must be at least 2")
        if multiplier < 1:
            raise ValueError("multiplier must be at least 1")
        if k < 1:
            raise ValueError("block length k must be at least 1")


def d_exact(p: OracleParams) -> int:
    """Digit position after all copies of the integers 1 .. 2*b**(k-1) - 1.

    Integers of digit length n < k each contribute n digits in
    floor(c**n) copies, and there are b**(n-1) * (b-1) of them; the
    length-k integers included run from b**(k-1) to 2*b**(k-1) - 1.
    """
    b, c, k = p.base, p.multiplier, p.k
    total = floor_power(c, k) * k * b ** (k - 1)
    for n in range(1, k):
        total += floor_power(c, n) * n * b ** (n - 1) * (b - 1)
    return total


def d_leading(p: OracleParams) -> float:
    """Leading-order form of d_exact: (cb + b - 2)/(b(cb - 1)) * k * (cb)**k."""
    b, c, k = p.base, p.multiplier, p.k
    cb = c * b
    coeff = (cb + b - 2) / (b * (cb - 1))
    return float(coeff * k * cb**k)


def ones_exact_champernowne(p: OracleParams) -> int:
    """Occurrences of the digit 1 in the first d_exact(p) digits of the
    all-naturals stream.

    Counts non-leading ones at exact frequency 1/b within every full
    length class, plus the leading ones; every length-k integer included
    has leading digit 1.
    """
    b, c, k = p.base, p.multiplier, p.k
    total = 0
    for n in range(1, k):
        non_leading = (n - 1) * b ** (n - 2) * (b - 1) if n >= 2 else 0
        total += floor_power(c, n) * (non_leading + b ** (n - 1))
    non_leading = (k - 1) * b ** (k - 2) if k >= 2 else 0
    total += floor_power(c, k) * (non_leading + b ** (k - 1))
    return total


def ones_excess_exact(p: OracleParams) -> Fraction:
    """Exact discrepancy ones - d/b at the boundary, as a rational."""
    return Fraction(ones_exact_champernowne(p)) - Fraction(d_exact(p), p.base)


def ones_excess_leading(p: OracleParams) -> float:
    """Leading-order excess of ones: (cb)**k * ((b-1)/b**2 + 1/(b**2 (cb-1)))."""
    b, c, k = p.base, p.multiplier, p.k
    cb = c * b
    return float(cb**k * (Fraction(b - 1, b * b) + Fraction(1, b * b) / (cb - 1)))


def comparison_deficit(
    seq: SequenceSpec, p: OracleParams, *, cap: int = DEFAULT_COUNTING_CAP
) -> int:
    """Largest number of ones that deleting the members of ``seq`` can
    remove from the first d_exact(p) digits of the all-naturals stream.

    Each deleted member of digit length n removes at most n ones from
    each of its floor(c**n) copies, so the count of ones in the thinned
    stream at the same position is at least
    ones_exact_champernowne(p) - comparison_deficit(seq, p).
    """
    b, c, k = p.base, p.multiplier, p.k
    # below[n] counts the members of at most n digits, and below[k] those
    # up to 2*b**(k-1) - 1, where the prefix stops
    edges = [b**n - 1 for n in range(k)] + [2 * b ** (k - 1) - 1]
    below = [seq.count(x, cap=cap) for x in edges]
    return sum(floor_power(c, n) * n * (below[n] - below[n - 1]) for n in range(1, k + 1))


def alpha_threshold(base: int, c: Fraction | int) -> float:
    """Density threshold (1 - 1/b + 1/(b(bc - 1))) * ln(b) / 2.

    If the members of a sequence number at most alpha * x / ln(x) up to
    every large x for some alpha below this threshold, deleting them
    cannot cancel the excess of ones in the stream.
    """
    c = Fraction(c)
    if base < 2:
        raise ValueError("base must be at least 2")
    if c < 1:
        raise ValueError("multiplier must be at least 1")
    coeff = 1 - Fraction(1, base) + Fraction(1, base) / (base * c - 1)
    return float(coeff) * math.log(base) / 2


def excess_lower_bound(p: OracleParams, alpha: float) -> float:
    """Leading-order lower bound on the ones excess that survives
    deleting a sequence of density alpha * x / ln(x):

        (cb)**k / b**2 * (b - 1 + 1/(cb - 1) - alpha * 2b / ln(b))

    Positive exactly when alpha < alpha_threshold(b, c).
    """
    b, c, k = p.base, p.multiplier, p.k
    cb = c * b
    bracket = b - 1 + 1 / (float(cb) - 1) - alpha * 2 * b / math.log(b)
    return float(cb**k) / (b * b) * bracket


def is_integral_multiplier(c: Fraction | int) -> bool:
    """Whether c is an integer, the case with no repetition-floor loss."""
    return Fraction(c).denominator == 1


FINITE_SAMPLE_DISCLAIMER = (
    "ratios at finitely many sample points cannot decide the asymptotic "
    "density condition; the threshold comparison concerns all sufficiently "
    "large x, far beyond desk-scale samples"
)


class HypothesisSample(Record):
    __slots__ = ("x", "count", "ratio", "holds_at_x")
    x: int
    count: int
    ratio: float
    holds_at_x: bool

    def __init__(self, x: int, count: int, ratio: float, holds_at_x: bool) -> None:
        self._fill(x, count, ratio, holds_at_x)


class HypothesisReport(Record):
    """Diagnostic comparison of a sequence's density against the threshold.

    ``holds_at_x`` records whether count(x) * ln(x) / x stays below the
    threshold at that single x.  This is evidence, not a verdict: see
    ``disclaimer``.
    """

    __slots__ = ("sequence", "base", "multiplier", "threshold", "samples", "disclaimer")
    sequence: str
    base: int
    multiplier: Fraction
    threshold: float
    samples: tuple[HypothesisSample, ...]
    disclaimer: str

    def __init__(
        self,
        sequence: str,
        base: int,
        multiplier: Fraction,
        threshold: float,
        samples: tuple[HypothesisSample, ...],
        disclaimer: str = FINITE_SAMPLE_DISCLAIMER,
    ) -> None:
        self._fill(sequence, base, multiplier, threshold, samples, disclaimer)


def hypothesis_report(
    seq: SequenceSpec,
    base: int,
    c: Fraction | int,
    xs: list[int],
    *,
    cap: int = DEFAULT_COUNTING_CAP,
) -> HypothesisReport:
    """Evaluate count(x) * ln(x) / x against alpha_threshold(base, c).

    Args:
        seq: the sequence whose density is probed.
        base: stream base.
        c: repetition multiplier.
        xs: sample points, each at least 2.
        cap: counting cap forwarded to the sequence.

    Returns:
        A HypothesisReport with one sample per x, in the given order.
    """
    c = Fraction(c)
    threshold = alpha_threshold(base, c)
    samples = []
    for x in xs:
        if x < 2:
            raise ValueError("sample points must be at least 2")
        cnt = seq.count(x, cap=cap)
        ratio = cnt / x * math.log(x)  # int / int rounds once at any size
        samples.append(HypothesisSample(x, cnt, ratio, ratio < threshold))
    return HypothesisReport(
        seq.canonical, base, c, threshold, tuple(samples)
    )
