"""Exact rational helpers used by both the stream and the closed forms.

Repetition counts are floors of powers of an exact rational, so every
computation here stays in integer arithmetic until the caller decides
to round.  Numbers are read only in the forms the canonical writers
produce, so a text that is accepted names one canonical text.  Every
integer the package writes as text goes through ``format_integer``.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction


def parse_natural(text: str) -> int:
    """A nonnegative integer written in ASCII digits alone: no sign,
    space, separator, exponent or digit of another script.  Any number of
    digits is read."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a natural number: {text!r}")
    try:
        return int(text)
    except ValueError:  # past the limit on decimal digits, which Decimal lacks
        return int(Decimal(text))


def format_integer(n: int) -> str:
    """The decimal text of an integer, the inverse of ``parse_natural``:
    any number of digits is written, through Decimal past the limit that
    ``str`` puts on them."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def parse_rational(text: str) -> Fraction:
    """Parse a CLI-style rational: ``3/2``, ``2``, or a decimal like ``1.5``,
    in ASCII digits.

    Decimal inputs are converted exactly (``1.5`` becomes 3/2), never
    through binary floating point.
    """
    whole, mark, part = text.partition("/")
    if not mark:
        whole, mark, part = text.partition(".")
    try:
        if mark == "/":
            return Fraction(parse_natural(whole), parse_natural(part))
        if mark == ".":
            scale = 10 ** len(part)
            return Fraction(parse_natural(whole) * scale + parse_natural(part), scale)
        return Fraction(parse_natural(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def floor_power(c: Fraction, n: int) -> int:
    """Return floor(c**n) for a rational c >= 1 and integer n >= 0."""
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    return c.numerator**n // c.denominator**n


def format_rational(c: Fraction) -> str:
    """Canonical num/den rendering, always including the denominator."""
    return f"{format_integer(c.numerator)}/{format_integer(c.denominator)}"
