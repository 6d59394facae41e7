"""Strictly increasing integer sequences and their counting functions.

A sequence spec is an immutable description of a strictly increasing
sequence of positive integers: the naturals, the primes, the composites,
a polynomial image of the naturals or of the primes, an explicit finite
list, or the complement of another spec.  Specs know how to iterate
their members, test membership, and count members up to a bound, all
exactly.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from decimal import Decimal

from .errors import CapExceededError, SequenceExhaustedError
# iter_primes and iter_composites stay importable here: bench/tracer.py rebinds them
from .primes import (
    DEFAULT_COUNTING_CAP,
    MAX_BATCH,
    composite_batches,
    is_prime,
    iter_composites,  # noqa: F401
    iter_primes,  # noqa: F401
    prime_batches,
    prime_count,
)
from .rational import parse_natural

__all__ = [
    "SequenceSpec",
    "Naturals",
    "Primes",
    "Composites",
    "Polynomial",
    "Explicit",
    "Complement",
    "parse_sequence",
    "DEFAULT_COUNTING_CAP",
]


class Record:
    """Base of the package's immutable values.  A subclass names its
    fields in ``__slots__``, in order, and sets them once in its own
    ``__init__``; this base compares, hashes and shows them as a frozen
    dataclass would, and refuses any later assignment.  It is written out
    because importing ``dataclasses`` (with ``inspect``, ``ast`` and
    ``dis``) and building each class's methods through ``exec`` cost more
    than the rest of a short command's start."""

    __slots__ = ()

    def _fill(self, *values: object) -> None:
        """Set the fields, in the order of ``__slots__``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._key()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._key()


def _size(batch: Sequence[int]) -> int:
    """Members in a batch; ``len()`` refuses a range wider than a machine word."""
    return batch.stop - batch.start if isinstance(batch, range) else len(batch)


class SequenceSpec(ABC):
    """Common surface of every sequence spec."""

    __slots__ = ()

    @abstractmethod
    def batches(self, after: int = 0) -> Iterator[Sequence[int]]:
        """Members strictly greater than ``after``, in order, as
        consecutive nonempty batches: a step-1 ``range`` of any length,
        a list of 1..MAX_BATCH members, or, for the primes and the
        composites, a view of a stretch of one sieve span's flags, each
        sized by ``_size``.  This is the one enumeration of a spec."""

    @abstractmethod
    def is_member(self, n: int) -> bool:
        """Exact membership test for a positive integer."""

    @abstractmethod
    def count(self, x: int, *, cap: int = DEFAULT_COUNTING_CAP) -> int:
        """Number of members <= x.

        Specs counted through the primes refuse queries whose prime
        count bound would exceed ``cap`` by raising CapExceededError;
        the result is never an approximation.
        """

    @property
    @abstractmethod
    def canonical(self) -> str:
        """The spec's canonical string form, accepted by parse_sequence."""

    def members(self, after: int = 0) -> Iterator[int]:
        """Iterate members strictly greater than ``after`` in order."""
        return itertools.chain.from_iterable(self.batches(after))

    def next_member(self, after: int) -> int:
        """Smallest member strictly greater than ``after``.

        Raises:
            SequenceExhaustedError: if the sequence is finite and has no
                member beyond ``after``.
        """
        try:
            return next(self.members(after))
        except StopIteration:
            raise SequenceExhaustedError(
                f"no member of {self.canonical} after {after}"
            ) from None

    def __str__(self) -> str:
        return self.canonical


class Naturals(Record, SequenceSpec):
    """All positive integers."""

    __slots__ = ()

    def batches(self, after: int = 0) -> Iterator[Sequence[int]]:
        # ranges 2**64 times as wide at each step, so a length class in
        # any base below 2**64 crosses at most one end; the stream cuts them
        lo = max(after, 0) + 1
        while True:
            yield range(lo, lo << 64)
            lo <<= 64

    def is_member(self, n: int) -> bool:
        return n >= 1

    def count(self, x: int, *, cap: int = DEFAULT_COUNTING_CAP) -> int:
        return max(x, 0)

    @property
    def canonical(self) -> str:
        return "naturals"


class Primes(Record, SequenceSpec):
    __slots__ = ()

    def batches(self, after: int = 0) -> Iterator[Sequence[int]]:
        return prime_batches(after + 1)

    def is_member(self, n: int) -> bool:
        return n >= 2 and is_prime(n)

    def count(self, x: int, *, cap: int = DEFAULT_COUNTING_CAP) -> int:
        return prime_count(x, cap)

    @property
    def canonical(self) -> str:
        return "primes"


class Composites(Record, SequenceSpec):
    """Composite numbers 4, 6, 8, 9, ... The unit 1 is not a member."""

    __slots__ = ()

    def batches(self, after: int = 0) -> Iterator[Sequence[int]]:
        return composite_batches(after + 1)

    def is_member(self, n: int) -> bool:
        return n >= 4 and not is_prime(n)

    def count(self, x: int, *, cap: int = DEFAULT_COUNTING_CAP) -> int:
        return max(x - prime_count(x, cap) - 1, 0)

    @property
    def canonical(self) -> str:
        return "composites"


class Polynomial(Record, SequenceSpec):
    """Values f(n) of a polynomial over the naturals or over the primes.

    Coefficients are in ascending degree order, must be nonnegative with
    a positive leading coefficient, and the degree must be at least one
    so that the values strictly increase.
    """

    __slots__ = ("coefficients", "argument")
    coefficients: tuple[int, ...]
    argument: str

    def __init__(self, coefficients: Sequence[int], argument: str = "naturals") -> None:
        coeffs = tuple(coefficients)
        self._fill(coeffs, argument)
        if len(coeffs) < 2:
            raise ValueError("polynomial must be non-constant (degree >= 1)")
        if any(c < 0 for c in coeffs):
            raise ValueError("polynomial coefficients must be nonnegative")
        if coeffs[-1] <= 0:
            raise ValueError("polynomial leading coefficient must be positive")
        if self.argument not in ("naturals", "primes"):
            raise ValueError(f"unknown polynomial argument {self.argument!r}")

    def value(self, n: int) -> int:
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * n + c
        return acc

    def _largest_arg_leq(self, x: int) -> int:
        """Largest n >= 1 with f(n) <= x, or 0 when f(1) > x."""
        if self.value(1) > x:
            return 0
        hi = 1
        while self.value(hi * 2) <= x:
            hi *= 2
        lo = hi
        hi = hi * 2
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.value(mid) <= x:
                lo = mid
            else:
                hi = mid
        return lo

    @property
    def domain(self) -> SequenceSpec:
        """The spec of the arguments: the naturals or the primes."""
        return Naturals() if self.argument == "naturals" else Primes()

    def batches(self, after: int = 0) -> Iterator[Sequence[int]]:
        """The values at MAX_BATCH arguments at a time, a slice of a batch
        of the naturals or of the primes, so a short read evaluates no
        more values than that."""
        for batch in self.domain.batches(self._largest_arg_leq(after)):
            for i in range(0, _size(batch), MAX_BATCH):
                yield list(map(self.value, batch[i : i + MAX_BATCH]))

    def is_member(self, n: int) -> bool:
        arg = self._largest_arg_leq(n)
        return arg >= 1 and self.value(arg) == n and self.domain.is_member(arg)

    def count(self, x: int, *, cap: int = DEFAULT_COUNTING_CAP) -> int:
        return self.domain.count(self._largest_arg_leq(x), cap=cap)

    @property
    def canonical(self) -> str:
        head = "poly-primes" if self.argument == "primes" else "poly"
        return head + ":" + ",".join(map(str, map(Decimal, self.coefficients)))


class Explicit(Record, SequenceSpec):
    """A finite, strictly increasing list of positive integers."""

    __slots__ = ("values",)
    values: tuple[int, ...]

    def __init__(self, values: Sequence[int]) -> None:
        vals = tuple(values)
        self._fill(vals)
        if any(v < 1 for v in vals):
            raise ValueError("explicit members must be positive")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("explicit members must be strictly increasing")

    def batches(self, after: int = 0) -> Iterator[Sequence[int]]:
        for i in range(bisect_right(self.values, after), len(self.values), MAX_BATCH):
            yield self.values[i : i + MAX_BATCH]

    def is_member(self, n: int) -> bool:
        i = bisect_left(self.values, n)
        return i < len(self.values) and self.values[i] == n

    def count(self, x: int, *, cap: int = DEFAULT_COUNTING_CAP) -> int:
        return bisect_right(self.values, x)

    @property
    def canonical(self) -> str:
        # through Decimal, which has no limit on the digits of a member
        return "explicit:" + ",".join(map(str, map(Decimal, self.values)))


def _last_gap(spec: SequenceSpec) -> int | None:
    """a when ``spec`` holds every integer past a and not a itself, as the
    naturals (a = 0) and n + a over the naturals do; None for the other
    specs that are not complements, which leave gaps without end."""
    if isinstance(spec, Naturals):
        return 0
    if isinstance(spec, Polynomial) and spec.argument == "naturals":
        if spec.coefficients[1:] == (1,):
            return spec.coefficients[0]
    return None


class Complement(Record, SequenceSpec):
    """Positive integers that are not members of the inner spec.

    Enumeration walks the gaps of the inner member stream.  A double
    complement is unnested: its members are the original spec's members.
    The complement of the primes is 1 and then the composites, and that
    of the composites is 1 and then the primes: each hands out the
    sieve's views of the other and walks no gap.
    Of the other inner specs, only n + a over the naturals covers every
    integer from some point on, so its complement is 1..a and then ends;
    with a = 0 it is the naturals, whose complement is refused as empty.
    Every other inner spec leaves gaps without end.
    """

    __slots__ = ("inner",)
    inner: SequenceSpec

    def __init__(self, inner: SequenceSpec) -> None:
        self._fill(inner)
        if _last_gap(inner) == 0:
            raise ValueError("complement of the naturals is empty")

    def batches(self, after: int = 0) -> Iterator[Sequence[int]]:
        """The gaps of each inner batch, together, in batches of at most
        MAX_BATCH; 1..a as one range when the inner spec ends its gaps at a.
        Nothing waits on a later inner batch, which may never bring a gap."""
        if isinstance(self.inner, Complement):
            yield from self.inner.inner.batches(after)
            return
        other = {Primes: Composites, Composites: Primes}.get(type(self.inner))
        if other is not None:
            if after < 1:
                yield [1]
            yield from other().batches(after)
            return
        last = _last_gap(self.inner)
        if last is not None:
            if after < last:
                yield range(max(after, 0) + 1, last + 1)
            return
        prev = max(after, 0)
        for inner in self.inner.batches(prev):
            # one start more than inner members: map stops at the shorter,
            # and the last start is one past the last inner member
            starts = [prev + 1, *(s + 1 for s in inner)]
            members = itertools.chain.from_iterable(map(range, starts, inner))
            while batch := list(itertools.islice(members, MAX_BATCH)):
                yield batch
            prev = starts[-1] - 1
        yield from Naturals().batches(prev)

    def is_member(self, n: int) -> bool:
        return n >= 1 and not self.inner.is_member(n)

    def count(self, x: int, *, cap: int = DEFAULT_COUNTING_CAP) -> int:
        return max(x - self.inner.count(x, cap=cap), 0)

    @property
    def canonical(self) -> str:
        return "complement:" + self.inner.canonical


def parse_int_list(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated natural numbers in ASCII digits, none for a blank
    text.  A bad item raises ValueError naming ``what`` the list holds."""
    if text.strip() == "":
        return ()
    try:
        return tuple(map(parse_natural, text.split(",")))
    except ValueError as exc:
        raise ValueError(f"bad {what} list: {text!r}") from exc


def parse_sequence(text: str) -> SequenceSpec:
    """Parse a canonical sequence string.

    Accepted forms: ``naturals``, ``primes``, ``composites``,
    ``poly:3,0,1`` (coefficients in ascending degree),
    ``poly-primes:3,0,1``, ``explicit:2,5,9``, and ``complement:<spec>``
    which nests any of the others.
    """
    text = text.strip()
    if text == "naturals":
        return Naturals()
    if text == "primes":
        return Primes()
    if text == "composites":
        return Composites()
    if text.startswith("poly:"):
        return Polynomial(parse_int_list(text[5:], "coefficient"), "naturals")
    if text.startswith("poly-primes:"):
        return Polynomial(parse_int_list(text[12:], "coefficient"), "primes")
    if text.startswith("explicit:"):
        return Explicit(parse_int_list(text[9:], "member"))
    if text.startswith("complement:"):
        return Complement(parse_sequence(text[11:]))
    raise ValueError(f"unknown sequence spec: {text!r}")
