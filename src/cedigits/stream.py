"""Digit streams of concatenation numbers.

A NumberSpec fixes a strictly increasing integer sequence, a base b >= 2,
and an exact rational multiplier c >= 1.  The associated real number is
built by writing the base-b expansion of each member in order, repeating
the block of every member a with floor(c ** digit_length(a)) copies.
With c = 1 and the naturals this is the classical Champernowne
construction; with the primes it is the Copeland-Erdos construction.

Digit positions are 1-indexed.  The stream is read as runs
(``iter_runs``): members of one digit length written out together by
C-speed conversions, with the same digits as the block view
``iter_blocks``, which is cut from them.  A StreamCursor stands in one
run at a time, jumps over whole copies, members and runs by arithmetic,
and serializes to a one-line checkpoint of the exact stream state.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from operator import floordiv, mod
from typing import Callable, Iterator, Sequence

from .errors import SequenceExhaustedError
from .rational import floor_power, format_rational, parse_rational
from .sequences import SequenceSpec, parse_sequence

__all__ = [
    "NumberSpec",
    "StreamCursor",
    "open_stream",
    "to_digits",
    "digit_length",
    "repetitions",
    "iter_blocks",
    "iter_runs",
    "parse_number_spec",
    "save_checkpoint",
    "load_checkpoint",
]


def to_digits(n: int, base: int) -> tuple[int, ...]:
    """Base-b digit tuple of a positive integer, most significant first."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if n < 1:
        raise ValueError("digit expansion is defined for positive integers")
    out = []
    while n:
        n, r = divmod(n, base)
        out.append(r)
    out.reverse()
    return tuple(out)


def digit_length(n: int, base: int) -> int:
    """Number of base-b digits of a positive integer."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if n < 1:
        raise ValueError("digit length is defined for positive integers")
    length = 0
    while n:
        n //= base
        length += 1
    return length


def repetitions(n: int, base: int, c: Fraction) -> int:
    """How many times the block of n is written: floor(c ** len)."""
    return floor_power(c, digit_length(n, base))


@dataclass(frozen=True)
class NumberSpec:
    """A concatenation number: sequence, base, and repetition multiplier."""

    sequence: SequenceSpec
    base: int
    multiplier: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "multiplier", Fraction(self.multiplier))
        if self.base < 2:
            raise ValueError("base must be at least 2")
        if self.multiplier < 1:
            raise ValueError("multiplier must be at least 1")

    @property
    def canonical(self) -> str:
        return (
            f"{self.sequence.canonical}"
            f"|b={self.base}"
            f"|c={format_rational(self.multiplier)}"
        )

    def __str__(self) -> str:
        return self.canonical


def parse_number_spec(text: str) -> NumberSpec:
    """Inverse of NumberSpec.canonical."""
    parts = text.strip().split("|")
    if len(parts) != 3 or not parts[1].startswith("b=") or not parts[2].startswith("c="):
        raise ValueError(f"bad number spec: {text!r}")
    seq = parse_sequence(parts[0])
    try:
        base = int(parts[1][2:])
    except ValueError as exc:
        raise ValueError(f"bad base in number spec: {text!r}") from exc
    c = parse_rational(parts[2][2:])
    return NumberSpec(seq, base, c)


# Largest power of the base that one entry of a chunk table may stand for.
_CHUNK_TABLE_LIMIT = 1 << 10

# Most members in one run, which bounds the memory of writing it out.
_MAX_RUN = 1024

# format() codes of the bases whose digits the stdlib writes at C speed.
_FORMAT_CODES = {2: "b", 8: "o", 10: "d", 16: "x"}


@lru_cache(maxsize=8)
def _run_encoder(base: int) -> Callable[[Sequence[int], int], Sequence[int]]:
    """Function writing out members of one digit length, one item per
    digit: bytes whose values are the digits for bases up to 256, a list
    of ints beyond."""
    code = _FORMAT_CODES.get(base)
    if code is not None:
        values = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))

        def formatted(members: Sequence[int], length: int) -> bytes:
            text = map(str, members) if code == "d" else map(format, members, repeat(code))
            return "".join(text).encode("ascii").translate(values)

        return formatted
    if base > 256:
        return lambda members, length: list(
            chain.from_iterable(map(to_digits, members, repeat(base)))
        )
    # tables[k][v] holds the k zero-padded digits of v < base**k, one
    # character per digit, as str: bytes.join would take a buffer per
    # chunk.  A run is cut into chunks of ``width`` digits by divmod,
    # column by column over all its members, below a leading chunk of
    # the remaining digits.
    width = 1
    while base ** (width + 1) <= _CHUNK_TABLE_LIMIT:
        width += 1
    chunk = base**width
    tables = [[""]]
    for _ in range(width):
        tables.append([t + chr(d) for t in tables[-1] for d in range(base)])

    def chunked(members: Sequence[int], length: int) -> bytes:
        lower, lead = divmod(length - 1, width)
        columns = []
        rest = members
        for _ in range(lower):
            columns.append(map(tables[width].__getitem__, map(mod, rest, repeat(chunk))))
            rest = list(map(floordiv, rest, repeat(chunk)))
        columns.append(map(tables[lead + 1].__getitem__, rest))
        columns.reverse()
        return "".join(chain.from_iterable(zip(*columns))).encode("latin-1")

    return chunked


def _member_runs(spec: NumberSpec, after: int = 0) -> Iterator[tuple[Sequence[int], int, int]]:
    """The runs of ``iter_runs`` as (members, length, copies), unwritten."""
    by_length: dict[int, tuple[int, int]] = {}  # length -> (base**length, copies)
    for batch in spec.sequence.batches(after):
        start = 0
        while start < len(batch):
            length = digit_length(batch[start], spec.base)
            if length not in by_length:
                by_length[length] = (spec.base**length, floor_power(spec.multiplier, length))
            bound, copies = by_length[length]
            stop = bisect_left(batch, bound, start, min(start + _MAX_RUN, len(batch)))
            yield batch[start:stop], length, copies
            start = stop


def iter_runs(
    spec: NumberSpec, after: int = 0
) -> Iterator[tuple[Sequence[int], Sequence[int], int, int]]:
    """Yield (members, digits, length, copies) for the members greater
    than ``after``, one run at a time.

    A run is a stretch of one batch of ``spec.sequence.batches`` whose
    members all have ``length`` digits.  ``digits`` writes each member
    once, in order and one item per digit, so member i is
    ``digits[i * length:(i + 1) * length]``; the stream writes that
    block ``copies`` times before the next member.  Runs are cut at
    powers of the base and after at most ``_MAX_RUN`` members, and the
    copy count is computed once per length, so every digit, copy and
    position is exact.
    """
    encode = _run_encoder(spec.base)
    for run, length, copies in _member_runs(spec, after):
        yield run, encode(run, length), length, copies


def iter_blocks(spec: NumberSpec, after: int = 0) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """Yield (member, digits, copies) for members greater than ``after``.

    This is the member-by-member view of the stream, cut from the runs:
    each yielded block stands for ``copies`` consecutive writes of
    ``digits``.
    """
    for run, digits, length, copies in iter_runs(spec, after):
        for i, m in enumerate(run):
            yield m, tuple(digits[i * length : (i + 1) * length]), copies


def _repeated(block: Sequence[int], start: int, stop: int) -> Sequence[int]:
    """Digits ``start`` to ``stop`` of ``block`` written over and over."""
    length = len(block)
    first = start // length
    written = block * ((stop - 1) // length - first + 1)
    return written[start - first * length : stop - first * length]


@dataclass
class StreamCursor:
    """Forward-only cursor over the digits of a NumberSpec.

    ``position`` is the count of digits already emitted, so the next
    digit read is at 1-indexed position ``position + 1``.  The cursor
    state between reads is (current integer, repetition index, offset of
    the next digit inside the current copy); the offset may equal the
    block length, meaning the copy is finished and the cursor will move
    on at the next read.  Underneath, the cursor stands in one run
    (members, length, copies), at the index of its current member; a
    cursor restored from a checkpoint stands in a run of its one member.
    """

    spec: NumberSpec
    position: int = 0
    integer: int = 0
    rep: int = 0
    offset: int = 0
    _run: tuple[Sequence[int], int, int] = field(default=((), 0, 0), repr=False)
    _index: int = field(default=0, repr=False)
    _runs: Iterator[tuple[Sequence[int], int, int]] = field(init=False, repr=False, compare=False)
    # digits of the current member once written out, else empty
    _block: Sequence[int] = field(default=b"", init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.integer > 0:
            length = digit_length(self.integer, self.spec.base)
            copies = repetitions(self.integer, self.spec.base, self.spec.multiplier)
            self._run = ((self.integer,), length, copies)
            if not 0 <= self.rep < copies:
                raise ValueError("repetition index out of range")
            if not 0 <= self.offset <= length:
                raise ValueError("digit offset out of range")
        elif self.rep or self.offset:
            raise ValueError("a cursor before its first member has no repetition or offset")
        self._runs = _member_runs(self.spec, self.integer)  # runs only when pulled

    def _advance(self, n: int, out: list[int] | None = None) -> None:
        """The one primitive of every move: go n digits forward, appending
        them to ``out`` when given.  A move inside the current copy slices
        the member's digits that the last read kept; a longer one crosses
        whole copies, members and runs by arithmetic on ``at``, and pulls
        the next run only for a digit that is needed."""
        if self.offset + n <= len(self._block):
            if out is not None:
                out += self._block[self.offset : self.offset + n]
            self.offset += n
            self.position += n
            return
        self._block = b""
        run, length, copies = self._run
        span = length * copies
        at = self._index * span + self.rep * length + self.offset
        while True:
            take = min(n, len(run) * span - at)
            if take:
                if out is not None:
                    self._collect(out, at, at + take)
                at += take
                n -= take
                self.position += take
                self._index, used = divmod(at - 1, span)
                self.integer = run[self._index]
                self.rep, used = divmod(used, length)
                self.offset = used + 1
            if not n:
                return
            try:
                self._run = run, length, copies = next(self._runs)
            except StopIteration:
                raise SequenceExhaustedError(
                    f"stream over {self.spec.canonical} ended at position {self.position}"
                ) from None
            span, at = length * copies, 0

    def _collect(self, out: list[int], start: int, stop: int) -> None:
        """Append digits ``start`` to ``stop`` of the current run, writing
        out only the members they touch, and keep the digits of the last."""
        run, length, copies = self._run
        span = length * copies
        first, last = start // span, (stop - 1) // span
        digits = _run_encoder(self.spec.base)(run[first : last + 1], length)
        self._block = digits[-length:]
        start -= first * span
        stop -= last * span
        if copies == 1:
            out += digits[start : len(digits) - length + stop]
        elif first == last:
            out += _repeated(digits, start, stop)
        else:
            out += _repeated(digits[:length], start, span)
            whole = range(length, len(digits) - length, length)
            middle = [digits[k : k + length] * copies for k in whole]
            out += b"".join(middle) if isinstance(digits, bytes) else chain.from_iterable(middle)
            out += _repeated(digits[-length:], 0, stop)

    def next_digit(self) -> int:
        """Emit the digit at position + 1 and advance."""
        out: list[int] = []
        self._advance(1, out)
        return out[0]

    def read(self, n: int) -> list[int]:
        """Emit the next n digits as a list.

        Equivalent to n calls of next_digit, but slices whole copies.
        """
        if n < 0:
            raise ValueError("cannot read a negative number of digits")
        out: list[int] = []
        self._advance(n, out)
        return out

    def skip_to(self, n: int) -> None:
        """Advance so the next digit emitted is at position n + 1.

        Crosses whole copies, members and runs; no digit is written out.

        Raises:
            ValueError: when n is behind the current position.
            SequenceExhaustedError: when a finite stream ends first.
        """
        if n < self.position:
            raise ValueError(f"cannot skip backwards from {self.position} to {n}")
        self._advance(n - self.position)

    def checkpoint(self) -> str:
        """One-line serialization of the cursor state."""
        return (
            f"position={self.position} integer={self.integer} "
            f"rep={self.rep} offset={self.offset} spec={self.spec.canonical}"
        )

    @classmethod
    def from_checkpoint(cls, line: str) -> "StreamCursor":
        fields = line.strip().split(" ")
        keys = ("position", "integer", "rep", "offset", "spec")
        if len(fields) != 5 or any(
            not f.startswith(k + "=") for f, k in zip(fields, keys)
        ):
            raise ValueError(f"malformed checkpoint line: {line!r}")
        values = [f.split("=", 1)[1] for f in fields]
        spec = parse_number_spec(values[4])
        try:
            position, integer, rep, offset = (int(v) for v in values[:4])
        except ValueError as exc:
            raise ValueError(f"malformed checkpoint line: {line!r}") from exc
        if position < 0 or integer < 0:
            raise ValueError(f"malformed checkpoint line: {line!r}")
        return cls(spec, position, integer, rep, offset)


def open_stream(spec: NumberSpec) -> StreamCursor:
    """Fresh cursor at position 0."""
    return StreamCursor(spec)


def save_checkpoint(cursor: StreamCursor, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(cursor.checkpoint() + "\n")


def load_checkpoint(path: str) -> StreamCursor:
    with open(path, "r", encoding="utf-8") as fh:
        return StreamCursor.from_checkpoint(fh.readline())
