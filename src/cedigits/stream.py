"""Digit streams of concatenation numbers.

A NumberSpec fixes a strictly increasing integer sequence, a base b >= 2,
and an exact rational multiplier c >= 1.  The associated real number is
built by writing the base-b expansion of each member in order, repeating
the block of every member a with floor(c ** digit_length(a)) copies.
With c = 1 and the naturals this is the classical Champernowne
construction; with the primes it is the Copeland-Erdos construction.

Digit positions are 1-indexed.  The stream is read as runs: the members
of one batch that share a digit length, written out together.  A batch
of primes or composites is a view of the sieve flags, cut by value and
sliced without picking its members out.  A run of consecutive members,
a ``range`` such as a length class of the naturals, is written column
by column, one strided write per digit place; lists, and the stretch
of a view that a read writes, go through C-speed conversions.  The
block view ``iter_blocks`` is cut from the runs, MAX_BATCH at a time.
StreamCursor is the one walker of the stream.  It stands in one run at a
time, crosses whole copies, members and runs by arithmetic, and hands
the digits it crosses to a sink as pieces (digits, length, copies): the
pieces ``read`` joins once into the encoder's type (bytes whose values
are the digits up to base 256, a list of ints beyond), counters for the
prefix scans of ``stats``, nothing for ``skip_to``.  A prefix scan also
takes the members of a run that a move crosses whole and counts them,
writing out only those it has no closed form for, so the move itself
writes out only the member it cuts at each end; a view of sieve flags
that a move surely crosses goes to the count before it is sized, and
the count sizes it.  The cursor serializes to a one-line checkpoint of
the exact stream state.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from operator import floordiv, mod

from .errors import SequenceExhaustedError
from .primes import MAX_BATCH, FlagBatch
from .rational import floor_power, format_integer, format_rational, parse_natural, parse_rational
from .sequences import Record, SequenceSpec, _size, parse_sequence

__all__ = [
    "NumberSpec",
    "StreamCursor",
    "open_stream",
    "to_digits",
    "digit_length",
    "repetitions",
    "iter_blocks",
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


class NumberSpec(Record):
    """A concatenation number: sequence, base, and repetition multiplier."""

    __slots__ = ("sequence", "base", "multiplier")
    sequence: SequenceSpec
    base: int
    multiplier: Fraction

    def __init__(
        self, sequence: SequenceSpec, base: int, multiplier: Fraction | int = Fraction(1)
    ) -> None:
        self._fill(sequence, base, Fraction(multiplier))
        if base < 2:
            raise ValueError("base must be at least 2")
        if self.multiplier < 1:
            raise ValueError("multiplier must be at least 1")

    @property
    def canonical(self) -> str:
        return (
            f"{self.sequence.canonical}"
            f"|b={format_integer(self.base)}"
            f"|c={format_rational(self.multiplier)}"
        )

    def __str__(self) -> str:
        return self.canonical


@lru_cache(maxsize=8)
def parse_number_spec(text: str) -> NumberSpec:
    """Inverse of NumberSpec.canonical.  A NumberSpec is frozen, so a
    checkpoint restore shares the spec its text last parsed to; a text
    that fails to parse raises every time."""
    parts = text.strip().split("|")
    if len(parts) != 3 or not parts[1].startswith("b=") or not parts[2].startswith("c="):
        raise ValueError(f"bad number spec: {text!r}")
    seq = parse_sequence(parts[0])
    try:
        base = parse_natural(parts[1][2:])
    except ValueError as exc:
        raise ValueError(f"bad base in number spec: {text!r}") from exc
    c = parse_rational(parts[2][2:])
    return NumberSpec(seq, base, c)


# Largest power of the base that one entry of a chunk table may stand for.
_CHUNK_TABLE_LIMIT = 1 << 10
# Fewest members a move hands to ``whole`` to count without writing them
# out.  A count costs some 20 to 60 us whatever the run's size, which is
# about what writing out and counting 256 primes costs in bases 2 to 256.
_MIN_WHOLE = 256

# Takes the digits crossed by a move, as pieces (digits, length, copies):
# every ``length``-digit block of ``digits``, written ``copies`` times.
Sink = Callable[[Sequence[int], int, int], None]
# Takes members of a run that a move crosses whole, every copy of each,
# as (members, length, copies), counts their digits, writing out those
# it cannot count otherwise, and returns how many members it counted.
# A view of sieve flags may come before it is sized; a count of its
# flags sizes it (``FlagBatch.size_from``), so that the walker's lookups
# in it count none.
Whole = Callable[[Sequence[int], int, int], int]

# printf conversions of the bases whose digits the stdlib writes at C
# speed; base 2, which has none, goes through format() with code "b".
_CONVERSIONS = {2: None, 8: "%o", 10: "%d", 16: "%x"}


@lru_cache(maxsize=8)
def _run_encoder(base: int) -> Callable[[Sequence[int], int], Sequence[int]]:
    """Function writing out members of one digit length, one item per
    digit: bytes whose values are the digits for bases up to 256, a list
    of ints from ``to_digits`` beyond.

    Up to base 256, a list of members is written through chunk tables,
    except in bases 8, 10 and 16, where one printf-style format writes the
    whole list, and in base 2, where format() writes each member.
    A ``range`` of consecutive members is written column by column: the
    digit at place i of consecutive integers cycles through the base in
    stretches of base**i, so each place below ``low`` is a slice of one
    cached cycle, put into every member by one strided slice assignment.
    With base**low >= len(run), the places from ``low`` up step at most
    once across the run, so the run is first written as its first member
    repeated up to that step and its last member after it, and the
    columns then overwrite the places below ``low``.  A run costs
    O(length) C-level operations, not one conversion per member.
    """
    if base > 256:
        return lambda members, length: list(
            chain.from_iterable(map(to_digits, members, repeat(base)))
        )
    if base in _CONVERSIONS:
        conversion = _CONVERSIONS[base]
        values = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))

        def write(members: Sequence[int], length: int) -> bytes:
            if conversion is None:
                written = "".join(map(format, members, repeat("b")))
            else:
                try:
                    written = conversion * len(members) % tuple(members)
                except ValueError:  # past the limit on decimal digits
                    written = "".join(map(format_integer, members))
            return written.encode("ascii").translate(values)

    else:
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

        def write(members: Sequence[int], length: int) -> bytes:
            lower, lead = divmod(length - 1, width)
            columns = []
            rest = list(members)  # read twice below, and a flag view extracts on each read
            for _ in range(lower):
                columns.append(map(tables[width].__getitem__, map(mod, rest, repeat(chunk))))
                rest = list(map(floordiv, rest, repeat(chunk)))
            columns.append(map(tables[lead + 1].__getitem__, rest))
            columns.reverse()
            return "".join(chain.from_iterable(zip(*columns))).encode("latin-1")

    tiles: dict[int, bytes] = {}  # place -> its cycle, repeated to cover a run

    def column(place: int, first: int, n: int) -> memoryview:
        """Digits at ``place`` of first, first + 1, ..., first + n - 1."""
        size = base**place
        period = size * base
        at = first % period
        tile = tiles.get(place, b"")
        if len(tile) < at + n:
            cycle = b"".join(bytes((d,)) * size for d in range(base))
            tile = tiles[place] = cycle * (n // period + 2)
        return memoryview(tile)[at : at + n]

    def encode(members: Sequence[int], length: int) -> bytes:
        if type(members) is not range or members.step != 1:
            return write(members, length)
        n = len(members)
        low = 0
        while low < length and base**low < n:
            low += 1
        before = min(n, base**low - members.start % base**low)  # before the high places step
        ends = write((members[0], members[-1]), length)
        out = bytearray(ends[:length]) * before + ends[length:] * (n - before)
        for place in range(low):
            out[length - 1 - place :: length] = column(place, members.start, n)
        return bytes(out)

    return encode


def _member_runs(spec: NumberSpec, after: int = 0) -> Iterator[tuple[Sequence[int], int, int]]:
    """Yield (members, length, copies) for the members greater than
    ``after``, one run at a time.

    A run is a stretch of one batch of ``spec.sequence.batches`` whose
    members all have ``length`` digits: a range within one length class,
    at most MAX_BATCH members of a list, or a view of sieve flags; the
    stream writes each ``copies`` times before the next.  Runs are cut
    only at powers of the base and at the ends of batches, by ``_split``,
    so that no member of a view is extracted and each view leaves as one
    run per member length.  Each run's copy count is floor(c**length) in
    integers, so every digit, copy and position is exact.
    """
    for batch in spec.sequence.batches(after):
        while batch:
            length = digit_length(batch[0], spec.base)
            run, batch = _split(batch, spec.base**length)
            yield run, length, floor_power(spec.multiplier, length)


def _split(batch: Sequence[int], value: int) -> tuple[Sequence[int], Sequence[int]]:
    """The members of a batch below ``value`` and the rest: the batch
    itself when all are below, else a view of sieve flags split by
    counting its flags, or a range cut by arithmetic (bisect would take
    its len()) or a list bisected, and sliced."""
    if not batch or batch[-1] < value:
        return batch, ()
    if isinstance(batch, FlagBatch):
        return batch.split(value)
    stop = max(value - batch.start, 0) if isinstance(batch, range) else bisect_left(batch, value)
    return batch[:stop], batch[stop:]


def iter_blocks(spec: NumberSpec, after: int = 0) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """Yield (member, digits, copies) for members greater than ``after``.

    This is the member-by-member view of the stream, cut from its runs
    as the run encoder writes them out: each yielded block stands for
    ``copies`` consecutive writes of ``digits``.
    """
    encode = _run_encoder(spec.base)
    for whole, length, copies in _member_runs(spec, after):
        for k in range(0, _size(whole), MAX_BATCH):
            run = whole[k : k + MAX_BATCH]
            digits = encode(run, length)
            for i, m in enumerate(run):
                yield m, tuple(digits[i * length : (i + 1) * length]), copies


def _hand_out(
    sink: Sink, digits: Sequence[int], length: int, copies: int, start: int, stop: int
) -> None:
    """Hand to ``sink`` digits ``start`` to ``stop`` of members written
    ``copies`` times each, where member i is ``digits[i * length:(i + 1)
    * length]``.  The pieces are the rest of a copy, the rest of a
    member's copies, whole members, whole copies and the start of a copy."""
    span = length * copies
    while start < stop:
        member, used = divmod(start, span)
        rep, inside = divmod(used, length)
        left = stop - start
        block = digits[member * length : (member + 1) * length]
        if inside or left < length:
            part = block[inside : inside + left]
            piece = part, len(part), 1
        elif used or left < span:
            piece = block, length, min(copies - rep, left // length)
        else:
            piece = digits[member * length : (member + left // span) * length], length, copies
        sink(*piece)
        start += len(piece[0]) * piece[2]


class StreamCursor:
    """Forward-only cursor over the digits of a NumberSpec.

    ``position`` is the count of digits already emitted, so the next
    digit read is at 1-indexed position ``position + 1``.  The cursor
    state between reads is (current integer, repetition index, offset of
    the next digit inside the current copy); the offset may equal the
    block length, meaning the copy is finished and the cursor will move
    on at the next read.  Underneath, the cursor stands ``_at`` digits
    into one run (members, length, copies); a cursor restored from a
    checkpoint stands in a run of its one member.  Two cursors are equal
    when their spec and state are; the run they stand in is not compared.
    """

    __slots__ = ("spec", "position", "integer", "rep", "offset", "_run", "_at", "_runs", "_block")
    _run: tuple[Sequence[int], int, int]
    _runs: Iterator[tuple[Sequence[int], int, int]]
    # digits of the current member once written out, else empty
    _block: Sequence[int]

    def __init__(
        self, spec: NumberSpec, position: int = 0, integer: int = 0, rep: int = 0, offset: int = 0
    ) -> None:
        self.spec, self.position, self.integer, self.rep, self.offset = (
            spec, position, integer, rep, offset
        )
        self._run, self._at, self._block = ((), 0, 0), 0, ()
        if integer > 0:
            if not spec.sequence.is_member(integer):
                raise ValueError(f"{format_integer(integer)} is not a member of {spec.sequence}")
            length = digit_length(integer, spec.base)
            copies = floor_power(spec.multiplier, length)
            if not 0 <= rep < copies:
                raise ValueError("repetition index out of range")
            if not 0 <= offset <= length:
                raise ValueError("digit offset out of range")
            self._run = ((integer,), length, copies)
            self._at = rep * length + offset
            if position < self._at:
                raise ValueError("position is before the digits read of its member")
        elif rep or offset or position:
            raise ValueError("a cursor before its first member has read nothing")
        self._runs = _member_runs(spec, integer)  # runs only when pulled

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(spec={self.spec!r}, position={self.position!r}, "
            f"integer={self.integer!r}, rep={self.rep!r}, offset={self.offset!r})"
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.spec, self.position, self.integer, self.rep, self.offset) == (
                other.spec, other.position, other.integer, other.rep, other.offset
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # a cursor moves as it reads

    def _pull(self) -> bool:
        """Stand at the start of the next run; False at the end of the stream."""
        run = next(self._runs, None)
        if run is None:
            return False
        self._run, self._at = run, 0
        return True

    def _advance(self, n: int, sink: Sink | None = None, whole: Whole | None = None) -> None:
        """The one walker of the stream: go n digits forward, run by run
        (``_cross``), handing the digits crossed to ``sink`` when given,
        and the members crossed whole to ``whole``.  The next run is
        pulled only for a digit that is needed.  A move inside the copy
        the last write ended in slices the digits that write kept, and a
        move of no digits hands out none."""
        if self.offset + n <= len(self._block):
            if sink is not None and n:
                sink(self._block[self.offset : self.offset + n], n, 1)
            self._at += n
            self.position += n
            self.offset += n
            return
        while n:
            n -= self._cross(n, sink, whole)
            if n and not self._pull():
                raise SequenceExhaustedError(
                    f"stream over {self.spec.canonical} ended at position "
                    f"{format_integer(self.position)}"
                )

    def _cross(self, n: int | None, sink: Sink | None, whole: Whole | None) -> int:
        """Go n digits forward within the current run, or to its end when
        n is None, and return how many were crossed.  The members the move
        crosses whole, every copy of each, go to ``whole`` (given only
        with a sink) when there are at least _MIN_WHOLE of them, as one
        stretch of the run, and only the partial member at each end of the
        move is written out, so a cut through a run of primes costs one
        member, not all those before it.  A view of sieve flags not yet sized, which the move
        surely crosses from its start, by a bound on its members, goes to
        ``whole`` unsized, and the count sizes it.  Whole copies and
        members are crossed by arithmetic on ``_at``; only the members a
        sink needs are written out."""
        self._block = ()
        run, length, copies = self._run
        span = length * copies
        crossed = (  # counted whole before it is sized
            whole and not self._at and isinstance(run, FlagBatch)
            and run.surely_crossed(None if n is None else n // span, _MIN_WHOLE)
        )
        rest = (whole(run, length, copies) if crossed else _size(run)) * span - self._at
        take = rest if n is None else min(n, rest)
        if take:
            stop = self._at + take
            lo, hi = -(-self._at // span), stop // span  # the members crossed whole
            if whole and not crossed and hi - lo >= _MIN_WHOLE:
                self._write(self._at, lo * span, sink)
                whole(run if hi - lo == _size(run) else run[lo:hi], length, copies)
                self._write(hi * span, stop, sink)
            elif sink is not None and not crossed:
                self._write(self._at, stop, sink)
            self._at = stop
            self.position += take
            member, used = divmod(stop - 1, span)
            if not self._block:  # else the last write, which ended here, set it
                self.integer = run[member]
            self.rep, used = divmod(used, length)
            self.offset = used + 1
        return take

    def _write(self, start: int, stop: int, sink: Sink) -> None:
        """Write out digits ``start`` to ``stop`` of the current run,
        counted from its start, hand them to the sink, and keep the last
        member written, if any, and its digits."""
        self._block = ()
        if start < stop:
            run, length, copies = self._run
            span = length * copies
            first, last = start // span, (stop - 1) // span
            members = run[first : last + 1]
            digits = _run_encoder(self.spec.base)(members, length)
            skipped = first * span
            _hand_out(sink, digits, length, copies, start - skipped, stop - skipped)
            self.integer, self._block = members[-1], digits[-length:]

    def _advance_past(self, m: int, sink: Sink, whole: Whole | None = None) -> None:
        """Go to the end of the last copy of every member <= m, or to the
        end of a finite stream.  Each run crosses its members <= m, as
        ``_split`` cuts them, and one whose last member is <= m is crossed
        to its end unsized.  Members already crossed must be <= m."""
        while True:
            run, length, copies = self._run
            below = _split(run, m + 1)[0]
            if below is not run:
                self._advance(_size(below) * length * copies - self._at, sink, whole)
                return
            self._cross(None, sink, whole)
            if not self._pull():
                return

    def next_digit(self) -> int:
        """Emit the digit at position + 1, as an int, and advance."""
        return self.read(1)[0]

    def read(self, n: int) -> bytes | list[int]:
        """Emit the next n digits: bytes whose values are the digits for
        bases up to 256, a list of ints beyond, as the run encoder
        writes them.

        Equivalent to n calls of next_digit, but slices whole copies.
        """
        if n < 0:
            raise ValueError("cannot read a negative number of digits")
        pieces: list[Sequence[int]] = []

        def write(digits: Sequence[int], length: int, copies: int) -> None:
            if copies == 1:
                pieces.append(digits)
            else:
                blocks = range(0, len(digits), length)
                pieces.extend(digits[k : k + length] * copies for k in blocks)

        self._advance(n, write)
        if self.spec.base > 256:
            return list(chain.from_iterable(pieces))
        return b"".join(pieces)

    def skip_to(self, n: int) -> None:
        """Advance so the next digit emitted is at position n + 1.

        Crosses whole copies, members and runs; no digit is written out.

        Raises:
            ValueError: when n is behind the current position.
            SequenceExhaustedError: when a finite stream ends first.
        """
        if n < self.position:
            raise ValueError(
                f"cannot skip backwards from {format_integer(self.position)} to {format_integer(n)}"
            )
        self._advance(n - self.position)

    def checkpoint(self) -> str:
        """One-line serialization of the cursor state."""
        state = self.position, self.integer, self.rep, self.offset
        return _CHECKPOINT_FORMAT % (*map(format_integer, state), self.spec.canonical)

    @classmethod
    def from_checkpoint(cls, line: str) -> "StreamCursor":
        fields = _CHECKPOINT_LINE.fullmatch(line.strip())
        if fields is None:
            raise ValueError(f"malformed checkpoint line: {line!r}")
        spec = parse_number_spec(fields[5])
        try:
            position, integer, rep, offset = map(parse_natural, fields.group(1, 2, 3, 4))
        except ValueError as exc:
            raise ValueError(f"malformed checkpoint line: {line!r}") from exc
        return cls(spec, position, integer, rep, offset)


_CHECKPOINT_FORMAT = "position=%s integer=%s rep=%s offset=%s spec=%s"
# the fields of a checkpoint line, in order, one space apart; each value
# is checked as it is parsed
_CHECKPOINT_LINE = re.compile(
    "position=([^ ]*) integer=([^ ]*) rep=([^ ]*) offset=([^ ]*) spec=([^ ]*)"
)


def open_stream(spec: NumberSpec) -> StreamCursor:
    """Fresh cursor at position 0."""
    return StreamCursor(spec)


def save_checkpoint(cursor: StreamCursor, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(cursor.checkpoint() + "\n")


def load_checkpoint(path: str) -> StreamCursor:
    with open(path, "r", encoding="utf-8") as fh:
        return StreamCursor.from_checkpoint(fh.readline())
