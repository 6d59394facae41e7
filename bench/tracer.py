"""Spans around the calls into each cedigits layer, recorded from outside.

``install()`` rebinds the module-level names through which one layer
calls another (``sequences.iter_primes``, ``stream.to_digits``,
``stats.iter_blocks``, ``cli.counter_prefix`` and so on) and the public
methods of the sequence specs, the stream cursor and the digit counter.
Each call, and each ``next()`` of an iterator such a call returns, is a
span.  The program is single-threaded, so spans nest in time; a span's
self time is its duration minus the durations of the spans opened
inside it.  Spans are folded into per-name totals as they close rather
than kept one by one, because the hot layers open millions per run.

The package itself is not modified: a later change may add tracing
inside the program, and this module is the outside view to compare it
with.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Iterator

# per-name totals: [spans, items yielded, busy seconds, seconds in child spans]
SPANS, ITEMS, BUSY, CHILD = range(4)


class Tracer:
    def __init__(self) -> None:
        self.totals: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.generators: list[list[int]] = []  # [first integer sieved, last yielded]
        self.counted: list[int] = []  # x of every prime_count call
        self._open: list[list[float]] = []  # child time of each open span, innermost last

    def _record(self, name: str) -> list:
        return self.totals.setdefault(name, [0, 0, 0.0, 0.0])

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def _close(self, rec: list, t0: float, inner: list[float]) -> None:
        dt = perf_counter() - t0
        self._open.pop()
        if self._open:
            self._open[-1][0] += dt
        rec[SPANS] += 1
        rec[BUSY] += dt
        rec[CHILD] += inner[0]

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span of ``name``."""
        rec = self._record(name)

        def traced(*args, **kwargs):
            inner = [0.0]
            self._open.append(inner)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec, t0, inner)

        return traced

    def iterating(self, name: str, fn: Callable, track: Callable | None = None) -> Callable:
        """``fn``, which returns an iterator, with the call and every
        ``next()`` recorded as spans of ``name``.  ``track(*args)`` may
        return a two-item list whose second item follows the last value
        yielded."""
        rec = self._record(name)
        call = self.timed(name, fn)

        def traced(*args, **kwargs):
            state = track(*args, **kwargs) if track is not None else None
            return self._iterate(rec, iter(call(*args, **kwargs)), state)

        return traced

    def _iterate(self, rec: list, it: Iterator, state: list | None) -> Iterator:
        while True:
            inner = [0.0]
            self._open.append(inner)
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(rec, t0, inner)
            rec[ITEMS] += 1
            if state is not None:
                state[1] = item
            yield item

    def _sieve_generator(self, floor: int) -> Callable:
        def track(start: int = floor) -> list:
            state = [max(start, floor), None]
            self.generators.append(state)
            return state

        return track

    def summary(self) -> dict:
        """Per-layer counts (which repeat exactly for the same inputs) and
        times in seconds."""
        from cedigits.primes import SEGMENT_SIZE

        def total(name: str, field: int):
            return self.totals.get(name, [0, 0, 0.0, 0.0])[field]

        def self_time(*names: str) -> float:
            return sum(total(n, BUSY) - total(n, CHILD) for n in names)

        count_calls = len(self.counted)
        add_calls = total("stats.add_block", SPANS)
        add_digits = self.counters.get("stats.add_block_digits", 0)
        counts = {
            "primes.yielded": total("primes.sieve", ITEMS),
            "primes.generators_started": len(self.generators),
            # computed: the walker sieves whole segments from its first integer
            "primes.segments": sum(
                (last - lo) // SEGMENT_SIZE + 1 for lo, last in self.generators if last is not None
            ),
            "primes.count_calls": count_calls,
            "primes.count_repeat_ratio": (
                (count_calls - len(set(self.counted))) / count_calls if count_calls else 0.0
            ),
            "sequences.members": total("sequences.members", ITEMS),
            "sequences.count_calls": total("sequences.count", SPANS),
            "stream.to_digits_calls": total("stream.to_digits", SPANS),
            "stream.blocks": total("stream.iter_blocks", ITEMS),
            "stream.read_digits": self.counters.get("stream.read_digits", 0),
            "stream.skip_digits": self.counters.get("stream.skip_digits", 0),
            "stats.add_block_calls": add_calls,
            "stats.add_block_digits": add_digits,
            "stats.digits_per_block": add_digits / add_calls if add_calls else 0.0,
            "oracle.calls": total("oracle", SPANS),
        }
        times = {
            "primes.busy_s": total("primes.sieve", BUSY),
            "primes.count_busy_s": total("primes.count", BUSY),
            "sequences.self_s": self_time("sequences.members", "sequences.count"),
            "stream.to_digits_busy_s": total("stream.to_digits", BUSY),
            "stream.iter_blocks_self_s": self_time("stream.iter_blocks"),
            "stream.read_busy_s": total("stream.read", BUSY),
            "stream.skip_busy_s": total("stream.skip_to", BUSY),
            "stream.checkpoint_busy_s": total("stream.checkpoint", BUSY),
            "stats.add_block_busy_s": total("stats.add_block", BUSY),
            "stats.scan_self_s": self_time("stats.scan"),
            # the oracle's own code, without the sequence counts it asks for
            "oracle.busy_s": self_time("oracle"),
            "cli.self_s": self_time("cli.main"),
        }
        return {"counts": counts, "times": times}


def install() -> Tracer:
    """Rebind the layer boundaries of the imported package to traced
    wrappers and return the tracer that collects their spans."""
    from cedigits import cli, sequences, stats, stream

    t = Tracer()

    # primes: the sieve generators and the exact count, as sequences calls them
    sequences.iter_primes = t.iterating(
        "primes.sieve", sequences.iter_primes, t._sieve_generator(2)
    )
    sequences.iter_composites = t.iterating(
        "primes.sieve", sequences.iter_composites, t._sieve_generator(4)
    )
    prime_count = t.timed("primes.count", sequences.prime_count)

    def counted_prime_count(x, *args, **kwargs):
        t.counted.append(x)
        return prime_count(x, *args, **kwargs)

    sequences.prime_count = counted_prime_count

    # sequences: member enumeration and counting of every spec class
    for cls in vars(sequences).values():
        if isinstance(cls, type) and issubclass(cls, sequences.SequenceSpec):
            if "members" in vars(cls):
                cls.members = t.iterating("sequences.members", cls.members)
            if "count" in vars(cls):
                cls.count = t.timed("sequences.count", cls.count)

    # stream: digit decomposition, the block view and the cursor
    stream.to_digits = t.timed("stream.to_digits", stream.to_digits)
    blocks = t.iterating("stream.iter_blocks", stream.iter_blocks)
    stream.iter_blocks = blocks
    stats.iter_blocks = blocks
    cursor = stream.StreamCursor
    read = t.timed("stream.read", cursor.read)
    skip_to = t.timed("stream.skip_to", cursor.skip_to)

    def counted_read(self, n):
        t.add("stream.read_digits", n)
        return read(self, n)

    def counted_skip_to(self, n):
        t.add("stream.skip_digits", n - self.position)
        return skip_to(self, n)

    cursor.read = counted_read
    cursor.skip_to = counted_skip_to
    cursor.checkpoint = t.timed("stream.checkpoint", cursor.checkpoint)

    # stats: symbol counting and the prefix scans the CLI calls
    add_block = t.timed("stats.add_block", stats.DigitCounter.add_block)

    def counted_add_block(self, digits, copies=1):
        t.add("stats.add_block_digits", len(digits) * copies)
        return add_block(self, digits, copies)

    stats.DigitCounter.add_block = counted_add_block
    for name in ("counter_prefix", "prefix_counts_at_boundaries", "trajectory"):
        setattr(cli, name, t.timed("stats.scan", getattr(cli, name)))

    # oracle: the closed forms the CLI calls
    for name in ("d_exact", "ones_exact_champernowne", "hypothesis_report", "alpha_threshold"):
        setattr(cli, name, t.timed("oracle", getattr(cli, name)))

    cli.main = t.timed("cli.main", cli.main)
    return t
