"""Command line front end.

Commands: digits, count, trajectory, verify, threshold.  Outputs are
deterministic: the same invocation produces byte-identical files and
stdout, so runs can be diffed.

Exit codes: 0 success, 1 verification mismatch, 2 usage error,
3 resource cap exceeded.

Each command imports the layers it runs on first use, so a cold start
pays for no other: ``threshold`` loads the sequences and the closed forms
(``oracle``) but not the stream or the counters, and ``count`` and
``digits`` load no closed form.  The layer names the commands use are
attributes of this module, resolved on first access: those ``_HOMES``
takes from the package's own table, the public names of ``oracle``,
``stats`` and ``stream``, and ``prefix_counts_at_boundaries``, which
the package does not export.  The commands call the layers through this
module, so rebinding one, as a tracer does, reaches every command.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from io import TextIOBase

from . import _HOMES as _PACKAGE_HOMES, _loader
from .errors import CapExceededError, SequenceExhaustedError
from .rational import format_rational, parse_natural, parse_rational
from .sequences import DEFAULT_COUNTING_CAP, Naturals, Record, parse_int_list, parse_sequence

# the layers' names the commands call, by module, imported on first access
_HOMES = {
    name: home for name, home in _PACKAGE_HOMES.items() if home in ("oracle", "stats", "stream")
}
_HOMES["prefix_counts_at_boundaries"] = "stats"
__getattr__ = _loader(globals(), _HOMES)
# this module, through which the commands call the layers
_layers = sys.modules[__name__]

DIGIT_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"

# digits with base >= 2**16 are refused outright
BASE_CAP = 1 << 16

DEFAULT_EMISSION_CAP = 10**8
# digits read, rendered and written at a time, so memory stays bounded
DIGITS_CHUNK = 1 << 16

DEFAULT_VERIFY_BASES = (2, 3, 10)
DEFAULT_VERIFY_CS = (Fraction(1), Fraction(3, 2), Fraction(2))
DEFAULT_VERIFY_MAX_DIGITS = 10**7

VERIFY_CSV_HEADER = "b,c_num,c_den,k,d_exact,d_stream,ones_exact,ones_stream,match"

# digit value -> its character in DIGIT_ALPHABET
_ALPHABET_TABLE = bytes.maketrans(bytes(range(36)), DIGIT_ALPHABET.encode("ascii"))


def render_digits(digits: Sequence[int], base: int) -> str:
    """Alphanumeric rendering through base 36, comma-separated beyond.

    Through base 36 the digits, as bytes (which ``read`` hands out
    unconverted), are mapped to characters by one translate.  Beyond,
    each digit value is written once and shared by all its places, so
    the join holds pointers, not a string per digit."""
    if base <= 36:
        return bytes(digits).translate(_ALPHABET_TABLE).decode("ascii")
    return ",".join(map(_digit_names(base).__getitem__, digits))


@lru_cache(maxsize=2)
def _digit_names(base: int) -> list[str]:
    """The decimal text of every digit value, built once per base rather
    than once per chunk that ``digits`` renders."""
    return list(map(str, range(base)))


class VerifyRow(Record):
    __slots__ = ("base", "c", "k", "d_oracle", "d_stream", "ones_oracle", "ones_stream")
    base: int
    c: Fraction
    k: int
    d_oracle: int
    d_stream: int
    ones_oracle: int
    ones_stream: int

    def __init__(
        self, base: int, c: Fraction, k: int,
        d_oracle: int, d_stream: int, ones_oracle: int, ones_stream: int,
    ) -> None:
        self._fill(base, c, k, d_oracle, d_stream, ones_oracle, ones_stream)

    @property
    def match(self) -> bool:
        return self.d_oracle == self.d_stream and self.ones_oracle == self.ones_stream


def run_verification(
    bases: Sequence[int] = DEFAULT_VERIFY_BASES,
    cs: Sequence[Fraction] = DEFAULT_VERIFY_CS,
    max_digits: int = DEFAULT_VERIFY_MAX_DIGITS,
    max_k: int | None = None,
    corrupt: bool = False,
) -> list[VerifyRow]:
    """Stream-versus-oracle equality over a (base, c) grid.

    For each cell, every k whose boundary position d_exact stays within
    max_digits is checked in a single streaming pass: the stream walks
    all copies of all integers up to 2*b**(k-1) - 1 and its position and
    ones count are compared against the closed forms.

    ``corrupt`` shifts the oracle values by one; it exists so the
    negative path of the checker is itself testable.
    """
    rows: list[VerifyRow] = []
    for base in bases:
        for c in cs:
            ks: list[tuple[int, int]] = []
            k = 1
            while max_k is None or k <= max_k:
                d = _layers.d_exact(_layers.OracleParams(base, c, k))
                if d > max_digits:
                    break
                ks.append((k, d))
                k += 1
            if not ks:
                continue
            spec = _layers.NumberSpec(Naturals(), base, c)
            boundaries = [2 * base ** (k - 1) - 1 for k, _ in ks]
            scanned = _layers.prefix_counts_at_boundaries(spec, 1, boundaries)
            for (k, d), (pos, ones) in zip(ks, scanned):
                ones_oracle = _layers.ones_exact_champernowne(_layers.OracleParams(base, c, k))
                if corrupt:
                    d += 1
                    ones_oracle += 1
                rows.append(VerifyRow(base, c, k, d, pos, ones_oracle, ones))
    rows.sort(key=lambda r: (r.base, r.c, r.k))
    return rows


def write_verification_csv(rows: Sequence[VerifyRow], out: TextIOBase) -> None:
    out.write(VERIFY_CSV_HEADER + "\n")
    for r in rows:
        out.write(
            f"{r.base},{r.c.numerator},{r.c.denominator},{r.k},"
            f"{r.d_oracle},{r.d_stream},{r.ones_oracle},{r.ones_stream},"
            f"{'true' if r.match else 'false'}\n"
        )


def _print_verification_table(rows: Sequence[VerifyRow]) -> None:
    print("b  c      k   d_exact    d_stream   ones_exact ones_stream match")
    for r in rows:
        print(
            f"{r.base:<2} {format_rational(r.c):<6} {r.k:<3} "
            f"{r.d_oracle:<10} {r.d_stream:<10} {r.ones_oracle:<10} "
            f"{r.ones_stream:<11} {'true' if r.match else 'false'}"
        )


def _multiplier(args: argparse.Namespace) -> Fraction:
    """The --c given, or 1 without one."""
    return parse_rational("1" if args.c is None else args.c)


def _capped(base: int) -> int:
    """``base``, refused at or above BASE_CAP, as every command does."""
    if base >= BASE_CAP:
        raise ValueError(f"base {base} is beyond the CLI cap {BASE_CAP}")
    return base


def _build_spec(args: argparse.Namespace) -> NumberSpec:
    return _layers.NumberSpec(parse_sequence(args.sequence), _capped(args.base), _multiplier(args))


def _cmd_digits(args: argparse.Namespace) -> int:
    if args.resume is not None:
        if args.sequence is not None or args.base is not None or args.c is not None:
            raise ValueError("--resume replaces --sequence/--base/--c")
        cursor = _layers.load_checkpoint(args.resume)
        _capped(cursor.spec.base)
    else:
        if args.sequence is None or args.base is None:
            raise ValueError("--sequence and --base are required without --resume")
        cursor = _layers.open_stream(_build_spec(args))
    if args.n > args.max_emit:
        raise CapExceededError(
            f"emitting {args.n} digits exceeds the per-run cap {args.max_emit}"
        )
    base = cursor.spec.base
    chunks = (
        render_digits(cursor.read(min(DIGITS_CHUNK, args.n - at)), base)
        for at in range(0, args.n, DIGITS_CHUNK)
    )
    # read before the output is opened: a stream that ends within the
    # first chunk leaves no output behind
    first = next(chunks, "")

    def write(fh: TextIOBase) -> None:
        fh.write(first)
        for rendered in chunks:
            fh.write("," + rendered if base > 36 else rendered)
        fh.write("\n")

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
    else:
        write(sys.stdout)
    if args.save_cursor:
        _layers.save_checkpoint(cursor, args.save_cursor)
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    if args.n > args.max_digits:
        raise CapExceededError(
            f"counting over {args.n} digits exceeds the per-run cap {args.max_digits}"
        )
    counter = _layers.counter_prefix(spec, args.n)
    for symbol, cnt in enumerate(counter.counts):
        print(f"{symbol} {cnt}")
    print(f"total {counter.total}")
    return 0


def _cmd_trajectory(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    if args.checkpoints is not None:
        cps = parse_int_list(args.checkpoints, "checkpoint")
        if not cps:  # as in verify, an empty list would pass having checked nothing
            raise ValueError("--checkpoints lists no checkpoint")
    else:
        lo, sep, hi = args.k_range.partition(":")
        if not sep:
            raise ValueError("--k-range takes the form LO:HI")
        ks = range(parse_natural(lo), parse_natural(hi) + 1)
        if not ks:  # as in verify, a range with no k would check nothing
            raise ValueError(f"--k-range {args.k_range} selects no k: LO is above HI")
        cps = [_layers.d_exact(_layers.OracleParams(spec.base, spec.multiplier, k)) for k in ks]
    traj = _layers.trajectory(spec, args.symbol, cps)
    print(f"lil bound (base {spec.base}): {_layers.lil_bound(spec.base):.6f}")
    if args.out:
        traj.write_csv_path(args.out)
        print(f"wrote {len(traj.points)} points to {args.out}")
    else:
        traj.write_csv(sys.stdout)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    bases = [*map(_capped, parse_int_list(args.bases, "base"))]
    cs = [parse_rational(part) for part in args.cs.split(",")]
    rows = run_verification(
        bases, cs, args.max_digits, args.max_k, corrupt=args.selftest_corrupt
    )
    if not rows:  # an empty grid would otherwise pass having checked nothing
        raise ValueError("the grid selects no row to verify")
    _print_verification_table(rows)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            write_verification_csv(rows, fh)
    ok = all(r.match for r in rows)
    print(f"all rows match: {'yes' if ok else 'no'} ({len(rows)} rows)")
    return 0 if ok else 1


def _cmd_threshold(args: argparse.Namespace) -> int:
    seq = parse_sequence(args.sequence)
    c = _multiplier(args)
    xs = parse_int_list(args.xs, "sample point")
    if not xs:  # as in verify, an empty list would pass having checked nothing
        raise ValueError("--xs lists no sample point")
    report = _layers.hypothesis_report(seq, _capped(args.base), c, xs, cap=args.cap)
    print(f"sequence: {report.sequence}")
    print(
        f"alpha threshold (base {report.base}, "
        f"c {format_rational(report.multiplier)}): {report.threshold:.6f}"
    )
    print("x count ratio holds")
    for s in report.samples:
        # through Decimal, which has no limit on the digits of an int
        print(f"{Decimal(s.x)} {Decimal(s.count)} {s.ratio:.6f} {'yes' if s.holds_at_x else 'no'}")
    print(f"note: {report.disclaimer}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cedigits",
        description="digit streams of concatenation numbers and their statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p: argparse.ArgumentParser, required: bool = True) -> None:
        p.add_argument("--spec", "--sequence", dest="sequence", required=required,
                       default=None, help="sequence spec, e.g. primes or poly:0,0,1")
        p.add_argument("--base", type=parse_natural, required=required, default=None,
                       help="stream base, at least 2")
        p.add_argument("--c", default=None,
                       help="repetition multiplier, e.g. 3/2 or 1.5 (default 1)")

    p_digits = sub.add_parser("digits", help="emit a digit prefix")
    add_spec_args(p_digits, required=False)
    p_digits.add_argument("-n", "--n", type=parse_natural, required=True,
                          help="number of digits")
    p_digits.add_argument("--out", default=None, help="write digits to a file")
    p_digits.add_argument("--max-emit", type=parse_natural, default=DEFAULT_EMISSION_CAP)
    p_digits.add_argument("--save-cursor", default=None, help="write a checkpoint after emitting")
    p_digits.add_argument("--resume", default=None, help="continue from a checkpoint file")
    p_digits.set_defaults(func=_cmd_digits)

    p_count = sub.add_parser("count", help="symbol counts over a prefix")
    add_spec_args(p_count)
    p_count.add_argument("-n", "--n", type=parse_natural, required=True, help="prefix length")
    p_count.add_argument("--max-digits", "--max-emit", dest="max_digits", type=parse_natural,
                         default=DEFAULT_EMISSION_CAP, help="largest prefix length to count")
    p_count.set_defaults(func=_cmd_count)

    p_traj = sub.add_parser("trajectory", help="statistic trajectory at checkpoints")
    add_spec_args(p_traj)
    p_traj.add_argument("--symbol", type=parse_natural, default=1, help="symbol to track")
    group = p_traj.add_mutually_exclusive_group(required=True)
    group.add_argument("--checkpoints", default=None, help="comma-separated prefix lengths")
    group.add_argument("--k-range", default=None,
                       help="LO:HI, checkpoints at the boundary positions for these k")
    p_traj.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p_traj.set_defaults(func=_cmd_trajectory)

    p_verify = sub.add_parser("verify", help="stream vs closed-form equality checks")
    p_verify.add_argument("--bases", default=",".join(map(str, DEFAULT_VERIFY_BASES)))
    p_verify.add_argument("--cs", default=",".join(map(str, DEFAULT_VERIFY_CS)))
    p_verify.add_argument("--max-digits", type=parse_natural,
                          default=DEFAULT_VERIFY_MAX_DIGITS)
    p_verify.add_argument("--max-k", type=parse_natural, default=None)
    p_verify.add_argument("--csv", default=None, help="also write the report as CSV")
    p_verify.add_argument("--selftest-corrupt", action="store_true",
                          help="negative control: corrupt the oracle and expect mismatch")
    p_verify.set_defaults(func=_cmd_verify)

    p_thresh = sub.add_parser("threshold", help="density threshold diagnostics")
    add_spec_args(p_thresh)
    p_thresh.add_argument("--xs", required=True, help="comma-separated sample points")
    p_thresh.add_argument("--cap", type=parse_natural, default=DEFAULT_COUNTING_CAP,
                          help="counting cap")
    p_thresh.set_defaults(func=_cmd_threshold)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, SequenceExhaustedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
