"""Digit streams of generalized Copeland-Erdos numbers.

Build the stream of a concatenation number from any strictly increasing
integer sequence, with per-block repetition driven by an exact rational
multiplier, then measure digit frequencies and the iterated-logarithm
statistic and check them against exact closed forms.

``import cedigits`` loads no layer: each public name below is imported
from its module on first access, so a program pays only for the layers
it uses.
"""

__version__ = "0.1.0"

# each public name, by the module that defines it
_HOMES = {
    name: module
    for module, names in (
        ("errors", "CapExceededError SequenceExhaustedError UndefinedStatisticError"),
        (
            "oracle",
            "HypothesisReport HypothesisSample OracleParams alpha_threshold "
            "comparison_deficit d_exact d_leading excess_lower_bound hypothesis_report "
            "is_integral_multiplier ones_exact_champernowne ones_excess_exact "
            "ones_excess_leading",
        ),
        ("rational", "floor_power parse_rational"),
        (
            "sequences",
            "Complement Composites Explicit Naturals Polynomial Primes SequenceSpec "
            "parse_sequence",
        ),
        (
            "stats",
            "DigitCounter LilPoint Trajectory block_stream count_symbol_prefix "
            "counter_prefix discrepancy lil_bound lil_statistic trajectory",
        ),
        (
            "stream",
            "NumberSpec StreamCursor digit_length load_checkpoint open_stream "
            "parse_number_spec repetitions save_checkpoint to_digits",
        ),
    )
    for name in names.split()
}

__all__ = sorted(_HOMES)


def _loader(namespace: dict, homes: dict):
    """A module ``__getattr__`` that imports ``homes[name]``, a module of
    this package, on the first access to ``name`` and keeps the value in
    ``namespace``, so later reads are plain global lookups."""

    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        # a relative import from ``namespace``'s package, as ``from .home import name``
        value = getattr(__import__(home, namespace, None, (name,), 1), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _loader(globals(), _HOMES)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
