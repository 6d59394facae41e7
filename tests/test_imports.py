"""What a cold start loads: ``import cedigits`` loads no layer, each
command loads only the layers it runs, nothing imports ``dataclasses``
or ``inspect``, and neither the import nor ``threshold`` loads
``typing``.  Each check runs in a fresh interpreter without
site-packages, as ``python -S -m cedigits.cli`` does."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import cedigits
from cedigits import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the names ``cedigits`` exported when it imported every layer, by module
EXPORTED = {
    "errors": "CapExceededError SequenceExhaustedError UndefinedStatisticError",
    "oracle": "HypothesisReport HypothesisSample OracleParams alpha_threshold "
    "comparison_deficit d_exact d_leading excess_lower_bound hypothesis_report "
    "is_integral_multiplier ones_exact_champernowne ones_excess_exact ones_excess_leading",
    "rational": "floor_power parse_rational",
    "sequences": "Complement Composites Explicit Naturals Polynomial Primes SequenceSpec "
    "parse_sequence",
    "stats": "DigitCounter LilPoint Trajectory block_stream count_symbol_prefix "
    "counter_prefix discrepancy lil_bound lil_statistic trajectory",
    "stream": "NumberSpec StreamCursor digit_length load_checkpoint open_stream "
    "parse_number_spec repetitions save_checkpoint to_digits",
}
# the layer functions the commands call through ``cli``, which a tracer rebinds
CLI_LAYERS = (
    "counter_prefix trajectory prefix_counts_at_boundaries d_exact "
    "ones_exact_champernowne hypothesis_report alpha_threshold"
).split()


def loaded_after(code: str) -> set[str]:
    """The modules loaded once ``code`` has run in a fresh ``python -S``."""
    script = code + "\nimport sys, json\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def package(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] == "cedigits"}


def command(*argv: str) -> str:
    return f"from cedigits import cli\nassert cli.main({list(argv)!r}) == 0"


def test_import_loads_no_layer():
    modules = loaded_after("import cedigits")
    assert package(modules) == {"cedigits"}
    assert not modules & {"dataclasses", "inspect", "typing"}


def test_threshold_loads_no_stream_and_no_counter():
    modules = loaded_after(command(
        "threshold", "--spec", "primes", "--base", "10", "--xs", "1000000"
    ))
    assert package(modules) == {
        "cedigits", "cedigits.cli", "cedigits.errors", "cedigits.rational",
        "cedigits.primes", "cedigits.sequences", "cedigits.oracle",
    }
    assert not modules & {"dataclasses", "inspect", "typing"}


def test_count_loads_no_closed_form():
    modules = loaded_after(command("count", "--spec", "primes", "--base", "10", "-n", "1000"))
    assert "cedigits.stats" in modules
    assert "cedigits.oracle" not in modules
    assert not modules & {"dataclasses", "inspect"}


def test_every_layer_loads_without_dataclasses():
    modules = loaded_after(
        "import cedigits.cli, cedigits.oracle, cedigits.stats, cedigits.stream"
    )
    assert not modules & {"dataclasses", "inspect"}


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_exported_names_are_their_modules_objects(module):
    home = __import__(f"cedigits.{module}", fromlist=["_"])
    for name in EXPORTED[module].split():
        assert getattr(cedigits, name) is getattr(home, name), name


def test_the_public_names_are_listed():
    names = {n for names in EXPORTED.values() for n in names.split()}
    assert set(cedigits.__all__) == names
    assert names <= set(dir(cedigits))
    assert cedigits.__version__ == "0.1.0"
    star: dict = {}
    exec("from cedigits import *", star)
    assert names <= set(star)
    with pytest.raises(AttributeError):
        cedigits.no_such_name


def test_cli_layers_are_rebindable_module_attributes(monkeypatch):
    for name in CLI_LAYERS:
        assert callable(getattr(cli, name))
    calls = []

    def spy(name):
        inner = getattr(cli, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)

        return wrapped

    for name in CLI_LAYERS:
        monkeypatch.setattr(cli, name, spy(name))
    argvs = [
        ["count", "--spec", "primes", "--base", "10", "-n", "100"],
        ["trajectory", "--spec", "naturals", "--base", "2", "--k-range", "5:6"],
        ["verify", "--bases", "2", "--cs", "1", "--max-digits", "1000"],
        ["threshold", "--spec", "primes", "--base", "10", "--xs", "100"],
    ]
    with redirect_stdout(io.StringIO()):
        for argv in argvs:
            assert cli.main(argv) == 0
    assert set(calls) == set(CLI_LAYERS) - {"alpha_threshold"}
    with pytest.raises(AttributeError):
        cli.no_such_name
