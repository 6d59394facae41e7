"""The cedigits benchmark: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload verify_grid --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25
    python3 bench/run.py --workload primes_count --corrupt-reference   # negative control
    python3 bench/run.py --smoke                                       # self-test

Run it from the root of a checkout; it drives the package under ``src``
through the CLI and the public library API and changes nothing there.

Every repetition is a fresh interpreter (bench/child.py), because every
CLI user pays the cold start and the per-process caches such as
``primes._count_cache``.  A run repeats its workload until ``--seconds``
have passed and reports medians; one set-up probe, which stops after
``import cedigits`` and argument parsing, follows each repetition.
Times are scaled to a nominal CPU speed by probes that run beside each
child (see speed_probe); the raw stopwatch times are printed as well.
With ``--trace 1`` the repetitions alternate between untraced and traced
(bench/tracer.py) and the run reports the per-layer metrics.  Every
output is checked against bench/reference.py, which takes its answers
from the test suite's brute-force oracles, never from the package.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment and every metric by name with its unit.  Exit status: 0 when
every operation matched its reference, 1 when one did not, 2 when the
package or its tests are missing from the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")

WORKLOADS = ("verify_grid", "primes_count", "cursor_windows", "prime_threshold")

# the whole run, children included, ends well inside three minutes
RUN_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0
SETUP_SAMPLES = 9

# The CPU speed of a shared host swings by up to 2x for seconds at a time,
# so a repetition's raw wall time says as much about the neighbours as
# about the code.  While a child runs, the parent, pinned to the same CPU,
# runs speed_probe() every PROBE_INTERVAL_S.  The probes' mean time over
# NOMINAL_PROBE_S is the CPU's slowdown during that repetition; wall_s is
# the child's wall time, less the probes' own time, divided by it.  The
# probes take 3 to 4% of the CPU.  NOMINAL_PROBE_S is about the probe's
# time on an idle core of the 2-vCPU Xeon VM the benchmark was written on.
PROBE_INTERVAL_S = 0.025
NOMINAL_PROBE_S = 0.00065

CURSOR_WINDOWS = 1000
CURSOR_GAP = (15_000, 25_000)
CURSOR_LENGTH = (5_000, 15_000)
CURSOR_SPEC = ("composites", 10, Fraction(3, 2))

END_TO_END_UNITS = {
    "wall_s": "s",
    "digits_per_s": "digits/s",
    "window_ms_p50": "ms",
    "window_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "error_rate": "ratio",
}
# reported in the JSON line: the metrics every workload has and none reads 0
JSON_END_TO_END = ("wall_s", "setup_s", "peak_rss_mib")


@dataclass
class Plan:
    """One workload instance: the job each child runs and how to score it."""

    job: dict
    # child result -> (operations failed, problems)
    score: Callable[[dict], tuple[int, list[str]]]
    digits: int | None = None  # stream positions scanned, skipped or emitted per repetition
    operations: int = 1


@dataclass
class Rep:
    wall: float  # seconds at nominal CPU speed, as are setup
    setup: float
    rss_mib: float
    result: dict
    raw_wall: float  # spawn to exit, as a stopwatch reads it
    slowdown: float  # mean probe time over NOMINAL_PROBE_S during the child


def speed_probe() -> float:
    """Seconds for a fixed mix of the kinds of work the package does:
    integer arithmetic, splitting integers into digit tuples, and striking
    multiples out of a bytearray, as the sieve does.  It shares no code
    with the package, so a change there leaves the probe alone."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1500):
        q, r = divmod(i + acc, 10)
        acc = (acc + q + r) & 0xFFFF
    for m in range(10**6, 10**6 + 250):
        digits = []
        while m:
            m, r = divmod(m, 10)
            digits.append(r)
        digits.reverse()
        acc += len(tuple(digits))
    flags = bytearray([1]) * 16384
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        flags[p::p] = bytes(len(range(p, 16384, p)))
    acc += sum(flags)
    return time.perf_counter() - t0


@dataclass
class Outcome:
    lines: list[str] = field(default_factory=list)
    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


# ---------------------------------------------------------------- workloads


def _cli_result(result: dict) -> tuple[list[str], list[str]]:
    """stdout lines of a CLI child and what is wrong with its exit."""
    problems = []
    if result.get("rc") != 0:
        problems.append(f"exit status {result.get('rc')}")
    return result.get("stdout", "").splitlines(), problems


def plan_verify_grid(rng: random.Random, smoke: bool, corrupt: bool) -> Plan:
    import reference

    bases = list(reference.VERIFY_BASES)
    cs = list(reference.VERIFY_CS)
    rng.shuffle(bases)  # the seed orders the cells; the work is the same
    rng.shuffle(cs)
    argv = ["verify", "--bases", ",".join(map(str, bases)), "--cs", ",".join(map(str, cs))]
    if smoke:
        max_digits = 3000
        argv += ["--max-digits", str(max_digits)]
        expected = reference.verify_rows(bases, cs, max_digits)
    else:
        expected = reference.load()["verify_rows"]
    expected = sorted(tuple(row) for row in expected)
    if corrupt:
        expected[0] = expected[0][:4] + (expected[0][4] + 1, expected[0][5])
    last_line = f"all rows match: yes ({len(expected)} rows)"

    def score(result: dict) -> tuple[int, list[str]]:
        lines, problems = _cli_result(result)
        if not lines or lines[-1] != last_line:
            problems.append(f"last line {lines[-1] if lines else ''!r}, expected {last_line!r}")
        rows = []
        for line in lines[1:-1]:
            b, c, k, d_exact, d_stream, ones_exact, ones_stream, _ = line.split()
            c = Fraction(c)
            for d, ones in ((d_exact, ones_exact), (d_stream, ones_stream)):
                rows.append((int(b), c.numerator, c.denominator, int(k), int(d), int(ones)))
        if sorted(rows[0::2]) != expected or sorted(rows[1::2]) != expected:
            problems.append("table rows differ from the brute-force reference")
        return int(bool(problems)), problems

    cell_ends: dict[tuple[int, int, int], int] = {}
    for b, cn, cd, _, d, _ in expected:
        cell_ends[b, cn, cd] = max(d, cell_ends.get((b, cn, cd), 0))
    return Plan({"argv": argv}, score, digits=sum(cell_ends.values()))


def plan_primes_count(rng: random.Random, smoke: bool, corrupt: bool) -> Plan:
    import reference

    if smoke:
        n = 20_000 + 10 * rng.randrange(100)
        counts = reference.prime_digit_counts([n])[0]
    else:
        table = reference.load()["prime_digit_counts"]
        i = rng.randrange(len(table["counts"]))
        n = table["start"] + i * table["step"]
        counts = list(table["counts"][i])
    if corrupt:
        counts[1] += 1
    expected = [f"{s} {c}" for s, c in enumerate(counts)] + [f"total {n}"]

    def score(result: dict) -> tuple[int, list[str]]:
        lines, problems = _cli_result(result)
        if lines != expected:
            problems.append("symbol counts differ from the brute-force reference")
        return int(bool(problems)), problems

    argv = ["count", "--spec", "primes", "--base", "10", "-n", str(n)]
    return Plan({"argv": argv}, score, digits=n)


def plan_prime_threshold(rng: random.Random, smoke: bool, corrupt: bool) -> Plan:
    import reference

    if smoke:
        expected = reference.prime_pi([10**3, 10**4, 10**5])
    else:
        expected = {int(x): v for x, v in reference.load()["prime_pi"].items()}
    xs = list(expected)
    rng.shuffle(xs)  # the seed orders the sample points; the work is the same
    if corrupt:
        expected[xs[0]] += 1

    def score(result: dict) -> tuple[int, list[str]]:
        lines, problems = _cli_result(result)
        got = {}
        if "x count ratio holds" in lines:
            for line in lines[lines.index("x count ratio holds") + 1 :]:
                if line.startswith("note:"):
                    break
                x, count, _, _ = line.split()
                got[int(x)] = int(count)
        if got != expected:
            problems.append(f"prime counts {got} differ from the published {expected}")
        return int(bool(problems)), problems

    argv = ["threshold", "--spec", "primes", "--base", "10", "--xs", ",".join(map(str, xs))]
    return Plan({"argv": argv}, score)


def plan_cursor_windows(rng: random.Random, smoke: bool, corrupt: bool) -> Plan:
    import reference

    count, gap, length = CURSOR_WINDOWS, CURSOR_GAP, CURSOR_LENGTH
    if smoke:
        count, gap, length = 20, (150, 250), (50, 150)
    windows = [(rng.randint(*gap), rng.randint(*length)) for _ in range(count)]
    digests, positions = reference.window_digests(windows, *CURSOR_SPEC)
    if corrupt:
        digests[0] = "0" * len(digests[0])

    def score(result: dict) -> tuple[int, list[str]]:
        problems = []
        ok = 0
        got = zip(result.get("digests", []), result.get("checkpoints", []), result.get("roundtrips", []))
        for i, (digest, checkpoint, roundtrip) in enumerate(got):
            wrong = []
            if digest != digests[i]:
                wrong.append("digits differ from the brute-force reference")
            if not checkpoint.startswith(f"position={positions[i]} "):
                wrong.append(f"checkpoint {checkpoint!r} is not at position {positions[i]}")
            if not roundtrip:
                wrong.append("from_checkpoint(cp).checkpoint() != cp")
            if wrong:
                problems.append(f"window {i}: " + "; ".join(wrong))
            else:
                ok += 1
        if result.get("error"):
            problems.append("session stopped: " + result["error"].strip().splitlines()[-1])
        return count - ok, problems

    seq, base, c = CURSOR_SPEC
    job = {"windows": windows, "spec": [seq, base, str(c)]}
    return Plan(job, score, digits=positions[-1], operations=count)


PLANNERS = {
    "verify_grid": plan_verify_grid,
    "primes_count": plan_primes_count,
    "cursor_windows": plan_cursor_windows,
    "prime_threshold": plan_prime_threshold,
}


# ---------------------------------------------------------------- running


def spawn(workload: str, job: dict, *, setup_only: bool, trace: bool, timeout: float) -> Rep | str:
    """Run one child to completion, probing the CPU's speed while it runs;
    a Rep, or the reason it failed."""
    payload = json.dumps(dict(job, workload=workload, setup_only=setup_only, trace=trace))
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, CHILD],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    streams: list[str] = []
    reader = threading.Thread(target=lambda: streams.extend(proc.communicate(payload)))
    reader.start()
    probes = []  # (monotonic start, seconds)
    while True:
        probes.append((time.monotonic(), speed_probe()))
        reader.join(PROBE_INTERVAL_S)
        if not reader.is_alive():
            break
        if time.monotonic() - t0 > timeout:
            proc.kill()
            reader.join()
            return f"child timed out after {timeout:.0f} s"
    raw_wall = time.monotonic() - t0
    stdout, stderr = streams
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
        return f"child exited {proc.returncode}: {tail[0]}"
    try:
        result = json.loads(stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return "child printed no result"
    slowdown = statistics.fmean(dt for _, dt in probes) / NOMINAL_PROBE_S
    before_ready = sum(dt for start, dt in probes if start < result["t_ready"])
    return Rep(
        wall=(raw_wall - sum(dt for _, dt in probes)) / slowdown,
        setup=(result["t_ready"] - t0 - before_ready) / slowdown,
        rss_mib=result["rss_kib"] / 1024,
        result=result,
        raw_wall=raw_wall,
        slowdown=slowdown,
    )


def _median_line(name: str, values: list[float], unit: str, what: str) -> str:
    detail = f"median of {len(values)} {what}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        detail += f"; q1 {q1:.6g}, q3 {q3:.6g}"
    return f"metric {name} = {statistics.median(values)!r} {unit} ({detail})"


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False, corrupt: bool = False
) -> Outcome:
    started = time.monotonic()
    cpus = os.sched_getaffinity(0)
    # children inherit the affinity, so they and the speed probes share one CPU
    os.sched_setaffinity(0, {min(cpus)})
    out = Outcome()
    plan = PLANNERS[workload](random.Random(f"{workload}:{seed}"), smoke, corrupt)

    def remaining() -> float:
        return CHILD_TIMEOUT_S - (time.monotonic() - started)

    problems: list[str] = []

    def child(setup_only: bool, traced: bool = False) -> Rep | None:
        rep = spawn(workload, plan.job, setup_only=setup_only, trace=traced, timeout=max(remaining(), 1.0))
        if isinstance(rep, str):
            problems.append(rep)
            out.correct = False
            return None
        return rep

    child(setup_only=True)  # first compile of the package's bytecode; not timed
    plain: list[Rep] = []
    traced: list[Rep] = []
    setups: list[float] = []
    counts: list[dict] = []
    measuring = time.monotonic()
    while True:
        use_trace = trace and len(traced) < len(plain)
        rep = child(setup_only=False, traced=use_trace)
        out.attempted += plan.operations
        if rep is None:
            out.failed += plan.operations
        else:
            try:
                failed, why = plan.score(rep.result)
            except (ValueError, IndexError, KeyError) as exc:
                failed, why = plan.operations, [f"unreadable output: {exc!r}"]
            out.failed += failed
            problems.extend(why)
            if use_trace:
                traced.append(rep)
                counts.append(rep.result["trace"]["counts"])
            else:
                plain.append(rep)
                setups.append(rep.setup)
        probe = child(setup_only=True)
        if probe is not None:
            setups.append(probe.setup)
        elapsed = time.monotonic() - measuring
        have_all = plain and (traced or not trace)
        if (elapsed >= seconds and have_all) or time.monotonic() - started > RUN_BUDGET_S:
            break
        if rep is None and not have_all:
            break  # a child that cannot run will not run next time either
    while len(setups) < SETUP_SAMPLES and time.monotonic() - started < RUN_BUDGET_S:
        probe = child(setup_only=True)
        if probe is None:
            break
        setups.append(probe.setup)
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced repetitions of the same inputs")
        out.correct = False
    if out.failed or not plain or (trace and not traced):
        out.correct = False

    out.lines.append(
        f"env python={platform.python_version()} nproc={len(cpus)} pinned_cpu={min(cpus)} "
        f"commit={_commit()} src_sha256={_src_digest()} seed={seed} "
        f"trace={'on' if trace else 'off'} workload={workload} seconds={seconds:g}"
        + (" size=smoke" if smoke else "")
        + (" reference=corrupted" if corrupt else "")
    )
    out.lines.append(
        f"workload {workload}: {len(plain)} untraced and {len(traced)} traced repetitions, "
        f"each a fresh interpreter; {len(setups)} set-up samples; "
        f"{out.attempted} operations"
    )
    out.lines += [f"problem: {p}" for p in problems[:10]]
    if len(problems) > 10:
        out.lines.append(f"problem: ... and {len(problems) - 10} more")
    if plain:
        out.lines += _end_to_end(out, workload, plan, plain, setups)
    if trace and traced and plain:
        out.lines += _per_layer(out, plain, traced, counts)
    return out


def _end_to_end(out: Outcome, workload: str, plan: Plan, plain: list[Rep], setups: list[float]) -> list[str]:
    walls = [r.wall for r in plain]
    wall = statistics.median(walls)
    raw = [r.raw_wall for r in plain]
    lines = [
        _median_line("wall_s", walls, "s", "repetitions, at nominal CPU speed"),
        "repetitions: raw wall " + " ".join(f"{w:.3f}" for w in raw)
        + " s; CPU slowdown " + " ".join(f"{r.slowdown:.2f}" for r in plain)
        + f"; raw median {statistics.median(raw):.6g} s",
    ]
    if plan.digits is not None:
        lines.append(
            f"metric digits_per_s = {plan.digits / wall!r} digits/s "
            f"({plan.digits} stream positions per repetition over wall_s)"
        )
    else:
        lines.append(f"metric digits_per_s = n/a digits/s ({workload} scans no stream positions)")
    latencies = [x / r.slowdown for r in plain for x in r.result.get("latencies", [])]
    if len(latencies) >= 10:
        deciles = statistics.quantiles(latencies, n=10)
        beyond = sum(x > deciles[8] for x in latencies)
        for name, value in (("window_ms_p50", deciles[4]), ("window_ms_p90", deciles[8])):
            lines.append(
                f"metric {name} = {value * 1000!r} ms "
                f"({len(latencies)} windows, {beyond} beyond p90; each over its repetition's slowdown)"
            )
    else:
        for name in ("window_ms_p50", "window_ms_p90"):
            lines.append(f"metric {name} = n/a ms ({workload} has no cursor windows)")
    lines.append(_median_line("setup_s", setups, "s", "set-up samples, at nominal CPU speed"))
    lines.append(_median_line("peak_rss_mib", [r.rss_mib for r in plain], "MiB", "repetitions"))
    error_rate = out.failed / out.attempted if out.attempted else 1.0
    lines.append(
        f"metric error_rate = {error_rate!r} ratio ({out.failed} failed of {out.attempted} attempted)"
    )
    out.metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mib": {"value": statistics.median(r.rss_mib for r in plain), "unit": "MiB"},
    }
    return lines


def _per_layer(out: Outcome, plain: list[Rep], traced: list[Rep], counts: list[dict]) -> list[str]:
    units = _per_layer_units()
    values: dict[str, float] = dict(counts[0])
    for name in traced[0].result["trace"]["times"]:
        values[name] = statistics.median(r.result["trace"]["times"][name] / r.slowdown for r in traced)
    values["trace.overhead_ratio"] = statistics.median(r.wall for r in traced) / statistics.median(
        r.wall for r in plain
    )
    lines = []
    for name, unit in units.items():
        note = " (computed from the yielded values and SEGMENT_SIZE)" if name == "primes.segments" else ""
        lines.append(f"layer {name} = {values[name]!r} {unit}{note}")
    out.metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return lines


def _per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or "unknown"


def _src_digest() -> str:
    """Digest of the package sources, which identifies the code under
    test where the checkout has no commit."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cedigits")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- smoke mode


def smoke() -> int:
    """Run every workload at tiny sizes and check the report itself."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        contract = json.load(fh)
    with open(os.path.join(BENCH_DIR, "predictions.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)["per_layer"]
    failures = []

    def check(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    json_units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    check([w["name"] for w in contract["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    check(json_units == {n: END_TO_END_UNITS[n] for n in JSON_END_TO_END}, "BENCHMARK.json end_to_end")
    check(set(predictions) == set(layer_units), "predictions.json covers exactly the per-layer metrics")
    for workload in WORKLOADS:
        plain = run_workload(workload, 1, 0, False, smoke=True)
        text = "\n".join(plain.lines)
        print(text)
        check(plain.correct and plain.failed == 0, f"{workload}: untraced run is correct")
        for name, unit in END_TO_END_UNITS.items():
            pattern = rf"^metric {re.escape(name)} = \S+ {re.escape(unit)} \("
            check(re.search(pattern, text, re.M) is not None, f"{workload}: {name} printed with {unit}")
        check(
            {n: m["unit"] for n, m in plain.metrics.items()} == json_units,
            f"{workload}: JSON carries every end-to-end metric",
        )
        check(all(m["value"] > 0 for m in plain.metrics.values()), f"{workload}: no end-to-end metric is 0")
        runs = [run_workload(workload, 1, 0, True, smoke=True) for _ in range(2)]
        print("\n".join(runs[0].lines))
        for run in runs:
            check(run.correct, f"{workload}: traced run is correct")
            check(
                {n: m["unit"] for n, m in run.metrics.items()} == layer_units,
                f"{workload}: traced JSON carries every per-layer metric",
            )
        layer_counts = [
            {n: m["value"] for n, m in run.metrics.items() if m["unit"] != "s" and n != "trace.overhead_ratio"}
            for run in runs
        ]
        check(layer_counts[0] == layer_counts[1], f"{workload}: counts repeat across traced runs")
        bad = run_workload(workload, 1, 0, False, smoke=True, corrupt=True)
        print("\n".join(bad.lines))
        error_rate = bad.failed / bad.attempted
        check(
            not bad.correct and bad.failed > 0 and error_rate > 0,
            f"{workload}: a corrupted reference is reported as a failure",
        )
    for f in failures:
        print(f"SMOKE FAIL: {f}")
    print(f"smoke: {'ok' if not failures else f'{len(failures)} failures'}")
    return 1 if failures else 0


# ---------------------------------------------------------------- entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="negative control: corrupt one expected value; the run must fail")
    parser.add_argument("--smoke", action="store_true", help="self-test at tiny sizes")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/cedigits/__init__.py", "tests/conftest.py", "BENCHMARK.json")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}; nothing to benchmark", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               corrupt=args.corrupt_reference)
        print("\n".join(outcome.lines), flush=True)
        outcomes[name] = outcome
    if len(outcomes) == 1:
        summary = outcome.summary()
    else:
        summary = {
            "correct": all(o.correct for o in outcomes.values()),
            "attempted": sum(o.attempted for o in outcomes.values()),
            "failed": sum(o.failed for o in outcomes.values()),
            "metrics": {f"{w}.{m}": v for w, o in outcomes.items() for m, v in o.metrics.items()},
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
