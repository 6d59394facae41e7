"""One repetition of a benchmark workload, in a fresh interpreter.

The parent (bench/run.py) writes a job as JSON to stdin and starts this
script with the package's ``src`` directory on PYTHONPATH.  The script
imports cedigits, parses the job's arguments, stamps ``t_ready`` on
CLOCK_MONOTONIC (the parent subtracts its own spawn stamp to get the
set-up time), runs the job, and writes one JSON line to stdout.

Job keys:
    workload    "cursor_windows", or any CLI workload
    argv        CLI arguments (CLI workloads)
    windows     [[gap, length], ...] (cursor_windows)
    spec        [sequence, base, multiplier] of the stream (cursor_windows)
    setup_only  stop after ``t_ready``: a set-up probe
    trace       wrap the layers in spans (bench/tracer.py)
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
import traceback
from contextlib import redirect_stdout

def window_digest(digits) -> str:
    """Short digest of a run of digits below 256, as both sides compute it."""
    return hashlib.blake2b(bytes(digits), digest_size=8).hexdigest()


def peak_rss_kib() -> int:
    """High-water RSS of this process image.  ``ru_maxrss`` would not do:
    across exec it keeps the peak of the parent that spawned the child."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_cli(cli, argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue()}


def run_windows(cursor_type, checkpoint: str, windows: list[tuple[int, int]]) -> dict:
    """The closed-loop client: every window resumes from the previous
    window's checkpoint text, skips ``gap`` digits and reads ``length``."""
    latencies: list[float] = []
    digests: list[str] = []
    checkpoints: list[str] = []
    roundtrips: list[bool] = []
    error = None
    try:
        for gap, length in windows:
            t0 = time.perf_counter()
            cursor = cursor_type.from_checkpoint(checkpoint)
            cursor.skip_to(cursor.position + gap)
            digits = cursor.read(length)
            checkpoint = cursor.checkpoint()
            latencies.append(time.perf_counter() - t0)
            digests.append(window_digest(digits))
            checkpoints.append(checkpoint)
            roundtrips.append(cursor_type.from_checkpoint(checkpoint).checkpoint() == checkpoint)
    except Exception:  # the session stops here; the parent scores every missing window
        error = traceback.format_exc(limit=3)
    return {
        "latencies": latencies,
        "digests": digests,
        "checkpoints": checkpoints,
        "roundtrips": roundtrips,
        "error": error,
    }


def main() -> None:
    job = json.load(sys.stdin)
    if job["workload"] == "cursor_windows":
        import cedigits

        seq, base, c = job["spec"]
        spec = cedigits.NumberSpec(
            cedigits.parse_sequence(seq), base, cedigits.parse_rational(c)
        )
        windows = [(gap, length) for gap, length in job["windows"]]
    else:
        from cedigits import cli

        cli.build_parser().parse_args(job["argv"])
    result: dict = {"t_ready": time.monotonic()}
    if not job["setup_only"]:
        tracer = None
        if job["trace"]:
            import tracer as tracing

            tracer = tracing.install()
        if job["workload"] == "cursor_windows":
            start = cedigits.open_stream(spec).checkpoint()
            result.update(run_windows(cedigits.StreamCursor, start, windows))
        else:
            result.update(run_cli(cli, job["argv"]))
        if tracer is not None:
            result["trace"] = tracer.summary()
    result["rss_kib"] = peak_rss_kib()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
