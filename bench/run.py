"""dicbound benchmark: one closed-loop workload per run.

    python3 bench/run.py --workload {regions,chains,prove,refute} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a dicbound checkout; it measures the library in
that checkout's ``src/``.  With ``--trace 0`` the last line of standard
output is one JSON object with the end-to-end metrics; with ``--trace 1``
the run is repeated under span tracing and it carries the per-layer metrics.
The line before it records the environment, per-kind latencies and failures.
The exit code is 0 only when every operation succeeded and passed its check.

Setup is timed from outside: this launcher starts a fresh interpreter
(``session.py``) and measures until it reports ``ready``, right before its
first timed operation.  Two probes repeat that setup and stop, so
``setup_s`` is the median of three.  Only one process runs at a time, and
native thread pools are pinned to one thread.  Times are reported in
reference seconds (see ``calibrate.py``); wall-clock values are in the
record line.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("regions", "chains", "prove", "refute")
SETUP_PROBES = 2
RUN_BUDGET_S = 175.0
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}


def session_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("DICBOUND_BUDGET_ATOMS", None)
    return env


class SessionError(Exception):
    pass


def start_session(args, probe: bool, deadline: float):
    """Start a session and wait for ``ready``; returns the process and its
    setup time as (wall seconds, reference seconds)."""
    cmd = [
        sys.executable, str(HERE / "session.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if probe:
        cmd.append("--probe")
    kernel = calibrate.kernel_seconds()
    start = perf_counter()
    # unbuffered, so reading the ready line leaves the rest in the pipe
    proc = subprocess.Popen(cmd, cwd=ROOT, env=session_env(), stdout=subprocess.PIPE, bufsize=0)
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - perf_counter(), 0.0))
    line = proc.stdout.readline() if ready else b""
    setup = perf_counter() - start
    if line.strip() != b"ready":
        stop(proc)
        raise SessionError(f"session did not become ready (exit code {proc.returncode})")
    kernel = (kernel + calibrate.kernel_seconds()) / 2
    return proc, (setup, setup * calibrate.REFERENCE_S / kernel)


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish_session(proc, deadline: float) -> bytes:
    """Wait for the session to end; returns its remaining standard output."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 0.0))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise SessionError("session exceeded the run budget") from None
    if proc.returncode != 0:
        raise SessionError(f"session exited with code {proc.returncode}")
    return out


def read_result(out: bytes) -> dict:
    lines = out.decode().strip().splitlines()
    if not lines:
        raise SessionError("session printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dicbound closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dicbound" / "__init__.py").is_file():
        print(f"error: no dicbound sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_BUDGET_S

    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, setup = start_session(args, probe=True, deadline=deadline)
                finish_session(proc, deadline)
                setups.append(setup)
        proc, setup = start_session(args, probe=False, deadline=deadline)
        setups.append(setup)
        payload = read_result(finish_session(proc, deadline))
    except (SessionError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    detail, result = report(args, setups, payload)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def report(args, setups, payload) -> tuple[dict, dict]:
    """The record line and the result line for one run."""
    failed = payload["failed"]
    if args.trace:
        metrics = payload["layers"]
        units = tracing.metric_units()
    else:
        metrics = dict(payload["e2e"], setup_s=statistics.median(ref for _, ref in setups))
        units = E2E_UNITS
    detail = dict(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        setup_samples_s=[ref for _, ref in setups],
        setup_wall_clock_s=[wall for wall, _ in setups],
        fail_share=failed / payload["attempted"],
        failures=payload["failures"],
        untraced=payload["e2e"],
        **payload["detail"],
    )
    result = {
        "correct": failed == 0,
        "attempted": payload["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return detail, result


if __name__ == "__main__":
    sys.exit(main())
