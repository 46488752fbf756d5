"""One benchmark session: set up a workload, run its closed loop, check it.

``run.py`` starts this script as a fresh interpreter, both for each setup
probe and for the measured session, so setup always includes importing
dicbound.  Protocol on standard output: the line ``ready`` right before the
first timed operation, then (unless ``--probe``) one JSON line of results.

One client issues operations back to back (a closed loop) in this single
process.  A run stops at the round boundary nearest to ``--seconds`` once at
least ``MIN_OPS`` operations ran, so p90 has ten samples beyond it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibrate
import tracing

ROOT = Path(__file__).resolve().parent.parent
OP_CAP_S = 20.0  # per-operation wall-clock cap; about six times the slowest operation
MIN_OPS = 100
LOOP_BUDGET_S = 120.0  # hard stop for all timed loops of one session
SPANS_DIR = ".bench_out"  # traced runs write their spans here, in the checkout


class OpTimeout(BaseException):
    """Raised by the per-operation alarm.  Not an ``Exception``, so no broad
    handler inside the library can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout


@dataclass
class Record:
    op: object  # the workloads.Op that ran
    latency: float  # wall seconds
    result: object
    failure: str | None
    scale: float = 1.0  # wall seconds -> reference seconds (see calibrate.py)

    @property
    def label(self) -> str:
        return self.op.label

    @property
    def ref_latency(self) -> float:
        return self.latency * self.scale


def timed(op, op_id: int, tracer=None, cap: float = OP_CAP_S) -> Record:
    """Run one operation under the wall-clock cap; a timeout or an exception
    is recorded as a named failure, never dropped."""
    result = failure = None
    start = end = perf_counter()
    if tracer is not None:
        tracer.begin_op(op_id)
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            start = perf_counter()
            result = op.call()
        finally:
            end = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        failure = f"timeout: {op.label} exceeded the {cap} s cap"
    except Exception as exc:  # the loop must go on; the failure is recorded
        failure = f"error: {op.label}: " + "".join(traceback.format_exception_only(exc)).strip()
    finally:
        if tracer is not None:
            tracer.end_op()
    return Record(op, end - start, result, failure)


def run_loop(
    workload, seconds, first_round=0, min_ops=MIN_OPS, deadline=None, tracer=None, first_op=0, cap=OP_CAP_S
):
    """Closed loop over whole rounds; returns (records, rounds, cut).

    ``cut`` is true when the hard ``deadline`` ended the loop mid-round.
    Operation ids given to the tracer start at ``first_op``.
    """
    records: list[Record] = []
    start = perf_counter()
    index = first_round
    kernel = calibrate.kernel_seconds()
    while True:
        ops = workload.round(index)
        for op in ops:
            if deadline is not None and perf_counter() > deadline:
                return records, index - first_round, True
            record = timed(op, first_op + len(records), tracer, cap)
            after = calibrate.kernel_seconds()
            record.scale = calibrate.REFERENCE_S / ((kernel + after) / 2)
            kernel = after
            records.append(record)
        index += 1
        rounds = index - first_round
        elapsed = perf_counter() - start
        # stop at the round boundary nearest to the requested duration
        if len(records) >= min_ops and elapsed + elapsed / rounds / 2 >= seconds:
            return records, rounds, False


def run_checks(records: list[Record]) -> None:
    """Check every successful operation's result, outside any timer."""
    for record in records:
        if record.failure is not None:
            continue
        try:
            message = record.op.check(record.result)
        except Exception as exc:  # a check that raises is a wrong result
            message = "check raised " + "".join(traceback.format_exception_only(exc)).strip()
        if message is not None:
            record.failure = f"wrong: {record.label}: {message}"
        record.result = None


def loop_metrics(records: list[Record], reference: bool = True) -> dict:
    """Closed-loop metrics, in reference seconds unless ``reference`` is false."""
    latencies = [r.ref_latency if reference else r.latency for r in records]
    done = sum(1 for r in records if r.failure is None)
    return {
        "ops_per_s": done / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[8],
    }


def by_label(records: list[Record]) -> dict:
    groups: dict[str, list[float]] = {}
    for r in records:
        groups.setdefault(r.label, []).append(r.ref_latency)
    return {
        label: {"count": len(v), "p50_s": statistics.median(v), "max_s": max(v)}
        for label, v in sorted(groups.items())
    }


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(workload, seconds, trace=False, min_ops=MIN_OPS, deadline=None, spans_path=None) -> dict:
    """Run the timed loop(s) and the checks; returns the session's results.

    With ``trace`` the time goes to alternating untraced and traced rounds,
    so both see the same machine conditions: the traced rounds give the
    per-layer metrics, and the two kinds' ops_per_s give the tracing
    overhead.  The caller installs the SIGALRM handler.
    """
    traced: list[Record] = []
    if not trace:
        untraced, rounds, cut = run_loop(workload, seconds, min_ops=min_ops, deadline=deadline)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        tracer = tracing.Tracer()
        untraced, rounds, cut, start = [], 0, False, perf_counter()
        while not cut:
            if rounds % 2:
                tracer.install()
            try:
                # seconds=0 runs exactly one round
                records, _, cut = run_loop(
                    workload, 0, first_round=rounds, min_ops=0, deadline=deadline,
                    tracer=tracer if rounds % 2 else None, first_op=len(traced),
                )
            finally:
                tracer.uninstall()
            (traced if rounds % 2 else untraced).extend(records)
            rounds += 1
            elapsed = perf_counter() - start
            if rounds % 2 == 0 and elapsed + elapsed / rounds >= seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if spans_path is not None:
            tracer.write_spans(spans_path)
    records = untraced + traced
    run_checks(records)

    e2e = dict(loop_metrics(untraced), peak_rss_mb=peak_rss_mb)
    payload = {
        "attempted": len(records),
        "failed": sum(1 for r in records if r.failure is not None),
        "failures": [r.failure for r in records if r.failure is not None][:20],
        "e2e": e2e,
        "detail": {
            "environment": environment(),
            "rounds": rounds,
            "cut_by_deadline": cut,
            "wall_clock": loop_metrics(untraced, reference=False),
            "mean_speed": statistics.fmean(1 / r.scale for r in untraced),
            "latency_samples": len(untraced),
            "samples_beyond_p90": sum(1 for r in untraced if r.ref_latency > e2e["latency_p90_s"]),
            "by_label": by_label(untraced),
        },
    }
    if trace:
        traced_rate = loop_metrics(traced)["ops_per_s"] if traced else 0.0
        layers = tracer.layer_metrics({op_id: r.scale for op_id, r in enumerate(traced)})
        layers["trace.untraced_ops_per_s"] = e2e["ops_per_s"]
        layers["trace.traced_ops_per_s"] = traced_rate
        layers["trace.overhead_share"] = 1.0 - traced_rate / e2e["ops_per_s"] if e2e["ops_per_s"] else 0.0
        payload["layers"] = layers
        payload["detail"]["absent_layers"] = tracer.absent
        payload["detail"]["spans"] = len(tracer.spans)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="stop after setup")
    args = parser.parse_args(argv)
    session_start = perf_counter()

    sys.path.insert(0, str(ROOT / "src"))
    import dicbound

    if Path(dicbound.__file__).resolve().parent != (ROOT / "src" / "dicbound").resolve():
        print(f"error: imported dicbound from {dicbound.__file__}, not this checkout", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    setup_in_process = perf_counter() - session_start
    print("ready", flush=True)
    if args.probe:
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    spans_path = None
    if args.trace:
        spans_path = ROOT / SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        spans_path.parent.mkdir(exist_ok=True)
    payload = measure(
        workload, args.seconds, trace=bool(args.trace),
        deadline=session_start + LOOP_BUDGET_S, spans_path=spans_path,
    )
    payload["detail"]["setup_in_process_s"] = setup_in_process
    if spans_path is not None:
        payload["detail"]["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
