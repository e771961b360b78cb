"""End-to-end edge-switch benchmark.

    python3 perfbench/run.py --workload seq-contact --seed 1 --seconds 20

Runs one workload (see README.md and workloads.py) for ``--seconds``:
first a few set-up probes (fresh interpreters timing import plus input
generation), then a worker process that calls the public entry point
back to back and checks every output.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` spends half the time untraced and half
with every layer traced, and prints the per-layer metrics.  The last
line of standard output is one JSON object; the human-readable report
precedes it.

Exit status: 0 when every call succeeded and passed its output checks,
1 when any run failed (a call raised, stalled or returned a wrong
result), 2 when the benchmark could not run at all (then no JSON is
printed).
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

perf = time.perf_counter

#: Set-up probes per run; setup_s is the median over them and the worker.
SETUP_PROBES = 6
#: A call that has not reported after this many seconds is a stalled
#: run: the worker is killed, the call counted as failed, and a fresh
#: worker carries on with the remaining time.
CALL_CAP_S = 60.0
#: The whole run ends within ``--seconds`` plus this margin.
RUN_MARGIN_S = 110.0
#: The metrics' names and units are those of BENCHMARK.json.
SPEC_FILE = ROOT / "BENCHMARK.json"


def metric_units(section: str) -> dict:
    """``{name: unit}`` of one metric section of BENCHMARK.json."""
    return {m["name"]: m["unit"]
            for m in json.loads(SPEC_FILE.read_text())[section]}


class BenchError(Exception):
    """The benchmark could not run (exit status 2)."""


def _worker_cmd(args, fd: int, setup_only: bool = False, seconds=None):
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--fd", str(fd)]
    if setup_only:
        cmd.append("--setup-only")
    else:
        cmd += ["--seconds", f"{seconds:.3f}", "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    return cmd


def _kill(proc: subprocess.Popen) -> None:
    """Stop a worker and every rank process it forked, then reap it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()


def run_worker(args, seconds: float, setup_only: bool, hard_deadline: float):
    """Start one worker and yield its JSON records as they arrive.

    Yields ``{"event": "stall"}`` and stops when no record arrives
    within the per-call cap; the worker is killed either way before
    this generator finishes.
    """
    rfd, wfd = os.pipe()
    proc = subprocess.Popen(
        _worker_cmd(args, wfd, setup_only, seconds), pass_fds=(wfd,),
        stdin=subprocess.DEVNULL, stdout=sys.stderr, cwd=str(ROOT),
        start_new_session=True)
    os.close(wfd)
    buf = b""
    try:
        while True:
            cap = min(CALL_CAP_S, hard_deadline - perf())
            ready, _, _ = select.select([rfd], [], [], max(cap, 0.0))
            if not ready:
                yield {"event": "stall", "after_s": CALL_CAP_S}
                return
            chunk = os.read(rfd, 1 << 16)
            if not chunk:
                break
            buf += chunk
            *lines, buf = buf.split(b"\n")
            for line in lines:
                if line.strip():
                    yield json.loads(line)
        proc.wait()
        if proc.returncode != 0:
            yield {"event": "exit", "code": proc.returncode}
    finally:
        os.close(rfd)
        _kill(proc)


def measure(args):
    """Run the set-up probes and the closed loop; return the records."""
    start = perf()
    hard_deadline = start + args.seconds + RUN_MARGIN_S
    setups = []
    for _ in range(SETUP_PROBES):
        records = list(run_worker(args, 0.0, True, hard_deadline))
        found = [r for r in records if r["event"] == "setup"]
        if not found:
            raise BenchError(f"set-up probe failed: {records}")
        setups.append(found[0])

    calls, failures = [], []
    loop_start = perf()
    while True:
        remaining = args.seconds - (perf() - loop_start)
        lost = False
        for rec in run_worker(args, max(remaining, 0.0), False, hard_deadline):
            kind = rec["event"]
            if kind == "setup":
                setups.append(rec)
            elif kind == "call":
                calls.append(rec)
            elif kind == "stall":
                lost = True
                failures.append(f"stall: no call finished within "
                                f"{rec['after_s']:.0f}s")
            elif kind == "exit" and not calls:
                raise BenchError(f"worker exited with status {rec['code']} "
                                 "before its first call")
            elif kind == "exit":
                lost = True
                failures.append(f"worker exited with status {rec['code']}")
        if not lost or perf() - loop_start >= args.seconds:
            break
        # the worker was lost mid-run: a fresh one uses the time left
    return setups, calls, failures


def summarise(args, setups, calls, failures):
    """Metrics, verdict and counts from the worker records.  ``failures``
    holds the runs lost without a call record (stalls, worker deaths).
    Any failed run -- a call that raised, a result that failed a check,
    a stall -- makes the verdict incorrect; so does a traced call whose
    spans fail the tracer's own checks (see tracer.py)."""
    attempted = len(calls) + len(failures)
    failures = failures + [rec["reason"] for rec in calls if not rec["ok"]]
    good = [r for r in calls if r["ok"]]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    tracer_problems = [p for r in traced for p in r["trace_problems"]]
    setup_s = statistics.median(s["import_s"] + s["input_s"] for s in setups)

    def mean_wall(recs):
        return statistics.fmean(r["wall"] for r in recs)

    if not untraced or (args.trace and not traced):
        raise BenchError(f"no successful call to measure; failed runs: "
                         f"{failures[:3]}")
    metrics = {}
    if not args.trace:
        units = metric_units("end_to_end")
        # Means, not medians: on a shared host other tenants can slow a
        # call by up to 1.8x in phases of seconds, and a run's median then
        # jumps between the fast and the slow mode (README.md, Steadiness).
        metrics["wall_s"] = mean_wall(untraced)
        metrics["switches_per_s"] = (sum(r["switches"] for r in untraced)
                                     / sum(r["wall"] for r in untraced))
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in untraced)
    else:
        units = metric_units("per_layer")
        unknown = {k for r in traced for k in r["layers"]} - set(units)
        if unknown:
            raise BenchError(f"layer metrics missing from BENCHMARK.json: "
                             f"{sorted(unknown)}")
        metrics["msgs_per_switch"] = statistics.median(
            r.get("msgs", 0) / r["switches"] for r in untraced)
        metrics["sim_makespan"] = statistics.median(
            r.get("makespan", 0.0) for r in untraced)
        metrics["trace.overhead"] = mean_wall(traced) / mean_wall(untraced)
        for name in units:
            if name not in metrics:
                # a layer the workload does not use reads 0
                metrics[name] = statistics.median(
                    r["layers"].get(name, 0) for r in traced)
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(units) - set(metrics))} "
                         "were not measured")
    return {
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
        "attempted": attempted,
        "failed": len(failures),
        "correct": not failures and not tracer_problems,
        "failures": failures,
        "tracer_problems": tracer_problems,
        "sample": {"untraced": len(untraced), "traced": len(traced),
                   "setups": len(setups)},
    }


def report(args, summary) -> None:
    """Human-readable lines (everything before the final JSON line)."""
    spec = WORKLOADS[args.workload]
    s = summary["sample"]
    print(f"workload {args.workload}: {spec}")
    print(f"seed {args.seed}, {args.seconds}s, trace={args.trace}; calls: "
          f"{s['untraced']} untraced ok, {s['traced']} traced ok; "
          f"set-ups: {s['setups']}; attempted {summary['attempted']}, "
          f"failed {summary['failed']} "
          f"(failed_frac {summary['failed'] / summary['attempted']:.3f})")
    for name, m in summary["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    if args.trace and not summary["tracer_problems"]:
        print("  tracer checks passed on every traced call")
    for reason in summary["failures"]:
        print(f"FAILED RUN: {reason}")
    for problem in summary["tracer_problems"]:
        print(f"TRACER CHECK FAILED: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end edge-switch benchmark (see README.md).")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="300-vertex input and small t (the benchmark's test)")
    args = ap.parse_args(argv)
    try:
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"expected one of {sorted(WORKLOADS)}")
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"no program source at {ROOT / 'src' / 'repro'}")
        setups, calls, failures = measure(args)
        summary = summarise(args, setups, calls, failures)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(args, summary)
    print(json.dumps({k: summary[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
