"""Benchmark worker: sets up one workload, runs its calls back to back in
a closed loop, checks every output and writes one JSON line per event to
the file descriptor given by ``--fd``.  ``run.py`` starts it, watches it
and aggregates its lines; run it directly only to debug.

Events: ``setup`` (import and input-generation seconds) and ``call``
(one per call: wall seconds, the output checks' verdict, counts, peak
resident memory so far, and in traced calls the per-layer metrics).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import TINY_VERTICES, VERTICES, WORKLOADS  # noqa: E402

perf = time.perf_counter


def layer_metrics(spans, result, spec) -> dict:
    """Per-layer metrics of one traced call.  A metric of a layer the
    workload does not use is left out (``run.py`` prints it as 0)."""
    out = {f"{layer}.self_s": v for layer, v in spans.self_by_layer().items()
           if layer != "procs"}  # the procs backend reports procs.wait_s
    out["engine.resumes"] = (spans.calls("rank_program:switch_rank_program")
                             if spec.backend == "sim" else 0)
    if spec.backend == "procs":
        out["procs.wait_s"] = spans.mean_rank_wait
    for layer in ("protocol", "graph", "rng"):
        out[f"{layer}.calls"] = spans.layer_calls(layer)
    out["ft.acks"] = spans.calls("ft:on_ack")
    out["ft.idle_ticks"] = spans.calls("ft:on_tick")
    out["ft.retransmits"] = spans.count("ft:on_tick")
    if spec.kind != "parallel":
        return out

    reports = result.live_reports
    trace = result.run.trace
    out["mpsim.msgs"] = trace.total_messages
    out["mpsim.bytes"] = trace.total_bytes
    if spec.backend == "procs":
        out["procs.msgs_per_s"] = (trace.total_messages
                                   / spans.total("procs:run"))
    transports = [r.transport for r in reports if r.transport]
    messages = sum(t["messages"] for t in transports)
    if messages:
        out["transport.frames_per_msg"] = (
            sum(t["frames"] for t in transports) / messages)
    out["rank_program.steps"] = max(r.steps for r in reports)
    completed = sum(r.switches_completed for r in reports)
    rejected = 0
    for r in reports:
        for reason, n in r.rejections.items():
            key = f"protocol.rejections.{reason}"
            out[key] = out.get(key, 0) + n
            rejected += n
    out["protocol.attempts_per_switch"] = (completed + rejected) / completed
    out["protocol.local_share"] = (
        sum(r.local_switches for r in reports) / completed)
    out["protocol.forfeited"] = sum(r.forfeited for r in reports)
    sizes = [r.initial_edges for r in reports]
    out["partition.edge_imbalance"] = max(sizes) / (sum(sizes) / len(sizes))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--fd", type=int, default=1)
    args = ap.parse_args(argv)
    out = os.fdopen(args.fd, "w", buffering=1)

    def emit(**record):
        out.write(json.dumps(record) + "\n")

    # -- set-up: import plus input generation (setup_s) ----------------------
    t0 = perf()
    import repro
    from repro.core import sequential as seq_api
    from repro.core.parallel import driver as par_api
    from repro.graphs.generators.contact import contact_network
    from repro.util.harmonic import switches_for_visit_rate
    from repro.util.rng import RngStream
    t1 = perf()
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"repro imported from {repro.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    n = TINY_VERTICES if args.tiny else VERTICES
    graph = contact_network(n, RngStream(args.seed))
    t2 = perf()
    emit(event="setup", import_s=t1 - t0, input_s=t2 - t1,
         edges=graph.num_edges)
    if args.setup_only:
        return 0

    import checks
    from tracer import Tracer

    spec = WORKLOADS[args.workload]
    if spec.kind == "sequential":
        t = switches_for_visit_rate(graph.num_edges, spec.visit_rate)

        def call(call_seed):
            return seq_api.sequential_edge_switch(graph, t,
                                                  RngStream(call_seed))
        check = checks.check_sequential
    else:
        t = spec.switches(args.tiny)

        def call(call_seed):
            return par_api.parallel_edge_switch(
                graph, spec.ranks, t=t, step_size=spec.step(args.tiny),
                scheme="hp-u", seed=call_seed, backend=spec.backend,
                fault_tolerance=spec.fault_tolerance,
                audit=False, checkpoint=None)
        check = checks.check_parallel

    # what tracer.CallSpans.check expects of a traced call's spans
    entry = ("driver:parallel_edge_switch" if spec.kind == "parallel"
             else "sequential:sequential_edge_switch")
    # rank programs run in their own threads (threads) or processes (procs)
    backend_span = (spec.backend if spec.backend in ("threads", "procs")
                    else None)

    tracer = None
    ranks_in_children = spec.ranks if spec.backend == "procs" else 0

    def peak_rss_mb() -> float:
        """This process's peak plus, on procs, ranks x the largest rank
        process's peak (forked pages are shared, so an upper bound)."""
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return (self_kb + ranks_in_children * child_kb) / 1024.0

    def one_call(call_seed: int) -> float:
        record = {"event": "call", "traced": tracer is not None, "ok": False,
                  "reason": None, "wall": None, "switches": t}
        if tracer is not None:
            tracer.reset()
        start = perf()
        try:
            result = call(call_seed)
        except Exception as exc:  # a failed run is recorded, not fatal
            wall = perf() - start
            record["reason"] = f"{type(exc).__name__}: {exc}".split("\n")[0]
            emit(**record)
            return wall
        wall = perf() - start
        problems = check(result, graph, t)
        record["wall"] = wall
        if problems:
            record["reason"] = "; ".join(problems)
            emit(**record)
            return wall
        record["ok"] = True
        record["peak_rss_mb"] = peak_rss_mb()
        if spec.kind == "parallel":
            record["msgs"] = result.run.trace.total_messages
            record["makespan"] = (result.sim_time if spec.backend == "sim"
                                  else 0.0)
        if tracer is not None:
            spans = tracer.end_call(result.reports
                                    if spec.kind == "parallel" else None)
            record["layers"] = layer_metrics(spans, result, spec)
            record["trace_problems"] = spans.check(
                entry, backend_span, spec.ranks if backend_span else 0, wall)
        emit(**record)
        return wall

    def closed_loop(until: float) -> None:
        """Calls back to back; no call starts that would likely end
        after ``until``.  At least one call always runs.  Call ``i`` uses
        program seed ``1000 * seed + i`` (partition and chain), so a run's
        mean spans several partitions of the input, and the traced
        calls repeat the problems of the untraced ones."""
        walls = []
        while True:
            walls.append(one_call(1000 * args.seed + len(walls)))
            if perf() + statistics.median(walls) > until:
                return

    start = perf()
    if args.trace:
        closed_loop(start + args.seconds / 2)
        tracer = Tracer()
        tracer.install()
    closed_loop(start + args.seconds)

    return 0


if __name__ == "__main__":
    sys.exit(main())
