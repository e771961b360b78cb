"""The benchmark's own test, at tiny size (300-vertex input):

    python3 -m pytest perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from repro.core.parallel.driver import parallel_edge_switch  # noqa: E402
from repro.core.sequential import sequential_edge_switch  # noqa: E402
from repro.graphs.generators.contact import contact_network  # noqa: E402
from repro.util.harmonic import visit_rate_for_switches  # noqa: E402
from repro.util.rng import RngStream  # noqa: E402
from tracer import RANK_ENTRY, CallSpans  # noqa: E402
from workloads import TINY_VERTICES, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
         *extra], cwd=str(cwd), capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [
    ("seq-contact", 0), ("seq-contact", 1), ("sim-contact", 1),
    ("threads-ft", 1), ("procs-contact", 1)])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out = _result(_bench("--workload", workload, "--trace", str(trace),
                         "--tiny"))
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= (2 if trace else 1)
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == wanted
    for name, metric in out["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _ok_call(wall):
    return {"event": "call", "traced": False, "ok": True, "reason": None,
            "wall": wall, "switches": 100, "peak_rss_mb": 50.0}


@pytest.mark.parametrize("failed", [
    # a call that raised (no wall time): e.g. the driver rebuilding a
    # non-simple graph
    {"event": "call", "traced": False, "ok": False, "wall": None,
     "switches": 100, "reason": "NotSimpleError: parallel edge (3, 7)"},
    # a call whose result failed an output check
    {"event": "call", "traced": False, "ok": False, "wall": 1.0,
     "switches": 100, "reason": "degree sequence not conserved"},
])
def test_one_failed_run_makes_the_run_incorrect(monkeypatch, capsys, failed):
    setups = [{"event": "setup", "import_s": 0.2, "input_s": 0.3}]
    monkeypatch.setattr(run, "measure", lambda args: (
        setups, [_ok_call(1.0), failed, _ok_call(1.1)], []))
    code = run.main(["--workload", "seq-contact", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert out["correct"] is False
    assert (out["attempted"], out["failed"]) == (3, 1)


def test_a_lost_run_makes_the_run_incorrect(monkeypatch):
    setups = [{"event": "setup", "import_s": 0.2, "input_s": 0.3}]
    args = Namespace(workload="seq-contact", seed=1, seconds=1.0, trace=0)
    summary = run.summarise(args, setups, [_ok_call(1.0)],
                            ["stall: no call finished within 60s"])
    assert summary["correct"] is False and summary["failed"] == 1


def _move_one_edge(graph):
    """Replace one edge (u, v) by (u, w): same edge count, new degrees."""
    for u, v in graph.edges():
        for w in range(graph.num_vertices):
            if w not in (u, v) and not graph.has_edge(u, w):
                graph.remove_edge(u, v)
                graph.add_edge(u, w)
                return
    raise AssertionError("no edge could be moved")


def test_checker_flags_a_moved_edge_in_a_parallel_result():
    graph = contact_network(TINY_VERTICES, RngStream(3))
    t = WORKLOADS["sim-contact"].tiny_t
    result = parallel_edge_switch(graph, 16, t=t, scheme="hp-u", seed=3)
    assert checks.check_parallel(result, graph, t) == []
    _move_one_edge(result.graph)
    assert "degree sequence not conserved" in checks.check_parallel(
        result, graph, t)


def test_checker_flags_a_moved_edge_in_a_sequential_result():
    graph = contact_network(TINY_VERTICES, RngStream(3))
    t = 500
    result = sequential_edge_switch(graph, t, RngStream(3))
    assert checks.check_sequential(result, graph, t) == []
    (u, v) = next(iter(result.graph.edges()))
    result.graph.remove_edge(u, v)
    assert checks.check_sequential(result, graph, t) != []


def test_visit_tolerance_catches_half_the_visits_at_low_x():
    # threads-ft: m of about 30.3k edges, t = 600, so x is about 0.039
    m, t = 30300, 600
    x = visit_rate_for_switches(m, t)
    problems = []
    checks._check_visit(x / 2, m, t, problems)
    assert problems
    problems = []
    checks._check_visit(x, m, t, problems)
    assert problems == []


def _spans(rank_stores, run_s=1.0):
    """Spans of a threads call taking 1.05 s with the given rank stores."""
    main = {"agg": {"driver:parallel_edge_switch": [1, 1.05, 0.05],
                    "threads:run": [1, run_s, run_s]},
            "counts": {}, "busy": 1.05, "wall": 1.05}
    return CallSpans(main, rank_stores)


def _rank(busy, wall):
    return {"agg": {RANK_ENTRY: [10, busy, busy]}, "counts": {},
            "busy": busy, "wall": wall}


def test_tracer_check_accepts_sound_spans():
    spans = _spans([_rank(0.4, 0.9), _rank(0.5, 0.95)])
    assert spans.check("driver:parallel_edge_switch", "threads", 2,
                       1.051) == []


@pytest.mark.parametrize("spans,wall,wanted", [
    # a rank's spans never came home
    (_spans([_rank(0.4, 0.9)]), 1.051, "rank span stores"),
    # a rank lived longer than the backend run that hosted it
    (_spans([_rank(0.4, 1.2), _rank(0.5, 0.9)]), 1.051, "do not nest"),
    # time of the call escaped the traced entry point
    (_spans([_rank(0.4, 0.9), _rank(0.5, 0.95)]), 1.5, "miss the call"),
])
def test_tracer_check_flags_unsound_spans(spans, wall, wanted):
    problems = spans.check("driver:parallel_edge_switch", "threads", 2, wall)
    assert any(wanted in p for p in problems), problems


def test_a_stalled_call_is_a_failed_run(monkeypatch):
    # A tiny threads-ft call takes about 3 s (two FT step drains), so a
    # 1 s cap turns every call into a stall.
    monkeypatch.setattr(run, "CALL_CAP_S", 1.0)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    args = Namespace(workload="threads-ft", seed=3, seconds=1.5, trace=0,
                     tiny=True)
    setups, calls, failures = run.measure(args)
    assert calls == []
    assert failures and all(f.startswith("stall") for f in failures)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "seq-contact", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
