"""Output checks.  A call whose result fails any of them is a failed run:
it is counted in ``failed`` and its time is not used."""

from __future__ import annotations

import math
from typing import List

from repro.errors import ReproError
from repro.util.harmonic import visit_rate_for_switches


def visit_tolerance(m: int, t: int) -> float:
    """Allowed distance between the reached and the predicted visit rate
    ``x``: five binomial standard errors at ``m`` edges, or a tenth of
    ``x`` if larger.  It scales with ``x``, so a run that records the
    visits of only part of its switches fails at low ``x`` too."""
    x = visit_rate_for_switches(m, t)
    return max(5.0 * math.sqrt(x * (1.0 - x) / m), 0.1 * x)


def _check_graph(final, graph, problems: List[str]) -> None:
    try:
        final.check_invariants()
    except ReproError as exc:
        problems.append(f"invariants: {exc}")
    if final.num_edges != graph.num_edges:
        problems.append(
            f"edge count {final.num_edges} != input {graph.num_edges}")
    if final.degree_sequence() != graph.degree_sequence():
        problems.append("degree sequence not conserved")


def _check_visit(reached: float, m: int, t: int, problems: List[str]) -> None:
    predicted = visit_rate_for_switches(m, t)
    tol = visit_tolerance(m, t)
    if abs(reached - predicted) > tol:
        problems.append(f"visit rate {reached:.4f} outside "
                        f"{predicted:.4f} +/- {tol:.4f}")


def check_parallel(result, graph, t: int) -> List[str]:
    """Problems with a ``parallel_edge_switch`` result (empty when it is
    correct)."""
    problems: List[str] = []
    _check_graph(result.graph, graph, problems)
    if result.switches_completed + result.unfulfilled != t:
        problems.append(f"budget: completed {result.switches_completed} + "
                        f"unfulfilled {result.unfulfilled} != t {t}")
    if result.unfulfilled:
        problems.append(f"{result.unfulfilled} switches unfulfilled")
    undelivered = result.run.trace.total_undelivered
    if undelivered:
        problems.append(f"{undelivered} messages undelivered")
    _check_visit(result.visit_rate, graph.num_edges, t, problems)
    return problems


def check_sequential(result, graph, t: int) -> List[str]:
    """Problems with a ``sequential_edge_switch`` result."""
    problems: List[str] = []
    try:
        result.graph.check_invariants()
        final = result.to_simple(graph.num_vertices)
    except ReproError as exc:
        return [f"invariants: {exc}"]
    _check_graph(final, graph, problems)
    if result.switches != t:
        problems.append(f"{result.switches} switches != t {t}")
    _check_visit(result.visit_rate, graph.num_edges, t, problems)
    return problems
