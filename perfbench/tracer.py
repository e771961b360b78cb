"""Span tracer that times calls into the program's layers from outside.

:func:`install` replaces the public functions and methods of each layer
(see :data:`LAYERS`) with wrappers that open a span around every call.
Generator functions -- the rank program, the transport adapter, the
protocol handlers, the work distribution -- get a wrapper object whose
every resume (``send``/``throw``) is one span, so ``yield from`` chains
nest naturally.  Nothing under ``src/`` changes: the wrappers are
installed by rebinding module and class attributes in the benchmark's
own process.

Each thread keeps its own span stack (a single shared stack would
interleave the two rank threads' spans on the threads backend).  Spans
are aggregated per label as they close: calls, total time and self time
(the span's duration minus the time its child spans cover).  On the
procs backend each forked rank process starts from a fresh store, and
the wrapper around ``switch_rank_program`` attaches that store to the
rank's report when the program returns, which ships it back through the
backend's own result pipe.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

perf = time.perf_counter

#: (layer, module, class or None, attribute names).  Functions are
#: rebound wherever a ``repro`` module holds them under the same name.
LAYERS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("driver", "repro.core.parallel.driver", None, ("parallel_edge_switch",)),
    ("partition", "repro.core.parallel.driver", None, ("make_partitioner",)),
    ("partition", "repro.partition.base", None, ("build_partitions",)),
    ("engine", "repro.mpsim.cluster", "SimulatedCluster", ("run",)),
    ("threads", "repro.mpsim.threads", "ThreadCluster", ("run",)),
    ("procs", "repro.mpsim.procs", "ProcessCluster", ("run",)),
    ("rank_program", "repro.core.parallel.rank_program", "SwitchRank",
     ("main",)),
    ("transport", "repro.core.parallel.transport", None,
     ("coalescing_program",)),
    ("protocol", "repro.core.parallel.protocol", "ConversationMixin",
     ("try_initiate", "handle_request", "handle_validate", "handle_retry",
      "handle_abort", "handle_commit", "handle_commit_ack")),
    ("ft", "repro.core.parallel.ftolerance", "ReliableChannel",
     ("wrap", "accept", "on_ack", "on_tick")),
    ("graph", "repro.graphs.reduced", "ReducedAdjacencyGraph",
     ("from_simple", "has_edge", "reduced_neighbors", "reduced_degree",
      "edge_list", "add_edge", "remove_edge", "checkout", "release",
      "commit_removal", "is_checked_out", "sample_edge", "edge_at")),
    ("rng", "repro.util.rng", "BlockSampler", ("index", "coin")),
    ("constraints", "repro.core.constraints", None, ("propose_switch",)),
    ("visit", "repro.core.visit_rate", "VisitTracker",
     ("__init__", "consume", "is_original", "merge_visited")),
    ("sequential", "repro.core.sequential", None, ("sequential_edge_switch",)),
    ("rvgen", "repro.rvgen.parallel_multinomial", None,
     ("distribute_switch_counts",)),
)

#: Label of the rank program's entry point (its resumes are the
#: backend-side root spans).
RANK_ENTRY = "rank_program:switch_rank_program"

#: Attribute under which a procs worker's spans travel home.
SHIPPED = "_bench_spans"

#: Largest allowed share of a traced call's wall time that its layer
#: self times may leave unaccounted (the entry-point wrapper's cost).
SELF_SUM_MARGIN = 0.02
#: Rounding slack when nesting spans timed on different threads or
#: processes (``perf_counter`` is one system-wide monotonic clock).
CLOCK_SLACK_S = 1e-6


class SpanStore:
    """One thread's (or one forked rank's) spans."""

    __slots__ = ("stack", "agg", "counts", "busy", "first", "last")

    def __init__(self):
        #: Open spans, innermost last: ``[time covered by children]``.
        self.stack: List[List[float]] = []
        #: label -> [calls, total_s, self_s]
        self.agg: Dict[str, List[float]] = {}
        #: label -> extra count (retransmitted frames)
        self.counts: Dict[str, int] = {}
        #: Time covered by this thread's root spans.
        self.busy = 0.0
        #: First root-span start and last root-span end.
        self.first: Optional[float] = None
        self.last: Optional[float] = None

    def close(self, label: str, start: float, end: float,
              frame: List[float]) -> None:
        dur = end - start
        rec = self.agg.get(label)
        if rec is None:
            rec = self.agg[label] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[0]
        stack = self.stack
        if stack:
            stack[-1][0] += dur
        else:
            self.busy += dur
            if self.first is None:
                self.first = start
            self.last = end

    def export(self) -> dict:
        return {"agg": self.agg, "counts": self.counts, "busy": self.busy,
                "wall": ((self.last - self.first)
                         if self.first is not None else 0.0)}


class Tracer:
    """Per-thread span stores plus the registry that collects them."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._stores: List[Tuple[int, SpanStore]] = []
        self.pid = os.getpid()
        self.main_ident = threading.get_ident()

    def store(self) -> SpanStore:
        try:
            return self._local.store
        except AttributeError:
            s = self._local.store = SpanStore()
            with self._lock:
                self._stores.append((threading.get_ident(), s))
            return s

    def reset(self) -> None:
        """Forget every span (called between traced calls and at the
        start of a forked rank process)."""
        self._local.store = SpanStore()
        with self._lock:
            self._stores = [(threading.get_ident(), self._local.store)]

    # -- wrappers ------------------------------------------------------------

    def wrap_function(self, label: str, fn, count_result: bool = False):
        tracer = self

        def traced(*args, **kwargs):
            s = tracer.store()
            frame = [0.0]
            s.stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                s.stack.pop()
                s.close(label, start, end, frame)
            if count_result:
                s.counts[label] = s.counts.get(label, 0) + len(result)
            return result

        return functools.wraps(fn)(traced)

    def wrap_generator_function(self, label: str, fn,
                                gen_type: Optional[type] = None):
        tracer = self
        gen_type = gen_type or TracedGenerator

        def traced(*args, **kwargs):
            return gen_type(tracer, label, fn(*args, **kwargs))

        return functools.wraps(fn)(traced)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Rebind every layer entry point to a traced wrapper."""
        for layer, modname, clsname, names in LAYERS:
            module = importlib.import_module(modname)
            owner = getattr(module, clsname) if clsname else module
            for name in names:
                original = owner.__dict__[name]
                label = f"{layer}:{name}"
                is_descriptor = isinstance(original,
                                           (classmethod, staticmethod))
                fn = original.__func__ if is_descriptor else original
                if inspect.isgeneratorfunction(fn):
                    wrapped = self.wrap_generator_function(label, fn)
                else:
                    wrapped = self.wrap_function(
                        label, fn, count_result=(label == "ft:on_tick"))
                if is_descriptor:
                    wrapped = type(original)(wrapped)
                if clsname:
                    setattr(owner, name, wrapped)
                else:
                    _rebind_everywhere(original, wrapped)
        rank_program = importlib.import_module(
            "repro.core.parallel.rank_program")
        _rebind_everywhere(
            rank_program.switch_rank_program,
            self.wrap_generator_function(
                RANK_ENTRY, rank_program.switch_rank_program,
                RankEntryGenerator))

    # -- per-call collection -------------------------------------------------

    def end_call(self, reports=None) -> "CallSpans":
        """Collect the spans of the call that just returned."""
        with self._lock:
            stores = list(self._stores)
        main = next(s for ident, s in stores if ident == self.main_ident)
        ranks = [s.export() for ident, s in stores
                 if ident != self.main_ident and s.agg]
        for report in reports or ():
            shipped = getattr(report, SHIPPED, None)
            if shipped is not None:
                ranks.append(shipped)
        return CallSpans(main.export(), ranks)


class TracedGenerator:
    """Generator proxy: every resume of the wrapped generator is a span."""

    __slots__ = ("tracer", "label", "gen")

    def __init__(self, tracer: Tracer, label: str, gen):
        self.tracer = tracer
        self.label = label
        self.gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def _resume(self, method, *args):
        s = self.tracer.store()
        frame = [0.0]
        s.stack.append(frame)
        start = perf()
        try:
            return method(*args)
        finally:
            end = perf()
            s.stack.pop()
            s.close(self.label, start, end, frame)

    def send(self, value):
        return self._resume(self.gen.send, value)

    def throw(self, *args):
        return self._resume(self.gen.throw, *args)

    def close(self):
        self.gen.close()


class RankEntryGenerator(TracedGenerator):
    """The rank program's entry point.  In a forked rank process it
    starts a fresh span store on the first resume and, when the program
    returns, attaches that store to the returned report."""

    __slots__ = ("forked",)

    def __init__(self, tracer: Tracer, label: str, gen):
        super().__init__(tracer, label, gen)
        self.forked: Optional[bool] = None  # known at the first resume

    def _resume(self, method, *args):
        tracer = self.tracer
        if self.forked is None:
            self.forked = os.getpid() != tracer.pid
            if self.forked:
                tracer.reset()
        try:
            return super()._resume(method, *args)
        except StopIteration as stop:
            if self.forked and stop.value is not None:
                setattr(stop.value, SHIPPED, tracer.store().export())
            raise


def _rebind_everywhere(original, wrapped) -> None:
    """Replace ``original`` in every loaded ``repro`` module that holds
    it, so ``from x import f`` call sites see the wrapper too."""
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def layer_of(label: str) -> str:
    return label.split(":", 1)[0]


class CallSpans:
    """The spans of one traced call, attributed to layers.

    ``main`` is the calling thread's store; ``ranks`` holds one store
    per rank thread (threads backend) or per forked rank (procs).  Rank
    stores run concurrently, so their layer times are averaged over the
    ranks: each ``self_s`` is then a share of the call's wall time, and
    the backend's own share is its run span minus the mean time the
    ranks spent inside their programs.
    """

    def __init__(self, main: dict, ranks: List[dict]):
        self.main = main
        self.ranks = ranks

    def calls(self, label: str) -> int:
        return int(self.main["agg"].get(label, (0,))[0]
                   + sum(r["agg"].get(label, (0,))[0] for r in self.ranks))

    def layer_calls(self, layer: str) -> int:
        return sum(self.calls(label) for label in self._labels()
                   if layer_of(label) == layer)

    def count(self, label: str) -> int:
        return (self.main["counts"].get(label, 0)
                + sum(r["counts"].get(label, 0) for r in self.ranks))

    def total(self, label: str) -> float:
        return self.main["agg"].get(label, (0, 0.0))[1]

    def _labels(self):
        labels = set(self.main["agg"])
        for r in self.ranks:
            labels.update(r["agg"])
        return labels

    @property
    def mean_rank_busy(self) -> float:
        if not self.ranks:
            return 0.0
        return sum(r["busy"] for r in self.ranks) / len(self.ranks)

    @property
    def mean_rank_wait(self) -> float:
        """Mean over ranks of (rank lifetime - time inside the program)."""
        if not self.ranks:
            return 0.0
        return sum(r["wall"] - r["busy"] for r in self.ranks) / len(self.ranks)

    def self_by_layer(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for label, (_, _, slf) in self.main["agg"].items():
            layer = layer_of(label)
            out[layer] = out.get(layer, 0.0) + slf
        n = len(self.ranks)
        for r in self.ranks:
            for label, (_, _, slf) in r["agg"].items():
                layer = layer_of(label)
                out[layer] = out.get(layer, 0.0) + slf / n
        if n:
            backend = next((b for b in ("threads", "procs") if b in out), None)
            if backend is None:
                raise RuntimeError("rank spans without a backend run span")
            out[backend] -= self.mean_rank_busy
        return out

    def check(self, entry: str, backend: Optional[str], ranks: int,
              wall: float) -> List[str]:
        """Problems with these spans (empty when they are sound).

        ``wall`` is the call's wall time measured outside the tracer.
        The layer self times sum, by construction, to the calling
        thread's root spans, so comparing that sum with ``wall`` checks
        that the entry point ``entry`` was traced exactly once and that
        no time of the call escaped it.  The rank stores are checked
        against quantities measured apart from them: there must be one
        per rank (``ranks``; a lost procs shipment or rank thread store
        shows here), and each rank's program time must fit in its
        lifetime, which must fit in the ``backend`` run span.
        """
        problems = []
        entry_calls = self.calls(entry)
        if entry_calls != 1:
            problems.append(f"entry point {entry} traced {entry_calls} "
                            "times, expected once")
        gap = (wall - sum(self.self_by_layer().values())) / wall
        if not 0.0 <= gap <= SELF_SUM_MARGIN:
            problems.append(f"layer self times miss the call's wall time "
                            f"by {gap:+.3%} (allowed 0 to "
                            f"{SELF_SUM_MARGIN:.0%})")
        if len(self.ranks) != ranks:
            problems.append(f"{len(self.ranks)} rank span stores, expected "
                            f"{ranks}")
        if backend is not None and self.ranks:
            run_s = self.total(f"{backend}:run")
            for i, r in enumerate(self.ranks):
                if not (r["busy"] <= r["wall"] + CLOCK_SLACK_S
                        and r["wall"] <= run_s + CLOCK_SLACK_S):
                    problems.append(
                        f"rank store {i}: program time {r['busy']:.4f}s, "
                        f"lifetime {r['wall']:.4f}s, {backend} run "
                        f"{run_s:.4f}s do not nest")
        return problems
