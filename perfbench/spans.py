"""In-memory span tracer for the benchmark's traced runs.

The program gets no tracing of its own.  Instead, :class:`Tracer` wraps
public functions and methods of each layer from the outside (see
:data:`TARGETS`) while a traced round runs, and restores them afterwards.
Every call becomes one span: a name, its parent span (the innermost span
open when it began), and its start and end on ``time.perf_counter``.
Spans live in flat arrays (24 bytes each) and are written out as JSON
when the run ends.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Collects spans and per-span counts while its patches are installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start_of = array("d")
        self.end_of = array("d")
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        index = len(self.name_of)
        stack = self._stack
        self.name_of.append(nid)
        self.parent_of.append(stack[-1] if stack else -1)
        self.end_of.append(0.0)
        stack.append(index)
        self.start_of.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end_of[index] = perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------------
    def timed(self, fn: Callable, name: str, on_result=None) -> Callable:
        """``fn`` wrapped so each call is one span named ``name``.

        ``on_result(tracer, args, result)`` runs after the call, outside
        the span, to take counts at the same boundary.
        """
        nid = self._name_id(name)
        opener, closer = self._open, self._close

        def wrapper(*args, **kwargs):
            index = opener(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(index)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def timed_iter(self, make_iter: Callable, name: str) -> Callable:
        """``make_iter`` wrapped so each ``next()`` on its result is a span."""
        nid = self._name_id(name)
        opener, closer = self._open, self._close
        tracer = self

        def wrapper(*args, **kwargs):
            inner = iter(make_iter(*args, **kwargs))

            def spans() -> Iterator:
                while True:
                    index = opener(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        closer(index)
                        return
                    except BaseException:
                        closer(index)
                        raise
                    closer(index)
                    tracer.count(name + "#items")
                    yield item

            return spans()

        return wrapper

    def timed_property(self, prop: property, name: str, when=None) -> property:
        """A property whose getter is a span whenever ``when(obj)`` holds."""
        nid = self._name_id(name)
        getter = prop.fget
        opener, closer = self._open, self._close

        def get(obj):
            if when is not None and not when(obj):
                return getter(obj)
            index = opener(nid)
            try:
                return getter(obj)
            finally:
                closer(index)

        return property(get, prop.fset, prop.fdel, prop.__doc__)

    # ------------------------------------------------------------------
    def install(self, targets) -> None:
        """Apply every ``(module, attribute path, span name, kind, hook)``."""
        for module_name, path, name, kind, hook in targets:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            if kind == "call":
                replacement = self.timed(original, name, hook)
            elif kind == "iter":
                replacement = self.timed_iter(original, name)
            elif kind == "property":
                replacement = self.timed_property(original, name, hook)
            else:
                raise ValueError(f"unknown span kind {kind!r}")
            self._undo.append((owner, attribute, original))
            setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds; plus the
        inclusive seconds of root spans under ``"(roots)"``."""
        names = self.names
        count = len(self.name_of)
        child_time = [0.0] * count
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names
        }
        roots = 0.0
        # Children always come after their parent, so one backward pass
        # has every child's duration summed before its parent is visited.
        for index in range(count - 1, -1, -1):
            duration = self.end_of[index] - self.start_of[index]
            entry = out[names[self.name_of[index]]]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[index]
            parent = self.parent_of[index]
            if parent < 0:
                roots += duration
            else:
                child_time[parent] += duration
        out["(roots)"] = {"calls": 0, "total_s": roots, "self_s": roots}
        return out

    def dump(self, path: str) -> None:
        """Write the spans: a JSON line of span names and counts, then one
        ``name-index parent-index start end`` line per span (parent -1 for
        a root).  Streams line by line, so the dump adds no big list."""
        with open(path, "w", encoding="ascii") as stream:
            stream.write(json.dumps({"names": self.names, "counts": self.counts}))
            stream.write("\n")
            for i in range(len(self.name_of)):
                stream.write(
                    f"{self.name_of[i]} {self.parent_of[i]} "
                    f"{self.start_of[i]!r} {self.end_of[i]!r}\n"
                )


def _count_events(tracer: Tracer, args, result) -> None:
    tracer.count("engine.events", result)


def _count_order(tracer: Tracer, args, result) -> None:
    tracer.count("policy.coflows_ordered", len(result))


def _count_reservations(tracer: Tracer, args, result) -> None:
    tracer.count("planner.reservations", len(result.reservations))


def _count_switchings(tracer: Tracer, args, result) -> None:
    tracer.count("exec.switchings", result.switching_count)


def _bottleneck_rescan(view) -> bool:
    return view.bottleneck_hint is None


#: ``(module, attribute path, span name, kind, count hook)`` for every
#: layer boundary the benchmark times.  ``call`` spans one call,
#: ``iter`` one ``next()`` on the returned iterator, ``property`` one
#: getter call (only when the hook says it does real work).
TARGETS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.workloads.facebook", "parse_trace", "workloads.parse", "call", None),
    ("repro.workloads.stream", "StreamTraceReader.__iter__", "workloads.read", "iter", None),
    ("repro.core.coflow", "Coflow.processing_times", "coflow.demand", "call", None),
    ("repro.sim.engine", "run_replay_stream", "engine.replay", "call", _count_events),
    ("repro.sim.streaming", "run_replay_stream", "engine.replay", "call", _count_events),
    ("repro.sim.circuit_sim", "InterCoflowSimulator.admit", "circuit.admit", "call", None),
    ("repro.sim.circuit_sim", "InterCoflowSimulator.plan", "circuit.plan", "call", None),
    ("repro.sim.circuit_sim", "InterCoflowSimulator.advance", "circuit.advance", "call", None),
    ("repro.core.policies", "Policy.order", "policy.order", "call", _count_order),
    ("repro.core.policies", "CoflowView.bottleneck", "policy.bottleneck", "property", _bottleneck_rescan),
    ("repro.core.sunflow", "SunflowScheduler.schedule_demand", "planner.schedule", "call", _count_reservations),
    ("repro.core.prt", "PortReservationTable.rollback", "prt.rollback", "call", None),
    ("repro.core.prt", "PortReservationTable.replay", "prt.replay", "call", None),
    ("repro.sim.streaming", "StreamingReport.add", "report.add", "call", None),
    ("repro.core.sunflow", "SunflowScheduler.schedule_coflow", "sched.sunflow", "call", None),
    ("repro.schedulers.solstice", "SolsticeScheduler.schedule", "sched.solstice", "call", None),
    ("repro.schedulers.tms", "TmsScheduler.schedule", "sched.tms", "call", None),
    ("repro.schedulers.edmond", "EdmondScheduler.schedule", "sched.edmond", "call", None),
    ("repro.sim.assignment_exec", "execute_assignments", "exec.assign", "call", _count_switchings),
    ("repro.sim.packet_vector", "VectorPacketSimulator.run", "packet.replay", "call", None),
    ("repro.sim.packet_vector", "VectorPacketSimulator.plan", "packet.plan", "call", None),
    ("repro.sim.packet_vector", "VectorPacketSimulator.advance", "packet.advance", "call", None),
)
