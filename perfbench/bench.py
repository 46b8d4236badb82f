"""One run of one benchmark workload, in a fresh interpreter.

``run.py`` starts this file; it is not meant to be run by hand.  The run
sets up (imports the program, generates the inputs, converts them),
then repeats whole rounds of the workload's operations until the next
round would overrun ``--seconds``, checks every round's outputs, and
prints one JSON line of results.  With ``--trace 1`` it alternates traced
and untraced rounds and reports per-layer figures instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from array import array
from itertools import islice
from time import perf_counter
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

B = checks.BANDWIDTH_BPS
DELTA = checks.DELTA_S

#: ``(name, unit)`` of every end-to-end metric, in output order.
END_TO_END = (
    ("setup_s", "s"),
    ("coflows_per_s", "1/s"),
    ("decision_p50_ms", "ms"),
    ("decision_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("cct_over_bound_mean", "ratio"),
    ("cct_over_bound_p99", "ratio"),
)

#: ``(name, unit)`` of every per-layer metric, in output order.
PER_LAYER = (
    ("workloads.parse_s", "s"),
    ("workloads.read_s", "s"),
    ("workloads.coflows_read", "count"),
    ("engine.events", "count"),
    ("engine.self_s", "s"),
    ("circuit.admit_s", "s"),
    ("circuit.admits", "count"),
    ("circuit.plan_s", "s"),
    ("circuit.advance_s", "s"),
    ("policy.order_s", "s"),
    ("policy.order_calls", "count"),
    ("policy.coflows_ordered", "count"),
    ("planner.schedule_s", "s"),
    ("planner.calls", "count"),
    ("planner.reservations", "count"),
    ("prt.rollback_s", "s"),
    ("prt.rollbacks", "count"),
    ("prt.replay_s", "s"),
    ("prt.replays", "count"),
    ("prt.compactions", "count"),
    ("replan.reuse_ratio", "ratio"),
    ("plan_cache.hit_ratio", "ratio"),
    ("report.add_s", "s"),
    ("report.adds", "count"),
    ("sched.sunflow_s", "s"),
    ("sched.solstice_s", "s"),
    ("sched.tms_s", "s"),
    ("sched.edmond_s", "s"),
    ("sched.slices", "count"),
    ("sched.matchings", "count"),
    ("sched.hungarian_solves", "count"),
    ("sched.bvn_permutations", "count"),
    ("exec.assign_s", "s"),
    ("exec.switchings", "count"),
    ("packet.plan_s", "s"),
    ("packet.advance_s", "s"),
    ("packet.events", "count"),
    ("trace.attributed_fraction", "ratio"),
    ("trace.overhead_s", "s"),
)

#: Per-layer metrics that are a span's inclusive time or call count.
SPAN_TIMES = {
    "workloads.parse_s": "workloads.parse",
    "workloads.read_s": "workloads.read",
    "circuit.admit_s": "circuit.admit",
    "circuit.plan_s": "circuit.plan",
    "circuit.advance_s": "circuit.advance",
    "planner.schedule_s": "planner.schedule",
    "prt.rollback_s": "prt.rollback",
    "prt.replay_s": "prt.replay",
    "report.add_s": "report.add",
    "sched.sunflow_s": "sched.sunflow",
    "sched.solstice_s": "sched.solstice",
    "sched.tms_s": "sched.tms",
    "sched.edmond_s": "sched.edmond",
    "exec.assign_s": "exec.assign",
    "packet.plan_s": "packet.plan",
    "packet.advance_s": "packet.advance",
}
SPAN_CALLS = {
    "circuit.admits": "circuit.admit",
    "policy.order_calls": "policy.order",
    "planner.calls": "planner.schedule",
    "prt.rollbacks": "prt.rollback",
    "prt.replays": "prt.replay",
    "report.adds": "report.add",
    "packet.events": "packet.advance",
}
#: Per-layer counts taken from the program's ``scheduler_counters``.
SCHEDULER_COUNTERS = {
    "sched.slices": "slices_emitted",
    "sched.matchings": "matchings_extracted",
    "sched.hungarian_solves": "hungarian_solves",
    "sched.bvn_permutations": "bvn_permutations",
}


class DecisionClock:
    """Host time of each scheduling decision, in seconds."""

    def __init__(self) -> None:
        self.samples = array("d")
        self._last = 0.0

    def start(self) -> None:
        self._last = perf_counter()

    def tick(self, _event_time=None) -> None:
        """End one engine event (the engine's ``on_event`` callback)."""
        now = perf_counter()
        self.samples.append(now - self._last)
        self._last = now


class Round:
    """What one round did: operations, failures, CCT ratios, timed wall."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.ratios: List[float] = []
        self.wall = 0.0
        #: The program's own perf counts, summed over the round.
        self.counts: Dict[str, float] = {}

    def add_counts(self, counts: Dict[str, int]) -> None:
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0) + value


def _timed_packet_replay(packet_vector, trace, allocator, clock: DecisionClock):
    """Replay ``trace`` on the packet simulator, one decision per event."""
    simulator = packet_vector.VectorPacketSimulator(trace, allocator, B)
    advance = simulator.advance

    def advance_and_tick(now: float, event_time: float) -> None:
        advance(now, event_time)
        clock.tick()

    simulator.advance = advance_and_tick
    clock.start()
    return simulator.run()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Inter150:
    """Paper-scale in-memory inter-Coflow replays (default policy)."""

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.sim import circuit_sim, engine
        from repro.workloads import facebook

        self.circuit_sim, self.engine, self.facebook = circuit_sim, engine, facebook
        self.paths: List[str] = []
        self.bounds = []
        for index, records in enumerate(gen.workload_traces("inter150", seed)):
            path = os.path.join(workdir, f"inter150-{index}.txt")
            gen.write_text(records, gen.SHAPES["inter150"].num_ports, path)
            self.paths.append(path)
            self.bounds.append(checks.trace_bounds(records))

    def _replay(self, path: str, clock: DecisionClock):
        trace = self.facebook.parse_trace(path)
        simulator = self.circuit_sim.InterCoflowSimulator(trace, bandwidth_bps=B, delta=DELTA)
        simulator.begin_run()
        clock.start()
        self.engine.run_replay_stream(simulator, list(simulator.trace), on_event=clock.tick)
        return simulator.finish_run(), simulator.perf

    def warm_up(self) -> None:
        self._replay(self.paths[0], DecisionClock())

    def run_round(self, clock: DecisionClock, checker: checks.Checker) -> Round:
        result = Round()
        for path, expected in zip(self.paths, self.bounds):
            start = perf_counter()
            report, perf = self._replay(path, clock)
            result.wall += perf_counter() - start
            result.add_counts(perf.counts)
            done = [(r.coflow_id, r.completion_time - r.arrival_time, r.packet_lower) for r in report.records]
            result.ratios += checker.completions("inter150", done, expected, "circuit")
            result.attempted += len(expected)
        return result


class _Tee:
    """Report sink that keeps each record's CCT and passes it on."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.done: List[Tuple[int, float, float]] = []

    def add(self, record) -> None:
        self.done.append((record.coflow_id, record.completion_time - record.arrival_time, record.packet_lower))
        self.inner.add(record)


class Stream40:
    """Long streaming replay of narrow coflows from a binary SFTR file."""

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.sim import streaming
        from repro.workloads import stream

        self.streaming, self.stream = streaming, stream
        (records,) = gen.workload_traces("stream40", seed)
        text = os.path.join(workdir, "stream40.txt")
        self.path = os.path.join(workdir, "stream40.sftr")
        gen.write_text(records, gen.SHAPES["stream40"].num_ports, text)
        stream.convert_text_trace(text, self.path)
        self.bounds = checks.trace_bounds(records)

    def _replay(self, clock: DecisionClock, limit=None):
        tee = _Tee(self.streaming.StreamingReport("sunflow", B, DELTA))
        with self.stream.open_stream_trace(self.path) as arrivals:
            source = arrivals if limit is None else islice(arrivals, limit)
            clock.start()
            result = self.streaming.simulate_inter_sunflow_stream(
                source,
                num_ports=arrivals.num_ports,
                bandwidth_bps=B,
                delta=DELTA,
                report=tee,
                on_event=clock.tick,
            )
        return tee, result

    def warm_up(self) -> None:
        self._replay(DecisionClock(), limit=500)

    def run_round(self, clock: DecisionClock, checker: checks.Checker) -> Round:
        result = Round()
        start = perf_counter()
        tee, replay = self._replay(clock)
        result.wall = perf_counter() - start
        result.add_counts(replay.perf.counts)
        result.ratios = checker.completions("stream40", tee.done, self.bounds, "circuit")
        checker.streaming(tee.inner, [cct for _, cct, _ in tee.done])
        result.attempted = len(self.bounds)
        return result


class Baselines150:
    """Sunflow and the paper's five baselines on one 150-port trace."""

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.core.sunflow import SunflowScheduler
        from repro.perf import scheduler_counters
        from repro.schedulers import EdmondScheduler, SolsticeScheduler, TmsScheduler
        from repro.sim import aalo, assignment_exec, packet_vector, varys
        from repro.workloads import facebook

        self.facebook, self.assignment_exec, self.packet_vector = facebook, assignment_exec, packet_vector
        self.varys, self.aalo = varys, aalo
        self.scheduler_counters = scheduler_counters
        self.sunflow_scheduler = SunflowScheduler
        self.assignment = (SolsticeScheduler(), TmsScheduler(), EdmondScheduler())
        (records,) = gen.workload_traces("baselines150", seed)
        self.num_ports = gen.SHAPES["baselines150"].num_ports
        self.path = os.path.join(workdir, "baselines150.txt")
        gen.write_text(records, self.num_ports, self.path)
        self.bounds = checks.trace_bounds(records)
        self.demand = {record.coflow_id: checks.demand_seconds(record) for record in records}

    def _serve(self, trace, clock: DecisionClock, checker: checks.Checker, result: Round, coflows=None):
        """Each coflow alone under Sunflow, Solstice, TMS and Edmond."""
        done = {name: [] for name in ("sunflow",) + tuple(s.name for s in self.assignment)}
        samples = clock.samples
        # A fresh planner per round: its plan cache would otherwise serve
        # later rounds from the first one's plans.
        sunflow = self.sunflow_scheduler(delta=DELTA)
        for coflow in trace if coflows is None else coflows:
            cid = coflow.coflow_id
            expected = self.bounds[cid]
            start = perf_counter()
            demand = coflow.processing_times(B)
            begin = perf_counter()
            plan = sunflow.schedule_coflow(coflow, B, start_time=0.0)
            end = perf_counter()
            samples.append(end - begin)
            wall = end - start
            if not checks.covers(checks.reserved_service(plan.reservations), self.demand[cid]):
                checker.fail(f"sunflow: schedule of coflow {cid} does not cover its demand")
            checker.lemma1("sunflow", cid, plan.makespan, expected)
            done["sunflow"].append((cid, plan.makespan, None))
            for scheduler in self.assignment:
                begin = perf_counter()
                schedule = scheduler.schedule(demand, self.num_ports)
                execution = self.assignment_exec.execute_assignments(schedule, demand, DELTA)
                end = perf_counter()
                samples.append(end - begin)
                wall += end - begin
                covered = checks.covers(checks.planned_service(schedule.assignments), self.demand[cid])
                if not execution.finished:
                    result.failed += 1
                    if covered:
                        checker.fail(f"{scheduler.name}: coflow {cid} unfinished by a covering schedule")
                    continue
                if not covered:
                    checker.fail(f"{scheduler.name}: schedule of coflow {cid} does not cover its demand")
                done[scheduler.name].append((cid, execution.completion_time, None))
            result.wall += wall
        return done

    def warm_up(self) -> None:
        trace = self.facebook.parse_trace(self.path)
        self._serve(trace, DecisionClock(), checks.Checker(), Round(), coflows=list(trace)[:30])

    def run_round(self, clock: DecisionClock, checker: checks.Checker) -> Round:
        result = Round()
        self.scheduler_counters.reset()
        start = perf_counter()
        trace = self.facebook.parse_trace(self.path)
        result.wall += perf_counter() - start
        served = self._serve(trace, clock, checker, result)
        for allocator in (self.varys.VarysAllocator(), self.aalo.AaloAllocator()):
            start = perf_counter()
            report = _timed_packet_replay(self.packet_vector, trace, allocator, clock)
            result.wall += perf_counter() - start
            served[allocator.name] = [
                (r.coflow_id, r.completion_time - r.arrival_time, r.packet_lower) for r in report.records
            ]
        for name, done in served.items():
            floor = "packet" if name in ("varys", "aalo") else "circuit"
            if name == "solstice":
                expected = {cid: self.bounds[cid] for cid, _, _ in done}
            else:
                expected = self.bounds
            result.ratios += checker.completions(name, done, expected, floor)
        result.attempted = len(self.bounds) * len(served)
        result.add_counts(self.scheduler_counters.counts)
        return result


WORKLOADS = {"inter150": Inter150, "stream40": Stream40, "baselines150": Baselines150}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _p99(values) -> float:
    return statistics.quantiles(values, n=100)[98]


def end_to_end(setup_s: float, rounds: List[Round], clock: DecisionClock) -> Dict[str, float]:
    served = sum(r.attempted - r.failed for r in rounds)
    decisions = clock.samples
    ratios = rounds[0].ratios
    return {
        "setup_s": setup_s,
        "coflows_per_s": served / sum(r.wall for r in rounds),
        "decision_p50_ms": statistics.median(decisions) * 1e3,
        "decision_p99_ms": _p99(decisions) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cct_over_bound_mean": sum(ratios) / len(ratios),
        "cct_over_bound_p99": _p99(ratios),
    }


def per_layer(tracer: spans.Tracer, traced: List[Round], untraced: List[Round]) -> Dict[str, float]:
    totals = tracer.totals()
    n = len(traced)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name: str) -> Dict[str, float]:
        return totals.get(name, empty)

    counts: Dict[str, float] = {}
    for r in traced:
        for name, value in r.counts.items():
            counts[name] = counts.get(name, 0) + value
    out: Dict[str, float] = {}
    for metric, name in SPAN_TIMES.items():
        out[metric] = span(name)["total_s"] / n
    for metric, name in SPAN_CALLS.items():
        out[metric] = span(name)["calls"] / n
    for metric, name in SCHEDULER_COUNTERS.items():
        out[metric] = counts.get(name, 0) / n
    out["workloads.coflows_read"] = tracer.counts.get("workloads.read#items", 0) / n
    out["engine.events"] = tracer.counts.get("engine.events", 0) / n
    out["engine.self_s"] = span("engine.replay")["self_s"] / n
    out["policy.order_s"] = (span("policy.order")["total_s"] + span("policy.bottleneck")["total_s"]) / n
    out["policy.coflows_ordered"] = tracer.counts.get("policy.coflows_ordered", 0) / n
    out["planner.reservations"] = tracer.counts.get("planner.reservations", 0) / n
    out["exec.switchings"] = tracer.counts.get("exec.switchings", 0) / n
    out["prt.compactions"] = counts.get("prt_compactions", 0) / n
    avoided = counts.get("replans_avoided", 0)
    touched = avoided + counts.get("plans_computed", 0)
    out["replan.reuse_ratio"] = avoided / touched if touched else 0.0
    hits = counts.get("plan_cache_hits", 0)
    lookups = hits + counts.get("plan_cache_misses", 0) + counts.get("plan_cache_skips", 0)
    out["plan_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    traced_wall = sum(r.wall for r in traced)
    out["trace.attributed_fraction"] = totals["(roots)"]["total_s"] / traced_wall
    out["trace.overhead_s"] = traced_wall / n - sum(r.wall for r in untraced) / len(untraced)
    return out


def self_time_table(tracer: spans.Tracer, traced: List[Round]) -> str:
    totals = tracer.totals()
    n = len(traced)
    wall = sum(r.wall for r in traced) / n
    lines = [f"self time per traced round ({wall:.4f} s of traced wall):"]
    rows = sorted(
        ((name, entry) for name, entry in totals.items() if name != "(roots)"),
        key=lambda item: -item[1]["self_s"],
    )
    for name, entry in rows:
        lines.append(
            f"  {name:<18} calls {entry['calls'] / n:>10.1f}  self {entry['self_s'] / n:9.4f} s"
            f"  ({100.0 * entry['self_s'] / n / wall:5.1f}%)  total {entry['total_s'] / n:9.4f} s"
        )
    unattributed = wall - totals["(roots)"]["total_s"] / n
    lines.append(f"  {'(outside spans)':<18} {'':>16}  self {unattributed:9.4f} s  ({100.0 * unattributed / wall:5.1f}%)")
    return "\n".join(lines)


def provenance() -> Dict[str, object]:
    from repro.core.sunflow import native_planner_available, planner_backend
    from repro.kernels import active_backend

    return {
        "planner_backend": planner_backend(),
        "kernel_backend": active_backend(),
        "native_extension": native_planner_available(),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
    }


# ----------------------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="wall-clock time the process was started")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print("provenance: " + json.dumps(provenance()), flush=True)
    checker = checks.Checker()
    clock = DecisionClock()
    tracer = spans.Tracer()
    traced: List[Round] = []
    untraced: List[Round] = []
    workload.warm_up()
    begin = perf_counter()
    while True:
        tracing = args.trace == 1 and len(traced) <= len(untraced)
        if tracing:
            tracer.install(spans.TARGETS)
        gc.collect()
        try:
            this = workload.run_round(clock, checker)
        finally:
            tracer.uninstall()
        (traced if tracing else untraced).append(this)
        done = traced + untraced
        if this.ratios != done[0].ratios:
            checker.fail(f"round {len(done)} produced different CCTs from round 1")
        elapsed = perf_counter() - begin
        if elapsed * (len(done) + 1) / len(done) > args.seconds and (args.trace == 0 or traced and untraced):
            break

    rounds = traced + untraced
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace == 1:
        metrics = per_layer(tracer, traced, untraced)
        units = dict(PER_LAYER)
        print(self_time_table(tracer, traced))
        spans_path = os.path.join(os.path.dirname(args.workdir), f"spans-{args.workload}-{args.seed}.txt")
        tracer.dump(spans_path)
        print(f"spans: {os.path.relpath(spans_path)}")
    else:
        metrics = end_to_end(setup_s, rounds, clock)
        units = dict(END_TO_END)
        print("samples: " + json.dumps(
            {"rounds": len(rounds), "decisions": len(clock.samples), "cct_ratios": len(rounds[0].ratios)}
        ))
    result = {
        "correct": checker.ok,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
