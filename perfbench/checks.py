"""Output checks, computed from the benchmark's own inputs.

Nothing here imports the program.  The lower bounds come straight from
the generated records (paper Equations 2-4), and every check is a
property the method must have, not a comparison against a stored copy
of some earlier output:

* every coflow completes exactly once;
* CCT >= T^c_L under a circuit scheduler, CCT >= T^p_L on a packet
  switch;
* an isolated Sunflow coflow finishes within 2 T^c_L (Lemma 1);
* a schedule's planned service covers every circuit's demand;
* a StreamingReport's count and mean equal those of the records it was
  fed, and its quantiles lie within the sketch's documented rank error.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Link rate and reconfiguration delay every workload runs at (the
#: paper's 1 Gbps and 10 ms, also the program's defaults).
BANDWIDTH_BPS = 1e9
DELTA_S = 0.010

#: Bytes per megabyte in the trace format.
MB = 10**6

#: Time tolerance the program's executors use (``TIME_EPS``).
TIME_EPS = 1e-9

#: Relative slack for comparing sums accumulated in different orders.
REL_TOL = 1e-9

#: Rank error the quantile sketch documents at its default compression.
DIGEST_RANK_ERROR = 0.02

Circuit = Tuple[int, int]


@dataclass(frozen=True)
class Bounds:
    packet: float  # T^p_L
    circuit: float  # T^c_L


def demand_seconds(record) -> Dict[Circuit, float]:
    """Processing seconds per circuit; a reducer's MB split evenly over
    the mappers, as the trace format prescribes."""
    num_mappers = len(record.mappers)
    demand: Dict[Circuit, float] = {}
    for dst, mb in record.reducers:
        seconds = mb * MB / num_mappers * 8.0 / BANDWIDTH_BPS
        for src in record.mappers:
            demand[(src, dst)] = demand.get((src, dst), 0.0) + seconds
    return demand


def bounds(record) -> Bounds:
    """T^p_L (busiest port's transmit time) and T^c_L (plus one delta per
    flow on that port) of one coflow."""
    load: Dict[Tuple[str, int], float] = {}
    flows: Dict[Tuple[str, int], int] = {}
    for (src, dst), seconds in demand_seconds(record).items():
        for port in (("in", src), ("out", dst)):
            load[port] = load.get(port, 0.0) + seconds
            flows[port] = flows.get(port, 0) + 1
    return Bounds(
        packet=max(load.values()),
        circuit=max(load[port] + DELTA_S * flows[port] for port in load),
    )


def trace_bounds(records: Iterable) -> Dict[int, Bounds]:
    return {record.coflow_id: bounds(record) for record in records}


def _at_least(value: float, floor: float) -> bool:
    return value >= floor * (1.0 - REL_TOL) - TIME_EPS


class Checker:
    """Collects check failures; a run is correct when none were found."""

    def __init__(self) -> None:
        self.problems: List[str] = []
        self.count = 0

    @property
    def ok(self) -> bool:
        return self.count == 0

    def fail(self, message: str) -> None:
        self.count += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    # ------------------------------------------------------------------
    def completions(
        self,
        label: str,
        done: Sequence[Tuple[int, float, Optional[float]]],
        expected: Mapping[int, Bounds],
        floor: str,
    ) -> List[float]:
        """Check ``(coflow id, CCT, program's T^p_L or None)`` triples.

        Every expected coflow must appear exactly once, each CCT must
        reach its ``floor`` bound (``"circuit"`` or ``"packet"``), and a
        T^p_L the program reports must equal ours.  Returns CCT / T^p_L
        per coflow, in the order given.
        """
        seen = set()
        ratios = []
        for cid, cct, program_packet in done:
            bound = expected.get(cid)
            if bound is None:
                self.fail(f"{label}: unknown coflow {cid} completed")
                continue
            if cid in seen:
                self.fail(f"{label}: coflow {cid} completed twice")
            seen.add(cid)
            if not _at_least(cct, getattr(bound, floor)):
                self.fail(f"{label}: coflow {cid} CCT {cct!r} below T_L {getattr(bound, floor)!r}")
            if program_packet is not None and not math.isclose(
                program_packet, bound.packet, rel_tol=REL_TOL
            ):
                self.fail(
                    f"{label}: coflow {cid} reports T^p_L {program_packet!r}, inputs give {bound.packet!r}"
                )
            ratios.append(cct / bound.packet)
        missing = len(set(expected) - seen)
        if missing:
            self.fail(f"{label}: {missing} coflows never completed")
        return ratios

    def lemma1(self, label: str, cid: int, cct: float, bound: Bounds) -> None:
        if cct > 2.0 * bound.circuit * (1.0 + REL_TOL) + TIME_EPS:
            self.fail(f"{label}: coflow {cid} CCT {cct!r} exceeds 2 T^c_L = {2 * bound.circuit!r}")

    def streaming(self, report, teed: Sequence[float]) -> None:
        """``report`` is a StreamingReport fed exactly the CCTs ``teed``."""
        if report.count != len(teed):
            self.fail(f"stream: report counts {report.count}, {len(teed)} records were fed")
            return
        mean = sum(teed) / len(teed)
        if not math.isclose(report.average_cct(), mean, rel_tol=1e-12):
            self.fail(f"stream: report mean CCT {report.average_cct()!r}, records give {mean!r}")
        ordered = sorted(teed)
        n = len(ordered)
        for p in (50, 90, 99):
            estimate = report.cct_percentile(p)
            low = bisect.bisect_left(ordered, estimate) / n
            high = bisect.bisect_right(ordered, estimate) / n
            if not low - DIGEST_RANK_ERROR <= p / 100.0 <= high + DIGEST_RANK_ERROR:
                self.fail(
                    f"stream: p{p} CCT {estimate!r} sits at rank {low:.4f}-{high:.4f}, "
                    f"beyond the {DIGEST_RANK_ERROR} rank error"
                )


def covers(service: Mapping[Circuit, float], demand: Mapping[Circuit, float]) -> bool:
    """True when planned ``service`` meets every circuit's demand."""
    return all(
        service.get(circuit, 0.0) >= seconds * (1.0 - 1e-12) - TIME_EPS
        for circuit, seconds in demand.items()
    )


def planned_service(assignments) -> Dict[Circuit, float]:
    """Seconds each circuit is held across an assignment sequence."""
    service: Dict[Circuit, float] = {}
    for assignment in assignments:
        for circuit in assignment.circuits:
            service[circuit] = service.get(circuit, 0.0) + assignment.duration
    return service


def reserved_service(reservations) -> Dict[Circuit, float]:
    """Transmit seconds (excluding setup) each circuit is reserved for."""
    service: Dict[Circuit, float] = {}
    for r in reservations:
        circuit = (r.src, r.dst)
        service[circuit] = service.get(circuit, 0.0) + (r.end - r.start - r.setup)
    return service
