"""Solstice circuit scheduler (Liu et al., CoNEXT 2015; paper §3.1.1).

Solstice is the strongest preemptive baseline in the paper.  Two stages:

1. **QuickStuff** — pad the demand matrix with dummy demand until every row
   and column sums to the same value.  The padded matrix always admits a
   perfect matching over its positive entries.
2. **BigSlice** — repeatedly extract a perfect matching over entries at
   least a threshold ``r`` (starting at the largest power of two not
   exceeding the biggest entry and halving on failure), scheduling each
   matching as an assignment of duration ``r``.

The geometric threshold schedule leaves a fine-grained tail; we drain it
with an exact Birkhoff–von-Neumann decomposition once ``r`` falls below the
smallest positive entry, so the emitted schedule covers the demand exactly.
This mirrors Solstice's long tail of short slots (and is what produces the
many switching events Figure 5 counts).

The pipeline runs on the numpy kernel layer (:mod:`repro.kernels`) by
default — demand stays a ``float64`` ndarray from :func:`compact_demand`
through stuffing, matching, and the BvN tail — and falls back to the
retained pure-Python references when ``REPRO_KERNEL=python``.  Both paths
emit identical schedules (the differential tests assert it).
"""

from __future__ import annotations

from typing import List, Mapping

import numpy as np

from repro.core.prt import TIME_EPS
from repro.kernels import numpy_enabled
from repro.kernels.decomposition import birkhoff_von_neumann as _bvn_kernel
from repro.kernels.matching import matching_from_matrix as _matching_kernel
from repro.kernels.matrix import quick_stuff as _quick_stuff_kernel
from repro.perf import scheduler_counters
from repro.schedulers.base import (
    Assignment,
    AssignmentSchedule,
    AssignmentScheduler,
    Circuit,
    compact_demand,
)

#: Entries below this fraction of the largest entry are treated as drained
#: (see :func:`_drained_cutoff`).
_ZERO_FRACTION = 1e-9


def _drained_cutoff(peak: float) -> float:
    """The level at or below which a stuffed entry counts as drained.

    Relative to the peak, to absorb the subtraction crumbs a halving
    cascade leaves, but never above the executor's ``TIME_EPS``: the
    executor finishes a circuit only once it has served all but
    ``TIME_EPS`` of it, so a larger cutoff would leave real demand
    unscheduled on every coflow whose largest entry passes one second.
    """
    return min(peak * _ZERO_FRACTION, TIME_EPS)


class SolsticeScheduler(AssignmentScheduler):
    """QuickStuff + BigSlice, with an exact BvN tail drain.

    Args:
        tail_fraction: once the halving threshold falls below this fraction
            of the largest stuffed entry, the residual is drained exactly
            with a BvN decomposition instead of halving further.  Real
            demands have unbounded binary expansions, so without a floor
            the threshold cascade would emit arbitrarily short slots; the
            floor mirrors Solstice's demand quantum.
    """

    name = "solstice"

    def __init__(self, tail_fraction: float = 2.0**-10) -> None:
        if not 0 < tail_fraction < 1:
            raise ValueError(f"tail_fraction must be in (0, 1), got {tail_fraction!r}")
        self.tail_fraction = tail_fraction

    def schedule(
        self, demand_times: Mapping[Circuit, float], num_ports: int
    ) -> AssignmentSchedule:
        matrix, src_labels, dst_labels = compact_demand(demand_times)
        if matrix.size == 0:
            return AssignmentSchedule(assignments=[])
        if numpy_enabled():
            stuffed, _dummy = _quick_stuff_kernel(matrix)
            assignments = _big_slice_kernel(stuffed, self.tail_fraction)
        else:
            from repro.matching.stuffing_reference import quick_stuff

            stuffed_list, _dummy = quick_stuff(matrix.tolist())
            assignments = _big_slice_reference(stuffed_list, self.tail_fraction)
        scheduler_counters.inc("slices_emitted", len(assignments))
        return AssignmentSchedule(
            assignments=[
                _relabel(assignment, src_labels, dst_labels)
                for assignment in assignments
            ]
        )


def _initial_threshold(peak: float) -> float:
    """Largest power of two <= peak (works for sub-second values too)."""
    threshold = 1.0
    while threshold > peak:
        threshold /= 2.0
    while threshold * 2.0 <= peak:
        threshold *= 2.0
    return threshold


def _big_slice_kernel(stuffed: np.ndarray, tail_fraction: float) -> List[Assignment]:
    """Threshold-halving decomposition over an ndarray (kernel backend).

    Step-for-step twin of :func:`_big_slice_reference`: same thresholds,
    same matchings (the kernel matcher reproduces the reference
    Hopcroft–Karp), same subtractions — only the per-iteration O(n²)
    Python scans become vectorized reductions.
    """
    work = stuffed.copy()
    peak = float(work.max()) if work.size else 0.0
    if peak <= 0:
        return []
    zero = _drained_cutoff(peak)
    tail_threshold = peak * tail_fraction
    threshold = _initial_threshold(peak)

    assignments: List[Assignment] = []
    while True:
        positive = work[work > zero]
        if positive.size == 0:
            break
        smallest = float(positive.min())
        if threshold <= smallest or threshold <= tail_threshold:
            assignments.extend(_bvn_tail_kernel(work, zero))
            break
        matching = _matching_kernel(work, threshold=threshold - zero)
        if matching is None:
            threshold /= 2.0
            continue
        circuits = tuple(sorted(matching.items()))
        assignments.append(Assignment(circuits=circuits, duration=threshold))
        rows = np.fromiter(matching.keys(), dtype=np.intp, count=len(matching))
        cols = np.fromiter(matching.values(), dtype=np.intp, count=len(matching))
        values = work[rows, cols] - threshold
        values[values < zero] = 0.0
        work[rows, cols] = values
    return assignments


def _bvn_tail_kernel(work: np.ndarray, zero: float) -> List[Assignment]:
    """Drain the residual equal-line-sum ndarray exactly via BvN."""
    # Sequential sum to match the reference's drain gate bit for bit.
    residual_total = sum(sum(row) for row in work.tolist())
    if residual_total <= zero:
        return []
    terms = _bvn_kernel(work)
    tail = []
    for term in terms:
        if term.weight > zero:
            circuits = tuple(sorted(term.permutation.items()))
            tail.append(Assignment(circuits=circuits, duration=term.weight))
    work[:] = 0.0
    return tail


def _big_slice_reference(
    stuffed: List[List[float]], tail_fraction: float
) -> List[Assignment]:
    """Threshold-halving decomposition (retained pure-Python path)."""
    from repro.matching.birkhoff_reference import birkhoff_von_neumann
    from repro.matching.hopcroft_karp_reference import matching_from_matrix

    work = [row[:] for row in stuffed]
    peak = max((value for row in work for value in row), default=0.0)
    if peak <= 0:
        return []
    zero = _drained_cutoff(peak)
    tail_threshold = peak * tail_fraction
    threshold = _initial_threshold(peak)

    assignments: List[Assignment] = []
    while True:
        positive = [value for row in work for value in row if value > zero]
        if not positive:
            break
        smallest = min(positive)
        if threshold <= smallest or threshold <= tail_threshold:
            # Exact tail drain: BvN pulls out perfect matchings weighted by
            # the minimum matched entry, terminating with full coverage.
            residual_total = sum(sum(row) for row in work)
            if residual_total > zero:
                for term in birkhoff_von_neumann(work):
                    if term.weight > zero:
                        circuits = tuple(sorted(term.permutation.items()))
                        assignments.append(
                            Assignment(circuits=circuits, duration=term.weight)
                        )
            for row in work:
                for j in range(len(row)):
                    row[j] = 0.0
            break
        matching = matching_from_matrix(work, threshold=threshold - zero)
        if matching is None:
            threshold /= 2.0
            continue
        circuits = tuple(sorted(matching.items()))
        assignments.append(Assignment(circuits=circuits, duration=threshold))
        for i, j in matching.items():
            work[i][j] -= threshold
            if work[i][j] < zero:
                work[i][j] = 0.0
    return assignments


def _relabel(
    assignment: Assignment, src_labels: List[int], dst_labels: List[int]
) -> Assignment:
    """Map compact-matrix indices back to fabric port numbers.

    Circuits touching a virtual pad port (label < 0) carry only dummy
    demand and are dropped — the executor would waste time holding them,
    exactly as Solstice does, so we keep them *unless* both endpoints are
    virtual (those circuits can never carry even dummy bytes for a real
    port and exist purely to square the matrix).
    """
    circuits = []
    for i, j in assignment.circuits:
        src, dst = src_labels[i], dst_labels[j]
        if src < 0 and dst < 0:
            continue
        circuits.append((src, dst))
    return Assignment(circuits=tuple(circuits), duration=assignment.duration)
