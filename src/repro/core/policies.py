"""Inter-Coflow priority policies (paper §4.2).

Sunflow deliberately keeps inter-Coflow scheduling policy-agnostic: the
operator translates a high-level resource-management policy into a priority
ordering of Coflows, and Sunflow serves them in that order so that a more
prioritized Coflow is never blocked by a less prioritized one.

A policy here is an object with ``order(views) -> list`` where each view is
a :class:`CoflowView` — a snapshot of a Coflow's *remaining* demand at the
moment the scheduler replans.  The paper's evaluation uses
:class:`ShortestFirst` (shortest-Coflow-first by ``T^p_L``), the same
policy family as Varys/Aalo.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.demand import PackedDemand


@dataclass
class CoflowView:
    """Snapshot of one Coflow's remaining demand used for priority ordering.

    Attributes:
        coflow_id: trace-unique identifier.
        arrival_time: seconds; used for FIFO ordering and tie-breaking.
        remaining_times: ``{(src, dst): remaining processing seconds}``.
            Processing time already folds in the bandwidth, so policies can
            compare Coflows without knowing ``B``.
        priority_class: operator-assigned class; *lower is more important*.
            Policies order by class first, then by their own criterion.
    """

    coflow_id: int
    arrival_time: float
    remaining_times: Dict[Tuple[int, int], float] = field(default_factory=dict)
    priority_class: int = 0
    #: Precomputed bottleneck, when the caller already knows it.  The
    #: incremental replayer memoizes the value per active Coflow (demand
    #: only changes when a circuit is drained), so each replan's ordering
    #: pass skips the per-view load scan.
    bottleneck_hint: Optional[float] = None

    @property
    def bottleneck(self) -> float:
        """Remaining ``T^p_L``: the busiest port's remaining seconds of work."""
        hint = self.bottleneck_hint
        if hint is not None:
            return hint
        remaining = self.remaining_times
        if isinstance(remaining, PackedDemand) and remaining.packed_ok:
            # Same sums, re-done only on the ports written since last time.
            return remaining.bottleneck()
        # One defaultdict over both port spaces (input ``p`` → ``2p``,
        # output ``p`` → ``2p + 1``): this property runs on every view at
        # every replan.
        loads: Dict[int, float] = defaultdict(float)
        for (src, dst), p in self.remaining_times.items():
            if p > 0:
                loads[src * 2] += p
                loads[dst * 2 + 1] += p
        return max(loads.values()) if loads else 0.0

    @property
    def total_time(self) -> float:
        """Sum of remaining processing seconds across all subflows."""
        return sum(p for p in self.remaining_times.values() if p > 0)


class Policy:
    """Base class: a deterministic priority ordering over Coflow views."""

    #: Human-readable policy name, used in reports and CLI flags.
    name = "policy"

    def key(self, view: CoflowView) -> Tuple:
        """Sort key; lower sorts first (higher priority)."""
        raise NotImplementedError

    def order(self, views: Sequence[CoflowView]) -> List[CoflowView]:
        """Return views sorted from most to least prioritized."""
        return sorted(views, key=self.key)


class ShortestFirst(Policy):
    """Shortest-Coflow-first by remaining ``T^p_L`` (paper §4.2, §5.2).

    This is the policy under which the paper compares Sunflow with Varys
    and Aalo; it minimizes average CCT by serving small Coflows promptly.
    """

    name = "shortest-first"

    def key(self, view: CoflowView) -> Tuple:
        return (view.priority_class, view.bottleneck, view.arrival_time, view.coflow_id)


class Fifo(Policy):
    """First-come-first-served by arrival time."""

    name = "fifo"

    def key(self, view: CoflowView) -> Tuple:
        return (view.priority_class, view.arrival_time, view.coflow_id)


class SmallestTotalFirst(Policy):
    """Smallest total remaining demand first (an alternative size proxy)."""

    name = "smallest-total-first"

    def key(self, view: CoflowView) -> Tuple:
        return (view.priority_class, view.total_time, view.arrival_time, view.coflow_id)


class NarrowestFirst(Policy):
    """Fewest remaining subflows first (favors sparse Coflows)."""

    name = "narrowest-first"

    def key(self, view: CoflowView) -> Tuple:
        width = sum(1 for p in view.remaining_times.values() if p > 0)
        return (view.priority_class, width, view.arrival_time, view.coflow_id)


class EarliestDeadlineFirst(Policy):
    """Earliest-deadline-first for latency-sensitive Coflows (§4.2).

    The paper's second usage scenario subdivides Coflows into
    latency-sensitive vs latency-tolerant; the classic way to serve the
    sensitive ones is by absolute deadline.  Coflows without a deadline
    sort after all deadlined ones, by shortest-first among themselves.

    Args:
        deadlines: ``{coflow_id: absolute deadline seconds}``.
    """

    name = "earliest-deadline-first"

    def __init__(self, deadlines: Mapping[int, float]) -> None:
        self.deadlines = dict(deadlines)

    def key(self, view: CoflowView) -> Tuple:
        deadline = self.deadlines.get(view.coflow_id)
        has_deadline = 0 if deadline is not None else 1
        return (
            view.priority_class,
            has_deadline,
            deadline if deadline is not None else view.bottleneck,
            view.arrival_time,
            view.coflow_id,
        )


class ClassThen(Policy):
    """Strict priority classes, refined by another policy within a class.

    Models the paper's privileged-vs-regular-user and multi-stage-job
    scenarios: the operator assigns each Coflow a class (smaller = more
    important) and picks a secondary policy to break ties inside a class.
    """

    name = "class-then"

    def __init__(self, within: Policy) -> None:
        self.within = within
        self.name = f"class-then-{within.name}"

    def key(self, view: CoflowView) -> Tuple:
        return (view.priority_class,) + tuple(self.within.key(view)[1:])


def views_from_coflows(
    coflows,
    bandwidth_bps: float,
    priority_classes: Optional[Mapping[int, int]] = None,
) -> List[CoflowView]:
    """Build :class:`CoflowView` snapshots for whole (unstarted) Coflows."""
    if priority_classes is None:
        priority_classes = {}
    views = []
    for coflow in coflows:
        views.append(
            CoflowView(
                coflow_id=coflow.coflow_id,
                arrival_time=coflow.arrival_time,
                remaining_times=coflow.processing_times(bandwidth_bps),
                priority_class=priority_classes.get(coflow.coflow_id, 0),
            )
        )
    return views


#: Registry used by the CLI and the benchmark harness.  (Policies needing
#: per-Coflow metadata — EarliestDeadlineFirst, ClassThen — are built
#: programmatically and are not listed here.)
POLICIES: Dict[str, Policy] = {
    policy.name: policy
    for policy in (ShortestFirst(), Fifo(), SmallestTotalFirst(), NarrowestFirst())
}
