"""Tests for the Solstice baseline scheduler."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import use_backend
from repro.schedulers.solstice import SolsticeScheduler
from repro.sim.assignment_exec import execute_assignments


@st.composite
def sparse_demands(draw, max_ports=6, max_flows=10):
    num_flows = draw(st.integers(min_value=1, max_value=max_flows))
    demand = {}
    for _ in range(num_flows):
        src = draw(st.integers(min_value=0, max_value=max_ports - 1))
        dst = draw(st.integers(min_value=0, max_value=max_ports - 1))
        demand[(src, dst)] = draw(st.floats(min_value=0.001, max_value=5.0))
    return demand


class TestScheduleShape:
    def test_empty_demand(self):
        schedule = SolsticeScheduler().schedule({}, 8)
        assert schedule.assignments == []

    def test_single_flow_single_assignment_family(self):
        schedule = SolsticeScheduler().schedule({(0, 1): 1.0}, 8)
        assert schedule.covers({(0, 1): 1.0})
        # One flow: all service on its circuit.
        assert set(schedule.service_per_circuit()) == {(0, 1)}

    def test_permutation_demand(self):
        demand = {(i, i): 1.0 for i in range(4)}
        schedule = SolsticeScheduler().schedule(demand, 4)
        assert schedule.covers(demand)

    def test_assignments_are_matchings(self):
        demand = {(0, 1): 2.0, (0, 2): 1.0, (1, 1): 1.5, (2, 0): 0.7}
        schedule = SolsticeScheduler().schedule(demand, 4)
        for assignment in schedule.assignments:
            sources = [src for src, _ in assignment.circuits]
            destinations = [dst for _, dst in assignment.circuits]
            assert len(set(sources)) == len(sources)
            assert len(set(destinations)) == len(destinations)

    def test_durations_positive(self):
        demand = {(0, 1): 0.37, (1, 0): 1.23}
        schedule = SolsticeScheduler().schedule(demand, 4)
        assert all(a.duration > 0 for a in schedule.assignments)

    def test_tail_fraction_validation(self):
        with pytest.raises(ValueError):
            SolsticeScheduler(tail_fraction=0.0)
        with pytest.raises(ValueError):
            SolsticeScheduler(tail_fraction=1.5)


class TestCoverage:
    @given(sparse_demands())
    @settings(max_examples=60, deadline=None)
    def test_schedule_always_covers_demand(self, demand):
        schedule = SolsticeScheduler().schedule(demand, 8)
        assert schedule.covers(demand)

    @given(sparse_demands())
    @settings(max_examples=60, deadline=None)
    def test_all_assignments_are_matchings(self, demand):
        schedule = SolsticeScheduler().schedule(demand, 8)
        for assignment in schedule.assignments:
            sources = [src for src, _ in assignment.circuits]
            destinations = [dst for _, dst in assignment.circuits]
            assert len(set(sources)) == len(sources)
            assert len(set(destinations)) == len(destinations)


class TestTinyEntriesUnderLargePeak:
    """Regression: the drained cutoff used to scale with the peak alone,
    so with a 100 s entry anything under 1e-7 s — still far above the
    executor's ``TIME_EPS`` — was zeroed and never scheduled."""

    # Line sums already equal apart from the tiny entries, so stuffing
    # pads nothing onto them.
    DEMAND = {(0, 0): 100.0, (1, 1): 100.0, (2, 2): 100.0, (0, 1): 5e-8, (1, 2): 5e-8}

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_small_entry_executed_to_completion(self, backend):
        with use_backend(backend):
            schedule = SolsticeScheduler().schedule(self.DEMAND, 3)
        assert schedule.covers(self.DEMAND)
        execution = execute_assignments(schedule, self.DEMAND, delta=0.01)
        assert execution.finished
        assert set(execution.finish_times) == set(self.DEMAND)

    def test_backends_emit_identical_schedules(self):
        emitted = []
        for backend in ("numpy", "python"):
            with use_backend(backend):
                schedule = SolsticeScheduler().schedule(self.DEMAND, 3)
            emitted.append(
                [(a.circuits, a.duration.hex()) for a in schedule.assignments]
            )
        assert emitted[0] == emitted[1]


class TestPreemptiveBehaviour:
    def test_flows_are_split_across_assignments(self):
        """Solstice's signature inefficiency: a flow's service is spread
        over several assignments (unlike Sunflow's single reservation)."""
        rng = random.Random(3)
        demand = {
            (i, j): rng.uniform(0.2, 2.0) for i in range(4) for j in range(4)
        }
        schedule = SolsticeScheduler().schedule(demand, 4)
        appearances = {}
        for assignment in schedule.assignments:
            for circuit in assignment.circuits:
                appearances[circuit] = appearances.get(circuit, 0) + 1
        assert max(appearances.values()) > 1

    def test_coarser_tail_gives_fewer_assignments(self):
        rng = random.Random(3)
        demand = {(i, j): rng.uniform(0.2, 2.0) for i in range(4) for j in range(4)}
        fine = SolsticeScheduler(tail_fraction=2.0**-12).schedule(demand, 4)
        coarse = SolsticeScheduler(tail_fraction=2.0**-4).schedule(demand, 4)
        assert coarse.num_assignments <= fine.num_assignments
