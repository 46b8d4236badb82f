"""The single backend gate, the lean circuit-replay import path, and the
write-patched per-Coflow reads (SEBF bottleneck, completion counter).

``repro.kernels.native_kernel`` decides for the planner, the PRT
transactions and the continuation transform at once: unset means the
compiled extension when it is built, ``python`` means every pure-Python
twin, and a missing extension falls back silently unless ``native`` was
asked for explicitly.
"""

from __future__ import annotations

import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.kernels as kernels_mod
from repro.core.coflow import Coflow, CoflowTrace
from repro.core.demand import PackedDemand
from repro.core.policies import CoflowView
from repro.core.prt import TIME_EPS, PortReservationTable
from repro.core.starvation import StarvationGuard
from repro.core.sunflow import SunflowScheduler, planner_backend
from repro.kernels import BACKEND_ENV, native_kernel, native_module, use_backend
from repro.sim.circuit_sim import InterCoflowSimulator
from repro.units import GBPS, MB, MS

DEMAND = {(0, 1): 1.25, (1, 0): 0.5, (2, 1): 0.75}


def _plan(demand=DEMAND):
    prt = PortReservationTable()
    schedule = SunflowScheduler().schedule_demand(prt, 7, demand)
    return [
        (r.src, r.dst, r.start.hex(), r.end.hex(), r.setup.hex())
        for r in schedule.reservations
    ]


def _runtime_warnings(caught):
    return [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestDefaultGate:
    def test_unset_selects_native_when_built(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        if native_module() is None:
            pytest.skip("repro._native is not built")
        assert native_kernel() is native_module()
        assert planner_backend() == "native"

    def test_numpy_name_is_the_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numpy")
        assert native_kernel() is native_module()

    def test_python_selects_every_twin(self):
        with use_backend("python"):
            assert native_kernel() is None
            assert planner_backend() == "python"

    def test_unset_and_python_plan_identically(self, monkeypatch):
        with use_backend("python"):
            expected = _plan()
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert _plan() == expected

    def test_unknown_backend_rejected_by_the_gate(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "fortran")
        with pytest.raises(ValueError, match="fortran"):
            native_kernel()


class TestAbsentExtension:
    @pytest.fixture
    def absent(self, monkeypatch):
        monkeypatch.setattr(kernels_mod, "_native", None)
        monkeypatch.setattr(kernels_mod, "_warned_native_missing", False)

    def test_unset_falls_back_silently(self, absent, monkeypatch):
        with use_backend("python"):
            expected = _plan()
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert planner_backend() == "python"
            assert _plan() == expected
            prt = PortReservationTable()
            token = prt.checkpoint()
            prt.reserve(0, 1, 0.0, 1.0, 1, 0.1)
            prt.rollback(token)
        assert not _runtime_warnings(caught)

    def test_explicit_native_warns_once_across_layers(self, absent, monkeypatch):
        """One gate, one warning: the planner and the PRT transactions
        share it, so a process is told once, not once per layer."""
        monkeypatch.setenv(BACKEND_ENV, "native")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert planner_backend() == "python"
            _plan()
            prt = PortReservationTable()
            token = prt.checkpoint()
            prt.reserve(0, 1, 0.0, 1.0, 1, 0.1)
            prt.rollback(token)
        assert len(_runtime_warnings(caught)) == 1


#: The circuit-replay modules and the gate: importing any of them must
#: load neither numpy nor the baseline schedulers.
LEAN_MODULES = (
    "repro.sim.circuit_sim",
    "repro.sim.engine",
    "repro.sim.streaming",
    "repro.workloads.facebook",
    "repro.workloads.stream",
    "repro.kernels",
)


@pytest.mark.parametrize("module", LEAN_MODULES)
def test_circuit_replay_imports_stay_lean(module):
    code = (
        "import importlib, sys\n"
        f"importlib.import_module({module!r})\n"
        "assert 'numpy' not in sys.modules, 'numpy'\n"
        "assert 'repro.schedulers' not in sys.modules, 'repro.schedulers'\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_lazy_package_exports_resolve():
    import repro
    import repro.sim
    import repro.workloads

    for package in (repro.kernels, repro.sim, repro.workloads):
        for name in package.__all__:
            assert getattr(package, name) is not None, name
    assert repro.api.simulate is not None
    assert repro.sweep.SweepSpec is not None
    with pytest.raises(AttributeError):
        repro.sim.no_such_name


# ----------------------------------------------------------------------
# PackedDemand: patched bottleneck and completion counter
# ----------------------------------------------------------------------
def _rescan(demand):
    """The full rescan the patched reads must reproduce bit for bit."""
    bottleneck = CoflowView(0, 0.0, dict(demand)).bottleneck
    done = all(p <= TIME_EPS for p in demand.values())
    return bottleneck, done


def _assert_matches_rescan(demand):
    bottleneck, done = _rescan(demand)
    assert demand.packed_ok
    assert demand.bottleneck().hex() == bottleneck.hex()
    assert CoflowView(0, 0.0, demand).bottleneck.hex() == bottleneck.hex()
    assert (demand.open_circuits == 0) == done


_SECONDS = st.one_of(
    st.floats(min_value=1e-12, max_value=200.0, allow_nan=False),
    st.sampled_from([0.0, TIME_EPS, TIME_EPS * 2, 5e-8]),
)
_CIRCUITS = st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), _SECONDS, min_size=1, max_size=24
)
_WRITE = st.tuples(
    st.sampled_from(["advance", "guard"]),
    st.integers(0, 10_000),
    st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
)


class TestPackedReads:
    @settings(max_examples=150, deadline=None)
    @given(items=_CIRCUITS, writes=st.lists(_WRITE, max_size=40))
    def test_service_writes_keep_reads_equal_to_rescan(self, items, writes):
        """``_advance`` banks ``max(0.0, remaining - served)`` on served
        circuits; guard service does the same for circuits above
        ``TIME_EPS`` only.  After any sequence of either, the patched
        reads equal a fresh rescan exactly."""
        demand = PackedDemand(items)
        keys = list(items)
        _assert_matches_rescan(demand)
        for kind, pick, served in writes:
            circuit = keys[pick % len(keys)]
            if kind == "guard" and not demand[circuit] > TIME_EPS:
                continue
            demand[circuit] = max(0.0, demand[circuit] - served)
            _assert_matches_rescan(demand)

    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(seed=st.integers(0, 2**16), guarded=st.booleans())
    def test_replay_states_match_rescan_after_every_advance(self, seed, guarded):
        """The same check on the writes a real replay makes, with and
        without starvation-guard service."""
        import random

        rng = random.Random(seed)
        coflows = []
        for cid in range(1, 7):
            demand = {
                (rng.randrange(5), rng.randrange(5)): rng.uniform(0.5, 30) * MB
                for _ in range(rng.randrange(1, 6))
            }
            coflows.append(
                Coflow.from_demand(cid, demand, arrival_time=rng.uniform(0, 0.3))
            )
        trace = CoflowTrace(num_ports=5, coflows=coflows)
        guard = (
            StarvationGuard(num_ports=5, period=0.05, tau=0.02, delta=10 * MS)
            if guarded
            else None
        )
        simulator = InterCoflowSimulator(
            trace, bandwidth_bps=1 * GBPS, delta=10 * MS, guard=guard
        )
        advanced = {"events": 0}
        original = simulator._advance

        def checked_advance(active, schedules, start, end):
            original(active, schedules, start, end)
            for state in active.values():
                _assert_matches_rescan(state.remaining)
                assert state.done == _rescan(state.remaining)[1]
            advanced["events"] += 1

        simulator._advance = checked_advance
        report = simulator.run()
        assert advanced["events"] > 0
        assert len(report.records) == len(coflows)
