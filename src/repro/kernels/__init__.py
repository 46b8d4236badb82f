"""Backend selection, and the vectorized kernels behind the baselines.

**One backend switch.**  ``REPRO_KERNEL`` picks the implementation of
every layer that has two:

* unset (or ``numpy``, its historical name) — the fastest path that is
  available: the compiled Sunflow planner and PRT transactions
  (:mod:`repro._native`) when the extension is built and matches the
  PRT layout, the pure-Python loops otherwise (silently), and the numpy
  kernels below for the baseline schedulers and the packet simulator;
* ``python`` — every pure-Python twin.  These are the differential
  oracles the fast paths are tested against bit for bit, and a
  numpy-free escape hatch;
* ``native`` — the same as unset, but asking for the compiled planner
  explicitly: when the extension is missing the pure-Python loops run
  and one :class:`RuntimeWarning` per process says so.

:func:`native_kernel` is the gate every planner and PRT transaction call
site asks; :func:`active_backend` and :func:`numpy_enabled` serve the
scheduler and packet kernels.  The backend is read from the environment
per call, so tests and sweeps can flip it without reimporting anything.
This module imports neither numpy nor the extension on its own, so the
circuit replay that only needs the gate stays lean.

**Demand-matrix kernels.**  The assignment-based baselines the paper
sweeps Sunflow against (Solstice, TMS, Edmond — see
:mod:`repro.schedulers`) all reduce to dense linear algebra over an
``n × n`` demand matrix: line sums and stuffing, repeated bipartite
matchings, Hungarian assignments, and Birkhoff–von-Neumann
decompositions.  The submodules here are the numpy-backed implementation
of that substrate (loaded on first use); demand matrices flow through it
as contiguous ``float64`` ndarrays, canonicalized once at the boundary
by :func:`as_demand_matrix`.  Every kernel has a pure-Python twin in the
``repro.matching.*_reference`` modules; the kernels follow the reference
algorithms step for step, including iteration order and tie-breaking, so
both sides emit *identical* assignments (``tests/kernels/`` enforces
this).  The only tolerated divergence is last-ulp float drift where
numpy's pairwise summation replaces Python's sequential ``sum`` (Sinkhorn
line sums), which the schedulers absorb well inside their ``1e-9``
duration tolerance.

**Packet-simulator kernels.**  :mod:`repro.kernels.allocation` extends
the layer to the fluid packet simulator: struct-of-arrays flow state
(``FlowArrays``) with vectorized Varys MADD, Aalo D-CLAS, completion
search, and drain passes, dispatched by
:func:`repro.sim.packet_sim.simulate_packet` on the same switch.  Unlike
the scheduler kernels these promise *strictly* bitwise-identical event
sequences and CCT records against the dict-based reference engine.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro._lazy import lazy_exports

#: Environment variable selecting the backend at runtime.
BACKEND_ENV = "REPRO_KERNEL"

#: Recognized backend names (see the module docstring).  ``numpy`` is
#: what :func:`active_backend` reports when the variable is unset.
BACKENDS = ("numpy", "python", "native")

_UNRESOLVED = object()

#: ``repro._native`` once resolved: the module, or None when it is not
#: built (or was built against another PRT layout).  Resolved on first
#: use, because the layout version lives in :mod:`repro.core.prt`, which
#: itself asks this gate.
_native: Any = _UNRESOLVED

_warned_native_missing = False


def active_backend() -> str:
    """The backend named by ``REPRO_KERNEL`` right now.

    Reads the environment on every call (it is consulted once per
    ``schedule()`` or planner call, not in inner loops), so worker
    processes inherit it and tests can flip it in place.

    Raises:
        ValueError: if ``REPRO_KERNEL`` names an unknown backend.
    """
    value = os.environ.get(BACKEND_ENV, "").strip().lower()
    if not value:
        return "numpy"
    if value not in BACKENDS:
        raise ValueError(
            f"{BACKEND_ENV}={value!r} is not a known kernel backend; "
            f"expected one of {BACKENDS}"
        )
    return value


def numpy_enabled() -> bool:
    """True when the numpy scheduler and packet kernels are active
    (every backend except ``python``)."""
    return active_backend() != "python"


def native_module():
    """``repro._native`` when it is built and layout-compatible, else None.

    Whether the extension *exists*, regardless of the backend selected;
    :func:`native_kernel` is the gate that also honours ``REPRO_KERNEL``.
    """
    global _native
    if _native is _UNRESOLVED:
        from repro.core.prt import PRT_LAYOUT_VERSION

        try:
            from repro import _native as module
        except ImportError:  # pragma: no cover - depends on the build
            module = None
        if module is not None and (
            getattr(module, "LAYOUT_VERSION", None) != PRT_LAYOUT_VERSION
            or not hasattr(module, "transform_continuation")
        ):
            module = None  # pragma: no cover - stale build artifact
        _native = module
    return _native


def native_kernel() -> Optional[Any]:
    """The compiled kernel module when the selected backend runs it, else
    None: the one gate the planner, the PRT transactions and the
    continuation transform consult per call.

    Unset (or ``numpy``) uses the extension when it is built and falls
    back silently; ``python`` never uses it; an explicit ``native``
    without the extension falls back with a one-time
    :class:`RuntimeWarning`.
    """
    backend = active_backend()
    if backend == "python":
        return None
    native = _native
    if native is _UNRESOLVED:
        native = native_module()
    if native is None and backend == "native":
        global _warned_native_missing
        if not _warned_native_missing:
            _warned_native_missing = True
            warnings.warn(
                "REPRO_KERNEL=native requested but the repro._native "
                "extension is not available; using the pure-Python planner "
                "and the pure-Python PRT transaction paths (build it with "
                "`python setup.py "
                "build_ext --inplace` or by installing the package with a "
                "C compiler present)",
                RuntimeWarning,
                stacklevel=3,
            )
    return native


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily pin the backend (tests and benchmarks)."""
    if name not in BACKENDS:
        raise ValueError(f"unknown kernel backend {name!r}; expected one of {BACKENDS}")
    previous = os.environ.get(BACKEND_ENV)
    os.environ[BACKEND_ENV] = name
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(BACKEND_ENV, None)
        else:
            os.environ[BACKEND_ENV] = previous


#: Numpy-backed names re-exported from the submodules, loaded on first
#: access so importing the gate never imports numpy.
_EXPORTS = {
    "matrix": (
        "as_demand_matrix",
        "line_sums",
        "has_equal_line_sums",
        "quick_stuff",
        "sinkhorn_scale",
    ),
    "matching": ("matching_from_matrix", "SupportMatcher"),
    "assignment": (
        "min_cost_assignment",
        "max_weight_assignment",
        "max_weight_matching",
    ),
    "decomposition": ("birkhoff_von_neumann",),
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "active_backend",
    "numpy_enabled",
    "native_module",
    "native_kernel",
    "use_backend",
    *(name for names in _EXPORTS.values() for name in names),
]
