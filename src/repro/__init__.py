"""Sunflow reproduction: optical circuit scheduling for Coflows (CoNEXT 2016).

Public API re-exported at package level; see README.md for a tour.
"""

from repro import units
from repro.core import (
    Coflow,
    CoflowCategory,
    CoflowSchedule,
    CoflowTrace,
    Flow,
    PortReservationTable,
    ReservationOrder,
    ShortestFirst,
    StarvationGuard,
    SunflowScheduler,
    circuit_lower_bound,
    packet_lower_bound,
)

from repro._lazy import lazy_exports

# The simulation facade and the sweep engine load every simulator and
# baseline scheduler (and numpy); they are imported on first access.
__getattr__, __dir__ = lazy_exports(__name__, {"api": (), "sweep": ()})

__version__ = "1.0.0"

__all__ = [
    "units",
    "api",
    "sweep",
    "Coflow",
    "CoflowCategory",
    "CoflowSchedule",
    "CoflowTrace",
    "Flow",
    "PortReservationTable",
    "ReservationOrder",
    "ShortestFirst",
    "StarvationGuard",
    "SunflowScheduler",
    "circuit_lower_bound",
    "packet_lower_bound",
]
