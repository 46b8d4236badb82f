"""Packed per-Coflow demand state for the replan transaction hot path.

Every incremental replan repacks a Coflow's remaining demand into
consideration order: ``sorted(demand_times.items())`` plus a tuple (or
``_Entry``) per circuit, paid once per plan — the dominant Python-side
cost left after the compiled planner kernel took over the event loop.
But the demand *keys* of an active Coflow never change after admission
(service only decrements values toward zero; completed circuits keep a
zero entry), so the sort is invariant across the Coflow's lifetime.

:class:`PackedDemand` exploits that: a ``dict`` subclass that additionally
maintains the demand as struct-of-arrays columns — ``array('q')`` source
and destination ports in ``(src, dst)`` order plus a parallel
``array('d')`` of remaining times — sorted **once** at construction and
patched in place on every value write.  Consumers (the planner's entry
packing, and the ``repro._native`` kernel through the buffer protocol)
read the columns instead of re-sorting the dict per plan.

The class stays a real dict — iteration order, ``items()``, cache keys,
and every foreign driver that treats ``remaining`` as a plain mapping are
unaffected.  Any mutation the packed columns cannot mirror in place
(adding a key, deleting one, non-integer ports) flips :attr:`packed_ok`
off, and every consumer falls back to the sorted-items path, so
correctness never depends on the invariant holding.

Two per-event reads of the circuit replay ride on the same write hook:

* :meth:`PackedDemand.bottleneck` — the SEBF ordering key, the busiest
  port's remaining seconds.  A per-port circuit index is built once at
  admission; each write marks its two ports dirty, and only dirty ports
  are re-summed.  Each port sums its circuits in dict order starting
  from ``0.0``, exactly as :attr:`repro.core.policies.CoflowView.bottleneck`
  does over the whole dict, so every per-port load, and the max over
  them, is bitwise the full rescan's.
* :attr:`PackedDemand.open_circuits` — how many circuits still hold more
  than ``TIME_EPS`` seconds, kept up to date by every write, so the
  replay's completion check is O(1) instead of a scan per event.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Set, Tuple

from repro.core.prt import TIME_EPS

__all__ = ["PackedDemand"]


class PackedDemand(dict):
    """``{(src, dst): remaining}`` with sorted packed array columns.

    The columns are valid (:attr:`packed_ok`) while every key is an
    ``(int, int)`` pair that fits ``array('q')`` and no key has been
    added or removed since the last rebuild; value writes to existing
    keys are mirrored into the value column in O(1).
    """

    __slots__ = (
        "_srcs",
        "_dsts",
        "_vals",
        "_pos",
        "_packed_ok",
        "_values",
        "_port_circuits",
        "_loads",
        "_dirty",
        "_peak",
        "_open",
    )

    def __init__(self, items=()) -> None:
        super().__init__(items)
        self._srcs = array("q")
        self._dsts = array("q")
        self._vals = array("d")
        self._pos = {}
        self._packed_ok = False
        self._values: List[float] = []
        self._port_circuits: Dict[int, List[int]] = {}
        self._loads: Dict[int, float] = {}
        self._dirty: Set[int] = set()
        self._peak = 0.0
        self._open = 0
        self.repack()

    # ------------------------------------------------------------------
    @property
    def packed_ok(self) -> bool:
        """True while the packed columns mirror the dict exactly."""
        return self._packed_ok

    @property
    def columns(self) -> Tuple[array, array, array]:
        """``(srcs, dsts, vals)`` arrays in ``(src, dst)`` order.

        Only meaningful while :attr:`packed_ok`; the native kernel reads
        these through the buffer protocol.
        """
        return self._srcs, self._dsts, self._vals

    def iter_packed(self) -> Iterator[Tuple[int, int, float]]:
        """``(src, dst, remaining)`` triples in ``(src, dst)`` order."""
        return zip(self._srcs, self._dsts, self._vals)

    def repack(self) -> bool:
        """Rebuild the columns from the dict; returns :attr:`packed_ok`."""
        srcs = array("q")
        dsts = array("q")
        vals = array("d")
        values: List[float] = []
        pos = {}
        try:
            index = 0
            for key in sorted(self.keys()):
                src, dst = key
                srcs.append(src)
                dsts.append(dst)
                value = self[key]
                vals.append(value)
                values.append(value)
                pos[key] = index
                index += 1
        except (TypeError, ValueError, OverflowError):
            # Non-pair or non-integer keys (or values the double column
            # refuses): stay a plain dict.
            self._packed_ok = False
            return False
        # Per-port circuit index (input ``p`` -> ``2p``, output ``p`` ->
        # ``2p + 1``, as in ``CoflowView.bottleneck``), each port's value
        # positions listed in dict order so its load sums in that order.
        # The sums read ``_values``, a list mirror of the value column
        # holding the dict's own value objects (reading it allocates
        # nothing, unlike reading the ``array('d')``).
        port_circuits: Dict[int, List[int]] = {}
        for key in self:
            index = pos[key]
            src, dst = key
            port_circuits.setdefault(src * 2, []).append(index)
            port_circuits.setdefault(dst * 2 + 1, []).append(index)
        self._srcs = srcs
        self._dsts = dsts
        self._vals = vals
        self._pos = pos
        self._values = values
        self._port_circuits = port_circuits
        self._loads = {}
        self._dirty = set(port_circuits)
        self._peak = 0.0
        self._open = sum(1 for value in values if not value <= TIME_EPS)
        self._packed_ok = True
        return True

    # ------------------------------------------------------------------
    @property
    def open_circuits(self) -> int:
        """Circuits whose remaining time is not ``<= TIME_EPS``.

        Only meaningful while :attr:`packed_ok`.
        """
        return self._open

    def bottleneck(self) -> float:
        """Remaining ``T^p_L``: the busiest port's remaining seconds.

        Bitwise :attr:`repro.core.policies.CoflowView.bottleneck` over
        this dict, re-summing only the ports written since the last
        call.  Only meaningful while :attr:`packed_ok`.
        """
        dirty = self._dirty
        if dirty:
            values = self._values
            port_circuits = self._port_circuits
            loads = self._loads
            for port in dirty:
                load = 0.0
                for index in port_circuits[port]:
                    p = values[index]
                    if p > 0:
                        load += p
                loads[port] = load
            dirty.clear()
            self._peak = max(loads.values())
        return self._peak

    # ------------------------------------------------------------------
    # Mutators: patch the columns in place when possible, otherwise
    # invalidate them (the dict itself is always updated first).
    # ------------------------------------------------------------------
    def __setitem__(self, key, value) -> None:
        dict.__setitem__(self, key, value)
        index = self._pos.get(key)
        if index is None:
            self._packed_ok = False
            return
        try:
            self._vals[index] = value
        except TypeError:
            self._packed_ok = False
            return
        values = self._values
        was_open = not values[index] <= TIME_EPS
        values[index] = value
        now_open = not value <= TIME_EPS
        if now_open is not was_open:
            self._open += 1 if now_open else -1
        dirty = self._dirty
        dirty.add(key[0] * 2)
        dirty.add(key[1] * 2 + 1)

    def __delitem__(self, key) -> None:
        dict.__delitem__(self, key)
        self._packed_ok = False

    def pop(self, *args):
        self._packed_ok = False
        return dict.pop(self, *args)

    def popitem(self):
        self._packed_ok = False
        return dict.popitem(self)

    def clear(self) -> None:
        dict.clear(self)
        self._packed_ok = False

    def update(self, *args, **kwargs) -> None:
        dict.update(self, *args, **kwargs)
        self._packed_ok = False

    def setdefault(self, key, default=None):
        if key in self:
            return self[key]
        self._packed_ok = False
        return dict.setdefault(self, key, default)

    def __ior__(self, other):
        self._packed_ok = False
        dict.update(self, other)
        return self
