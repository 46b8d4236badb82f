"""Seeded Facebook-like coflow trace generator for the benchmark.

Writes the public coflow-benchmark text format (the format of the
paper's one-hour, 150-rack Facebook Hive/MapReduce trace)::

    <num_ports> <num_coflows>
    <id> <arrival_millis> <M> <m_1> ... <m_M> <R> <r_1:MB_1> ... <r_R:MB_R>

The program under test only ever sees the written file, so this module
imports nothing from it.  The shape follows the published trace
statistics (paper Table 4): the category mix 23.4 % one-to-one, 9.9 %
one-to-many, 40.1 % many-to-one, 26.6 % many-to-many; megabyte-rounded
reducer totals of at least 1 MB; narrow, small non-M2M coflows; and
heavy-tailed many-to-many widths and volumes, so M2M carries almost all
bytes.

Every draw is stratified: for n items the k-th uniform is taken from
[k/n, (k+1)/n) and the strata are shuffled.  The many-to-many shapes go
further and take each stratum's midpoint (see :func:`_m2m_strata`).  A
seed then changes arrival order and gaps, ports, narrow sizes and
fan-outs, but the multiset of shapes stays at the distribution's
quantiles.  That keeps the scheduling work per trace, and the tail of
the CCT ratios, nearly constant across seeds, which is what lets a
ten-seed spread stay inside the benchmark's bounds.

Run as a script to write one trace::

    python3 perfbench/gen.py inter150 --seed 1 --out-dir traces/

which writes every trace one run of that workload replays and prints
each trace's make-up.
"""

from __future__ import annotations

import argparse
import math
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Table 4 coflow shares, in the category order O2O, O2M, M2O, M2M.
CATEGORY_MIX = (("O2O", 0.234), ("O2M", 0.099), ("M2O", 0.401), ("M2M", 0.266))

#: Bytes per megabyte in the trace format (decimal, as the trace uses).
MB = 10**6

#: Pareto tail index of M2M widths: P(width > w) ~ w^-alpha.
WIDTH_ALPHA = 1.1
#: Mean MB of one narrow-category flow (exponential).
NARROW_MB_MEAN = 2.0
#: M2M per-reducer totals are a two-mode lognormal (mu, sigma) in MB:
#: most shuffles are small, this share is large and carries the bytes.
M2M_LARGE_FRACTION = 0.3
M2M_SMALL = (1.5, 1.2)


@dataclass(frozen=True)
class TraceShape:
    """The knobs of one workload's trace."""

    num_ports: int
    num_coflows: int
    #: Mean inter-arrival in seconds (the hour-long trace has about 6.8 s).
    mean_interarrival: float
    #: Cap on M2M mapper and reducer counts (None: the whole fabric).
    max_width: Optional[int]
    #: Cap on the fan-in of M2O and the fan-out of O2M coflows.
    max_narrow_fanout: int
    #: Lognormal (mu, sigma) in MB of a large M2M shuffle's reducer total.
    m2m_large: Tuple[float, float] = (8.0, 1.0)


#: The three workloads' trace shapes (see README.md for why).
SHAPES: Dict[str, TraceShape] = {
    "inter150": TraceShape(
        num_ports=150,
        num_coflows=526,
        mean_interarrival=6.8,
        max_width=None,
        max_narrow_fanout=20,
    ),
    "stream40": TraceShape(
        num_ports=40,
        num_coflows=4000,
        mean_interarrival=0.35,
        max_width=12,
        max_narrow_fanout=12,
        m2m_large=(6.0, 1.0),
    ),
    "baselines150": TraceShape(
        num_ports=150,
        num_coflows=300,
        mean_interarrival=6.8,
        max_width=12,
        max_narrow_fanout=12,
    ),
}


#: Distinct traces one run replays: inter150 pools several paper-scale
#: traces, because which wide coflows overlap (and so the slowest replans)
#: varies a lot from one trace to the next.
TRACES_PER_RUN = {"inter150": 8, "stream40": 1, "baselines150": 1}

#: Trace ``k`` of a run with seed ``s`` is drawn with seed
#: ``s * SEED_STRIDE + k``.
SEED_STRIDE = 1000

#: Fixed coflows appended to every baselines150 trace, whatever the seed:
#: Solstice leaves real demand of these unserved (see README.md).
SOLSTICE_FAULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "solstice_faults.txt")


@dataclass(frozen=True)
class Record:
    """One coflow as written: mapper racks and per-reducer MB totals."""

    coflow_id: int
    arrival_ms: int
    category: str
    mappers: Tuple[int, ...]
    reducers: Tuple[Tuple[int, int], ...]

    @property
    def num_flows(self) -> int:
        return len(self.mappers) * len(self.reducers)


class _Strata:
    """Stratified uniforms: one draw per stratum of [0, 1), shuffled."""

    def __init__(self, rng: random.Random, count: int) -> None:
        self._values = [(k + rng.random()) / count for k in range(count)]
        rng.shuffle(self._values)

    def take(self) -> float:
        return self._values.pop()


def _exp_quantile(u: float, mean: float) -> float:
    return -mean * math.log1p(-u)


def _normal_quantile(u: float) -> float:
    """Inverse standard normal CDF by bisection on math.erf (no numpy)."""
    lo, hi = -9.0, 9.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _heavy_width(u: float, alpha: float, cap: int) -> int:
    """Pareto width with minimum 2, truncated at ``cap``."""
    raw = 2.0 * (1.0 - u) ** (-1.0 / alpha)
    return int(max(2, min(cap, round(raw))))


#: Seed of the fixed pairing of M2M width and volume strata (see
#: :func:`_m2m_strata`); not the workload seed.
_SKELETON_SEED = 2029


def _m2m_strata(rng: random.Random, count: int) -> List[Tuple[int, float, float, float]]:
    """(stratum, mapper-width, reducer-width, volume) for ``count`` M2M coflows.

    Each of the three uniforms takes the midpoint of one of ``count``
    equal strata, and which mapper stratum meets which reducer and volume
    stratum is a fixed pairing that does not depend on the workload seed;
    the per-reducer jitter is drawn from the stratum too (see
    :func:`generate`).  So the multiset of M2M coflows (widths and
    per-reducer MB) is the same for every seed, and a seed decides where
    in the arrival sequence each lands and on which ports.  The widest
    coflows, which make the slowest replans, the heaviest, which make the
    slowest baseline schedules, and the smallest, which make the largest
    CCT ratios under slotted schedulers, are then alike from seed to seed.
    """
    skeleton = random.Random(_SKELETON_SEED)
    reducer_rank = list(range(count))
    volume_rank = list(range(count))
    skeleton.shuffle(reducer_rank)
    skeleton.shuffle(volume_rank)
    draws = [
        (
            k,
            (k + 0.5) / count,
            (reducer_rank[k] + 0.5) / count,
            (volume_rank[k] + 0.5) / count,
        )
        for k in range(count)
    ]
    rng.shuffle(draws)
    return draws


def generate(shape: TraceShape, seed: int) -> List[Record]:
    """Draw one trace (records in arrival order, ids from 1)."""
    rng = random.Random(seed)
    n = shape.num_coflows
    categories: List[str] = []
    for name, share in CATEGORY_MIX:
        categories.extend([name] * int(round(share * n)))
    while len(categories) < n:
        categories.append("M2O")
    del categories[n:]
    rng.shuffle(categories)
    counts = {name: categories.count(name) for name, _ in CATEGORY_MIX}

    gaps = _Strata(rng, n)
    # Narrow categories: one fan-out draw and one size draw per coflow.
    narrow = counts["O2O"] + counts["O2M"] + counts["M2O"]
    fanouts = _Strata(rng, max(1, counts["O2M"] + counts["M2O"]))
    narrow_sizes = _Strata(rng, max(1, narrow))
    count_m2m = counts["M2M"]
    m2m_draws = _m2m_strata(rng, count_m2m)

    width_cap = shape.num_ports if shape.max_width is None else shape.max_width
    fan_cap = min(shape.max_narrow_fanout, shape.num_ports - 1)
    ports = range(shape.num_ports)
    records: List[Record] = []
    arrival = 0.0
    for coflow_id, category in enumerate(categories, start=1):
        arrival += _exp_quantile(gaps.take(), shape.mean_interarrival)
        if category == "M2M":
            stratum, u_map, u_red, u_vol = m2m_draws.pop()
            mappers = rng.sample(ports, _heavy_width(u_map, WIDTH_ALPHA, width_cap))
            reducer_ports = rng.sample(ports, _heavy_width(u_red, WIDTH_ALPHA, width_cap))
            # One coflow-level volume from the two-mode mixture, jittered
            # per reducer.
            small = 1.0 - M2M_LARGE_FRACTION
            if u_vol < small:
                mu, sigma = M2M_SMALL
                u_mode = u_vol / small
            else:
                mu, sigma = shape.m2m_large
                u_mode = (u_vol - small) / M2M_LARGE_FRACTION
            base = mu + sigma * _normal_quantile(u_mode)
            jitter = random.Random(_SKELETON_SEED * count_m2m + stratum)
            reducers = tuple(
                (port, max(1, round(math.exp(base + 0.25 * jitter.gauss(0.0, 1.0)))))
                for port in reducer_ports
            )
        else:
            size = max(1, round(_exp_quantile(narrow_sizes.take(), NARROW_MB_MEAN)))
            if category == "O2O":
                src, dst = rng.sample(ports, 2)
                mappers, reducers = [src], ((dst, size),)
            else:
                width = 2 + int(fanouts.take() * (fan_cap - 1))
                picked = rng.sample(ports, width + 1)
                if category == "O2M":
                    mappers = [picked[0]]
                    reducers = tuple((port, size) for port in picked[1:])
                else:
                    # The format splits a reducer's total evenly over the
                    # mappers, so an in-cast carries size MB per sender.
                    mappers = picked[1:]
                    reducers = ((picked[0], size * width),)
        records.append(
            Record(
                coflow_id=coflow_id,
                arrival_ms=int(round(arrival * 1000.0)),
                category=category,
                mappers=tuple(mappers),
                reducers=tuple(sorted(reducers)),
            )
        )
    return records


def workload_traces(workload: str, seed: int) -> List[List[Record]]:
    """Every trace one run of ``workload`` replays, drawn from ``seed``."""
    shape = SHAPES[workload]
    count = TRACES_PER_RUN[workload]
    if count == 1:
        traces = [generate(shape, seed)]
    else:
        traces = [generate(shape, seed * SEED_STRIDE + k) for k in range(count)]
    if workload == "baselines150":
        _, faults = read_text(SOLSTICE_FAULTS)
        for records in traces:
            arrival = records[-1].arrival_ms
            for fault in faults:
                arrival += int(round(shape.mean_interarrival * 1000.0))
                records.append(
                    Record(len(records) + 1, arrival, fault.category, fault.mappers, fault.reducers)
                )
    return traces


def write_text(records: Sequence[Record], num_ports: int, path: str) -> None:
    """Write records in the coflow-benchmark text format."""
    with open(path, "w", encoding="ascii") as stream:
        stream.write(f"{num_ports} {len(records)}\n")
        for record in records:
            parts = [str(record.coflow_id), str(record.arrival_ms), str(len(record.mappers))]
            parts.extend(str(port) for port in record.mappers)
            parts.append(str(len(record.reducers)))
            parts.extend(f"{port}:{mb}" for port, mb in record.reducers)
            stream.write(" ".join(parts) + "\n")


def _category(mappers: Sequence[int], reducers: Sequence[object]) -> str:
    if len(mappers) == 1:
        return "O2O" if len(reducers) == 1 else "O2M"
    return "M2O" if len(reducers) == 1 else "M2M"


def read_text(path: str) -> Tuple[int, List[Record]]:
    """Read a trace this module wrote back into records (for the checks)."""
    with open(path, "r", encoding="ascii") as stream:
        num_ports, count = (int(token) for token in stream.readline().split())
        records = []
        for line in stream:
            tokens = line.split()
            num_mappers = int(tokens[2])
            mappers = tuple(int(token) for token in tokens[3 : 3 + num_mappers])
            reducers = tuple(
                (int(port), int(mb))
                for port, mb in (token.split(":") for token in tokens[4 + num_mappers :])
            )
            records.append(
                Record(int(tokens[0]), int(tokens[1]), _category(mappers, reducers), mappers, reducers)
            )
    if len(records) != count:
        raise ValueError(f"{path}: header promises {count} coflows, found {len(records)}")
    return num_ports, records


def describe(records: Sequence[Record]) -> Dict[str, object]:
    """Make-up of a trace: category counts and byte shares, widths."""
    by_category: Dict[str, List[int]] = {name: [0, 0] for name, _ in CATEGORY_MIX}
    for record in records:
        total = sum(mb for _, mb in record.reducers)
        by_category[record.category][0] += 1
        by_category[record.category][1] += total
    all_mb = sum(entry[1] for entry in by_category.values()) or 1
    flows = sorted(record.num_flows for record in records)
    return {
        "coflows": len(records),
        "categories": {
            name: {"coflows": count, "bytes_pct": round(100.0 * mb / all_mb, 3)}
            for name, (count, mb) in by_category.items()
        },
        "max_flows": flows[-1],
        "coflows_over_1000_flows": sum(1 for count in flows if count > 1000),
        "total_flows": sum(flows),
    }


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)
    shape = SHAPES[args.workload]
    for index, records in enumerate(workload_traces(args.workload, args.seed)):
        path = os.path.join(args.out_dir, f"{args.workload}-{args.seed}-{index}.txt")
        write_text(records, shape.num_ports, path)
        print(path, describe(records))


if __name__ == "__main__":
    main()
