"""Sampling-based performance profiling (paper §III-B1).

ScalAna interrupts the program at a fixed frequency (the paper uses 200 Hz,
matching HPCToolkit's setting) and attributes each sample to the PSG vertex
executing at the interrupt, via the call stack.  Here the simulated
equivalent samples each rank's recorded timeline at ``1/freq`` intervals:
the vertex owning the sample instant gets one sample period of attributed
time.

PMU counters are attributed proportionally: a vertex that received ``k`` of
the ``n`` samples landing inside one of its segments gets ``k/n`` of that
segment's counters — the same "counter deltas between interrupts" behaviour
as PAPI overflow sampling, including its attribution error on short
segments (which tests assert really appears and really shrinks as the
sampling frequency rises).

**Implementation.**  :func:`sample_result` never loops over segments in
Python.  It counts each segment's samples from the TraceBuffer columns,
keeps the segments with at least one, stable-sorts those rank-major and
then by (start, end), groups them by (rank, vid) with
:func:`~repro.simulator.trace.group_rank_vid`, and sums every field per
group with ``np.bincount``: sampled time, visits, sampled wait, and the
four PMU counter shares.  ``np.bincount`` adds the weights of a group in
the order they occur, so each sum takes exactly the float additions, in
exactly the order, of a per-segment ``vec.field += x`` loop over the
sorted segments; every per-segment term is one IEEE operation on float64
either way.  Profiles are therefore bit-identical to that loop, which the
test suite keeps as its oracle, and ``perf`` keeps its key order (rank by
rank, vertices in the order their first sampled segment starts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.perfdata import PerformanceVector
from repro.simulator.costmodel import PerfCounters
from repro.simulator.engine import SimulationResult
from repro.simulator.trace import group_rank_vid

__all__ = ["SamplingProfile", "sample_result", "DEFAULT_FREQ_HZ"]

#: The paper's sampling frequency (§VI-A).
DEFAULT_FREQ_HZ = 200.0


@dataclass
class SamplingProfile:
    """Sampled per-(rank, vertex) performance vectors."""

    freq_hz: float
    nprocs: int
    total_samples: int
    perf: dict[tuple[int, int], PerformanceVector]

    def vector(self, rank: int, vid: int) -> PerformanceVector:
        return self.perf.get((rank, vid), PerformanceVector())

    def vertex_times(self, vid: int) -> list[float]:
        return [self.vector(r, vid).time for r in range(self.nprocs)]

    def sampled_vids(self) -> set[int]:
        return {vid for (_r, vid) in self.perf}


def sample_result(
    result: SimulationResult, freq_hz: float = DEFAULT_FREQ_HZ
) -> SamplingProfile:
    """Sample a simulation's ground-truth timeline at ``freq_hz``.

    Requires the run to have recorded segments
    (``SimulationConfig.record_segments=True``).

    Works on the TraceBuffer columns in grouped numpy reductions: per-segment
    sample counts in one pass, the segments that caught a sample sorted
    rank-major then by (start, end), grouped by (rank, vid), and each field
    summed per group with ``np.bincount``.  See the module docstring for why
    the sums are bit-identical to a per-segment ``+=`` loop.
    """
    if freq_hz <= 0:
        raise ValueError("sampling frequency must be positive")
    if not result.segments and result.compute_count:
        raise ValueError("run was executed without segment recording")
    period = 1.0 / freq_hz

    cols = result.trace.columns()
    rank_c, start_c, end_c = cols["rank"], cols["start"], cols["end"]
    # samples at instants t = k*period with start < t <= end
    counts = np.floor(end_c / period) - np.floor(start_c / period)
    # only segments that caught a sample contribute; filtering before the
    # stable sort keeps their relative order (rank-major, then (start,
    # end), ties in recorded order)
    hit = np.flatnonzero(counts > 0)
    hit = hit[np.lexsort((end_c[hit], start_c[hit], rank_c[hit]))]
    count = counts[hit]
    sampled = count * period
    # count > 0 implies end > start, so every duration is positive
    duration = end_c[hit] - start_c[hit]
    frac = np.minimum(1.0, sampled / duration)
    inv, order, keys = group_rank_vid(rank_c[hit], cols["vid"][hit])
    n = len(keys)
    time_sums = np.bincount(inv, weights=sampled, minlength=n).tolist()
    wait_sums = np.bincount(
        inv, weights=cols["wait"][hit] * frac, minlength=n
    ).tolist()
    visits = np.bincount(inv, minlength=n).tolist()

    # each group's exact counters are spread over its sampled segments by
    # sampled share; groups without counters (or without time) get none
    vertex_counters = result.vertex_counters
    vertex_time = result.vertex_time
    exact = np.zeros((n, 4))
    total = np.zeros(n)
    for g, key in enumerate(keys):
        c = vertex_counters.get(key)
        if c is not None:
            t = vertex_time.get(key, 0.0)
            if t > 0:
                exact[g] = (c.tot_ins, c.tot_cyc, c.tot_lst_ins, c.l2_dcm)
                total[g] = t
    has = np.flatnonzero(total[inv] > 0)
    cinv = inv[has]
    share = duration[has] / total[cinv] * frac[has]
    # (astype: bincount over no rows returns int zeros)
    counter_sums = [
        np.bincount(cinv, weights=exact[cinv, f] * share, minlength=n)
        .astype(np.float64)
        .tolist()
        for f in range(4)
    ]

    perf: dict[tuple[int, int], PerformanceVector] = {}
    for g in order.tolist():
        perf[keys[g]] = PerformanceVector(
            time=time_sums[g],
            wait=wait_sums[g],
            visits=visits[g],
            counters=PerfCounters(*(sums[g] for sums in counter_sums)),
        )
    return SamplingProfile(
        freq_hz=freq_hz,
        nprocs=result.nprocs,
        total_samples=int(count.astype(np.int64).sum()),
        perf=perf,
    )


def exact_profile(result: SimulationResult) -> SamplingProfile:
    """Ground-truth profile in the same shape as a sampled one.

    Used by tests (to bound sampling error) and by ablation benches.
    """
    perf: dict[tuple[int, int], PerformanceVector] = {}
    vertex_wait = result.vertex_wait
    vertex_visits = result.vertex_visits
    vertex_counters = result.vertex_counters
    for key, t in result.vertex_time.items():
        perf[key] = PerformanceVector.from_trace_aggregates(
            t,
            vertex_wait.get(key, 0.0),
            vertex_visits.get(key, 0),
            vertex_counters.get(key),
        )
    return SamplingProfile(
        freq_hz=float("inf"),
        nprocs=result.nprocs,
        total_samples=0,
        perf=perf,
    )
