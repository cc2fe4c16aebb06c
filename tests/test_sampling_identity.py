"""Vectorized sampling is bit-identical to the per-segment loop.

:func:`oracle_sample_result` is the historical ``sample_result``: a Python
loop over every recorded segment, rank by rank in (start, end) order, with
one ``+=`` per field.  It is the bit-identity oracle for the grouped
``np.bincount`` implementation in :mod:`repro.runtime.sampling`, the way
the per-rank interpreter is the oracle for class batching: every field of
every vector must match ``float.hex`` for ``float.hex``, with the same
``total_samples`` and the same ``perf`` key order.
"""

import numpy as np
import pytest

from repro.api import AnalysisConfig
from repro.apps import get_app
from repro.runtime import sample_result
from repro.runtime.perfdata import PerformanceVector
from repro.runtime.sampling import SamplingProfile
from repro.simulator import simulate
from repro.simulator.costmodel import PerfCounters
from repro.simulator.engine import SimulationResult
from repro.simulator.parallel import simulate_sharded
from tests.conftest import run_source


def oracle_sample_result(result: SimulationResult, freq_hz: float) -> SamplingProfile:
    """The per-segment sampling loop (test-only oracle)."""
    period = 1.0 / freq_hz
    perf: dict[tuple[int, int], PerformanceVector] = {}
    total_samples = 0

    cols = result.trace.columns()
    rank_c, vid_c = cols["rank"], cols["vid"]
    start_c, end_c, wait_c = cols["start"], cols["end"], cols["wait"]
    if len(rank_c):
        counts = (np.floor(end_c / period) - np.floor(start_c / period)).tolist()
        durations = (end_c - start_c).tolist()
        ranks = rank_c.tolist()
        vids = vid_c.tolist()
        waits = wait_c.tolist()
        order = np.lexsort((end_c, start_c, rank_c)).tolist()
        vertex_counters = result.vertex_counters
        vertex_time = result.vertex_time
        for i in order:
            count = int(counts[i])
            if count <= 0:
                continue
            total_samples += count
            key = (int(ranks[i]), int(vids[i]))
            vec = perf.get(key)
            if vec is None:
                vec = PerformanceVector()
                perf[key] = vec
            sampled_time = count * period
            vec.time += sampled_time
            vec.visits += 1
            duration = durations[i]
            if duration > 0:
                frac = min(1.0, sampled_time / duration)
                vec.wait += waits[i] * frac
                exact = vertex_counters.get(key)
                if exact is not None:
                    total = vertex_time.get(key, 0.0)
                    if total > 0:
                        vec.counters += exact.scaled(duration / total * frac)

    return SamplingProfile(
        freq_hz=freq_hz,
        nprocs=result.nprocs,
        total_samples=total_samples,
        perf=perf,
    )


def _hexed(profile: SamplingProfile) -> tuple:
    """Everything observable in a profile, floats as ``float.hex``."""
    rows = []
    for key, vec in profile.perf.items():
        c = vec.counters
        rows.append((
            key,
            vec.time.hex(),
            vec.wait.hex(),
            vec.visits,
            c.tot_ins.hex(), c.tot_cyc.hex(), c.tot_lst_ins.hex(), c.l2_dcm.hex(),
        ))
    return profile.total_samples, profile.nprocs, rows


FREQS = (37.0, 200.0, 1000.0, 1e6)


def _assert_identical(result: SimulationResult) -> None:
    for freq in FREQS:
        got = sample_result(result, freq)
        want = oracle_sample_result(result, freq)
        assert list(got.perf) == list(want.perf), f"key order at {freq} Hz"
        assert _hexed(got) == _hexed(want), f"fields at {freq} Hz"


def _app_config(name: str, nprocs: int, **overrides):
    app = get_app(name)
    config = AnalysisConfig.for_app(app, seed=2).simulation_config(
        nprocs, **overrides
    )
    return app, config


@pytest.mark.parametrize(
    "name,nprocs", [("cg", 16), ("lu", 16), ("sst", 32), ("zeusmp", 16)]
)
def test_matches_oracle_on_apps(name, nprocs):
    app, config = _app_config(name, nprocs)
    result = simulate(app.program, app.psg, config)
    assert result.trace.event_count > 0
    _assert_identical(result)


def test_matches_oracle_on_sharded_trace():
    """A trace merged from shards interleaves ranks; the rank-major sort
    must still give the serial profile, bit for bit."""
    app, config = _app_config(
        "cg", 16, sim_shards=3, sim_executor="inprocess"
    )
    sharded = simulate_sharded(app.program, app.psg, config, executor="inprocess")
    rank = sharded.trace.columns()["rank"]
    assert np.any(np.diff(rank) < 0), "merged trace should not be rank-sorted"
    _assert_identical(sharded)
    _app, serial_config = _app_config("cg", 16)
    serial = simulate(app.program, app.psg, serial_config)
    for freq in FREQS:
        assert _hexed(sample_result(sharded, freq)) == _hexed(
            sample_result(serial, freq)
        )


MIXED = """def main() {
    for (var i = 0; i < 6; i = i + 1) {
        compute(flops = 30000000 + 2000000 * rank, name = "work");
        allreduce(bytes = 8);
        compute(flops = 5000, name = "tiny");
    }
    barrier();
}"""


def test_matches_oracle_without_counters_or_vertex_time():
    """Vertices with no exact counters (MPI spans), and counters whose
    vertex time is 0, contribute no counters on either path."""
    result, _psg, _prog = run_source(MIXED, nprocs=4)
    counters = result.vertex_counters
    times = result.vertex_time
    mpi_keys = [k for k in times if k not in counters]
    assert mpi_keys, "MPI vertices carry no exact counters"
    _assert_identical(result)
    # zero the vertex time of every counter-carrying key (in the cached
    # aggregate dict both paths read): no counters are then attributed
    for key in counters:
        times[key] = 0.0
    _assert_identical(result)
    for key, vec in sample_result(result, 200.0).perf.items():
        assert vec.counters == PerfCounters(), key


@pytest.mark.parametrize(
    "source", ["def main() { }", "def main() { compute(flops = 10); }"]
)
def test_no_samples(source):
    """No events, or events too short to catch a sample: an empty profile."""
    result, _psg, _prog = run_source(source, nprocs=2)
    got = sample_result(result, 1.0)
    assert got.total_samples == 0 and got.perf == {}
    _assert_identical(result)
