#!/usr/bin/env python3
"""End-to-end ScalAna benchmark: four workloads, and a traced run per layer.

Run one workload (the last stdout line is the JSON result)::

    python3 e2ebench/run.py --workload casestudy_sweep --seed 2 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics from untraced passes, in
reference seconds that divide out the shared host's changing speed
(``hostspeed.py``);
``--trace 1`` alternates untraced and traced passes and reports per-layer
self times and work counts.  ``--workload all`` runs every workload both
ways in its own process, prints every metric by name with its unit, and
exits non-zero when any output check fails or a work count differs
between the two runs.

The benchmark measures passes for about ``--seconds`` seconds (at least
three) and reports medians.  Set-up time is measured in fresh interpreters,
several times spread between rounds of the passes, and reported as the
median.  Outputs are checked against values recorded at the default seed
(``expected.json``), against the case studies' ground-truth root causes at
any seed, and between passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: everything a run writes (span dumps, profile caches) goes here
OUT = ROOT / ".e2ebench_out"
EXPECTED = HERE / "expected.json"

SETUP_REPEATS = 3
MIN_PASSES = 3
INFO_PREFIX = "# bench-info "
SETUP_PREFIX = "# setup-speed "


class BenchmarkBug(RuntimeError):
    """A deterministic work count drifted between passes of the same code."""


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _workload(args, cache_dir=None):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed, cache_dir)


def _install_delay(args) -> None:
    if args.delay:
        from tracing import install_delay

        layer, _, seconds = args.delay.partition(":")
        install_delay(layer, float(seconds))


def _setup_only(args, sampler) -> int:
    """Child process of the set-up measurement: imports, registry and
    the workload's own set-up, then exit.  Prints the host speed it
    sampled, as seconds spent sampling and reference seconds per host
    second."""
    wl = _workload(args, args.cache)
    _install_delay(args)
    wl.setup()
    host, ref = sampler.stop()
    speed = {"sampling_s": sampler.sampling_s, "ref_per_host_s": ref / host}
    print(SETUP_PREFIX + json.dumps(speed))
    return 0


def _time_setup(args) -> tuple[float, float, str | None]:
    """Time one fresh interpreter from launch until a first pass could
    begin; return the host seconds, the reference seconds (scaled by the
    speed the child sampled) and the cache directory it filled."""
    from workloads import WORKLOADS

    cache = None
    if WORKLOADS[args.workload].needs_cache:
        cache = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if cache:
        cmd += ["--cache", cache]
    if args.delay:
        cmd += ["--delay", args.delay]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - t0
    speed = next(
        json.loads(line[len(SETUP_PREFIX):])
        for line in reversed(proc.stdout.splitlines())
        if line.startswith(SETUP_PREFIX)
    )
    host = seconds - speed["sampling_s"]
    return host, host * speed["ref_per_host_s"], cache


def _expected(wl) -> dict | None:
    from workloads import DEFAULT_SEED

    if wl.seed != DEFAULT_SEED and not wl.seed_independent:
        return None
    with open(EXPECTED) as fh:
        return json.load(fh)[wl.name]


def check_passes(wl, passes, reference=None) -> tuple[int, int]:
    """(attempted, failed) over every item of every pass.

    An item fails when it raised, when it differs from the recorded value
    or the ground truth, or when it differs from the same item in the
    reference pass (the first untraced pass).  Work counts must repeat
    exactly; a drift raises :class:`BenchmarkBug`.
    """
    expected = _expected(wl)
    reference = passes[0] if reference is None else reference
    attempted = failed = 0
    for p in passes:
        items = set(p.outputs) | set(reference.outputs)
        if expected is not None:
            items |= set(expected)
        for item in sorted(items):
            attempted += 1
            out = p.outputs.get(item, {"error": "item missing"})
            why = wl.check(
                item, out, None if expected is None else expected.get(item, {})
            )
            if why is None and out != reference.outputs.get(item):
                why = "output differs between passes"
            if why is not None:
                failed += 1
                print(f"FAIL {wl.name} {item}: {why}", file=sys.stderr)
        if p.counts != reference.counts:
            raise BenchmarkBug(
                f"{wl.name}: work counts drifted: {p.counts} != {reference.counts}"
            )
    return attempted, failed


def _run_passes(wl, seconds: float, tracer=None, sampler=None, between=()):
    """Run passes for about ``seconds`` of pass time, and at least
    MIN_PASSES (one untraced and one traced pass each round when
    tracing).  A round starts only if it fits, at the duration of the
    round before, in what is left of the time.

    The ``between`` callables run after the rounds that cross even
    intervals of that time, so that the passes sample the whole run and
    not one stretch of it: this host's speed drifts over seconds to
    minutes.
    """
    from tracing import install_tracing

    plain, traced = [], []
    need = 1 if tracer is not None else MIN_PASSES
    pending = list(between)
    spent = last = 0.0
    while spent + last <= seconds or len(plain) < need:
        t0 = time.perf_counter()
        gc.collect()
        plain.append(wl.run_pass(sampler=sampler))
        if tracer is not None:
            gc.collect()
            patches = install_tracing(tracer)
            try:
                traced.append(wl.run_pass(tracer))
            finally:
                patches.restore()
        last = time.perf_counter() - t0
        spent += last
        done = len(between) - len(pending)
        if pending and spent >= seconds * (done + 1) / (len(between) + 1):
            pending.pop()()
    for call in pending:
        call()
    return plain, traced


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(args, env: dict) -> tuple[dict, int, int, dict]:
    from hostspeed import Sampler

    setup_times, setup_ref = [], []

    def measure_setup() -> str | None:
        host, ref, cache = _time_setup(args)
        setup_times.append(host)
        setup_ref.append(ref)
        return cache

    def measure_setup_again() -> None:
        cache = measure_setup()
        if cache is not None:
            shutil.rmtree(cache, ignore_errors=True)

    # the first set-up's cache (if any) serves the passes; the others are
    # measured between rounds of the passes
    cache = measure_setup()
    try:
        wl = _workload(args, cache)
        _install_delay(args)
        plain, _ = _run_passes(
            wl, args.seconds, sampler=Sampler(),
            between=[measure_setup_again] * (SETUP_REPEATS - 1),
        )
    finally:
        if cache is not None:
            shutil.rmtree(cache, ignore_errors=True)
    attempted, failed = check_passes(wl, plain)
    wall = statistics.median(p.seconds for p in plain)
    events = plain[0].counts.get("engine.trace_events", 0)
    info = {
        "env": env,
        "passes": [p.seconds for p in plain],
        "passes_ref": [p.ref_seconds for p in plain],
        "wall_s": wall,
        "setup_runs": setup_times,
        "setup_runs_ref": setup_ref,
        "counts": plain[0].counts,
        "failed_frac": failed / attempted,
        "sim_events_per_s": events / wall,
    }
    metrics = {
        "wall_ref_s": _metric(statistics.median(p.ref_seconds for p in plain), "s"),
        "setup_s": _metric(statistics.median(setup_ref), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    return info, attempted, failed, metrics


#: layers whose spans enclose other layers' spans; their metric is named
#: ``_self_s`` to make plain that it excludes the enclosed layers
_ENCLOSING = ("simulator.simulate", "simulator.start", "detection.detect")

_COUNT_METRICS = (
    "engine.trace_events",
    "engine.mpi_calls",
    "engine.compute_ops",
    "engine.p2p_matches",
    "sim.class_batch.ranks_batched",
    "sim.class_batch.fallbacks",
    "sim.wildcard.devirt",
    "analysis.lint_witnesses",
)


def run_traced(args, env: dict) -> tuple[dict, int, int, dict]:
    from tracing import LAYERS, PASS_SPAN, Tracer, install_tracing
    from workloads import WORKLOADS

    cache = None
    if WORKLOADS[args.workload].needs_cache:
        cache = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    setup_tracer = Tracer()
    setup_tracer.item = "setup"
    tracer = Tracer()
    try:
        wl = _workload(args, cache)
        _install_delay(args)
        patches = install_tracing(setup_tracer)
        try:
            wl.setup()
        finally:
            patches.restore()
        plain, traced = _run_passes(wl, args.seconds, tracer)
    finally:
        if cache is not None:
            shutil.rmtree(cache, ignore_errors=True)
    attempted, failed = check_passes(wl, plain)
    # the traced passes must reproduce the untraced outputs and counts
    a2, f2 = check_passes(wl, traced, reference=plain[0])
    attempted, failed = attempted + a2, failed + f2

    n = len(traced)
    self_s = tracer.self_times()
    metrics = {
        layer + ("_self_s" if layer in _ENCLOSING else "_s"):
            _metric(self_s.get(layer, 0.0) / n, "s")
        for layer in LAYERS
    }
    # profile writes happen only in set-up: report the traced set-up's
    metrics["tools.storage.save_s"] = _metric(
        setup_tracer.self_times().get("tools.storage.save", 0.0), "s"
    )
    counts = plain[0].counts
    for key in _COUNT_METRICS:
        metrics[key] = _metric(counts.get(key, 0), "count")
    simulated = counts.get("ranks_simulated", 0)
    metrics["sim.class_batch.batched_ratio"] = _metric(
        counts.get("sim.class_batch.ranks_batched", 0) / simulated
        if simulated else 0.0,
        "ratio",
    )
    lookups = counts.get("cache.lookups", 0)
    metrics["api.session.hit_ratio"] = _metric(
        counts.get("cache.hits", 0) / lookups if lookups else 0.0, "ratio"
    )
    metrics["tools.storage.bytes_read"] = _metric(tracer.bytes_read / n, "bytes")
    plain_s = statistics.fmean(p.seconds for p in plain)
    traced_s = statistics.fmean(p.seconds for p in traced)
    metrics["sim_events_per_s"] = _metric(
        counts.get("engine.trace_events", 0) / plain_s, "1/s"
    )
    metrics["bench.traced_pass_s"] = _metric(traced_s, "s")
    metrics["bench.unattributed_s"] = _metric(
        self_s.get(PASS_SPAN, 0.0) / n, "s"
    )
    metrics["bench.trace_overhead_frac"] = _metric(traced_s / plain_s - 1.0, "frac")

    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    meta = {"workload": args.workload, "seed": args.seed, "env": env}
    tracer.write(str(spans_path), meta)
    setup_tracer.write(str(spans_path.with_suffix(".setup.json")), meta)
    info = {
        "env": env,
        "passes": [p.seconds for p in plain],
        "traced_passes": [p.seconds for p in traced],
        "counts": counts,
        "span_calls": tracer.calls(),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return info, attempted, failed, metrics


def run_one(args) -> int:
    OUT.mkdir(exist_ok=True)
    env = environment()
    runner = run_traced if args.trace else run_untraced
    info, attempted, failed, metrics = runner(args, env)
    print(INFO_PREFIX + json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:34s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                ok = False
                if not lines:
                    continue
            info = next(
                json.loads(line[len(INFO_PREFIX):])
                for line in lines if line.startswith(INFO_PREFIX)
            )
            runs[trace] = (info, json.loads(lines[-1]))
        if len(runs) < 2:
            continue
        (info0, res0), (info1, res1) = runs[0], runs[1]
        print(f"== {name}  (seed {args.seed}, env {info0['env']})")
        print(f"  {'failed_frac':34s} {info0['failed_frac']:.6g} frac "
              f"({res0['failed']}/{res0['attempted']} items)")
        for key, m in res0["metrics"].items():
            print(f"  {key:34s} {m['value']:.6g} {m['unit']}")
        print(f"  {'wall_s (host seconds)':34s} {info0['wall_s']:.6g} s")
        if info0["counts"].get("engine.trace_events"):
            print(f"  {'sim_events_per_s':34s} {info0['sim_events_per_s']:.6g} 1/s")
        print(f"  -- traced run ({res1['failed']}/{res1['attempted']} items failed)")
        for key, m in res1["metrics"].items():
            print(f"  {key:34s} {m['value']:.6g} {m['unit']}")
        if info0["counts"] != info1["counts"]:
            print(f"  COUNT DRIFT between runs: {info0['counts']} != {info1['counts']}")
            ok = False
        ok = ok and res0["correct"] and res1["correct"]
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--delay", default="",
                    help="LAYER:SECONDS sleep added to every call into a "
                         "layer (sensitivity self-check only)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--cache", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        # set-up is timed from launch: sample host speed from here on
        from hostspeed import Sampler

        sampler = Sampler()
        sampler.start()

    if not (SRC / "repro").is_dir():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)} or all")
    if args.setup_only:
        return _setup_only(args, sampler)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except BenchmarkBug as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
