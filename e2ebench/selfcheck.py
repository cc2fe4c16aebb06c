#!/usr/bin/env python3
"""Sensitivity self-check: does the benchmark see a known slowdown?

Adds a fixed sleep to every call into one layer (``runtime.sampling``,
i.e. ``sample_result``) from the benchmark side only, then runs every
workload with and without it.  The check passes when

* ``wall_ref_s`` is flagged (median worse than the baseline median by more
  than its bound in ``BENCHMARK.json``) on exactly the workloads whose
  passes call the layer: ``casestudy_sweep`` and ``cg_sweep``;
* ``lint_scales`` is flagged on no metric;
* the traced run attributes the added time to ``runtime.sampling_s``:
  its self time grows by the number of calls times the delay (within
  10%) on the workloads that call it, and by nothing elsewhere::

    python3 e2ebench/selfcheck.py [--seeds 3,4,5] [--delay 1.0]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, INFO_PREFIX, ROOT

LAYER = "runtime.sampling"
METRIC = "runtime.sampling_s"
#: workloads whose timed passes call the delayed layer
EXPECT_WALL_FLAGGED = {"casestudy_sweep", "cg_sweep"}


def _run(workload: str, seed: int, trace: int, delay: str) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
    ]
    if delay:
        cmd += ["--delay", delay]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    info = next(
        json.loads(line[len(INFO_PREFIX):])
        for line in lines if line.startswith(INFO_PREFIX)
    )
    return json.loads(lines[-1])["metrics"], info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="3,4,5")
    ap.add_argument("--delay", type=float, default=1.0,
                    help="seconds added to each call into the layer")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    delay = f"{LAYER}:{args.delay}"
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    for wl in (w["name"] for w in bench["workloads"]):
        base = [_run(wl, s, 0, "")[0] for s in seeds]
        slow = [_run(wl, s, 0, delay)[0] for s in seeds]
        flagged = []
        for name, spec in bounds.items():
            b = statistics.median(m[name]["value"] for m in base)
            d = statistics.median(m[name]["value"] for m in slow)
            worse = (d - b) / b if spec["better"] == "lower" else (b - d) / b
            mark = worse > spec["bound"]
            if mark:
                flagged.append(name)
            print(f"{wl:16s} {name:12s} base {b:10.4f} delayed {d:10.4f} "
                  f"worse {worse:+7.1%} bound {spec['bound']:.0%}"
                  f"{'  FLAGGED' if mark else ''}")
        want = wl in EXPECT_WALL_FLAGGED
        if ("wall_ref_s" in flagged) != want:
            print(f"  unexpected: wall_ref_s {'not ' if want else ''}flagged on {wl}")
            ok = False
        if wl == "lint_scales" and flagged:
            print(f"  unexpected: lint_scales flagged on {flagged}")
            ok = False

        t_base, _ = _run(wl, seeds[0], 1, "")
        t_slow, info = _run(wl, seeds[0], 1, delay)
        added = (t_slow["bench.traced_pass_s"]["value"]
                 - t_base["bench.traced_pass_s"]["value"])
        layer = t_slow[METRIC]["value"] - t_base[METRIC]["value"]
        calls = info["span_calls"].get(LAYER, 0) / len(info["traced_passes"])
        injected = calls * args.delay
        print(f"{wl:16s} traced pass {added:+.3f}s, {METRIC} {layer:+.3f}s "
              f"({calls:g} calls x {args.delay}s = {injected:.3f}s injected)")
        if abs(layer - injected) > 0.1 * max(injected, 1.0):
            print(f"  unexpected: {METRIC} did not absorb the injected delay")
            ok = False
    print("self-check passed" if ok else "SELF-CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
