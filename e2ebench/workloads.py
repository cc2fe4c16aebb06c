"""The four benchmark workloads, driven through the public API.

Each workload is a sequence of user actions (one *section* per app); the
benchmark times only the sections, then digests their outputs for the
correctness checks.  Every pass is serial: one process, ``jobs=1``,
``sim_shards=1``.

Why these four, and which layer metrics should move each one:

* ``casestudy_sweep`` -- the paper's §VI-D case studies (zeusmp, sst,
  nekbone) at P = 16..256, every rank class-batched.  Moved by
  ``simulator.classbatch_s``, ``simulator.start_self_s``,
  ``simulator.drain_s``, ``runtime.sampling_s``, ``runtime.comm_dep_s``.
* ``cg_sweep`` -- cg at P = 32..256.  Class batching refuses cg (its
  hypercube partner is not affine), so per-rank interpretation inside
  ``simulator.drain_s`` dominates; a batching change predicts no change
  here.  Moved by ``simulator.drain_s``, ``simulator.finish_s``,
  ``runtime.sampling_s``.
* ``lint_scales`` -- ``lint --scales all`` over all 14 registry apps;
  simulates nothing.  Moved by the ``analysis.*`` layers
  (``analysis.lint_witness_s`` above all).
* ``warm_rerun`` -- re-diagnoses the case-study apps from an on-disk
  session cache filled in setup: a fresh ``Session`` per pass, a cache
  hit per run, detection, and the report rendered with source.  Moved by
  ``tools.storage.load_s``, ``api.session.fetch_s``, ``ppg.build_s``,
  ``detection.*_s``, ``tools.viewer.render_s``; its setup (cold
  profiling and profile writes) by ``tools.storage.save_s``.
"""

from __future__ import annotations

import hashlib
import importlib
import time
from contextlib import contextmanager

from tracing import PASS_SPAN

#: the seed the expected outputs were recorded at (tests/test_case_studies.py)
DEFAULT_SEED = 2

CASESTUDY_APPS = ("zeusmp", "sst", "nekbone")
CASESTUDY_SCALES = (16, 32, 64, 128, 256)
CG_SCALES = (32, 64, 128, 256)
#: ground-truth root cause of each case study, at any seed
TOP_ROOT_CAUSE = {"zeusmp": "bval3d", "sst": "handle_event", "nekbone": "ax"}

#: modules the pipeline imports lazily on first use; setup imports them so
#: that no pass pays a first-call import
_PRELOAD = (
    "repro.api",
    "repro.apps",
    "repro.analysis",
    "repro.analysis.matchorder",
    "repro.simulator.classbatch",
    "repro.tools.storage",
    "repro.tools.viewer",
)


def preload():
    """Imports and the app registry: the set-up every workload shares."""
    for name in _PRELOAD:
        importlib.import_module(name)
    from repro.apps import APPS

    return APPS


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Clock:
    """Sums the timed sections of one pass.  With a tracer, each section
    is also a root span, so layer self times plus the root spans' own
    (unattributed) self time add up to the timed pass exactly.  With a
    :class:`~hostspeed.Sampler` (never together with a tracer), each
    section is also timed in reference seconds."""

    def __init__(self, tracer=None, sampler=None) -> None:
        self.seconds = 0.0
        self.ref_seconds = 0.0
        self.tracer = tracer
        self.sampler = sampler

    @contextmanager
    def section(self, item: str):
        tracer = self.tracer
        if tracer is not None:
            tracer.item = item
            idx = tracer.open(PASS_SPAN)
        if self.sampler is not None:
            self.sampler.start()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            if self.sampler is not None:
                host, ref = self.sampler.stop()
                self.seconds += host
                self.ref_seconds += ref
            else:
                self.seconds += time.perf_counter() - t0
            if tracer is not None:
                tracer.close(idx)


class PassResult:
    def __init__(self) -> None:
        #: item id -> output digest dict (or {"error": ...} when it raised)
        self.outputs: dict[str, dict] = {}
        #: deterministic work counts of the pass
        self.counts: dict[str, float] = {}
        self.seconds = 0.0
        #: the pass in reference seconds (see hostspeed.py), 0 when unsampled
        self.ref_seconds = 0.0

    def add(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


_RUN_COUNTERS = (
    "engine.trace_events",
    "engine.mpi_calls",
    "engine.compute_ops",
    "engine.p2p_matches",
    "sim.class_batch.ranks_batched",
    "sim.class_batch.fallbacks",
    "sim.wildcard.devirt",
)


class Workload:
    name = ""
    #: True when outputs do not depend on the seed (checked at any seed)
    seed_independent = False
    #: True when set-up fills a profile cache directory
    needs_cache = False

    def __init__(self, seed: int, cache_dir: str | None = None) -> None:
        self.seed = seed
        self.cache_dir = cache_dir
        self.apps = preload()

    def setup(self) -> None:
        """Work a user pays once before the first pass (beyond imports)."""

    def run_pass(self, tracer=None, sampler=None) -> PassResult:
        res = PassResult()
        clock = Clock(tracer, sampler)
        self._pass(clock, res)
        res.seconds = clock.seconds
        res.ref_seconds = clock.ref_seconds
        return res

    def check(self, item: str, output: dict, expected: dict | None) -> str | None:
        """Why ``output`` is wrong, or None.  ``expected`` is the value
        recorded at HEAD when it applies to this seed."""
        if "error" in output:
            return output["error"]
        if expected is not None and output != expected:
            return f"output {output} != recorded {expected}"
        if "top" in output and item in TOP_ROOT_CAUSE:
            if output["top"] != TOP_ROOT_CAUSE[item]:
                return (
                    f"top root cause {output['top']!r} != "
                    f"{TOP_ROOT_CAUSE[item]!r}"
                )
        return None


def _report_output(report) -> dict:
    from repro.api import canonical_report_sha

    return {
        "report_sha": canonical_report_sha(report),
        "top": report.root_causes[0].function if report.root_causes else None,
    }


def _app_failed(res: PassResult, app: str, scales, exc: Exception) -> None:
    """An app whose section raised: each of its items counts as failed."""
    for p in scales:
        res.outputs[f"{app}@{p}"] = {"error": repr(exc)}
    res.outputs[app] = {"error": repr(exc)}


class _Diagnose(Workload):
    """Profile every scale, then detect: the steps of ``Pipeline.run``
    (and of ``scalana run``), kept apart so each run can be checked."""

    app_scales: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def _pass(self, clock: Clock, res: PassResult) -> None:
        from repro.api import Pipeline, run_fingerprint

        for app, scales in self.app_scales:
            try:
                with clock.section(app):
                    pipe = Pipeline.for_app(self.apps[app], seed=self.seed)
                    arts = pipe.profile_scales(scales, jobs=1)
                    report = pipe.detect(arts)
            except Exception as exc:
                _app_failed(res, app, scales, exc)
                continue
            for art in arts:
                p = art.run.nprocs
                res.outputs[f"{app}@{p}"] = {
                    "fingerprint": run_fingerprint(art.run)
                }
                metrics = art.run.result.metrics
                for key in _RUN_COUNTERS:
                    res.add(key, metrics.counter(key))
                res.add("ranks_simulated", p)
            res.outputs[app] = _report_output(report)
            del arts, report


class CaseStudySweep(_Diagnose):
    name = "casestudy_sweep"
    app_scales = tuple((a, CASESTUDY_SCALES) for a in CASESTUDY_APPS)


class CgSweep(_Diagnose):
    name = "cg_sweep"
    app_scales = (("cg", CG_SCALES),)


class LintScales(Workload):
    """``scalana lint --scales all`` over every registry app."""

    name = "lint_scales"
    seed_independent = True

    def _pass(self, clock: Clock, res: PassResult) -> None:
        from repro.api import Pipeline

        for app in sorted(self.apps):
            spec = self.apps[app]
            try:
                with clock.section(app):
                    pipe = Pipeline.for_app(spec, seed=self.seed)
                    report = pipe.lint(scales="all", valid=spec.nprocs_valid)
                    text = report.render()
            except Exception as exc:
                res.outputs[app] = {"error": repr(exc)}
                continue
            res.outputs[app] = {
                "status": report.status,
                "witnesses": list(report.scales),
                "counts": report.counts(),
                "findings": len(report.findings),
                "render_sha": _sha(text),
            }
            res.add("analysis.lint_witnesses", len(report.scales))
            res.add("lint.findings", len(report.findings))


class WarmRerun(Workload):
    """Re-diagnose the case studies from a disk cache filled in setup."""

    name = "warm_rerun"
    needs_cache = True

    def setup(self) -> None:
        from repro.api import Session

        session = Session(cache_dir=self.cache_dir)
        for app in CASESTUDY_APPS:
            session.pipeline(self.apps[app], seed=self.seed).profile_scales(
                CASESTUDY_SCALES, jobs=1
            )

    def _pass(self, clock: Clock, res: PassResult) -> None:
        from repro.api import Session, run_fingerprint

        with clock.section("session"):
            session = Session(cache_dir=self.cache_dir)
        for app in CASESTUDY_APPS:
            try:
                with clock.section(app):
                    pipe = session.pipeline(self.apps[app], seed=self.seed)
                    arts = pipe.profile_scales(CASESTUDY_SCALES, jobs=1)
                    report = pipe.detect(arts)
                    text = pipe.report(report, with_source=True).text
            except Exception as exc:
                _app_failed(res, app, CASESTUDY_SCALES, exc)
                continue
            for art in arts:
                res.outputs[f"{app}@{art.run.nprocs}"] = {
                    "cached": art.cached,
                    "fingerprint": run_fingerprint(art.run),
                }
            res.outputs[app] = {**_report_output(report), "render_sha": _sha(text)}
            del arts, report
        res.add("cache.hits", session.stats.hits)
        res.add("cache.lookups", session.stats.lookups)

    def check(self, item: str, output: dict, expected: dict | None) -> str | None:
        if output.get("cached") is False:
            return "profile was re-simulated instead of loaded from cache"
        return super().check(item, output, expected)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (CaseStudySweep, CgSweep, LintScales, WarmRerun)
}
