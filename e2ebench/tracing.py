"""Layer spans for the traced benchmark run.

Every layer boundary is a wrapper installed from this file on the module
(or class) attribute its caller resolves at call time; the program itself
is not modified.  A function imported by name into several modules (for
example ``partition_ranks``, which ``repro.analysis.lint`` binds at import
time) is wrapped at every binding, found by identity over the loaded
``repro`` modules.

Spans stay in memory (:class:`Tracer`) and are written out once, when the
run ends.  A layer's self time is the sum over its spans of the span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

#: layer name -> the (module, attribute) targets whose calls it covers.
#: A dotted attribute is a class method (``Engine.start``).
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "minilang.parse": (("repro.minilang", "parse_program"),),
    "psg.build": (("repro.psg", "build_psg"),),
    "analysis.rankdep": (("repro.analysis.rankdep", "analyze_program"),),
    "analysis.symmetry": (("repro.analysis.symmetry", "partition_ranks"),),
    "analysis.matchorder": (
        ("repro.analysis.matchorder", "devirt_sources"),
        ("repro.analysis.matchorder", "analyze_match_order"),
    ),
    "analysis.scaleparam": (
        ("repro.analysis.scaleparam", "run_lint_scales"),
        ("repro.analysis.scaleparam", "analyze_scale_parametric"),
        ("repro.analysis.scaleparam", "select_witnesses"),
    ),
    "analysis.commgraph": (
        ("repro.analysis.commgraph", "build_comm_graph"),
        ("repro.analysis.commgraph", "extract_concrete"),
        ("repro.analysis.commgraph", "CommGraph.instantiate"),
    ),
    "analysis.lint_witness": (("repro.analysis.lint", "run_lint"),),
    "simulator.simulate": (("repro.simulator.engine", "simulate"),),
    "simulator.start": (("repro.simulator.engine", "Engine.start"),),
    "simulator.classbatch": (
        ("repro.simulator.classbatch", "build_batched_streams"),
    ),
    "simulator.drain": (("repro.simulator.engine", "Engine.drain"),),
    "simulator.finish": (("repro.simulator.engine", "Engine.finish"),),
    "runtime.sampling": (("repro.runtime.sampling", "sample_result"),),
    "runtime.comm_dep": (
        ("repro.runtime.interposition", "collect_comm_dependence"),
    ),
    "tools.storage.load": (("repro.tools.storage", "load_profile"),),
    "tools.storage.save": (("repro.tools.storage", "save_profile"),),
    "api.session.fetch": (("repro.api.session", "Session.fetch"),),
    "detection.detect": (("repro.detection", "detect_scaling_loss"),),
    "ppg.build": (("repro.ppg.build", "build_ppg"),),
    "detection.nonscalable": (
        ("repro.detection.nonscalable", "detect_non_scalable"),
    ),
    "detection.abnormal": (("repro.detection.abnormal", "detect_abnormal"),),
    "detection.backtrack": (
        ("repro.detection.backtracking", "backtrack_root_causes"),
    ),
    "detection.report": (("repro.detection.report", "build_report"),),
    "tools.viewer.render": (
        ("repro.tools.viewer", "render_report_with_source"),
    ),
}

#: the root span of one workload pass; its self time is the part of the
#: pass no layer span covers
PASS_SPAN = "bench.pass"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    item: str


class Tracer:
    """In-memory span recorder with a parent stack (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item = ""
        self._stack: list[int] = []
        #: bytes of every profile file ``load_profile`` read
        self.bytes_read = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.item))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per-name self seconds: duration minus direct children's."""
        spans = self.spans
        child = defaultdict(float)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(spans):
            out[s.name] += (s.end - s.start) - child[i]
        return dict(out)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s.name] += 1
        return dict(out)

    def write(self, path: str, meta: dict) -> None:
        doc = {
            "meta": meta,
            "spans": [
                {
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "item": s.item,
                }
                for s in self.spans
            ],
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _resolve(module: str, attr: str):
    """(owner object, attribute name) for a LAYERS target."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _bindings(original) -> list[tuple[object, str]]:
    """Every ``repro`` module attribute bound to ``original``."""
    out = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                out.append((mod, name))
    return out


class Patches:
    """Installed wrappers, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module: str, attr: str, make_wrapper) -> None:
        owner, name = _resolve(module, attr)
        original = getattr(owner, name)
        wrapper = make_wrapper(original)
        sites = [(owner, name)]
        if not isinstance(owner, type):
            sites = _bindings(original)
        for site, site_name in sites:
            self._saved.append((site, site_name, original))
            setattr(site, site_name, wrapper)

    def restore(self) -> None:
        while self._saved:
            site, name, original = self._saved.pop()
            setattr(site, name, original)


def _span_wrapper(tracer: Tracer, layer: str):
    def make(original):
        def wrapper(*args, **kwargs):
            idx = tracer.open(layer)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(idx)

        wrapper.__wrapped__ = original
        return wrapper

    return make


def _load_wrapper(tracer: Tracer, make_span):
    """Span wrapper for ``load_profile`` that also counts bytes read."""
    def make(original):
        inner = make_span(original)

        def wrapper(path, *args, **kwargs):
            tracer.bytes_read += os.path.getsize(path)
            return inner(path, *args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    return make


def install_tracing(tracer: Tracer) -> Patches:
    """Wrap every LAYERS target with a span recorder."""
    patches = Patches()
    for layer, targets in LAYERS.items():
        make = _span_wrapper(tracer, layer)
        if layer == "tools.storage.load":
            make = _load_wrapper(tracer, make)
        for module, attr in targets:
            patches.wrap(module, attr, make)
    return patches


def install_delay(layer: str, seconds: float) -> Patches:
    """Add ``seconds`` of sleep to every call into ``layer`` — the known
    slowdown of the sensitivity self-check."""
    def make(original):
        def wrapper(*args, **kwargs):
            time.sleep(seconds)
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    patches = Patches()
    for module, attr in LAYERS[layer]:
        patches.wrap(module, attr, make)
    return patches
