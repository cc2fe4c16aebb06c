"""Class-batched simulation is bit-identical to per-rank interpretation.

The per-rank interpreter is the bit-identity oracle: with
``sim_class_batching`` on, every rank of a proven behavioral equivalence
class consumes an op stream fanned out from its class representative —
and nothing observable may change.  Mirrors the class-sharing identity
gate: same randomized workloads, fingerprints plus canonical detection
reports, serial and sharded, both executors, both schedulers.  The
adversarial section additionally pins the *fallback* behavior: workloads
engineered to defeat batching (wildcard receives inside a symmetric
phase, a single rank diverging late) must take the per-rank path — the
fallback counter says so — and still match the oracle exactly.
"""

import math
import random
from dataclasses import replace

import pytest

from repro.analysis.batching import op_stmt_index
from repro.api import AnalysisConfig, Pipeline
from repro.api.config import canonical_json
from repro.minilang.errors import SourceLocation
from repro.simulator import SimulationConfig, classbatch, ops, simulate
from repro.simulator.costmodel import CostModel, Workload
from repro.simulator.errors import MpiUsageError, SimulationError
from tests.conftest import IMBALANCED_SOURCE
from tests.test_scheduler_identity import _compiled, _fingerprint, make_workload


def _batch_counters(result) -> dict:
    return {
        k.rsplit(".", 1)[1]: v
        for k, v in result.metrics.counters.items()
        if k.startswith("sim.class_batch.")
    }


class TestRandomizedWorkloads:
    @pytest.mark.parametrize("seed", range(1, 100, 4))
    def test_batching_matches_per_rank_oracle(self, seed):
        source = make_workload(seed)
        rng = random.Random(30_000 + seed)
        nprocs = rng.randint(5, 9)
        program, psg = _compiled(source, f"batch{seed}")
        oracle = _fingerprint(program, psg, nprocs, sim_class_batching=False)
        batched = _fingerprint(program, psg, nprocs, sim_class_batching=True)
        assert batched == oracle, f"serial divergence on seed {seed}"
        sharded = _fingerprint(
            program, psg, nprocs,
            sim_class_batching=True,
            sim_shards=rng.randint(2, 4), sim_executor="inprocess",
        )
        assert sharded == oracle, f"sharded divergence on seed {seed}"

    @pytest.mark.parametrize("seed", [5, 41, 77])
    def test_process_executor_and_both_schedulers(self, seed):
        source = make_workload(seed)
        program, psg = _compiled(source, f"batchmp{seed}")
        oracle = _fingerprint(program, psg, 6, sim_class_batching=False)
        for scheduler in ("heap", "calendar"):
            for extra in (
                {},
                dict(sim_shards=2, sim_executor="process"),
            ):
                fp = _fingerprint(
                    program, psg, 6,
                    sim_class_batching=True, sim_scheduler=scheduler, **extra,
                )
                assert fp == oracle, (seed, scheduler, extra)


#: Fully symmetric ring exchange: one equivalence class, every field of
#: every op either invariant or affine in rank — the canonical batch hit.
SYMMETRIC_RING = """\
def main() {
    for (var it = 0; it < 4; it = it + 1) {
        compute(flops = 40000 + 1000 * it);
        sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = 512,
                 src = (rank - 1 + nprocs) % nprocs);
    }
    allreduce(bytes = 8);
}
"""

#: A wildcard receive inside a perfectly symmetric phase: every rank runs
#: the identical statement sequence (one equivalence class), but ANY-src
#: matching is arrival-order dependent, so the template check must refuse
#: the whole class — batching a wildcard would bake in one arrival order.
#: (PR 10: with ``sim_wildcard_devirt`` on, the match-order analysis
#: proves this ring deterministic and the rewritten concrete-source
#: stream batches after all — both behaviors are asserted below.)
WILDCARD_IN_SYMMETRIC_PHASE = """\
def main() {
    for (var it = 0; it < 3; it = it + 1) {
        compute(flops = 10000);
        send(dest = (rank + 1) % nprocs, tag = 3, bytes = 64);
        recv(src = ANY, tag = 3);
    }
    barrier();
}
"""

#: Every rank runs the same symmetric loop, then exactly one rank takes a
#: divergent late branch — the symmetry partition must split it out (or
#: degrade), never batch it with the others.
ONE_RANK_DIVERGES_LATE = """\
def main() {
    for (var it = 0; it < 3; it = it + 1) {
        compute(flops = 30000);
        sendrecv(dest = (rank + 1) % nprocs, tag = 2, bytes = 256,
                 src = (rank - 1 + nprocs) % nprocs);
    }
    if (rank == nprocs - 1) {
        compute(flops = 999999);
        compute(flops = hashrand(rank, 7) * 1000 + 1000);
    }
    barrier();
}
"""


class TestBatchingEngages:
    def test_symmetric_ring_batches_every_rank(self):
        """Meta-check: the identity gate is not vacuous — a symmetric app
        really takes the batched path for all ranks."""
        program, psg = _compiled(SYMMETRIC_RING, "symring")
        res = simulate(program, psg, SimulationConfig(nprocs=16))
        stats = _batch_counters(res)
        assert stats["classes"] >= 1
        assert stats["ranks_batched"] == 16
        assert stats["fallbacks"] == 0

    def test_oracle_run_reports_zero_batching(self):
        program, psg = _compiled(SYMMETRIC_RING, "symring_off")
        res = simulate(
            program, psg,
            SimulationConfig(nprocs=16, sim_class_batching=False),
        )
        stats = _batch_counters(res)
        assert stats["classes"] == 0
        assert stats["ranks_batched"] == 0

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(nprocs=2, sim_class_batching="on")
        with pytest.raises(ValueError):
            AnalysisConfig(sim_class_batching=1)


class TestAdversarialFallback:
    def test_wildcard_recv_in_symmetric_phase_falls_back(self):
        """With devirtualization disabled, a wildcard receive never rides
        a template (batching one would bake in an arrival order)."""
        program, psg = _compiled(WILDCARD_IN_SYMMETRIC_PHASE, "wildsym")
        oracle = _fingerprint(program, psg, 8, sim_class_batching=False)
        assert _fingerprint(
            program, psg, 8, sim_wildcard_devirt=False
        ) == oracle
        res = simulate(
            program, psg,
            SimulationConfig(nprocs=8, sim_wildcard_devirt=False),
        )
        stats = _batch_counters(res)
        # The class containing the wildcard must fall back wholesale —
        # an undevirtualized wildcard receive never rides a template.
        assert stats["fallbacks"] >= 1
        assert stats["ranks_batched"] == 0

    def test_devirt_lifts_the_wildcard_refusal(self):
        """PR 10: the match-order analysis proves this ring's wildcard
        deterministic, so with devirtualization on (the default) the same
        phase batches — bit-identically to the per-rank oracle."""
        program, psg = _compiled(WILDCARD_IN_SYMMETRIC_PHASE, "wildsymdv")
        oracle = _fingerprint(program, psg, 8, sim_class_batching=False)
        assert _fingerprint(program, psg, 8) == oracle
        res = simulate(program, psg, SimulationConfig(nprocs=8))
        stats = _batch_counters(res)
        assert stats["fallbacks"] == 0
        assert stats["ranks_batched"] == 8

    def test_one_rank_diverging_late_is_never_batched_in(self):
        program, psg = _compiled(ONE_RANK_DIVERGES_LATE, "lonediv")
        oracle = _fingerprint(program, psg, 8, sim_class_batching=False)
        assert _fingerprint(program, psg, 8) == oracle
        res = simulate(program, psg, SimulationConfig(nprocs=8))
        stats = _batch_counters(res)
        # rank nprocs-1 executes extra statements (one with a value the
        # analysis cannot close over rank) — it must stay per-rank.
        assert stats["ranks_batched"] < 8

    def test_fallback_reasons_surface_on_engine(self):
        """The engine records why classes degraded (bounded, deduplicated)
        so bench and debug tooling can explain a batch miss."""
        from repro.psg import build_psg
        from repro.minilang.parser import parse_program
        from repro.simulator.engine import Engine

        program = parse_program(WILDCARD_IN_SYMMETRIC_PHASE, "wildsym.mm")
        psg = build_psg(program).psg
        engine = Engine(
            program, psg,
            SimulationConfig(nprocs=8, sim_wildcard_devirt=False),
        )
        engine.run()
        assert engine.class_batch_stats["fallbacks"] >= 1
        assert engine.class_batch_reasons
        assert all(isinstance(r, str) for r in engine.class_batch_reasons)


class TestCanonicalReport:
    def test_report_sha_identical_with_and_without_batching(self):
        reports = {}
        for flag in (False, True):
            pipeline = Pipeline(
                source=IMBALANCED_SOURCE, filename="imbalanced.mm",
                config=AnalysisConfig(seed=0, sim_class_batching=flag),
            )
            doc = pipeline.run([4, 8, 16]).report.to_json_dict()
            doc["detection_seconds"] = 0.0
            reports[flag] = canonical_json(doc)
        assert reports[True] == reports[False]

    def test_batching_is_digest_neutral(self):
        base = AnalysisConfig(seed=0)
        off = AnalysisConfig(seed=0, sim_class_batching=False)
        assert base.digest() == off.digest()
        assert AnalysisConfig.from_json(off.to_json()) == off
        # pre-knob documents load with the default
        import json

        doc = json.loads(base.to_json())
        doc.pop("sim_class_batching", None)
        assert AnalysisConfig.from_dict(doc).sim_class_batching is True


#: One loop whose statements re-emit ops with INVARIANT fields that differ
#: across iterations only as ``1`` vs ``1.0`` and ``0.0`` vs ``-0.0`` (the
#: ``5.0`` iteration in between defeats the interpreter's last-workload
#: memo, so the signed zeros reach distinct Workload values).  A template
#: keyed by ``==`` would alias them; the content key must not.
ALIASING_LOOP = """\
def main() {
    for (var it = 0; it < 6; it = it + 1) {
        var z = 0.0;
        var b = 1;
        if (it % 3 == 1) {
            z = 5.0;
        }
        if (it % 3 == 2) {
            z = -0.0;
            b = 1.0;
        }
        compute(flops = z, bytes = z);
        compute(flops = 20000 + 1000 * rank, bytes = b);
        sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = b,
                 src = (rank - 1 + nprocs) % nprocs);
        allreduce(bytes = b);
    }
}
"""

#: Every rank divides by zero after a symmetric loop: the runtime error
#: must surface from the per-rank path, not from the batching builder.
LATE_DIVISION_BY_ZERO = """\
def main() {
    for (var it = 0; it < 4; it = it + 1) {
        compute(flops = 1000 + 100 * rank);
        sendrecv(dest = (rank + 1) % nprocs, tag = 1, bytes = 64,
                 src = (rank - 1 + nprocs) % nprocs);
    }
    compute(flops = 1000 / (nprocs - nprocs));
}
"""


def _template_inputs(source, name, nprocs):
    """What ``build_batched_streams`` hands ``_build_template`` for the
    first class of ``source``: (program, rep stream, members, analysis)."""
    from repro.analysis.rankdep import analyze_program
    from repro.analysis.symmetry import partition_ranks

    program, psg = _compiled(source, name)
    analysis = analyze_program(program, nprocs, {})
    summary = partition_ranks(program, nprocs, {}, analysis=analysis)
    members = list(summary.classes[0].ranks)
    stream = classbatch._materialize(
        program, psg, members[0], nprocs, {}, "main", 10_000_000, {}, None,
    )
    return program, stream, members, analysis


class TestContentKeyedTemplate:
    def test_sst_p64_builds_one_instance_set_per_varying_entry(self):
        """sst's three rank-varying statements repeat with identical
        content on every loop iteration: the builder makes 3 x 64
        per-member instances, not one set per stream position."""
        from repro.apps import get_app
        from tests.test_apps import run_app

        counters = run_app(get_app("sst"), 64).metrics.counters
        assert counters["sim.class_batch.ranks_batched"] == 64
        assert counters["sim.class_batch.fallbacks"] == 0
        assert counters["sim.class_batch.instances_built"] == 192

    def test_aliasing_loop_matches_per_rank_oracle(self):
        program, psg = _compiled(ALIASING_LOOP, "aliasing")
        oracle = _fingerprint(program, psg, 8, sim_class_batching=False)
        assert _fingerprint(program, psg, 8) == oracle
        stats = _batch_counters(
            simulate(program, psg, SimulationConfig(nprocs=8))
        )
        assert stats["ranks_batched"] == 8
        reports = {}
        for flag in (False, True):
            pipeline = Pipeline(
                source=ALIASING_LOOP, filename="aliasing.mm",
                config=AnalysisConfig(seed=0, sim_class_batching=flag),
            )
            doc = pipeline.run([4, 8]).report.to_json_dict()
            doc["detection_seconds"] = 0.0
            reports[flag] = canonical_json(doc)
        assert reports[True] == reports[False]

    def test_content_key_is_type_strict_and_bitwise(self):
        key = classbatch._content_key
        assert key(1) != key(1.0)
        assert key(True) != key(1)
        assert key(0.0) != key(-0.0)
        assert key(Workload(flops=0.0)) != key(Workload(flops=-0.0))
        loc = SourceLocation("k.mm", 3, 5)
        a = ops.CollectiveOp(vid=1, location=loc, nbytes=8)
        assert key(a) == key(replace(a))
        assert key(a) != key(replace(a, nbytes=8.0))
        assert key(a) != key(ops.SendOp(vid=1, location=loc, dest=0, tag=0,
                                        nbytes=8))

    def test_template_positions_keep_their_own_content(self):
        """Feed the builder a stream whose repeated ops differ only as
        ``8`` vs ``8.0`` / ``0.0`` vs ``-0.0``: every base position must
        carry its own op's exact content, never an earlier look-alike's."""
        program, stream, members, analysis = _template_inputs(
            ALIASING_LOOP, "aliasing_unit", 6
        )
        mutated = []
        for i, op in enumerate(stream):
            if i % 2 and type(op) is ops.CollectiveOp:
                op = replace(op, nbytes=float(op.nbytes))
            elif i % 2 and type(op) is ops.ComputeOp \
                    and op.workload.flops == 0.0:
                op = replace(op, workload=Workload(flops=-0.0))
            mutated.append(op)
        assert any(type(op.nbytes) is float for op in mutated
                   if type(op) is ops.CollectiveOp)
        result = classbatch.BatchResult(streams={})
        base, patches = classbatch._build_template(
            mutated, members, analysis, op_stmt_index(program), {}, 6,
            CostModel(), True, None, result,
        )
        assert patches and result.instances_built > 0
        for want, got in zip(mutated, base):
            if isinstance(want, ops.CollectiveOp):
                assert type(got.nbytes) is type(want.nbytes)
            elif isinstance(want, ops.ComputeOp):
                assert math.copysign(1.0, got.workload.flops) == \
                    math.copysign(1.0, want.workload.flops)


class TestLoudFailures:
    def test_builder_crash_counts_as_a_fallback(self, monkeypatch):
        """A crash inside the builder degrades the run to per-rank
        interpretation, but the counters and reasons say so."""
        from repro.psg import build_psg
        from repro.minilang.parser import parse_program
        from repro.simulator.engine import Engine

        def boom(**_kwargs):
            raise KeyError("template slot")

        monkeypatch.setattr(classbatch, "build_batched_streams", boom)
        program = parse_program(SYMMETRIC_RING, "symring_boom.mm")
        engine = Engine(
            program, build_psg(program).psg, SimulationConfig(nprocs=8)
        )
        engine.run()
        assert engine.class_batch_stats["fallbacks"] == 1
        assert engine.class_batch_stats["ranks_batched"] == 0
        assert any("KeyError" in r for r in engine.class_batch_reasons)

    def test_representative_runtime_error_surfaces_per_rank(self):
        program, psg = _compiled(LATE_DIVISION_BY_ZERO, "latediv")
        errors = {}
        for flag in (False, True):
            with pytest.raises(SimulationError) as info:
                simulate(program, psg, SimulationConfig(
                    nprocs=6, sim_class_batching=flag,
                ))
            errors[flag] = str(info.value)
        assert errors[True] == errors[False]
        assert "division by zero" in errors[True]
        # the builder saw the representative raise and degraded the class
        from repro.simulator.engine import Engine

        engine = Engine(program, psg, SimulationConfig(nprocs=6))
        engine.start()
        assert engine.class_batch_stats["ranks_batched"] == 0
        assert any(
            "division by zero" in r for r in engine.class_batch_reasons
        )

    @pytest.mark.parametrize(
        "name,stmt,error,message",
        [
            ("powovf", "compute(flops = pow(10.0, 400));",
             SimulationError, "pow(): "),
            ("infbytes",
             "send(dest = (rank + 1) % nprocs, tag = 1, "
             "bytes = 1.0e308 * 10.0);",
             MpiUsageError, "bytes must be finite, got inf"),
            ("infflops", "compute(flops = 1.0e308 * 10.0);",
             MpiUsageError, "flops must be finite, got inf"),
            ("bigintmem", "compute(flops = 1000, bytes = pow(10, 400));",
             MpiUsageError, "bytes must be finite, got inf"),
        ],
        ids=["pow", "bytes", "flops", "bigint"],
    )
    def test_arithmetic_overflow_is_a_located_error(
        self, name, stmt, error, message
    ):
        """An overflowing builtin or a non-finite workload or byte count is a
        typed error naming its source line on both paths, and the builder
        degrades only the class whose representative raised."""
        from repro.simulator.engine import Engine

        program, psg = _compiled(f"def main() {{\n    {stmt}\n}}\n", name)
        for flag in (False, True):
            with pytest.raises(error) as info:
                simulate(program, psg, SimulationConfig(
                    nprocs=4, sim_class_batching=flag,
                ))
            assert str(info.value).startswith(f"{name}.mm:2: ")
            assert message in str(info.value)
        engine = Engine(program, psg, SimulationConfig(nprocs=4))
        engine.start()
        assert engine.class_batch_stats["fallbacks"] == 1
        (reason,) = engine.class_batch_reasons
        assert reason.startswith("representative rank 0 raised: ")
        assert f"{name}.mm:2" in reason

    @pytest.mark.parametrize(
        "name,stmt,error,reason",
        [
            ("memberpow", "compute(flops = pow(10.0, 300 + 100 * rank));",
             SimulationError, "term evaluation failed: pow(): "),
            ("memberinf",
             "send(dest = (rank + 1) % nprocs, tag = 1,"
             " bytes = rank * 1.0e308 * 10.0);\n"
             "    recv(src = (rank - 1 + nprocs) % nprocs, tag = 1);",
             MpiUsageError, "derived nbytes=inf is not a byte count"),
            ("memberflops", "compute(flops = rank * 1.0e308 * 10.0);",
             MpiUsageError, "derived flops=inf is not finite"),
        ],
        ids=["pow", "bytes", "flops"],
    )
    def test_member_overflow_degrades_the_class(
        self, name, stmt, error, reason
    ):
        """A value finite on the representative but overflowing on another
        member falls back to per-rank interpretation, which then raises
        the located error at that member."""
        from repro.simulator.engine import Engine

        program, psg = _compiled(f"def main() {{\n    {stmt}\n}}\n", name)
        engine = Engine(program, psg, SimulationConfig(nprocs=4))
        engine.start()
        (got,) = engine.class_batch_reasons
        assert got.startswith(reason)
        for flag in (False, True):
            with pytest.raises(error, match=f"^{name}.mm:2: "):
                simulate(program, psg, SimulationConfig(
                    nprocs=4, sim_class_batching=flag,
                ))
