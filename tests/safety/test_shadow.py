"""Dynamic shadow-write cross-validation of the static safety verdicts.

Every workload is run twice: once through the shadow recorder (serial,
element-level access logs per dispatched iteration) and once through the
static verifier.  The two must agree — racy workloads show the claimed
rule code in both, safe workloads show neither.  A final set of tests
replays *measured* claim logs from real parallel runs: grouping the
shadow's per-iteration write sets by each worker's claimed ``[lo, hi]``
ranges must give pairwise-disjoint chunk write sets for proven
workloads, and overlapping ones for the seeded overlap race.
"""

import numpy as np
import pytest

from repro.analysis.safety import verify_procedure
from repro.api import lower_and_coalesce
from repro.ir.builder import assign, doall, proc, ref, v
from repro.ir.printer import to_source
from repro.parallel import run_parallel_procedure
from repro.workloads import MIXED_WORKLOADS, RACY_WORKLOADS, WORKLOADS, make_env

from .shadow import (
    chunk_write_sets,
    chunks_disjoint,
    dynamic_verdict,
    shadow_procedure,
)

SAFE = sorted(set(WORKLOADS) - {"floyd"})


def coalesced(p):
    _, q, _, _ = lower_and_coalesce(
        to_source(p), frontend="dsl", analyze=False, cache=None
    )
    return q


def combined_verdict(shadows):
    kinds = set()
    for s in shadows:
        kinds |= s.verdict
    return kinds


def static_rules(p):
    return {f.rule for f in verify_procedure(p).findings}


class TestShadowAgreesOnSafe:
    @pytest.mark.parametrize("name", SAFE)
    @pytest.mark.parametrize("form", ["raw", "coalesced"])
    def test_no_dynamic_conflicts_where_static_proves(self, name, form):
        w = WORKLOADS[name]()
        arrays, sc = make_env(w)
        p = w.proc if form == "raw" else coalesced(w.proc)
        assert verify_procedure(p).ok
        shadows = shadow_procedure(p, arrays, sc)
        assert shadows, "every workload must dispatch something"
        assert combined_verdict(shadows) == set()

    def test_shadow_execution_is_serial_semantics(self):
        # The recorder is a real interpreter: its side effect must be the
        # reference result, or the access logs describe the wrong program.
        from repro.codegen.pygen import compile_procedure

        w = WORKLOADS["gauss_jordan"]()
        arrays, sc = make_env(w)
        expected = {k: a.copy() for k, a in arrays.items()}
        compile_procedure(w.proc).run(expected, sc)
        shadow_procedure(coalesced(w.proc), arrays, sc)
        assert all(np.allclose(arrays[k], expected[k]) for k in arrays)


class TestShadowAgreesOnRacy:
    EXPECTED = {
        "racy_flow": "RACE001",
        "racy_overlap": "RACE002",
        "racy_scalar": "PRIV002",
    }

    @pytest.mark.parametrize("name", sorted(RACY_WORKLOADS))
    @pytest.mark.parametrize("form", ["raw", "coalesced"])
    def test_dynamic_conflict_matches_static_rule(self, name, form):
        w = RACY_WORKLOADS[name]()
        arrays, sc = make_env(w)
        p = w.proc if form == "raw" else coalesced(w.proc)
        code = self.EXPECTED[name]
        assert code in static_rules(p)
        shadows = shadow_procedure(p, arrays, sc)
        assert code in combined_verdict(shadows)

    def test_floyd_is_flagged_by_both_sides(self):
        # floyd's DOALL claim rests on idempotence, not independence: the
        # static verifier refuses to prove it, and the shadow recorder
        # observes the same cross-iteration element conflicts.
        w = WORKLOADS["floyd"]()
        arrays, sc = make_env(w)
        static = static_rules(w.proc)
        assert static
        shadows = shadow_procedure(w.proc, arrays, sc)
        dynamic = combined_verdict(shadows)
        assert dynamic & static


class TestShadowTriangular:
    def _triangle(self, racy):
        target = ref("T", v("j")) if racy else ref("T", v("i"), v("j"))
        return proc(
            "tri",
            doall("i", 1, v("n"))(
                doall("j", 1, v("i"))(assign(target, v("i") * 100 + v("j")))
            ),
            arrays={"T": 1 if racy else 2},
            scalars=("n",),
        )

    def test_triangular_nest_clean_both_ways(self):
        p = self._triangle(racy=False)
        n = 12
        arrays = {"T": np.zeros((n + 1, n + 1))}
        assert verify_procedure(p).ok
        assert combined_verdict(shadow_procedure(p, arrays, {"n": n})) == set()

    def test_racy_triangular_flagged_both_ways(self):
        p = self._triangle(racy=True)
        n = 12
        arrays = {"T": np.zeros(n + 1)}
        assert "RACE002" in static_rules(p)
        dynamic = combined_verdict(shadow_procedure(p, arrays, {"n": n}))
        assert "RACE002" in dynamic


class TestChunkReplay:
    """Replay real claim logs against the shadow's per-iteration writes."""

    def _run_and_shadow(self, w, p, **kwargs):
        arrays, sc = make_env(w)
        mirror = {k: a.copy() for k, a in arrays.items()}
        result = run_parallel_procedure(
            p, arrays, sc, workers=2, log_events=True, **kwargs
        )
        shadows = shadow_procedure(p, mirror, sc)
        assert len(shadows) == len(result.dispatches)
        return result, shadows

    @pytest.mark.parametrize("name", ["saxpy2d", "gauss_jordan"])
    def test_proven_workload_chunks_write_disjoint(self, name):
        w = WORKLOADS[name]()
        result, shadows = self._run_and_shadow(w, coalesced(w.proc))
        for shadow, dispatch in zip(shadows, result.dispatches):
            assert shadow.loop_var == dispatch.loop_var
            assert dispatch.events, "log_events=True must record claims"
            sets = chunk_write_sets(shadow, dispatch.events)
            assert chunks_disjoint(sets)

    def test_overlap_race_shows_up_in_claimed_chunks(self):
        w = RACY_WORKLOADS["racy_overlap"]()
        # static plan: both workers claim exactly one block each, so the
        # cross-chunk overlap cannot hide in a single giant claim.
        result, shadows = self._run_and_shadow(
            w, coalesced(w.proc), safety="off", policy="static"
        )
        (shadow,), (dispatch,) = shadows, result.dispatches
        sets = chunk_write_sets(shadow, dispatch.events)
        assert len(sets) >= 2
        assert not chunks_disjoint(sets)

    def test_replay_covers_every_iteration(self):
        w = WORKLOADS["saxpy2d"]()
        result, shadows = self._run_and_shadow(w, coalesced(w.proc))
        for shadow, dispatch in zip(shadows, result.dispatches):
            claimed = sum(e.size for e in dispatch.events)
            assert claimed == len(shadow.logs)
            everything = set().union(*chunk_write_sets(shadow, dispatch.events))
            union = set()
            for log in shadow.logs:
                union |= log.writes
            assert everything == union


def transformed(p):
    _, q, _, _ = lower_and_coalesce(
        to_source(p),
        frontend="dsl",
        cache=None,
        transforms="fission,reduction",
    )
    return q


class TestShadowAgreesOnMixed:
    """Static verdicts vs dynamic logs on every partially-parallel workload.

    After fission+reduction the static side either proves a dispatched
    piece race-free, recognizes a reduction (RED001), or dispatches
    nothing at all — and the shadow recorder must tell the same story:
    clean logs for proven pieces, a scalar conflict (PRIV002) exactly
    where the static side granted RED001, and no dispatches where
    fission refused.
    """

    def test_mixed_update_doall_piece_clean_both_ways(self):
        w = MIXED_WORKLOADS["mixed_update"]()
        p = transformed(w.proc)
        report = verify_procedure(p)
        assert report.ok
        arrays, sc = make_env(w)
        shadows = shadow_procedure(p, arrays, sc)
        assert shadows, "the fissioned B-piece must dispatch"
        assert combined_verdict(shadows) == set()

    def test_mixed_update_shadow_matches_reference(self):
        w = MIXED_WORKLOADS["mixed_update"]()
        arrays, sc = make_env(w)
        expected = {k: a.copy() for k, a in arrays.items()}
        w.reference(expected, sc)
        shadow_procedure(transformed(w.proc), arrays, sc)
        assert all(np.array_equal(arrays[k], expected[k]) for k in arrays)

    def test_mixed_antidep_dispatches_nothing_either_way(self):
        w = MIXED_WORKLOADS["mixed_antidep"]()
        p = transformed(w.proc)
        arrays, sc = make_env(w)
        shadows = shadow_procedure(p, arrays, sc)
        assert shadows == []

    def test_mixed_antidep_forced_claim_flagged_both_ways(self):
        # If someone hand-claims the refused loop DOALL, both oracles
        # must catch the anti dependence fission refused over.
        w = MIXED_WORKLOADS["mixed_antidep"]()
        lp = w.proc.body.stmts[0]
        from repro.ir.stmt import Block, LoopKind

        forced = w.proc.with_body(
            Block((lp.with_kind(LoopKind.DOALL),) + w.proc.body.stmts[1:])
        )
        static = static_rules(forced)
        assert "RACE003" in static
        arrays, sc = make_env(w)
        dynamic = combined_verdict(shadow_procedure(forced, arrays, sc))
        assert "RACE003" in dynamic

    @pytest.mark.parametrize("name", ["dot_product", "guarded_sum"])
    def test_reduction_scalar_conflict_matches_red001(self, name):
        w = MIXED_WORKLOADS[name]()
        p = transformed(w.proc)
        report = verify_procedure(p)
        assert report.ok
        assert "RED001" in {f.rule for f in report.findings}
        assert any(
            getattr(lp, "reduction", None) == "s" for lp in report.loops
        )
        arrays, sc = make_env(w)
        shadows = shadow_procedure(p, arrays, sc)
        assert shadows, "the recognized reduction loop must dispatch"
        # The recorder sees the same carried accumulator the static side
        # licensed: its raw verdict is the scalar-conflict code, nothing
        # else — agreement, since RED001 is exactly "PRIV002, but the
        # runtime handles it with partials + ordered combine".
        assert combined_verdict(shadows) == {"PRIV002"}


class TestVerdictPrimitives:
    def test_dynamic_verdict_on_synthetic_logs(self):
        from .shadow import IterationAccess

        a = IterationAccess(1, writes={("A", (1,))})
        b = IterationAccess(2, reads={("A", (1,))}, writes={("A", (2,))})
        assert dynamic_verdict([a, b]) == {"RACE001"}
        # Reverse the order: the same pair is an anti dependence.
        c = IterationAccess(1, reads={("A", (5,))})
        d = IterationAccess(2, writes={("A", (5,))})
        assert dynamic_verdict([c, d]) == {"RACE003"}
        e = IterationAccess(1, writes={("B", (3,))})
        f = IterationAccess(2, writes={("B", (3,))})
        assert dynamic_verdict([e, f]) == {"RACE002"}

    def test_scalar_verdict_requires_exposed_read(self):
        from .shadow import IterationAccess

        # Written-then-read inside each iteration is private in practice.
        g = IterationAccess(1, scalar_writes={"t"})
        h = IterationAccess(2, scalar_writes={"t"})
        assert dynamic_verdict([g, h]) == set()
        i = IterationAccess(1, scalar_reads={"acc"}, scalar_writes={"acc"})
        j = IterationAccess(2, scalar_reads={"acc"}, scalar_writes={"acc"})
        assert dynamic_verdict([i, j]) == {"PRIV002"}
