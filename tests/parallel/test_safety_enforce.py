"""Safety enforcement in the mp runtime: off / warn / enforce end-to-end.

``warn`` (the default) verifies and reports but dispatches everything;
``enforce`` refuses unproven loops — serially executing a blocked loop
inside a mixed program, and raising :class:`SafetyVerificationError`
before any worker exists when *nothing* is provable (which the backend
turns into a recorded serial fallback).  Every refused racy workload
must still produce the exact serial-semantics result.
"""

import copy

import numpy as np
import pytest

from repro.api import lower_and_coalesce
from repro.ir.builder import assign, block, c, doall, proc, ref, v
from repro.ir.printer import to_source
from repro.parallel import (
    SafetyVerificationError,
    resolve_safety,
    run_parallel_procedure,
)
from repro.parallel.backend import compile_mp_procedure
from repro.workloads import RACY_WORKLOADS, WORKLOADS, make_env

WORKERS = 2


def coalesced(workload):
    _, p, _, _ = lower_and_coalesce(
        to_source(workload.proc), frontend="dsl", analyze=False, cache=None
    )
    return p


class TestResolveSafety:
    def test_default_is_warn(self):
        assert resolve_safety(None) == "warn"

    @pytest.mark.parametrize("mode", ["off", "warn", "enforce"])
    def test_explicit_modes(self, mode):
        assert resolve_safety(mode) == mode

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="safety"):
            resolve_safety("paranoid")


class TestEnforceRefusesRacy:
    EXPECTED = {
        "racy_flow": "RACE001",
        "racy_overlap": "RACE002",
        "racy_scalar": "PRIV002",
    }

    @pytest.mark.parametrize("name", sorted(RACY_WORKLOADS))
    def test_procedure_run_refused_with_rule(self, name):
        w = RACY_WORKLOADS[name]()
        arrays, sc = make_env(w)
        with pytest.raises(SafetyVerificationError) as exc:
            run_parallel_procedure(
                coalesced(w), arrays, sc, workers=WORKERS, safety="enforce"
            )
        assert self.EXPECTED[name] in str(exc.value)

    def test_doall_run_refused_before_any_worker(self):
        w = RACY_WORKLOADS["racy_flow"]()
        arrays, sc = make_env(w)
        before = {k: a.copy() for k, a in arrays.items()}
        with pytest.raises(SafetyVerificationError):
            run_parallel_procedure(
                coalesced(w), arrays, sc, workers=WORKERS, safety="enforce"
            )
        # Refused before dispatch: caller arrays untouched.
        assert all(np.array_equal(arrays[k], before[k]) for k in arrays)

    @pytest.mark.parametrize("name", sorted(RACY_WORKLOADS))
    def test_backend_serial_fallback_matches_reference(self, name):
        w = RACY_WORKLOADS[name]()
        arrays, sc = make_env(w)
        expected = {k: a.copy() for k, a in arrays.items()}
        w.reference(expected, sc)
        compiled = compile_mp_procedure(
            w.proc, workers=WORKERS, safety="enforce"
        )
        compiled.run(arrays, sc)
        assert compiled.fallback_reason is not None
        assert "SafetyVerificationError" in compiled.fallback_reason
        assert self.EXPECTED[name] in compiled.fallback_reason
        assert all(np.allclose(arrays[k], expected[k]) for k in arrays)


class TestEnforceDispatchesProven:
    @pytest.mark.parametrize("name", ["saxpy2d", "gauss_jordan"])
    def test_safe_workload_runs_unchanged(self, name):
        w = WORKLOADS[name]()
        arrays, sc = make_env(w)
        expected = {k: a.copy() for k, a in arrays.items()}
        from repro.codegen.pygen import compile_procedure

        compile_procedure(w.proc).run(expected, sc)
        result = run_parallel_procedure(
            coalesced(w), arrays, sc, workers=WORKERS, safety="enforce"
        )
        assert result.safety_mode == "enforce"
        assert result.safety is not None and result.safety.ok
        assert result.blocked_dispatches == 0
        assert result.dispatches
        assert all(np.allclose(arrays[k], expected[k]) for k in arrays)

    def test_mixed_program_blocks_only_unproven(self):
        n = 48
        p = proc(
            "mixed",
            block(
                doall("i", 1, v("n"))(assign(ref("A", v("i")), v("i") * 2.0)),
                doall("j", 2, v("n"))(
                    assign(ref("B", v("j")), ref("B", v("j") - c(1)) + 1.0)
                ),
            ),
            arrays={"A": 1, "B": 1},
            scalars=("n",),
        )
        arrays = {"A": np.zeros(n + 1), "B": np.zeros(n + 1)}
        result = run_parallel_procedure(
            p, arrays, {"n": n}, workers=WORKERS, safety="enforce"
        )
        assert len(result.dispatches) == 1  # the proven loop went parallel
        assert result.blocked_dispatches == 1  # the racy one ran serially
        assert np.allclose(arrays["A"][1:], np.arange(1, n + 1) * 2.0)
        # Serial execution of the blocked recurrence: exact serial semantics.
        assert np.allclose(arrays["B"][2:], np.arange(1, n))


class TestWarnAndOff:
    def test_warn_attaches_report_and_dispatches(self):
        w = WORKLOADS["saxpy2d"]()
        arrays, sc = make_env(w)
        result = run_parallel_procedure(
            coalesced(w), arrays, sc, workers=WORKERS
        )
        assert result.safety_mode == "warn"
        assert result.safety is not None and result.safety.ok

    def test_warn_dispatches_even_racy(self):
        # warn is observability, not a gate: the dispatch happens.
        w = RACY_WORKLOADS["racy_overlap"]()
        arrays, sc = make_env(w)
        result = run_parallel_procedure(
            coalesced(w), arrays, sc, workers=WORKERS, safety="warn"
        )
        assert result.dispatches
        assert result.safety is not None and not result.safety.ok

    def test_off_skips_verification(self):
        w = WORKLOADS["saxpy2d"]()
        arrays, sc = make_env(w)
        result = run_parallel_procedure(
            coalesced(w), arrays, sc, workers=WORKERS, safety="off"
        )
        assert result.safety_mode == "off"
        assert result.safety is None


class TestObservability:
    def test_counters_move(self):
        from repro.parallel.observe import DISPATCH

        before = copy.deepcopy(DISPATCH["safety"])
        w = RACY_WORKLOADS["racy_flow"]()
        arrays, sc = make_env(w)
        with pytest.raises(SafetyVerificationError):
            run_parallel_procedure(
                coalesced(w), arrays, sc, workers=WORKERS, safety="enforce"
            )
        after = DISPATCH["safety"]
        assert after["checked"] > before["checked"]
        assert after["unproven"] > before["unproven"]
        assert after["blocked"] > before["blocked"]
        assert (
            after["findings"].get("RACE001", 0)
            > before["findings"].get("RACE001", 0)
        )

    def test_metrics_snapshot_carries_safety_block(self):
        from repro.parallel.observe import metrics_snapshot

        doc = metrics_snapshot(cache=None)
        assert "safety" in doc["dispatch"]
        assert set(doc["dispatch"]["safety"]) == {
            "checked", "proven", "unproven", "blocked", "findings",
        }
