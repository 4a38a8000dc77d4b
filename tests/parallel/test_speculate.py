"""The default safety mode end-to-end: inspect, or refuse.

Every outcome must leave the caller's arrays exactly equal to the serial
semantics: a proven-dynamic dispatch because the parallel run was
conflict-free, a refuted or refused loop because it ran serially in the
parent (through the plan's compiled residue), and a run with nothing
left to dispatch because ``backend="mp"`` falls back to the serial
build.  The irregular workloads are constructed so each path fires
deterministically under seed 0.
"""

import numpy as np
import pytest

from repro.codegen.pygen import compile_procedure
from repro.frontend.dsl import parse
from repro.parallel import (
    SafetyVerificationError,
    SharedArrayPool,
    WorkerPool,
    resolve_safety,
    run_parallel_procedure,
)
from repro.parallel.backend import compile_mp_procedure
from repro.parallel.plan import prepare, verdict
from repro.runtime.interp import Interpreter
from repro.workloads import (
    IRREGULAR_WORKLOADS,
    RACY_WORKLOADS,
    WORKLOADS,
    make_env,
)

WORKERS = 2


def serial_reference(workload, scalars=None):
    """The exact serial-semantics result for a seed-0 environment."""
    arrays, sc = make_env(workload, scalars)
    Interpreter()._exec(workload.proc.body, dict(sc), arrays)
    return arrays


class TestRegistry:
    def test_irregular_isolated_from_workloads(self):
        assert not set(IRREGULAR_WORKLOADS) & set(WORKLOADS)
        assert not set(IRREGULAR_WORKLOADS) & set(RACY_WORKLOADS)

    def test_resolvable_by_name(self):
        from repro.workloads import get_workload

        for name in IRREGULAR_WORKLOADS:
            assert get_workload(name).name == name

    def test_speculate_mode_resolves(self):
        # The one compatibility spelling: "speculate" is the old name of
        # the default, accepted by resolve_safety alone.
        assert resolve_safety("speculate") == "inspect"


class TestSpeculationPlan:
    """How a plan routes the one loop of a workload its verdict blocks."""

    @staticmethod
    def route(w, mode="inspect"):
        arrays, sc = make_env(w)
        plan = prepare(w.proc, arrays, sc, mode, "gss", None, WORKERS)
        (loop,) = plan.loops
        return plan.strategies[id(loop)], plan.reasons.get(id(loop))

    def test_histogram_routes_to_refusal(self):
        strategy, reason = self.route(IRREGULAR_WORKLOADS["histogram"]())
        assert strategy == "serial"
        assert "both written and read" in reason

    def test_scatter_routes_to_inspector(self):
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        strategy, reason = self.route(w)
        assert strategy == "inspect" and reason
        assert self.route(w, "off") == ("dispatch", None)

    def test_scalar_hazard_refused(self):
        strategy, reason = self.route(RACY_WORKLOADS["racy_scalar"]())
        assert strategy == "serial"
        assert "carry values across iterations" in reason


def _no_pool(*args, **kwargs):
    raise AssertionError("a refused run created a pool or a segment")


class TestDoallSpeculate:
    def test_inspector_proven_dispatches(self):
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        arrays, sc = make_env(w)
        expected = serial_reference(w)
        result = run_parallel_procedure(
            w.proc, arrays, sc, workers=WORKERS
        )
        (cert,) = result.certificates
        assert cert.status == "proven-dynamic" and len(result.dispatches) == 1
        assert np.array_equal(arrays["B"], expected["B"])

    def test_inspector_refuted_runs_serially(self):
        # A refuted single loop is not refused: it runs in the parent,
        # through the driver and through the mp backend alike.
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        arrays, sc = make_env(w)
        arrays["P"][1 : sc["n"] + 1] = 2.0
        serial = {k: v.copy() for k, v in arrays.items()}
        Interpreter()._exec(w.proc.body, dict(sc), serial)
        via_backend = {k: v.copy() for k, v in arrays.items()}
        result = run_parallel_procedure(
            w.proc, arrays, sc, workers=WORKERS
        )
        assert result.blocked_dispatches == 1
        assert result.dispatches == []
        (cert,) = result.certificates
        assert (cert.mode, cert.status) == ("inspector", "refuted")
        compiled = compile_mp_procedure(w.proc, workers=WORKERS)
        compiled.run(via_backend, sc)
        assert compiled.fallback_reason is None
        assert compiled.last.blocked_dispatches == 1
        for k in arrays:
            assert np.array_equal(arrays[k], serial[k]), k
            assert np.array_equal(via_backend[k], serial[k]), k

    def test_conflicting_histogram_falls_back_to_serial(self, monkeypatch):
        self._assert_serial_fallback("histogram", monkeypatch)

    def test_disjoint_histogram_falls_back_to_serial(self, monkeypatch):
        self._assert_serial_fallback("histogram_disjoint", monkeypatch)

    def _assert_serial_fallback(self, name, monkeypatch):
        # H is both written and read: the inspector cannot decide the
        # loop, so the plan refuses it before any pool or segment exists,
        # whatever the keys — and the backend runs the serial build.
        w = IRREGULAR_WORKLOADS[name]()
        arrays, sc = make_env(w)
        want = {k: v.copy() for k, v in arrays.items()}
        compile_procedure(w.proc).run(want, sc)
        compiled = compile_mp_procedure(w.proc, workers=WORKERS)
        monkeypatch.setattr(WorkerPool, "__init__", _no_pool)
        monkeypatch.setattr(SharedArrayPool, "__init__", _no_pool)
        compiled.run(arrays, sc)
        (loop,) = verdict(w.proc).loops
        codes = ", ".join(sorted({f.rule for f in loop.findings}))
        assert codes.startswith("RACE")
        reason = compiled.fallback_reason
        assert reason.startswith("SafetyVerificationError: safety=inspect")
        assert f"loop i ({codes})" in reason
        assert compiled.last is None
        for k in want:
            assert np.array_equal(arrays[k], want[k]), k

    def test_scalar_hazard_refused(self):
        w = RACY_WORKLOADS["racy_scalar"]()
        arrays, sc = make_env(w)
        with pytest.raises(SafetyVerificationError, match="refused"):
            run_parallel_procedure(
                w.proc, arrays, sc, workers=WORKERS
            )


#: A provable saxpy and the histogram loop: one dispatch, one refusal.
SAXPY_HISTOGRAM = parse(
    """
    procedure saxpy_histogram(H[1], K[1], X[1], Y[1]; n)
      doall i = 1, n
        Y(i) := Y(i) + 2.5 * X(i)
      end
      doall j = 1, n
        H(int(K(j))) := H(int(K(j))) + 1.0
      end
    end
    """
)


class TestProcedureSpeculate:
    def test_counters_and_certificates(self):
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        arrays, sc = make_env(w)
        expected = serial_reference(w)
        result = run_parallel_procedure(
            w.proc, arrays, sc, workers=WORKERS, policy="static",
        )
        assert result.safety_mode == "inspect"
        assert (result.inspected, result.proven_dynamic) == (1, 1)
        assert result.blocked_dispatches == 0
        (cert,) = result.certificates
        assert (cert.mode, cert.status) == ("inspector", "proven-dynamic")
        assert cert.to_dict()["conflicts"] == 0
        assert np.array_equal(arrays["B"], expected["B"])

    def test_inspector_fallback_to_serial_inside_program(self):
        # Refuted inspection inside a procedure degrades that dispatch to
        # serial (recorded as blocked) instead of failing the run.
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        arrays, sc = make_env(w)
        arrays["P"][1 : sc["n"] + 1] = 2.0
        serial = {k: v.copy() for k, v in arrays.items()}
        Interpreter()._exec(w.proc.body, dict(sc), serial)
        result = run_parallel_procedure(
            w.proc, arrays, sc, workers=WORKERS
        )
        assert result.inspected == 1
        assert result.proven_dynamic == 0
        assert result.blocked_dispatches == 1
        assert not result.dispatches
        assert np.array_equal(arrays["B"], serial["B"])

    def test_refused_loop_runs_through_the_compiled_residue(
        self, monkeypatch
    ):
        n, rng = 500, np.random.default_rng(0)
        arrays = {
            "H": np.zeros(9),
            "K": np.concatenate(([0.0], rng.integers(1, 9, n).astype(float))),
            "X": rng.random(n + 1),
            "Y": rng.random(n + 1),
        }
        want = {k: v.copy() for k, v in arrays.items()}
        Interpreter().run(SAXPY_HISTOGRAM, want, {"n": n})

        def interpreted(*args, **kwargs):
            raise AssertionError("the tree interpreter ran a refused loop")

        monkeypatch.setattr(Interpreter, "_exec", interpreted)
        result = run_parallel_procedure(
            SAXPY_HISTOGRAM, arrays, {"n": n}, workers=WORKERS,
            timeout=60.0,
        )
        assert result.blocked_dispatches == 1
        assert [d.loop_var for d in result.dispatches] == ["i"]
        assert result.inspected == 0
        for k in want:
            assert np.array_equal(arrays[k], want[k]), k

    def test_backend_accounts_speculation(self):
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        arrays, sc = make_env(w)
        expected = serial_reference(w)
        compiled = compile_mp_procedure(w.proc, workers=WORKERS)
        compiled.run(arrays, sc)
        assert compiled.fallback_reason is None
        assert compiled.last is not None
        assert (compiled.last.inspected, compiled.last.proven_dynamic) == (1, 1)
        assert np.array_equal(arrays["B"], expected["B"])

    def test_backend_serial_fallback_on_refusal(self):
        w = RACY_WORKLOADS["racy_scalar"]()
        arrays, sc = make_env(w)
        expected = {k: v.copy() for k, v in arrays.items()}
        w.reference(expected, sc)
        compiled = compile_mp_procedure(w.proc, workers=WORKERS)
        compiled.run(arrays, sc)
        assert compiled.fallback_reason is not None
        assert "refused" in compiled.fallback_reason
        for k in arrays:
            assert np.array_equal(arrays[k], expected[k])


class TestSpeculateMetrics:
    def test_counters_accumulate(self):
        from repro.parallel.observe import DISPATCH

        before = dict(DISPATCH["inspect"])
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        arrays, sc = make_env(w)
        run_parallel_procedure(
            w.proc, arrays, sc, workers=WORKERS
        )
        after = DISPATCH["inspect"]
        assert set(after) == {"inspected", "proven_dynamic"}
        assert after["inspected"] == before["inspected"] + 1
        assert after["proven_dynamic"] == before["proven_dynamic"] + 1
