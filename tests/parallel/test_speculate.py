"""``safety=speculate`` end-to-end: inspect, speculate, commit, roll back.

Every dynamic outcome must leave the caller's arrays exactly equal to the
serial semantics: a proven-dynamic dispatch and a committed speculation
because the parallel run was conflict-free, a rolled-back speculation
because the primaries were never touched and the serial retry is the
serial run.  The irregular workloads are constructed so each path fires
deterministically under seed 0.
"""

import numpy as np
import pytest

from repro.parallel import (
    SafetyVerificationError,
    SpecPlan,
    resolve_safety,
    run_parallel_procedure,
    speculation_plan,
    validate_chunk_logs,
)
from repro.parallel.backend import compile_mp_procedure
from repro.parallel.speculate import (
    merge_chunk_logs,
    shadow_alias,
    written_arrays,
)
from repro.runtime.interp import Interpreter
from repro.workloads import (
    IRREGULAR_WORKLOADS,
    RACY_WORKLOADS,
    WORKLOADS,
    make_env,
)
from tests.parallel import run_one

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
        assert resolve_safety("speculate") == "speculate"


class TestValidateChunkLogs:
    def test_disjoint_passes(self):
        logs = [
            (1, 2, (("H", (1,)), ("H", (2,))), ()),
            (3, 4, (("H", (3,)),), (("H", (3,)),)),
        ]
        v = validate_chunk_logs(logs)
        assert v.ok and v.chunks == 2 and v.elements == 3

    def test_cross_chunk_write_write_fails(self):
        logs = [
            (1, 2, (("H", (5,)),), ()),
            (3, 4, (("H", (5,)),), ()),
        ]
        v = validate_chunk_logs(logs)
        assert not v.ok
        assert v.conflicts[0][0] == "write/write"

    def test_cross_chunk_write_read_fails_both_orders(self):
        # Reader chunk before writer chunk in log order: still a conflict
        # (chunks execute unordered, so either serial order is violated).
        logs = [
            (1, 2, (), (("H", (7,)),)),
            (3, 4, (("H", (7,)),), ()),
        ]
        v = validate_chunk_logs(logs)
        assert not v.ok
        assert v.conflicts[0][0] == "write/read"

    def test_same_chunk_overlap_allowed(self):
        # Conflicts *within* one chunk execute in serial order already.
        logs = [(1, 4, (("H", (1,)),), (("H", (1,)),))]
        assert validate_chunk_logs(logs).ok

    def test_merge_orders_by_range(self):
        merged = merge_chunk_logs([[(5, 8, (), ())], [(1, 4, (), ())]])
        assert [log[0] for log in merged] == [1, 5]


class TestSpeculationPlan:
    def test_histogram_routes_to_speculation(self):
        w = IRREGULAR_WORKLOADS["histogram"]()
        plan = speculation_plan(w.proc.body.stmts[0], None)
        assert plan.action == "speculate"
        assert plan.written == ("H",)

    def test_scatter_routes_to_inspector(self):
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        plan = speculation_plan(w.proc.body.stmts[0], None)
        assert plan.action == "inspect"

    def test_scalar_hazard_refused(self):
        from repro.analysis.safety import verify_procedure

        w = RACY_WORKLOADS["racy_scalar"]()
        loop = w.proc.body.stmts[0]
        verdict = verify_procedure(w.proc).loops[0]
        plan = speculation_plan(loop, verdict)
        assert plan.action == "refuse"

    def test_plan_is_frozen(self):
        plan = SpecPlan("inspect", "because")
        with pytest.raises(AttributeError):
            plan.action = "speculate"

    def test_shadow_alias_never_collides_with_dsl_names(self):
        assert shadow_alias("H", 3) == "H.spec3"
        assert shadow_alias("H", 3) != shadow_alias("H", 4)

    def test_written_arrays(self):
        w = IRREGULAR_WORKLOADS["ragged_update"]()
        assert written_arrays(w.proc.body.stmts[0]) == ("B",)


class TestDoallSpeculate:
    def test_inspector_proven_dispatches(self):
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        arrays, sc = make_env(w)
        expected = serial_reference(w)
        result = run_one(
            w.proc, arrays, sc, workers=WORKERS, safety="speculate"
        )
        assert result.speculation == "proven-dynamic"
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
            w.proc, arrays, sc, workers=WORKERS, safety="speculate"
        )
        assert result.blocked_dispatches == 1
        assert result.dispatches == []
        (cert,) = result.certificates
        assert (cert.mode, cert.status) == ("inspector", "refuted")
        compiled = compile_mp_procedure(
            w.proc, workers=WORKERS, safety="speculate"
        )
        compiled.run(via_backend, sc)
        assert compiled.fallback_reason is None
        assert compiled.last.blocked_dispatches == 1
        for k in arrays:
            assert np.array_equal(arrays[k], serial[k]), k
            assert np.array_equal(via_backend[k], serial[k]), k

    def test_disjoint_histogram_commits(self):
        w = IRREGULAR_WORKLOADS["histogram_disjoint"]()
        arrays, sc = make_env(w)
        expected = serial_reference(w)
        result = run_one(
            w.proc, arrays, sc, workers=WORKERS, safety="speculate"
        )
        assert result.speculation == "committed"
        assert np.array_equal(arrays["H"], expected["H"])

    def test_conflicting_histogram_rolls_back_bit_identical(self):
        w = IRREGULAR_WORKLOADS["histogram"]()
        arrays, sc = make_env(w)
        expected = serial_reference(w)
        result = run_one(
            w.proc, arrays, sc, workers=WORKERS, policy="static",
            safety="speculate",
        )
        assert result.speculation == "rolled-back"
        assert np.array_equal(arrays["H"], expected["H"])

    def test_scalar_hazard_refused(self):
        w = RACY_WORKLOADS["racy_scalar"]()
        arrays, sc = make_env(w)
        with pytest.raises(SafetyVerificationError, match="refused"):
            run_parallel_procedure(
                w.proc, arrays, sc, workers=WORKERS, safety="speculate"
            )

    def test_enforce_still_refuses_what_speculate_runs(self):
        w = IRREGULAR_WORKLOADS["histogram_disjoint"]()
        arrays, sc = make_env(w)
        with pytest.raises(SafetyVerificationError):
            run_parallel_procedure(
                w.proc, arrays, sc, workers=WORKERS, safety="enforce"
            )


class TestProcedureSpeculate:
    def test_counters_and_certificates(self):
        w = IRREGULAR_WORKLOADS["histogram"]()
        arrays, sc = make_env(w)
        expected = serial_reference(w)
        result = run_parallel_procedure(
            w.proc, arrays, sc, workers=WORKERS, policy="static",
            safety="speculate",
        )
        assert result.safety_mode == "speculate"
        assert result.speculated == 1
        assert result.rolled_back == 1
        assert result.committed == 0
        certs = result.certificates
        assert len(certs) == 1
        assert certs[0].mode == "speculative"
        assert certs[0].status == "rolled-back"
        assert certs[0].conflicts > 0
        assert np.array_equal(arrays["H"], expected["H"])

    def test_inspector_fallback_to_serial_inside_program(self):
        # Refuted inspection inside a procedure degrades that dispatch to
        # serial (recorded as blocked) instead of failing the run.
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        arrays, sc = make_env(w)
        arrays["P"][1 : sc["n"] + 1] = 2.0
        serial = {k: v.copy() for k, v in arrays.items()}
        Interpreter()._exec(w.proc.body, dict(sc), serial)
        result = run_parallel_procedure(
            w.proc, arrays, sc, workers=WORKERS, safety="speculate"
        )
        assert result.inspected == 1
        assert result.proven_dynamic == 0
        assert result.blocked_dispatches == 1
        assert not result.dispatches
        assert np.array_equal(arrays["B"], serial["B"])

    def test_backend_accounts_speculation(self):
        w = IRREGULAR_WORKLOADS["histogram_disjoint"]()
        arrays, sc = make_env(w)
        expected = serial_reference(w)
        compiled = compile_mp_procedure(
            w.proc, workers=WORKERS, safety="speculate"
        )
        compiled.run(arrays, sc)
        assert compiled.fallback_reason is None
        assert compiled.last is not None
        assert compiled.last.committed == 1
        assert np.array_equal(arrays["H"], expected["H"])

    def test_backend_serial_fallback_on_refusal(self):
        w = RACY_WORKLOADS["racy_scalar"]()
        arrays, sc = make_env(w)
        expected = {k: v.copy() for k, v in arrays.items()}
        w.reference(expected, sc)
        compiled = compile_mp_procedure(
            w.proc, workers=WORKERS, safety="speculate"
        )
        compiled.run(arrays, sc)
        assert compiled.fallback_reason is not None
        assert "refused" in compiled.fallback_reason
        for k in arrays:
            assert np.array_equal(arrays[k], expected[k])


class TestSpeculateMetrics:
    def test_counters_accumulate(self):
        from repro.parallel.observe import DISPATCH

        before = DISPATCH.as_dict()["speculate"]
        w = IRREGULAR_WORKLOADS["histogram_disjoint"]()
        arrays, sc = make_env(w)
        run_parallel_procedure(
            w.proc, arrays, sc, workers=WORKERS, safety="speculate"
        )
        after = DISPATCH.as_dict()["speculate"]
        assert after["speculated"] == before["speculated"] + 1
        assert after["committed"] == before["committed"] + 1
