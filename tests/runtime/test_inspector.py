"""The runtime inspector, cross-checked against the dynamic shadow oracle.

The inspector claims an exact verdict for eligible dispatches: *proven*
iff the per-iteration write sets are pairwise disjoint.  The shadow
recorder (``tests/safety/shadow.py``) measures the same property by
actually executing every iteration — so on every irregular and racy
workload the two must agree: for an eligible loop, ``proven`` must equal
"no element written by two iterations" in the shadow logs, and every
loop the inspector declares ineligible must be one where values (not
just addresses) flow through a written array or scalar.
"""

import numpy as np
import pytest

from repro.analysis.safety import array_access_sets, inspector_eligible
from repro.frontend.dsl import parse
from repro.runtime.inspector import inspect_dispatch, scalar_hazards
from repro.workloads import IRREGULAR_WORKLOADS, RACY_WORKLOADS, make_env

from tests.safety.shadow import _Recorder, record_dispatch


def outer_loop(proc):
    return proc.body.stmts[0]


def shadow_logs(workload):
    """Serial per-iteration access logs of the workload's claimed DOALL."""
    arrays, sc = make_env(workload)
    loop = outer_loop(workload.proc)
    rec = _Recorder()
    return record_dispatch(rec, loop, dict(sc), arrays), arrays, sc


class TestEligibility:
    def test_scatter_eligible(self):
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        ok, reason = inspector_eligible(outer_loop(w.proc))
        assert ok, reason

    def test_histogram_ineligible_written_and_read(self):
        w = IRREGULAR_WORKLOADS["histogram"]()
        ok, reason = inspector_eligible(outer_loop(w.proc))
        assert not ok
        assert "H" in reason

    def test_access_sets(self):
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        written, read = array_access_sets([outer_loop(w.proc).body])
        assert written == {"B"}
        assert read == {"P", "X"}

    def test_scalar_hazard_detected(self):
        p = parse(
            """
            procedure acc(A[1]; n, s)
              doall i = 1, n
                s := s + A(i)
                A(i) := s
              end
            end
            """
        )
        assert scalar_hazards(outer_loop(p)) == {"s"}
        result = inspect_dispatch(
            outer_loop(p), {"n": 4, "s": 0.0}, {"A": np.ones(8)}
        )
        assert not result.eligible
        assert "s" in result.reason


class TestVerdicts:
    def test_permutation_proven(self):
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        arrays, sc = make_env(w)
        result = inspect_dispatch(outer_loop(w.proc), sc, arrays)
        assert result.eligible and result.proven
        assert result.iterations == sc["n"]
        assert result.elements == sc["n"]
        assert not result.conflicts

    def test_duplicate_targets_refuted_with_samples(self):
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        arrays, sc = make_env(w)
        arrays["P"][1 : sc["n"] + 1] = 3.0  # every iteration writes B(3)
        result = inspect_dispatch(outer_loop(w.proc), sc, arrays)
        assert result.eligible and not result.proven
        assert result.conflicts
        elem, first, second = result.conflicts[0]
        assert elem == ("B", (3,))
        assert first != second

    def test_ragged_bounds_walked(self):
        w = IRREGULAR_WORKLOADS["ragged_update"]()
        arrays, sc = make_env(w)
        result = inspect_dispatch(outer_loop(w.proc), sc, arrays)
        assert result.eligible and result.proven
        # The ragged space: sum of the data-dependent inner trip counts.
        expected = int(arrays["C"][1 : sc["n"] + 1].sum())
        assert result.elements == expected

    def test_inspection_mutates_nothing(self):
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        arrays, sc = make_env(w)
        before = {k: v.copy() for k, v in arrays.items()}
        inspect_dispatch(outer_loop(w.proc), sc, arrays)
        for k in arrays:
            assert np.array_equal(arrays[k], before[k])

    def test_bad_subscript_reported_not_raised(self):
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        arrays, sc = make_env(w)
        arrays["P"][1] = 10_000.0  # out of bounds for B
        result = inspect_dispatch(outer_loop(w.proc), sc, arrays)
        assert result.eligible and not result.proven
        assert result.error is not None


class TestCertificate:
    """An inspection's result is the run's certificate: its keys and its
    text are what ``/run`` and the CLI print."""

    def test_refuted_keys_and_text(self):
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        arrays, sc = make_env(w)
        arrays["P"][1 : sc["n"] + 1] = 2.0
        cert = inspect_dispatch(outer_loop(w.proc), sc, arrays)
        detail = "refuted: 9 iterations, 1 distinct elements, 8 conflict(s) sampled"
        doc = cert.to_dict()
        assert doc.pop("wall_s") == cert.wall_s
        assert doc == {
            "loop": "i", "mode": "inspector", "status": "refuted",
            "iterations": 9, "conflicts": 8, "detail": detail,
            "inspector": "walk",
        }
        assert str(cert) == (
            "dynamic[inspector/walk] loop i: refuted "
            f"(9 iterations, 8 conflict(s)): {detail}"
        )

    def test_proven_keys_and_text(self):
        w = IRREGULAR_WORKLOADS["scatter_perm"]()
        arrays, sc = make_env(w)
        cert = inspect_dispatch(outer_loop(w.proc), sc, arrays)
        n = sc["n"]
        detail = (
            f"proven disjoint: {n} iterations, {n} distinct elements, "
            "0 conflict(s) sampled"
        )
        assert (cert.status, cert.to_dict()["conflicts"]) == ("proven-dynamic", 0)
        assert str(cert) == (
            f"dynamic[inspector/numpy] loop i: proven-dynamic "
            f"({n} iterations, 0 conflict(s)): {detail}"
        )


class TestShadowCrossCheck:
    """Inspector verdicts must agree with the executing shadow recorder."""

    @pytest.mark.parametrize("name", sorted(IRREGULAR_WORKLOADS))
    def test_irregular_agrees_with_shadow(self, name):
        w = IRREGULAR_WORKLOADS[name]()
        logs, arrays, sc = shadow_logs(w)
        loop = outer_loop(w.proc)
        # Re-init: the shadow run executed for real and mutated arrays.
        arrays, sc = make_env(w)
        result = inspect_dispatch(loop, sc, arrays)
        writers: dict = {}
        overlap = False
        for log in logs:
            for elem in log.writes:
                if writers.setdefault(elem, log.value) != log.value:
                    overlap = True
        if result.eligible:
            assert result.proven == (not overlap), (name, result.describe())
        else:
            written, read = array_access_sets([loop.body])
            assert (written & read) or scalar_hazards(loop), name

    @pytest.mark.parametrize("name", sorted(RACY_WORKLOADS))
    def test_racy_never_proven(self, name):
        w = RACY_WORKLOADS[name]()
        arrays, sc = make_env(w)
        loop = outer_loop(w.proc)
        result = inspect_dispatch(loop, sc, arrays)
        # A genuinely racy loop must never receive a dynamic certificate:
        # either it is ineligible (values flow through arrays/scalars) or
        # inspection refutes it outright.
        assert not (result.eligible and result.proven), (
            name,
            result.describe(),
        )
