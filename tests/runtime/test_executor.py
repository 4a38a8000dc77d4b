"""Unit tests for the DOALL executors and the equivalence harness."""

import numpy as np
import pytest

from repro.ir.builder import assign, c, doall, proc, ref, serial, v
from repro.runtime.equivalence import copy_env, random_env
from repro.experiments.e10_end_to_end import run_doall_shuffled
from repro.runtime.interp import InterpreterError, run

from tests.equivalence import assert_equivalent


@pytest.fixture
def scale():
    return proc(
        "scale",
        doall("i", 1, v("n"))(assign(ref("B", v("i")), ref("A", v("i")) * c(3.0))),
        arrays={"A": 1, "B": 1},
        scalars=("n",),
    )


def _env(n=16, seed=1):
    rng = np.random.default_rng(seed)
    return {"A": rng.standard_normal(n + 1), "B": np.zeros(n + 1)}


class TestDrivers:
    def test_shuffled_driver_matches(self, scale):
        e1, e2 = _env(), _env()
        run(scale, e1, {"n": 16})
        run_doall_shuffled(scale, e2, {"n": 16}, seed=42)
        assert np.array_equal(e1["B"], e2["B"])

    def test_rejects_serial_outer_loop(self):
        p = proc(
            "p",
            serial("i", 1, 4)(assign(ref("A", v("i")), c(1.0))),
            arrays={"A": 1},
        )
        with pytest.raises(InterpreterError, match="not a DOALL"):
            run_doall_shuffled(p, {"A": np.zeros(5)})

    def test_rejects_multi_statement_body(self):
        p = proc(
            "p",
            assign(ref("A", c(0)), c(1.0)),
            doall("i", 1, 4)(assign(ref("A", v("i")), c(1.0))),
            arrays={"A": 1},
        )
        with pytest.raises(InterpreterError, match="single loop"):
            run_doall_shuffled(p, {"A": np.zeros(5)})

    def test_shuffled_detects_false_doall(self):
        # A loop with a genuine cross-iteration dependence, mis-tagged DOALL:
        # A(i) = A(i-1) + 1.  Order changes the result.
        p = proc(
            "p",
            doall("i", 1, 30)(
                assign(ref("A", v("i")), ref("A", v("i") - 1) + c(1.0))
            ),
            arrays={"A": 1},
        )
        e1 = {"A": np.zeros(31)}
        e2 = {"A": np.zeros(31)}
        run(p, e1)
        run_doall_shuffled(p, e2, seed=3)
        assert not np.array_equal(e1["A"], e2["A"])


class TestEquivalenceHarness:
    def test_random_env_shapes(self, scale):
        env = random_env(scale, {"A": (17,), "B": (17,)})
        assert env["A"].shape == (17,)

    def test_random_env_missing_size(self, scale):
        with pytest.raises(KeyError):
            random_env(scale, {"A": (17,)})

    def test_random_env_rank_mismatch(self, scale):
        with pytest.raises(ValueError, match="rank"):
            random_env(scale, {"A": (17, 2), "B": (17,)})

    def test_copy_env_is_deep(self):
        env = {"A": np.zeros(3)}
        env2 = copy_env(env)
        env2["A"][0] = 5
        assert env["A"][0] == 0

    def test_assert_equivalent_passes_for_identity(self, scale):
        assert_equivalent(scale, scale, {"A": (9,), "B": (9,)}, {"n": 8})

    def test_assert_equivalent_fails_for_different_program(self, scale):
        other = proc(
            "scale4",
            doall("i", 1, v("n"))(assign(ref("B", v("i")), ref("A", v("i")) * c(4.0))),
            arrays={"A": 1, "B": 1},
            scalars=("n",),
        )
        with pytest.raises(AssertionError, match="differs"):
            assert_equivalent(scale, other, {"A": (9,), "B": (9,)}, {"n": 8})

    def test_assert_equivalent_with_shuffled_runner(self, scale):
        assert_equivalent(
            scale,
            scale,
            {"A": (9,), "B": (9,)},
            {"n": 8},
            runner_transformed=run_doall_shuffled,
        )
