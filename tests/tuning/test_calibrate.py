"""The calibrator: batch picking, decision pinning, and the farm manifest.

Pins the autotuner's contract:

* ``pick_claim_batch`` is a pure function of the measurements — GSS and
  static plans never batch, cheap chunks batch up to the load-balance
  cap, expensive chunks stay at 1;
* a :class:`TuningDecision` survives its JSON round trip;
* calibration is *first-use only*: with the cache disabled, two identical
  unit-policy runs in one process perform exactly one quick calibration
  (the second is a pinned hit), and results stay bit-identical to serial;
* a full calibration publishes a ``repro.farm/v1`` manifest plus a pinned
  decision in the artifact cache, and a fresh tuner on the same store
  re-measures nothing.
"""

import json

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.codegen.pygen import compile_procedure
from repro.parallel import run_parallel_doall
from repro.parallel.counter import policy_plan
from repro.parallel.observe import DISPATCH
from repro.parallel.runtime import _DispatchCaches, resolve_chunk_lang
from repro.transforms import coalesce_procedure
from repro.tuning import default_variant
from repro.tuning.calibrate import (
    BATCH_CANDIDATES,
    DispatchTuner,
    TuningDecision,
    measure_counter_cost,
    pick_claim_batch,
    reset_tuning_memo,
)
from repro.workloads import get_workload, make_env


class TestPickClaimBatch:
    def test_gss_and_static_never_batch(self):
        assert pick_claim_batch(1e-9, 1e-3, ("gss", 1.5), 10_000, 4) == 1
        assert pick_claim_batch(1e-9, 1e-3, None, 10_000, 4) == 1

    def test_cheap_chunks_batch_up(self):
        # Counter round-trip dwarfs the per-iteration work: grow to the
        # largest candidate the balance cap allows.
        batch = pick_claim_batch(1e-9, 1e-4, ("unit",), 10_000, 2)
        assert batch == BATCH_CANDIDATES[-1] == 256

    def test_expensive_chunks_stay_unbatched(self):
        assert pick_claim_batch(1.0, 1e-6, ("unit",), 1000, 2) == 1

    def test_balance_cap_bounds_fixed_rules(self):
        # n=10000, size-100 chunks -> 100 chunks; cap = 100 // (2*2) = 25,
        # so the sweep stops at 16 even though the lock cost would prefer
        # more batching.
        assert pick_claim_batch(1e-6, 1e-4, ("fixed", 100), 10_000, 2) == 16

    def test_monotone_in_counter_cost(self):
        cheap = pick_claim_batch(1e-6, 1e-7, ("unit",), 10_000, 2)
        pricey = pick_claim_batch(1e-6, 1e-4, ("unit",), 10_000, 2)
        assert cheap <= pricey


class TestDecisionRoundTrip:
    def test_to_from_dict(self):
        d = TuningDecision(
            variant="gcc-O3", claim_batch=16, per_iter_s=1.5e-7,
            counter_s=2e-5, full=True,
            measurements={"gcc-O2": 2e-7, "gcc-O3": 1.5e-7},
        )
        doc = d.to_dict()
        assert doc["schema"] == "repro.tuning/v1"
        assert TuningDecision.from_dict(json.loads(json.dumps(doc))) == d

    def test_counter_cost_is_positive(self):
        assert measure_counter_cost() > 0.0


def _serial_baseline(workload, seed=0):
    arrays, sc = make_env(workload, seed=seed)
    baseline = {k: v.copy() for k, v in arrays.items()}
    compile_procedure(workload.proc).run(baseline, sc)
    return arrays, sc, baseline


class TestQuickCalibrationDeterminism:
    def test_second_identical_run_is_pinned(self, monkeypatch):
        # With the artifact cache disabled the in-process memo is the only
        # pinning layer — it must still make the second run measure-free.
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        reset_tuning_memo()
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)

        def one_run(seed):
            arrays, sc, baseline = _serial_baseline(w, seed=seed)
            result = run_parallel_doall(
                proc, arrays, sc, workers=2, policy="unit",
                claim_batch="auto",
            )
            for name in baseline:
                np.testing.assert_array_equal(baseline[name], arrays[name])
            return result

        base_quick = DISPATCH.quick_calibrations
        base_pinned = DISPATCH.pinned_hits
        cold = one_run(seed=3)
        assert DISPATCH.quick_calibrations == base_quick + 1
        warm = one_run(seed=4)
        assert DISPATCH.quick_calibrations == base_quick + 1
        assert DISPATCH.pinned_hits >= base_pinned + 1
        assert warm.variant == cold.variant
        assert warm.claim_batch == cold.claim_batch
        assert cold.claim_batch >= 1


class TestFullCalibrationManifest:
    def test_farm_manifest_and_pinned_decision(self, tmp_path):
        reset_tuning_memo()
        cache = ArtifactCache(str(tmp_path / "farm_cache"))
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        loop = proc.body.stmts[0]
        arrays, sc = make_env(w, seed=0)
        n = sc["n"] * sc["m"]
        plan = policy_plan("unit", n, 2, None)
        lang = resolve_chunk_lang(None)

        caches = _DispatchCaches()
        caches.store = cache
        t1 = DispatchTuner(lang, calibrate=True, store=cache)
        d1 = t1.decision_for(
            proc, loop, sc, arrays, plan, n, 2, None, caches, "auto"
        )
        assert d1 is not None and d1.full
        assert t1.calibrations == 1 and t1.pinned_hits == 0
        assert d1.measurements  # the sweep measured something
        assert d1.variant in d1.measurements

        blob = cache.get_bytes(
            t1.farm_key(proc, loop, (), sc), "farm.json"
        )
        assert blob is not None
        manifest = json.loads(blob)
        assert manifest["schema"] == "repro.farm/v1"
        assert manifest["proc"] == proc.name
        built = [v["name"] for v in manifest["variants"] if v["built"]]
        assert d1.variant in built

        # A fresh tuner on the same store (new process, same cache dir in
        # real life) must resolve the pinned decision without measuring.
        reset_tuning_memo()
        t2 = DispatchTuner(lang, calibrate=True, store=cache)
        d2 = t2.decision_for(
            proc, loop, sc, arrays, plan, n, 2, None, caches, "auto"
        )
        assert t2.calibrations == 0
        assert t2.pinned_hits == 1
        assert d2.variant == d1.variant
        assert d2.claim_batch == d1.claim_batch

    def test_no_calibrate_env_escape(self, monkeypatch):
        from repro.tuning.calibrate import make_tuner

        monkeypatch.setenv("REPRO_NO_CALIBRATE", "1")
        assert make_tuner("py") is None
        # Explicit calibrate=True overrides the escape hatch.
        assert make_tuner("py", calibrate=True) is not None

    def test_forced_single_variant_needs_no_measurement(self):
        from repro.tuning.calibrate import make_tuner

        tuner = make_tuner("py", variants=["py"], calibrate=False)
        assert tuner is not None
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        loop = proc.body.stmts[0]
        arrays, sc = make_env(w, seed=0)
        n = sc["n"] * sc["m"]
        plan = policy_plan("unit", n, 2, None)
        d = tuner.decision_for(
            proc, loop, sc, arrays, plan, n, 2, None, _DispatchCaches(),
            "auto",
        )
        assert d is not None
        assert d.variant == "py"
        assert d.claim_batch == 0  # heuristic batch, nothing measured
        assert tuner.calibrations == 0
        assert tuner.quick_calibrations == 0


class TestRemovedVariantPin:
    def test_pinned_blob_naming_a_removed_variant_runs_the_default(
        self, tmp_path
    ):
        """A cache written before a variant left the catalog (the in-chunk
        OpenMP builds, then ``*-native`` and ``clang-*``) still resolves:
        the pin's batch is kept, its variant falls to the host default
        exactly like a pin the host cannot build."""
        w = get_workload("saxpy2d")
        proc, _ = coalesce_procedure(w.proc)
        loop = proc.body.stmts[0]
        arrays, sc = make_env(w, seed=0)
        n = sc["n"] * sc["m"]
        plan = policy_plan("unit", n, 2, None)
        lang = resolve_chunk_lang(None)
        for removed in ("gcc-omp", "gcc-native", "clang-O3"):
            reset_tuning_memo()
            cache = ArtifactCache(str(tmp_path / f"old_cache_{removed}"))
            tuner = DispatchTuner(lang, calibrate=True, store=cache)
            full_key, _ = tuner._decision_keys(
                proc, loop, (), sc, plan, 2, None
            )
            blob = {
                "schema": "repro.tuning/v1",
                "variant": removed,
                "claim_batch": 8,
                "per_iter_s": 1e-8,
                "counter_s": 1e-6,
                "full": True,
                "measurements": {removed: 1e-8, "gcc-O2": 2e-8},
            }
            cache.put(full_key, {"decision.json": json.dumps(blob)})

            caches = _DispatchCaches()
            caches.store = cache
            d = tuner.decision_for(
                proc, loop, sc, arrays, plan, n, 2, None, caches, "auto"
            )
            assert tuner.pinned_hits == 1 and tuner.calibrations == 0
            assert d.variant == default_variant(lang).name, removed
            assert d.claim_batch == 8
