"""First-use micro-calibration: measure variants, pin ``(variant, claim_batch)``.

The measure-then-pick loop (ComPar, PAPERS.md #4) over the variant catalog
(:mod:`repro.tuning.variants`):

* **Full calibration** (``calibrate=True`` — CLI ``--calibrate``, service
  ``"calibrate": true``, the variants bench): build every available
  variant of the chunk shape, time each over a representative flat-index
  slice (warmup + median-of-k under a bounded wall-clock budget), measure
  the shared-counter round-trip, pick the fastest variant, sweep
  ``claim_batch`` so the lock cost is a bounded fraction of the batch's
  work, and *pin* the decision — plus a ``farm.json`` manifest of every
  variant measured — in the artifact cache.
* **Quick calibration** (the ``claim_batch="auto"`` default on dynamic
  unit/fixed dispatches): time only the variant the dispatch was going to
  run anyway, sweep the batch, pin.  GSS and static plans skip measurement
  entirely (GSS must claim singly; static plans have no counter).

Decisions resolve through three levels — an in-process memo, the pinned
cache manifest, then measurement — so every later run (in-process, pooled,
or served) dispatches the winner with **zero re-measurement**
(``dispatch.variants.pinned_hits`` counts those).  Calibration runs on
scratch *copies* of the live arrays: measuring never perturbs results.

This module deliberately does not import :mod:`repro.parallel.runtime`
(the runtime imports us); it reuses the worker's own invoker so the timed
call path is exactly what a worker executes.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import platform
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.cache import artifact_key, resolve_cache
from repro.ir.printer import to_source
from repro.ir.stmt import Loop, Procedure
from repro.parallel.counter import SharedClaimCounter
from repro.parallel.observe import (
    record_calibration,
    record_chunk_fallback,
    record_pinned_hit,
)
from repro.tuning.variants import (
    Variant,
    _normalize_names,
    available_variants,
    default_variant,
    variant_by_name,
)

__all__ = [
    "DispatchTuner",
    "TuningDecision",
    "make_tuner",
    "measure_counter_cost",
    "pick_claim_batch",
    "reset_tuning_memo",
]

#: Wall-clock budget per variant in a full calibration / a quick one.
FULL_BUDGET_S = 0.10
QUICK_BUDGET_S = 0.05
#: Repetitions (median taken) and flat-slice sizes per chunk language.
MEASURE_REPS = 5
SLICE_ITERS = {"c": 256, "numpy": 256, "py": 32}
#: claim_batch candidates and the lock-cost target: the smallest batch
#: whose counter round-trip is at most this fraction of the batch's work.
BATCH_CANDIDATES = (1, 2, 4, 8, 16, 32, 64, 128, 256)
TARGET_LOCK_FRACTION = 0.05


@dataclass(frozen=True)
class TuningDecision:
    """A pinned ``(variant, claim_batch)`` choice for one chunk shape."""

    variant: str
    claim_batch: int
    #: Median seconds per flat iteration of the winning variant (0.0 when
    #: the decision was forced, not measured).
    per_iter_s: float = 0.0
    #: Measured shared-counter critical-section round-trip (seconds).
    counter_s: float = 0.0
    #: True for a full calibration (variant sweep), False for quick.
    full: bool = False
    #: Per-variant median seconds/iteration for everything measured.
    measurements: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": "repro.tuning/v1",
            "variant": self.variant,
            "claim_batch": self.claim_batch,
            "per_iter_s": self.per_iter_s,
            "counter_s": self.counter_s,
            "full": self.full,
            "measurements": dict(self.measurements),
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "TuningDecision":
        return cls(
            variant=str(doc["variant"]),
            claim_batch=int(doc["claim_batch"]),
            per_iter_s=float(doc.get("per_iter_s", 0.0)),
            counter_s=float(doc.get("counter_s", 0.0)),
            full=bool(doc.get("full", False)),
            measurements={
                str(k): float(v)
                for k, v in (doc.get("measurements") or {}).items()
            },
        )


#: Cross-run in-process decision memo (keyed by the disk decision key, so
#: it works identically with the cache disabled — REPRO_NO_CACHE runs are
#: deterministic within a process).
_MEMO: dict[str, TuningDecision] = {}
_MEMO_LOCK = threading.Lock()


def reset_tuning_memo() -> None:
    """Forget every in-process decision — and the prepared plans that
    carry them (:mod:`repro.parallel.plan`)."""
    from repro.parallel.plan import drop_plans

    with _MEMO_LOCK:
        _MEMO.clear()
    measure_counter_cost.cache_clear()
    drop_plans()


@functools.lru_cache(maxsize=1)
def measure_counter_cost(samples: int = 64) -> float:
    """Seconds per :class:`SharedClaimCounter` critical section (uncontended).

    A host property, measured once per process: the parent claims
    ``samples`` unit chunks from a private counter and takes the mean.
    Under real contention the round-trip only gets *more* expensive, so
    batches sized against this floor never over-batch relative to it.
    """
    ctx = multiprocessing.get_context()
    counter = SharedClaimCounter(0, samples * 2, ctx)
    t0 = time.perf_counter()
    for _ in range(samples):
        counter.claim_batch(("unit",), 1)
    return (time.perf_counter() - t0) / samples


def pick_claim_batch(
    per_iter_s: float,
    counter_s: float,
    rule,
    n: int,
    workers: int,
) -> int:
    """Smallest batch whose lock cost is amortized, capped for balance.

    ``counter_s <= TARGET_LOCK_FRACTION * batch * chunk_work`` picks the
    batch; the cap ``total_chunks // (2 * workers)`` keeps at least two
    claim rounds per worker so dynamic load balancing survives batching.
    GSS and static plans always return 1 (they never batch).
    """
    if rule is None or rule[0] == "gss":
        return 1
    per_claim = 1 if rule[0] == "unit" else max(1, rule[1])
    chunks = max(1, -(-n // per_claim))
    cap = max(1, chunks // (2 * max(1, workers)))
    per_chunk_s = max(per_iter_s, 1e-12) * per_claim
    batch = 1
    for b in BATCH_CANDIDATES:
        if b > cap:
            break
        batch = b
        if counter_s <= TARGET_LOCK_FRACTION * b * per_chunk_s:
            break
    return batch


def _host_fingerprint() -> dict:
    return {"machine": platform.machine(), "cpus": os.cpu_count() or 1}


def make_tuner(lang, variants=None, calibrate=None, store="default"):
    """Build the run's :class:`DispatchTuner`, or None for the legacy path.

    None means: no measurement, no pinned-decision lookup, heuristic
    ``claim_batch="auto"`` — exactly the pre-farm behavior.  That happens
    when calibration is explicitly off (``calibrate=False`` or the
    ``REPRO_NO_CALIBRATE`` environment escape) and no variant subset was
    forced.

    Unknown variant names raise here, eagerly — a static dispatch never
    consults the catalog, and a typo'd ``--variants`` must not silently
    run the default build.
    """
    if variants is not None:
        _normalize_names(variants)
    if calibrate is not True and os.environ.get("REPRO_NO_CALIBRATE"):
        return None
    if calibrate is False and variants is None:
        return None
    return DispatchTuner(lang, variants=variants, calibrate=calibrate,
                         store=store)


class DispatchTuner:
    """Per-run decision resolver the plan builder consults.

    A run makes one only when it builds a plan slot (a loop shape's job
    template, or the region); the decision then lives in the plan.
    ``caches`` in the methods below is the plan's
    :class:`repro.parallel.plan.KernelBuilder`.

    ``lang`` is the resolved chunk language; ``variants`` an optional
    explicit subset (names list or comma string); ``calibrate`` is
    ``True`` (full), ``False`` (never measure — only meaningful with a
    forced single variant), or ``None`` (auto: quick-calibrate exactly
    when ``claim_batch="auto"`` meets a dynamic unit/fixed plan).

    ``calibrations`` / ``quick_calibrations`` / ``pinned_hits`` count this
    run's activity (the process-wide tallies live in
    :data:`repro.parallel.observe.DISPATCH`).
    """

    def __init__(self, lang: str, variants=None, calibrate=None,
                 store: object = "default") -> None:
        self.lang = lang
        self.variants = variants
        self.calibrate = calibrate
        self.store = store
        self.calibrations = 0
        self.quick_calibrations = 0
        self.pinned_hits = 0
        self._by_loop: dict = {}

    # -- resolution -----------------------------------------------------

    def decision_for(
        self,
        proc: Procedure,
        loop: Loop,
        env: Mapping[str, int | float],
        views: Mapping[str, np.ndarray],
        plan,
        n: int,
        workers: int,
        chunk: int | None,
        caches,
        requested_batch,
    ) -> TuningDecision | None:
        """The pinned/measured decision for one dispatch, or None (legacy).

        Memoized per (loop, rule-kind, chunk) for the run, so a hybrid
        program dispatching the same loop once per pivot row resolves it
        once — later dispatches reuse the decision (re-clamped to their
        own trip count by the runtime's batch resolver).
        """
        rule_kind = plan.rule[0] if plan.rule is not None else "static"
        ctx_key = (id(loop), rule_kind, chunk)
        if ctx_key in self._by_loop:
            return self._by_loop[ctx_key]
        decision = self._resolve(
            proc, loop, env, views, plan, n, workers, chunk, caches,
            requested_batch,
        )
        self._by_loop[ctx_key] = decision
        return decision

    def _resolve(
        self, proc, loop, env, views, plan, n, workers, chunk, caches,
        requested_batch,
    ) -> TuningDecision | None:
        extra = tuple(
            sorted(k for k in env if k not in proc.scalars and k != loop.var)
        )
        full_key, quick_key = self._decision_keys(
            proc, loop, extra, env, plan, workers, chunk
        )
        keys = [full_key] if self.calibrate is True else [full_key, quick_key]
        for key in keys:
            found = self._load_decision(key)
            if found is not None:
                self.pinned_hits += 1
                record_pinned_hit()
                return self._adapt(found)
        if self.calibrate is True:
            decision = self._full_calibration(
                proc, loop, extra, env, views, plan, n, workers, caches
            )
            if decision is not None:
                self._pin(full_key, decision)
            return decision
        if self.calibrate is False:
            return self._forced_decision()
        # Auto: measure only when the batch is actually undecided.
        if requested_batch != "auto":
            return None
        if plan.rule is None or plan.rule[0] not in ("unit", "fixed"):
            return None
        decision = self._quick_calibration(
            proc, loop, extra, env, views, plan, n, workers, caches
        )
        if decision is not None:
            self._pin(quick_key, decision)
        return decision

    def _adapt(self, found: TuningDecision) -> TuningDecision:
        """Re-validate a pinned variant against *this* host's toolchain."""
        try:
            v = variant_by_name(found.variant)
        except ValueError:
            v = default_variant(self.lang)
        if not available_variants(self.lang, [v.name]):
            v = default_variant(self.lang)
        if v.name == found.variant:
            return found
        return TuningDecision(
            variant=v.name,
            claim_batch=found.claim_batch,
            per_iter_s=found.per_iter_s,
            counter_s=found.counter_s,
            full=found.full,
            measurements=found.measurements,
        )

    def _forced_decision(self) -> TuningDecision | None:
        """``calibrate=False`` + explicit variants: pick without measuring."""
        candidates = available_variants(self.lang, self.variants)
        if not candidates:
            return None
        return TuningDecision(variant=candidates[0].name, claim_batch=0)

    # -- cache plumbing -------------------------------------------------

    def _store_obj(self):
        if self.store == "default":
            self.store = resolve_cache("default")
        return self.store

    def farm_key(self, proc, loop, extra, env) -> str:
        """Content address of this chunk shape's variant farm."""
        scalar_order = list(proc.scalars) + list(extra)
        types = [
            "double" if isinstance(env[s], (float, np.floating)) else "long"
            for s in scalar_order
        ]
        names = self.variants
        if isinstance(names, str):
            names = [x.strip() for x in names.split(",") if x.strip()]
        return artifact_key(
            "chunk_farm",
            loop=to_source(loop),
            arrays=list(proc.arrays),
            scalars=scalar_order,
            types=types,
            lang=self.lang,
            names=sorted(names) if names else "all",
        )

    def _decision_keys(self, proc, loop, extra, env, plan, workers, chunk):
        farm = self.farm_key(proc, loop, extra, env)
        rule_kind = plan.rule[0] if plan.rule is not None else "static"
        common = dict(
            farm=farm,
            host=_host_fingerprint(),
            rule=rule_kind,
            chunk=chunk or 0,
            workers=workers,
        )
        return (
            artifact_key("chunk_tuning", scope="full", **common),
            artifact_key("chunk_tuning", scope="quick", **common),
        )

    def _load_decision(self, key: str) -> TuningDecision | None:
        with _MEMO_LOCK:
            hit = _MEMO.get(key)
        if hit is not None:
            return hit
        store = self._store_obj()
        if store is None:
            return None
        blob = store.get_bytes(key, "decision.json")
        if blob is None:
            return None
        try:
            decision = TuningDecision.from_dict(json.loads(blob))
        except Exception:
            return None
        with _MEMO_LOCK:
            _MEMO[key] = decision
        return decision

    def _pin(self, key: str, decision: TuningDecision) -> None:
        with _MEMO_LOCK:
            _MEMO[key] = decision
        store = self._store_obj()
        if store is None:
            return
        if store.get(key) is not None:
            return
        store.put(
            key,
            {"decision.json": json.dumps(decision.to_dict(), indent=2)},
            meta={
                "kind": "chunk_tuning",
                "variant": decision.variant,
                "claim_batch": decision.claim_batch,
                "full": decision.full,
            },
        )

    def _publish_farm(
        self, proc, loop, extra, env, built: list[dict]
    ) -> None:
        """Pin the farm manifest: every variant of this shape, one entry."""
        store = self._store_obj()
        if store is None:
            return
        key = self.farm_key(proc, loop, extra, env)
        if store.get(key) is not None:
            return
        manifest = {
            "schema": "repro.farm/v1",
            "proc": proc.name,
            "loop": loop.var,
            "variants": built,
        }
        store.put(
            key,
            {"farm.json": json.dumps(manifest, indent=2)},
            meta={"kind": "chunk_farm", "name": proc.name,
                  "variants": len(built)},
        )

    # -- measurement ----------------------------------------------------

    def _variant_job(self, variant: Variant, proc, loop, extra, env, caches):
        """A worker-shaped job descriptor binding exactly this variant."""
        source, fname, scalar_order = caches.chunk_source(proc, loop, extra)
        job = {
            "source": source,
            "fname": fname,
            "array_order": list(proc.arrays),
            "scalar_order": scalar_order,
            "scalars": {name: env[name] for name in scalar_order},
        }
        if variant.lang == "c":
            kernel = caches.chunk_kernel(proc, loop, extra, env,
                                         variant=variant)
            if kernel is None:
                return None
            so_path, c_fname, sig, scalar_types = kernel
            job.update(
                chunk_lang="c", c_so=so_path, c_fname=c_fname, c_sig=sig,
                c_scalar_types=scalar_types,
            )
        elif variant.lang == "numpy":
            npk = caches.numpy_chunk(proc, loop, extra)
            if npk is None:
                return None
            np_source, np_fname = npk
            job.update(
                chunk_lang="numpy", np_source=np_source, np_fname=np_fname
            )
        return job

    def _measure_variant(
        self, variant: Variant, proc, loop, extra, env, views, lo, n,
        caches, budget: float,
    ) -> float | None:
        """Median seconds per flat iteration, or None (variant unusable).

        Times the worker's own invoker over a representative slice of the
        flat range, on scratch copies of the arrays (chunk bodies mutate).
        """
        from repro.parallel.worker import _make_invoker

        job = self._variant_job(variant, proc, loop, extra, env, caches)
        if job is None:
            return None
        scratch = {
            name: np.array(views[name], copy=True)
            for name in proc.arrays
        }
        try:
            invoke, bound_lang, _ = _make_invoker(job, scratch)
        except Exception:
            return None
        if bound_lang != variant.lang:
            return None  # binding degraded; this variant can't run here
        slice_n = max(1, min(n, SLICE_ITERS.get(variant.lang, 32)))
        hi = lo + slice_n - 1
        try:
            invoke(lo, hi)  # warmup: compile/dlopen/page-in outside timing
            times: list[float] = []
            stop_at = time.perf_counter() + budget
            for _ in range(MEASURE_REPS):
                t0 = time.perf_counter()
                invoke(lo, hi)
                t1 = time.perf_counter()
                times.append(t1 - t0)
                if t1 >= stop_at:
                    break
        except Exception:
            return None
        return statistics.median(times) / slice_n

    def _full_calibration(
        self, proc, loop, extra, env, views, plan, n, workers, caches
    ) -> TuningDecision | None:
        lo = self._measure_lo(loop, env, views)
        if lo is None:
            return None
        candidates = available_variants(self.lang, self.variants)
        measurements: dict[str, float] = {}
        built: list[dict] = []
        for v in candidates:
            per_iter = self._measure_variant(
                v, proc, loop, extra, env, views, lo, n, caches,
                FULL_BUDGET_S,
            )
            entry = v.to_dict()
            entry["built"] = per_iter is not None
            if per_iter is not None:
                measurements[v.name] = per_iter
                entry["per_iter_s"] = per_iter
            built.append(entry)
        if not measurements:
            return None
        winner = min(measurements, key=measurements.get)
        counter_s = measure_counter_cost()
        batch = pick_claim_batch(
            measurements[winner], counter_s, plan.rule, n, workers
        )
        decision = TuningDecision(
            variant=winner,
            claim_batch=batch,
            per_iter_s=measurements[winner],
            counter_s=counter_s,
            full=True,
            measurements=measurements,
        )
        self._publish_farm(proc, loop, extra, env, built)
        self.calibrations += 1
        record_calibration(full=True)
        return decision

    def _quick_calibration(
        self, proc, loop, extra, env, views, plan, n, workers, caches
    ) -> TuningDecision | None:
        lo = self._measure_lo(loop, env, views)
        if lo is None:
            return None
        variant = default_variant(self.lang)
        per_iter = self._measure_variant(
            variant, proc, loop, extra, env, views, lo, n, caches,
            QUICK_BUDGET_S,
        )
        if per_iter is None and variant.lang != "py":
            # The requested language can't express this shape (e.g. npgen
            # refused a pivot-row read): a degradation, and it must stay
            # visible in the metrics even though the tuner absorbs it.
            record_chunk_fallback()
            variant = default_variant("py")
            per_iter = self._measure_variant(
                variant, proc, loop, extra, env, views, lo, n, caches,
                QUICK_BUDGET_S,
            )
        if per_iter is None:
            return None
        counter_s = measure_counter_cost()
        batch = pick_claim_batch(per_iter, counter_s, plan.rule, n, workers)
        decision = TuningDecision(
            variant=variant.name,
            claim_batch=batch,
            per_iter_s=per_iter,
            counter_s=counter_s,
            full=False,
            measurements={variant.name: per_iter},
        )
        self.quick_calibrations += 1
        record_calibration(full=False)
        return decision

    def _measure_lo(self, loop, env, views) -> int | None:
        from repro.runtime.interp import eval_bound

        try:
            return int(eval_bound(loop.lower, dict(env), dict(views),
                                  "loop lower bound"))
        except Exception:
            return None


def variant_grid(
    proc: Procedure,
    loop: Loop,
    env: Mapping[str, int | float],
    arrays: Mapping[str, np.ndarray],
    caches,
    lang: str = "auto",
    names=None,
    budget: float = FULL_BUDGET_S,
) -> dict[str, float]:
    """Per-variant seconds/iteration for one shape (the bench's grid).

    A thin public wrapper over the tuner's measurement core: every
    available variant is built and timed over the representative slice;
    unusable variants are simply absent from the result.
    """
    from repro.runtime.interp import eval_bound

    tuner = DispatchTuner(lang, variants=names, calibrate=True,
                          store=getattr(caches, "store", "default"))
    extra = tuple(
        sorted(k for k in env if k not in proc.scalars and k != loop.var)
    )
    lo = eval_bound(loop.lower, dict(env), dict(arrays), "loop lower bound")
    hi = eval_bound(loop.upper, dict(env), dict(arrays), "loop upper bound")
    n = max(1, hi - lo + 1)
    out: dict[str, float] = {}
    for v in available_variants(lang, names):
        per_iter = tuner._measure_variant(
            v, proc, loop, extra, env, arrays, lo, n, caches, budget
        )
        if per_iter is not None:
            out[v.name] = per_iter
    return out
