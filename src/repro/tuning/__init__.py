"""What is left of dispatch tuning: one host probe and the plan reset.

The claim batch is one fixed rule, derived per dispatch and never
requested (:func:`repro.parallel.dispatch._resolve_claim_batch`), and
every C kernel builds with gcc ``-O2``; DESIGN.md §4g has the
measurements behind both.
"""

from __future__ import annotations

import functools
import multiprocessing
import time

from repro.parallel.counter import SharedClaimCounter

__all__ = ["measure_counter_cost", "reset_tuning_memo"]


def reset_tuning_memo() -> None:
    """Forget every prepared plan (:mod:`repro.parallel.plan`) and the
    measured counter cost."""
    from repro.parallel.plan import drop_plans

    measure_counter_cost.cache_clear()
    drop_plans()


@functools.lru_cache(maxsize=1)
def measure_counter_cost(samples: int = 64) -> float:
    """Seconds per :class:`SharedClaimCounter` critical section (uncontended).

    A host property, measured once per process: the parent claims
    ``samples`` unit chunks from a private counter and takes the mean.
    This is the Python lock path, which py and numpy chunks claim
    through.  C chunks never take it: their claim is an atomic add in
    :data:`repro.codegen.cgen.CLAIM_LOOP_C`.
    """
    ctx = multiprocessing.get_context()
    counter = SharedClaimCounter(0, samples * 2, ctx)
    t0 = time.perf_counter()
    for _ in range(samples):
        counter.claim_batch(("unit",), 1)
    return (time.perf_counter() - t0) / samples
