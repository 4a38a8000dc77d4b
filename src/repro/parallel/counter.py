"""The shared fetch&add claim counter and the scheduling-policy bridge.

On the paper's machines every worker processor performs an atomic fetch&add
on one shared iteration index to claim work.  Here the counter is two
int64 words in shared memory (a ``multiprocessing.Array``: next unclaimed
value, inclusive stop), and two protocols can claim from them:

* the **native** protocol — hardware ``__atomic_fetch_add`` (unit/fixed
  rules) or a compare-exchange loop (GSS) issued directly on the words by
  the C claim loop (:data:`repro.codegen.cgen.CLAIM_LOOP_C`), which
  workers reach through a region driver (:mod:`repro.parallel.region`)
  for every dynamic dispatch whose chunks are native kernels.  This *is*
  the paper's fetch&add: one instruction per claim, no lock;
* the **lock-guarded** protocol — :meth:`SharedClaimCounter.claim_batch`,
  a read-modify-write under the array's built-in lock.  Faithful but
  microseconds per claim; it is the portable floor for everything the
  native loop cannot run (``py``/``numpy`` chunks, hosts without a
  compiler).

The two never share a job.  An atomic add does not take the lock, so a
lock holder's read-then-write could interleave with it and hand the same
iterations out twice: the parent therefore picks one protocol per job
(a ``region`` job is native, every other job lock-guarded).  On the
native protocol the counter is armed by the workers themselves: they
meet at a barrier before each DOALL instance and its last arriver writes
the two words — once for a single dispatch, once per instance for a
program's whole serial-outer run.  A worker that cannot bind its driver
stops that barrier before anything has claimed, and the parent sends the
work again as a lock-guarded job (:func:`repro.parallel.region.enter`).
On the lock-guarded protocol only the parent touches the words between
jobs (:meth:`SharedClaimCounter.reset`, at the dispatch barrier).  The
barrier's three words (arrived, generation, stop) live in the same
shared block, one cache line away
(:attr:`SharedClaimCounter.barrier_address`), and a reduction's
partials one line further (:attr:`SharedClaimCounter.partials`): every
worker inherits them at spawn, with the counter.  Both protocols hand out
identical chunks for identical rules — ``claims``, ``lock_ops`` and
chunk boundaries do not depend on which ran.

Chunk sizes come from :mod:`repro.scheduling.policies`: the same policy
objects that drive the simulator drive the real runtime.  Dynamic policies
(self-scheduling, chunked, GSS) are compiled to a picklable *chunk rule*
evaluated atomically with the claim (GSS must read ``remaining`` atomically
with the add, exactly as in Polychronopoulos & Kuck's scheme); static
policies are compiled to per-worker chunk lists so no shared counter is
needed at all.
"""

from __future__ import annotations

import ctypes
import multiprocessing
from dataclasses import dataclass

import numpy as np

from repro.scheduling.policies import (
    ChunkSelfScheduled,
    GuidedSelfScheduled,
    SchedulingPolicy,
    SelfScheduled,
    policy_by_name,
)

#: Picklable chunk rule: ("unit",) | ("fixed", k) | ("gss", p).
ChunkRule = tuple

#: Friendly aliases accepted anywhere a policy name is (api, cli, bench).
POLICY_ALIASES = {
    "unit": "self-sched",
    "fixed": "chunk-self-sched",
    "static": "static-block",
}


def resolve_policy(
    policy: SchedulingPolicy | str, chunk: int | None = None
) -> SchedulingPolicy:
    """Accept a policy object or a name (with aliases) and return the object."""
    if isinstance(policy, SchedulingPolicy):
        return policy
    name = POLICY_ALIASES.get(policy, policy)
    kwargs = {}
    if name == "chunk-self-sched" and chunk is not None:
        kwargs["chunk"] = chunk
    return policy_by_name(name, **kwargs)


@dataclass(frozen=True)
class PolicyPlan:
    """How one parallel loop will be scheduled across ``workers`` processes.

    Exactly one of ``rule`` (dynamic: evaluated against the shared counter)
    and ``static`` (per-worker lists of flat 0-based ``(start, size)``
    chunks) is set.
    """

    name: str
    workers: int
    rule: ChunkRule | None = None
    static: tuple[tuple[tuple[int, int], ...], ...] | None = None


def policy_plan(
    policy: SchedulingPolicy | str,
    n: int,
    workers: int,
    chunk: int | None = None,
) -> PolicyPlan:
    """Compile a scheduling policy into a picklable execution plan."""
    policy = resolve_policy(policy, chunk)
    if policy.is_static:
        assignment = policy.static_assignment(n, workers)
        return PolicyPlan(
            policy.name,
            workers,
            static=tuple(tuple(chunks) for chunks in assignment),
        )
    if isinstance(policy, SelfScheduled):
        rule: ChunkRule = ("unit",)
    elif isinstance(policy, ChunkSelfScheduled):
        rule = ("fixed", policy.chunk)
    elif isinstance(policy, GuidedSelfScheduled):
        rule = ("gss", workers)
    else:
        raise ValueError(
            f"policy {policy.name!r} has no process-parallel chunk rule"
        )
    return PolicyPlan(policy.name, workers, rule=rule)


def chunk_size(rule: ChunkRule, remaining: int) -> int:
    """Evaluate a chunk rule; called under the counter lock."""
    kind = rule[0]
    if kind == "unit":
        return 1
    if kind == "fixed":
        return rule[1]
    if kind == "gss":
        return max(1, -(-remaining // rule[1]))
    raise ValueError(f"unknown chunk rule {rule!r}")


#: Word offset of the region barrier inside the counter's shared block.
_BARRIER = 8

#: Word offset of the reduction partials in the same block, and their
#: number: the most chunks a reduction dispatch has.
_PARTIALS, RED_MAX_CHUNKS = 16, 64

#: The partials' key in a worker's arrays: no IR name can take it.
PARTIALS_KEY = "#partials"


class SharedClaimCounter:
    """Shared iteration counter over the inclusive loop range [start, stop].

    ``claim_batch(rule, batch)`` atomically computes each chunk size from
    the rule and the live remaining count, advances the index (the
    fetch&add), and returns the claimed inclusive ``(lo, hi)`` ranges —
    an empty list once the range is drained.  It hands out up to
    ``batch`` chunks per critical section for the unit/fixed rules,
    cutting lock round-trips for fine-grained loops.  GSS always claims
    exactly one chunk per lock acquisition: its chunk size must be
    computed from the remaining count *at claim time* (Polychronopoulos &
    Kuck's atomic read-of-remaining), and pre-claiming future chunks
    would distort that schedule.

    Picklable into worker processes via the normal ``multiprocessing``
    inheritance machinery (fork and spawn both work).  The range itself
    lives in shared memory too, so a persistent worker pool
    (:mod:`repro.parallel.pool`) can ``reset`` one counter between
    dispatches instead of creating a fresh ``Value`` per DOALL —
    synchronized objects can only cross the process boundary at spawn
    time, never through a queue.
    """

    def __init__(
        self, start: int, stop: int, ctx: multiprocessing.context.BaseContext
    ) -> None:
        # state[0] = next unclaimed value, state[1] = inclusive stop;
        # state[8:11] = the region barrier (arrived, generation, stop), a
        # cache line away from the words every claim hits; state[16:80] =
        # the reduction partials, as float64.
        self._state = ctx.Array(
            "q", [start, stop] + [0] * (_PARTIALS - 2 + RED_MAX_CHUNKS)
        )
        self.start = start

    @property
    def stop(self) -> int:
        return self._state[1]

    @property
    def address(self) -> int:
        """Where the two int64 words live *in the calling process*.

        What the native claim loop's atomics operate on — no second
        segment, no copy.  Never mix with :meth:`claim_batch` inside one
        dispatch (module docstring).
        """
        return ctypes.addressof(self._state.get_obj())

    @property
    def barrier_address(self) -> int:
        """Where the region barrier's three words live (this process)."""
        return self.address + 8 * _BARRIER

    @property
    def partials(self) -> np.ndarray:
        """The reduction partial slots, as float64 (this process).  Each
        chunk seeds its own slot, and the parent reads only those."""
        return np.frombuffer(
            self._state.get_obj(), np.float64, RED_MAX_CHUNKS, 8 * _PARTIALS
        )

    def reset_barrier(self) -> None:
        """Zero the barrier's arrived and stop words (parent, fleet idle)."""
        words = self._state.get_obj()
        words[_BARRIER] = words[_BARRIER + 2] = 0

    def stop_barrier(self) -> None:
        """Tell every worker waiting at the region barrier to give up.

        Lock-free on purpose: the caller may be cleaning up after a worker
        that died holding the array's lock.
        """
        self._state.get_obj()[_BARRIER + 2] = 1

    def reset(self, start: int, stop: int) -> None:
        """Re-arm the counter for a new loop range.

        Only safe while no worker is claiming — the pool calls this at the
        dispatch barrier, when every worker is idle awaiting its next job.
        """
        with self._state.get_lock():
            self.start = start
            self._state[0] = start
            self._state[1] = stop

    def claim_batch(
        self, rule: ChunkRule, batch: int = 1
    ) -> list[tuple[int, int]]:
        """Claim up to ``batch`` chunks in one critical section.

        Returns the claimed inclusive ``(lo, hi)`` ranges in ascending
        order — an empty list once the range is drained.  GSS claims a
        single chunk regardless of ``batch`` (see class docstring).
        """
        if rule[0] == "gss":
            batch = 1
        out: list[tuple[int, int]] = []
        with self._state.get_lock():
            stop = self._state[1]
            for _ in range(max(1, batch)):
                lo = self._state[0]
                if lo > stop:
                    break
                size = chunk_size(rule, stop - lo + 1)
                hi = min(lo + size - 1, stop)
                self._state[0] = hi + 1
                out.append((lo, hi))
        return out
