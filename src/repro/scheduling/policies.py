"""Scheduling policies for a single parallel loop.

A policy answers: given N iterations and p processors, who executes what?

* **Static** policies fix the assignment before execution (one dispatch per
  processor).  ``StaticBlock`` is the paper's choice for coalesced loops —
  processor k takes the contiguous flat range ``((k−1)·⌈N/p⌉, k·⌈N/p⌉]`` —
  because contiguous blocks both balance load to within one iteration and
  enable strength-reduced index recovery.
* **Dynamic** (self-scheduling) policies claim work at run time with a
  fetch&add on a shared index: one iteration at a time (``SelfScheduled``),
  a fixed chunk (``ChunkSelfScheduled``), or guided chunks of
  ``⌈remaining / p⌉`` (``GuidedSelfScheduled`` — Polychronopoulos & Kuck's
  GSS, the companion work the paper points to for variable-length
  iterations).
"""

from __future__ import annotations

import abc
import numbers
from dataclasses import dataclass

Chunk = tuple[int, int]  # (start, size), start is 0-based


class SchedulingPolicy(abc.ABC):
    """Strategy for distributing N iterations over p processors."""

    name: str = "abstract"

    @property
    def is_static(self) -> bool:
        return False

    def static_assignment(self, n: int, p: int) -> list[list[Chunk]]:
        """Per-processor chunk lists (static policies only)."""
        raise NotImplementedError

    def claimer(self, n: int, p: int) -> "Claimer":
        """Shared work-claim state (dynamic policies only)."""
        raise NotImplementedError


class Claimer(abc.ABC):
    """Mutable shared state from which processors claim chunks."""

    @abc.abstractmethod
    def next_chunk(self) -> Chunk | None:
        """Claim the next chunk, or None when the loop is exhausted."""


def _check(n: int, p: int) -> None:
    if n < 0:
        raise ValueError(f"iteration count must be non-negative, got {n}")
    if p < 1:
        raise ValueError(f"processor count must be positive, got {p}")


@dataclass(frozen=True)
class StaticBlock(SchedulingPolicy):
    """Contiguous blocks of ⌈N/p⌉ iterations (the paper's coalesced-loop
    assignment)."""

    name: str = "static-block"

    @property
    def is_static(self) -> bool:
        return True

    def static_assignment(self, n: int, p: int) -> list[list[Chunk]]:
        _check(n, p)
        if n == 0:
            return [[] for _ in range(p)]
        size = -(-n // p)  # ⌈N/p⌉
        out: list[list[Chunk]] = []
        for k in range(p):
            start = k * size
            stop = min(start + size, n)
            out.append([(start, stop - start)] if start < n else [])
        return out


@dataclass(frozen=True)
class StaticBalanced(SchedulingPolicy):
    """Contiguous blocks of ⌊N/p⌋ or ⌈N/p⌉ iterations (OpenMP ``static``).

    The first ``N mod p`` processors take one extra iteration, so the busy
    spread across processors is at most one loop body — the tightest static
    balance possible.  :class:`StaticBlock` (the paper's ⌈N/p⌉ everywhere)
    has the same *maximum* load, hence the same completion time, but may
    leave trailing processors with much less work.
    """

    name: str = "static-balanced"

    @property
    def is_static(self) -> bool:
        return True

    def static_assignment(self, n: int, p: int) -> list[list[Chunk]]:
        _check(n, p)
        base, extra = divmod(n, p)
        out: list[list[Chunk]] = []
        start = 0
        for k in range(p):
            size = base + (1 if k < extra else 0)
            out.append([(start, size)] if size else [])
            start += size
        return out


@dataclass(frozen=True)
class StaticCyclic(SchedulingPolicy):
    """Iteration i goes to processor i mod p (defeats block-recovery
    strength reduction; kept as the ablation baseline)."""

    name: str = "static-cyclic"

    @property
    def is_static(self) -> bool:
        return True

    def static_assignment(self, n: int, p: int) -> list[list[Chunk]]:
        _check(n, p)
        out: list[list[Chunk]] = [[] for _ in range(p)]
        for i in range(n):
            out[i % p].append((i, 1))
        return out


class _CountingClaimer(Claimer):
    """Claims contiguous chunks whose size is given by a callback."""

    def __init__(self, n: int, size_fn) -> None:
        self.n = n
        self.next_index = 0
        self._size_fn = size_fn

    def next_chunk(self) -> Chunk | None:
        if self.next_index >= self.n:
            return None
        remaining = self.n - self.next_index
        size = max(1, min(self._size_fn(remaining), remaining))
        chunk = (self.next_index, size)
        self.next_index += size
        return chunk


@dataclass(frozen=True)
class SelfScheduled(SchedulingPolicy):
    """Pure self-scheduling: one iteration per fetch&add."""

    name: str = "self-sched"

    def claimer(self, n: int, p: int) -> Claimer:
        _check(n, p)
        return _CountingClaimer(n, lambda remaining: 1)


@dataclass(frozen=True)
class ChunkSelfScheduled(SchedulingPolicy):
    """Chunked self-scheduling (CSS): a fixed chunk of k per fetch&add."""

    chunk: int = 4
    name: str = "chunk-self-sched"

    def __post_init__(self) -> None:
        if isinstance(self.chunk, bool) or not isinstance(
            self.chunk, numbers.Integral
        ):
            raise ValueError(f"chunk must be an integer (got {self.chunk!r})")
        if self.chunk < 1:
            raise ValueError("chunk must be ≥ 1")

    def claimer(self, n: int, p: int) -> Claimer:
        _check(n, p)
        return _CountingClaimer(n, lambda remaining: self.chunk)


@dataclass(frozen=True)
class GuidedSelfScheduled(SchedulingPolicy):
    """Guided self-scheduling (GSS): chunk = ⌈remaining / p⌉."""

    name: str = "gss"

    def claimer(self, n: int, p: int) -> Claimer:
        _check(n, p)
        return _CountingClaimer(n, lambda remaining: -(-remaining // p))


def policy_by_name(name: str, **kwargs) -> SchedulingPolicy:
    """Factory used by benchmark command lines and experiment tables."""
    table = {
        "static-block": StaticBlock,
        "static-balanced": StaticBalanced,
        "static-cyclic": StaticCyclic,
        "self-sched": SelfScheduled,
        "chunk-self-sched": ChunkSelfScheduled,
        "gss": GuidedSelfScheduled,
    }
    try:
        cls = table[name]
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; known: {sorted(table)}") from None
    return cls(**kwargs)
