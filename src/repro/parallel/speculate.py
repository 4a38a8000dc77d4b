"""Speculative dispatch: run first, validate, then commit or roll back.

``safety=speculate`` gives statically-unproven DOALL candidates a third
path beyond ``warn``/``enforce``:

1. **Inspector mode** — when :func:`repro.analysis.safety.inspector_eligible`
   holds (no array both written and read), a subscript-only pass over the
   flat index space (native beside a C kernel, else and for every
   refutation :func:`repro.runtime.inspector.inspect_dispatch`) decides
   the dispatch exactly before any worker runs.  Proven → normal
   executor with a :class:`SpecCertificate`; refuted → serial.

2. **Speculative mode** — when values flow through a written array
   (histogram's ``H(k) := H(k) + 1``), inspection is inconclusive by
   construction, so the runtime *speculates*: the written arrays are
   double-buffered into fresh shadow ``SharedArrayPool`` segments, workers
   execute chunks against the shadows with
   :func:`repro.runtime.inspector.record_chunk` logging per-chunk element
   read/write sets, and the parent validates the logs — every cross-chunk
   ``W∩W`` and ``W∩R`` must be empty.  Validation passing proves the
   parallel run equivalent to the serial order (the first divergent read
   would itself be a logged conflict), so the shadows are committed by
   bulk copy-back; otherwise the shadows are discarded and the loop
   re-runs serially on the untouched primary arrays — bit-identical to a
   serial execution, with the misspeculation counted.

Scalar hazards (PRIV002) refuse both modes: a value carried through a
scalar can be neither addressed nor shadow-buffered (workers never ship
scalar state back).

This module is the pure logic — planning, log validation, certificates;
the dispatch orchestration lives in :mod:`repro.parallel.runtime` and the
worker-side recording in :mod:`repro.parallel.worker`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.safety import LoopSafety, array_access_sets, inspector_eligible
from repro.ir.stmt import Loop

__all__ = [
    "ChunkLog",
    "SpecCertificate",
    "SpecPlan",
    "SpecValidation",
    "merge_chunk_logs",
    "shadow_alias",
    "speculation_plan",
    "validate_chunk_logs",
    "written_arrays",
]

#: One worker chunk's access log: (lo, hi, write elements, read elements).
#: Elements are ``(array name, index tuple)`` over the *written* arrays
#: only — reads of read-only arrays cannot conflict and are not logged.
ChunkLog = tuple[int, int, tuple, tuple]


def written_arrays(loop: Loop) -> tuple[str, ...]:
    """The array names the dispatched body stores to, sorted."""
    written, _ = array_access_sets([loop.body])
    return tuple(sorted(written))


def shadow_alias(name: str, token: int) -> str:
    """The shadow segment name for a written array in one dispatch.

    The token makes aliases unique per dispatch occurrence so a persistent
    worker never confuses a stale shadow attachment with a fresh one
    (``.`` cannot appear in a DSL array name, so aliases never collide
    with real arrays).
    """
    return f"{name}.spec{token}"


@dataclass(frozen=True)
class SpecPlan:
    """How ``safety=speculate`` handles one statically-unproven dispatch."""

    #: "inspect" | "speculate" | "refuse"
    action: str
    reason: str
    written: tuple[str, ...] = ()


def speculation_plan(loop: Loop, verdict: LoopSafety | None) -> SpecPlan:
    """Classify an unproven dispatch into inspect / speculate / refuse.

    ``verdict`` is the static :class:`LoopSafety` for the loop (used for
    its PRIV002 findings); scalar hazards refuse outright, name-level
    write/read overlap routes to speculation, everything else to the
    inspector.
    """
    if verdict is not None:
        hazards = sorted(
            {f.scalar for f in verdict.findings if f.rule == "PRIV002" and f.scalar}
        )
        if hazards:
            return SpecPlan(
                "refuse",
                "scalar(s) %s carry values across iterations; neither "
                "inspection nor speculation can recover them"
                % ", ".join(hazards),
            )
    written = written_arrays(loop)
    eligible, reason = inspector_eligible(loop)
    if eligible:
        return SpecPlan("inspect", reason, written)
    return SpecPlan("speculate", reason, written)


@dataclass(frozen=True)
class SpecCertificate:
    """The runtime evidence recorded for one speculated/inspected dispatch."""

    loop_var: str
    mode: str  # "inspector" | "speculative"
    status: str  # "proven-dynamic" | "refuted" | "committed" | "rolled-back"
    iterations: int = 0
    chunks: int = 0
    conflicts: int = 0
    wall_s: float = 0.0
    detail: str = ""
    #: ``"native"``, ``"numpy"`` or ``"walk"`` (None: speculative).
    inspector: str | None = None

    def to_dict(self) -> dict:
        return {
            "loop": self.loop_var,
            "mode": self.mode,
            "status": self.status,
            "iterations": self.iterations,
            "chunks": self.chunks,
            "conflicts": self.conflicts,
            "wall_s": self.wall_s,
            "detail": self.detail,
            "inspector": self.inspector,
        }

    def __str__(self) -> str:
        extra = f": {self.detail}" if self.detail else ""
        by = f"/{self.inspector}" if self.inspector else ""
        return (
            f"dynamic[{self.mode}{by}] loop {self.loop_var}: {self.status} "
            f"({self.iterations} iterations, {self.chunks} chunks, "
            f"{self.conflicts} conflict(s)){extra}"
        )


@dataclass
class SpecValidation:
    """Outcome of validating the gathered chunk logs of one dispatch."""

    ok: bool
    chunks: int
    elements: int
    #: Sample of cross-chunk collisions: (kind, element, chunk, chunk).
    conflicts: list[tuple[str, tuple, int, int]] = field(default_factory=list)

    def describe(self) -> str:
        if self.ok:
            return f"{self.chunks} chunks disjoint over {self.elements} elements"
        kind, elem, a, b = self.conflicts[0]
        name, idx = elem
        return (
            f"{kind} conflict on {name}{list(idx)} between chunks "
            f"{a} and {b} (+{len(self.conflicts) - 1} more sampled)"
        )


def validate_chunk_logs(
    logs: Sequence[ChunkLog], max_conflicts: int = 8
) -> SpecValidation:
    """Cross-chunk conflict check over the workers' recorded access sets.

    Passes exactly when no element is written by two chunks (``W∩W``) or
    written by one chunk and read by another (``W∩R``, both orders — the
    chunks ran unordered, so either serial order is violated).  Passing
    proves the speculative run produced the serial result: any divergence
    would start at a read of a concurrently-written element, and both
    sides of that element are in the logs.
    """
    writers: dict[tuple, int] = {}
    conflicts: list[tuple[str, tuple, int, int]] = []
    for ci, (_, _, writes, _) in enumerate(logs):
        for elem in writes:
            prev = writers.setdefault(elem, ci)
            if prev != ci and len(conflicts) < max_conflicts:
                conflicts.append(("write/write", elem, prev, ci))
    for ci, (_, _, _, reads) in enumerate(logs):
        for elem in reads:
            w = writers.get(elem)
            if w is not None and w != ci and len(conflicts) < max_conflicts:
                conflicts.append(("write/read", elem, w, ci))
    return SpecValidation(
        ok=not conflicts,
        chunks=len(logs),
        elements=len(writers),
        conflicts=conflicts,
    )


def merge_chunk_logs(per_worker: Iterable[Sequence[ChunkLog]]) -> list[ChunkLog]:
    """Flatten per-worker logs into one list, ordered by chunk lower bound.

    The order is cosmetic (validation is symmetric); sorting just makes
    conflict samples deterministic across runs.
    """
    merged = [log for logs in per_worker for log in logs]
    merged.sort(key=lambda log: (log[0], log[1]))
    return merged
