"""The lint rule registry: stable codes, titles, and explanations.

Rule codes are part of the tool's public contract — CI greps for them,
tests assert on them, and the service returns them verbatim — so codes
are never renumbered or reused.  New rules append.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.safety import RULES

__all__ = ["RULE_DOCS", "RuleDoc", "explain"]


@dataclass(frozen=True)
class RuleDoc:
    """Documentation for one stable rule code."""

    code: str
    title: str
    severity: str
    description: str


RULE_DOCS: dict[str, RuleDoc] = {
    "RACE001": RuleDoc(
        "RACE001",
        RULES["RACE001"],
        "error",
        "An iteration of the dispatched loop writes an array element that "
        "a later iteration reads.  Under self-scheduling the two "
        "iterations may land in different chunks on different workers, so "
        "the reader can observe either the old or the new value.",
    ),
    "RACE002": RuleDoc(
        "RACE002",
        RULES["RACE002"],
        "error",
        "Two distinct iterations of the dispatched loop write the same "
        "array element.  Claimed blocks of the flat range are disjoint in "
        "*iterations*, not *elements*: when the write subscript is not "
        "injective over the loop index, chunks overlap in memory and the "
        "final value depends on worker timing.",
    ),
    "RACE003": RuleDoc(
        "RACE003",
        RULES["RACE003"],
        "error",
        "An iteration reads an array element that a later iteration "
        "overwrites.  Cross-chunk, the reader may see the overwritten "
        "value early.",
    ),
    "PRIV002": RuleDoc(
        "PRIV002",
        RULES["PRIV002"],
        "error",
        "A scalar received by the chunk kernel is read before it is "
        "written inside an iteration that also writes it.  Each worker "
        "holds its own copy, so a value carried between iterations "
        "(an accumulator, a running flag) diverges from serial "
        "execution.",
    ),
    "SPEC001": RuleDoc(
        "SPEC001",
        RULES["SPEC001"],
        "info",
        "The loop could not be proven race-free statically, but no array "
        "is both written and read and every scalar is provably private — "
        "so a subscript-only runtime inspector can decide each dispatch "
        "exactly.  The default safety mode dispatches it when the "
        "inspector proves the write sets disjoint (running it serially "
        "otherwise).",
    ),
    "FISS001": RuleDoc(
        "FISS001",
        RULES["FISS001"],
        "info",
        "Loop fission split this loop along the strongly connected "
        "components of its statement-level dependence graph.  Statements "
        "in a dependence cycle stay together in a serial sub-loop; "
        "acyclic components become their own loops, re-classified by the "
        "DOALL analyser and re-verified by the safety verifier before "
        "dispatch.  The message lists each piece (by original statement "
        "index) and its final kind.",
    ),
    "FISS002": RuleDoc(
        "FISS002",
        RULES["FISS002"],
        "info",
        "Loop fission was attempted but every top-level statement sits "
        "in one dependence cycle, so no sub-loop can be legally "
        "separated.  The message names the blocking SCC's statements and "
        "a representative dependence edge (source statement, sink "
        "statement, direction vector).  Break the cycle — buffer the "
        "values an earlier iteration still needs, or restructure the "
        "recurrence — to expose a parallel piece.",
    ),
    "RED001": RuleDoc(
        "RED001",
        RULES["RED001"],
        "info",
        "The loop matches the reduction idiom s := s ⊕ expr (⊕ one of "
        "+, *, min, max, optionally guarded).  The accumulator is "
        "genuinely carried — PRIV002 would be correct — but the runtime "
        "executes the loop with per-chunk partial accumulators seeded "
        "with the operator identity and folds them in ascending chunk "
        "order seeded with the incoming scalar.  The chunk grid depends "
        "only on the trip count, so the result is deterministic, and "
        "bit-identical to serial whenever ⊕ is exact on the data "
        "(min/max always; float +/* on integer-valued data).",
    ),
    "SPMD001": RuleDoc(
        "SPMD001",
        RULES["SPMD001"],
        "info",
        "A program with a DOALL under a serial loop normally runs as one "
        "native SPMD region: the workers run the serial loops themselves "
        "and meet at a barrier per DOALL instance, one fork/join for the "
        "whole run.  This program keeps one dispatch per instance because "
        "one of its DOALLs is a recognized reduction, whose partial "
        "accumulators are folded by the parent between dispatches.",
    ),
    "SPMD002": RuleDoc(
        "SPMD002",
        RULES["SPMD002"],
        "info",
        "The region was not used because the safety verdict blocks one "
        "of the program's DOALLs (unproven, and the runtime inspector "
        "cannot decide it): it runs serially in the parent, between the "
        "dispatches of the others, which a region has no place for.  "
        "safety=\"off\" dispatches it as tagged.",
    ),
    "SPMD003": RuleDoc(
        "SPMD003",
        RULES["SPMD003"],
        "info",
        "The region was not used because one of the program's DOALLs is "
        "decided at run time, per instance, by the subscript inspector, "
        "which runs in the parent between dispatches.",
    ),
    "SPMD004": RuleDoc(
        "SPMD004",
        RULES["SPMD004"],
        "info",
        "Every worker runs the region's serial skeleton redundantly, so "
        "it may hold only control — serial loops and ifs whose bounds and "
        "conditions are integer arithmetic over parameters and enclosing "
        "serial induction variables — around the DOALLs.  This program's "
        "skeleton reads an array, does non-integer arithmetic, has a "
        "computed step, or holds serial statements between its DOALLs.",
    ),
    "SPMD005": RuleDoc(
        "SPMD005",
        RULES["SPMD005"],
        "info",
        "The region drains each DOALL instance through the shared "
        "fetch&add counter; a static policy has no claim rule to drive "
        "it, so the run keeps one dispatch per instance.",
    ),
    "SPMD006": RuleDoc(
        "SPMD006",
        RULES["SPMD006"],
        "info",
        "The region calls every DOALL's C kernel through the native claim "
        "loop.  One of them could not be bound that way — there is no "
        "compiler, an array is not C-contiguous float64, its kernel failed "
        "to build — or the region unit itself failed to build or load, so "
        "the run keeps one dispatch per instance.",
    ),
}


def explain(code: str) -> str:
    """Human-readable explanation of a rule code."""
    doc = RULE_DOCS.get(code)
    if doc is None:
        return f"{code}: unknown rule"
    return f"{doc.code} ({doc.severity}): {doc.title}\n\n{doc.description}"
