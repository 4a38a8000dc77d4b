"""The one dependence edge set, and the statement PDG built from it.

:func:`dependences` is the only place in the package that pairs array
accesses and asks :class:`~repro.analysis.dependence.DependenceTester`
for direction vectors.  It takes the statements to scan, the enclosing
loops pinned at ``=``, and the levels to range over — the loop itself,
or the verifier's de-coalesced virtual levels — and yields one
typed :class:`~repro.analysis.dependence.Dependence` per feasible
direction vector.  Every client is a filter over that stream:

=========================================  ================================
``classify_loop`` / ``mark_doall``         any carried edge ⇒ serial
``build_pdg`` (here)                       all of them, oriented, per
                                           statement pair
``verify_procedure``                       carried edges over the virtual
                                           span ⇒ ``RACE001/2/3``
=========================================  ================================

so a verdict and the edge that blocks it cannot disagree.

The PDG looks *inside* one loop body, one top-level statement at a time,
so the transform layer can stop treating partially-parallel loops as
all-or-nothing:

* **nodes** are the top-level statements of one loop body (index = the
  statement's position in ``loop.body.stmts``);
* **edges** are the array dependences above, oriented
  source-executes-before-sink (``flow``: write then read, ``anti``: read
  then overwrite, ``output``: write then write), plus ``scalar`` edges:
  a statement that is not private in a scalar it writes
  (:func:`~repro.analysis.dependence.exposed_written_scalars`) carries a
  value into its own next iteration (self edge), and any scalar shared
  between two statements with a write on either side orders them both
  ways — a conservative *distribution* constraint, since splitting a def
  from its use would need scalar expansion;
* each array edge carries its **direction vector** (outer loops first,
  the analyzed loop last, then any shared inner loops) and a ``carried``
  bit: carried edges cross iterations of the analyzed loop,
  loop-independent edges order statements within one iteration.

Self edges (carried) are kept: a statement in a dependence cycle with
itself must stay serial, and the SCC condensation below treats such a
singleton as cyclic.  A singleton that is *not* cyclic is, by
construction, a loop :func:`~repro.analysis.doall.classify_loop` accepts.

On top of the graph: a self-contained iterative **Tarjan SCC** (the
package takes no graph-library dependency) and a condensation in
topological order — the legality skeleton of the one loop-splitting
walk (:mod:`repro.transforms.fission`: fission and distribution).

This module also hosts **reduction recognition** shared by the safety
verifier, the transform layer, and the mp runtime: ``s := s ⊕ expr``
(``⊕`` one of ``+ * min max``, optionally under a guard that does not
read ``s``) is the idiom the runtime can execute as per-chunk partial
accumulators with a deterministic ordered combine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.analysis.dependence import (
    Dependence,
    DependenceTester,
    LoopInfo,
    collect_guarded_accesses,
    edge_label,
    exposed_written_scalars,
    written_scalars,
)
from repro.ir.expr import BinOp, Const, Expr, Var
from repro.ir.stmt import Assign, Block, If, Loop, Stmt
from repro.ir.visitor import free_vars, walk_stmts

__all__ = [
    "PDG",
    "PDGEdge",
    "REDUCTION_IDENTITY",
    "Reduction",
    "build_pdg",
    "dependences",
    "recognize_reduction",
]


# ---------------------------------------------------------------------------
# the edge set
# ---------------------------------------------------------------------------


def _common_prefix(a: tuple[Loop, ...], b: tuple[Loop, ...]) -> int:
    k = 0
    while k < len(a) and k < len(b) and a[k] is b[k]:
        k += 1
    return k


def dependences(
    loop: Loop,
    outer: Sequence[Loop] = (),
    levels: Sequence[LoopInfo] | None = None,
    stmts: Sequence[Stmt] | None = None,
    carried_only: bool = True,
) -> Iterator[Dependence]:
    """Every array dependence among ``stmts`` within one run of ``loop``.

    ``outer`` is the chain of loops enclosing ``loop``; their indices
    are held equal on both sides of every pair (one iteration of each).
    ``levels`` are the levels ranged over (default: ``loop`` itself) and
    ``stmts`` the statements scanned (default: ``loop``'s body); a
    dependence is *carried* when its two instances differ in one of
    ``levels``.  With ``carried_only`` the loop-independent ones (same
    iteration of every level) are not even tested.  Statement indices
    refer to ``stmts``.

    Symbols that are neither written nor bound inside ``loop`` hold one
    value throughout the run, so the rational refutation may use them in
    subscripts, bounds and guards on both sides; only the others are
    handed to the tester as ``mutated``.
    """
    if stmts is None:
        stmts = loop.body.stmts
    ranged = [LoopInfo.of(loop)] if levels is None else list(levels)
    pinned = [LoopInfo.of(lp) for lp in outer]
    mutated = written_scalars(loop.body.stmts) | {
        s.var for s in walk_stmts(loop) if isinstance(s, Loop)
    }
    accesses = [
        (si, acc)
        for si, s in enumerate(stmts)
        for acc in collect_guarded_accesses(Block((s,)))
    ]
    span = slice(len(pinned), len(pinned) + len(ranged))
    for src_i, src in accesses:
        if not src.is_write:
            continue
        for sink_i, sink in accesses:
            if src.ref.name != sink.ref.name:
                continue
            k = _common_prefix(src.inner_chain, sink.inner_chain)
            tester = DependenceTester(
                pinned + ranged + [LoopInfo.of(lp) for lp in src.inner_chain[:k]],
                [LoopInfo.of(lp) for lp in src.inner_chain[k:]],
                [LoopInfo.of(lp) for lp in sink.inner_chain[k:]],
                mutated,
                pinned=len(pinned),
            )
            exact: bool | None = None
            for directions in tester.feasible_directions(
                src.ref,
                sink.ref,
                src.guards,
                sink.guards,
                carried=len(ranged) if carried_only else 0,
            ):
                if exact is None:
                    exact = tester.is_affine(src.ref, sink.ref)
                first = next((d for d in directions[span] if d != "="), None)
                # Which instance runs first: the earlier iteration, or
                # within one iteration the textually earlier statement.
                src_first = first == "<" if first else src_i < sink_i
                if sink.is_write:
                    kind = "output"
                else:
                    kind = "flow" if src_first else "anti"
                yield Dependence(
                    kind=kind,
                    directions=directions,
                    exact=exact,
                    carried=first is not None,
                    src_stmt=src_i,
                    dst_stmt=sink_i,
                    src_ref=src.ref,
                    dst_ref=sink.ref,
                    src_first=src_first,
                )


@dataclass(frozen=True)
class PDGEdge:
    """One dependence between two top-level statements of a loop body.

    ``src`` executes (some instance) before ``dst``.  ``directions`` is
    the feasible direction vector for array edges — positions cover the
    outer serial loops, then the analyzed loop, then shared inner loops
    — and empty for scalar edges (always conservative, always ordered
    both ways).  ``carried`` marks edges that cross iterations of the
    analyzed loop; loop-independent edges merely order statements inside
    one iteration and never force two statements into one loop.
    """

    src: int
    dst: int
    kind: str  # "flow" | "anti" | "output" | "scalar"
    var: str  # array or scalar name carrying the dependence
    directions: tuple[str, ...]
    carried: bool

    def describe(self) -> str:
        flavor = "carried" if self.carried else "loop-independent"
        return edge_label(
            self.src,
            self.dst,
            self.directions,
            f": {flavor} {self.kind} dependence on '{self.var}'",
        )


@dataclass(frozen=True)
class PDG:
    """The dependence graph over one loop body's top-level statements."""

    loop: Loop
    stmts: tuple[Stmt, ...]
    edges: tuple[PDGEdge, ...]

    def edges_between(self, src: int, dst: int) -> list[PDGEdge]:
        return [e for e in self.edges if e.src == src and e.dst == dst]

    def has_self_cycle(self, node: int) -> bool:
        return any(
            e.src == node and e.dst == node and e.carried
            for e in self.edges
        )

    def sccs(self) -> tuple[tuple[int, ...], ...]:
        """Strongly connected components in topological order.

        Iterative Tarjan; components come out in reverse topological
        order, so the result is reversed before returning.  Only carried
        edges *and* loop-independent edges both participate in SCC
        formation — a loop-independent cycle (mutual scalar touches in
        one iteration) still pins statements together.
        """
        n = len(self.stmts)
        succ: dict[int, list[int]] = {k: [] for k in range(n)}
        for e in self.edges:
            if e.src != e.dst and e.dst not in succ[e.src]:
                succ[e.src].append(e.dst)
        index: dict[int, int] = {}
        low: dict[int, int] = {}
        on_stack: set[int] = set()
        stack: list[int] = []
        out: list[tuple[int, ...]] = []
        counter = 0

        for root in range(n):
            if root in index:
                continue
            # Each work item: (node, iterator over its successors).
            work: list[tuple[int, Iterator[int]]] = [(root, iter(succ[root]))]
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for child in it:
                    if child not in index:
                        index[child] = low[child] = counter
                        counter += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append((child, iter(succ[child])))
                        advanced = True
                        break
                    if child in on_stack:
                        low[node] = min(low[node], index[child])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp: list[int] = []
                    while True:
                        top = stack.pop()
                        on_stack.discard(top)
                        comp.append(top)
                        if top == node:
                            break
                    out.append(tuple(sorted(comp)))
        out.reverse()
        return tuple(out)

    def cyclic(self, component: tuple[int, ...]) -> bool:
        """Must this component stay inside one (serial) loop?

        True for multi-statement components and for singletons with a
        carried self dependence.
        """
        if len(component) > 1:
            return True
        return self.has_self_cycle(component[0])

    def blocking_edges(
        self, component: tuple[int, ...]
    ) -> list[PDGEdge]:
        """The edges that make ``component`` cyclic (internal edges)."""
        members = set(component)
        return [
            e
            for e in self.edges
            if e.src in members
            and e.dst in members
            and (len(members) > 1 or e.carried)
        ]

    def to_dict(self) -> dict[str, object]:
        return {
            "loop": self.loop.var,
            "statements": len(self.stmts),
            "edges": [
                {
                    "src": e.src,
                    "dst": e.dst,
                    "kind": e.kind,
                    "var": e.var,
                    "directions": list(e.directions),
                    "carried": e.carried,
                }
                for e in self.edges
            ],
            "sccs": [list(c) for c in self.sccs()],
        }


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def build_pdg(loop: Loop, outer: Sequence[Loop] = ()) -> PDG:
    """The PDG over ``loop``'s top-level body statements.

    ``outer`` is the chain of loops enclosing ``loop``; their indices
    are held equal on both sides of every tested pair (the transform
    layer splits one loop at a time, in place).
    """
    stmts = tuple(loop.body.stmts)
    # Array edges, oriented source-executes-before-sink and grouped per
    # statement pair (a dict as an ordered set: one edge per distinct
    # kind, array and direction vector).
    array: dict[tuple[int, int], dict[PDGEdge, None]] = {}
    for dep in dependences(loop, outer, carried_only=False):
        a, b, directions = dep.oriented()
        if a == b and not dep.carried:
            continue  # one statement instance: no ordering
        edge = PDGEdge(a, b, dep.kind, dep.array, directions, dep.carried)
        array.setdefault((a, b), {})[edge] = None

    reads = [free_vars(s) for s in stmts]
    writes = [written_scalars([s]) for s in stmts]
    bound = {loop.var} | {lp.var for lp in outer}
    edges: list[PDGEdge] = []
    for a in range(len(stmts)):
        for b in range(len(stmts)):
            edges.extend(array.get((a, b), ()))
            # Scalars: one memory cell — any shared touch with at least
            # one write orders the statements both ways across
            # iterations (conservative; induction variables excluded).
            if a == b:
                continue
            shared = (
                (writes[a] & ((reads[b] | writes[b]) - bound))
                | (writes[b] & (reads[a] - bound))
            )
            for name in sorted(shared):
                edges.append(PDGEdge(a, b, "scalar", name, (), True))
    # Scalar self edges: a statement that reads a scalar before it
    # writes it (``s := s + …``) carries a value into its own next
    # iteration; a temp it defines before every use is private.
    for k, s in enumerate(stmts):
        for name in sorted(exposed_written_scalars(Block((s,)), bound)):
            edges.append(PDGEdge(k, k, "scalar", name, (), True))
    return PDG(loop, stmts, tuple(edges))


# ---------------------------------------------------------------------------
# reduction recognition
# ---------------------------------------------------------------------------

#: Identity element per reduction operator (float arithmetic).
REDUCTION_IDENTITY: dict[str, float] = {
    "+": 0.0,
    "*": 1.0,
    "min": float("inf"),
    "max": float("-inf"),
}


@dataclass(frozen=True)
class Reduction:
    """A recognized ``s := s ⊕ expr`` accumulation loop.

    ``update`` is the ⊕-contribution of one iteration (the non-``s``
    operand), ``guard`` the optional dominating condition (``None`` for
    an unguarded body).  The runtime executes the loop as per-chunk
    partial accumulators seeded with :data:`REDUCTION_IDENTITY` and
    folds the partials in ascending chunk order seeded with the
    incoming scalar — deterministic for a fixed trip count, and exact
    (bit-identical to serial) whenever ⊕ is exact on the data
    (``min``/``max`` always; float ``+``/``*`` on integer-valued data).
    """

    scalar: str
    op: str  # "+" | "*" | "min" | "max"
    update: Expr
    guard: Expr | None

    @property
    def identity(self) -> float:
        return REDUCTION_IDENTITY[self.op]


def recognize_reduction(loop: Loop) -> Reduction | None:
    """Match ``loop`` against the reduction idiom, or return ``None``.

    The body must be exactly one assignment — optionally wrapped in one
    ``If`` with an empty else branch whose condition does not read the
    accumulator — of the form ``s := s ⊕ e`` or ``s := e ⊕ s`` with
    ``⊕`` in ``+ * min max`` and ``e`` free of ``s``.  Anything else
    (a second statement reading ``s``, a non-commutative operator, a
    guard on ``s``) is not a reduction the ordered combine can honor,
    and the loop keeps its serial verdict.
    """
    stmts = list(loop.body.stmts)
    guard: Expr | None = None
    if len(stmts) == 1 and isinstance(stmts[0], If):
        cond = stmts[0]
        if len(cond.orelse) != 0:
            return None
        guard = cond.cond
        stmts = list(cond.then.stmts)
    if len(stmts) != 1 or not isinstance(stmts[0], Assign):
        return None
    assign = stmts[0]
    if not isinstance(assign.target, Var):
        return None
    name = assign.target.name
    if name == loop.var:
        return None
    value = assign.value
    if not isinstance(value, BinOp) or value.op not in REDUCTION_IDENTITY:
        return None
    lhs_is_s = isinstance(value.lhs, Var) and value.lhs.name == name
    rhs_is_s = isinstance(value.rhs, Var) and value.rhs.name == name
    if lhs_is_s == rhs_is_s:  # neither side, or s ⊕ s
        return None
    update = value.rhs if lhs_is_s else value.lhs
    if name in free_vars(update):
        return None
    if guard is not None and name in free_vars(guard):
        return None
    # The loop's step must be the unit constant the runtime strip-mines.
    if not (isinstance(loop.step, Const) and loop.step.value == 1):
        return None
    return Reduction(scalar=name, op=value.op, update=update, guard=guard)
