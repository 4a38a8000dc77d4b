"""Irregular workloads: statically-unprovable loops for the runtime inspector.

Each procedure claims DOALL on a loop the static verifier cannot prove —
subscripts flow through data, so legality depends on the *values* at
runtime.  They exist to exercise the inspector and its refusals:

=================== ============ ======================================
histogram           refused      accumulate through duplicate keys —
                                 ``H`` is both written and read, so the
                                 inspector cannot decide it; the plan
                                 refuses it and the run is serial
histogram_disjoint  refused      same shape, injective keys — refused
                                 all the same: the refusal is by name,
                                 before the data is looked at
scatter_perm        inspector    write through a permutation array — no
                                 array is both written and read, so the
                                 subscript-only inspector proves each
                                 dispatch disjoint and certifies it
ragged_update       inspector    data-dependent inner bound plus an
                                 indirect row subscript — the inspector
                                 walks the ragged space and proves it
=================== ============ ======================================

Registered in :data:`repro.workloads.shapes.IRREGULAR_WORKLOADS` (kept
out of ``WORKLOADS`` so benches and round-trip tests never dispatch them
without a dynamic check); resolvable by name everywhere via
:func:`repro.workloads.shapes.get_workload`.  The ``reference`` oracles
implement the serial semantics — what every run, dispatched or
refused, must reproduce bit-for-bit.
"""

from __future__ import annotations

from repro.frontend.dsl import parse
from repro.workloads.kernels import Workload


def histogram() -> Workload:
    """Accumulate through duplicate keys: a loop no chunking can run.

    ``b`` is deliberately tiny relative to ``n``, so every chunking of
    the range collides across chunks.  The inspector cannot help: ``H``
    is both written and read, so values (not just addresses) flow
    between iterations, and the default safety mode refuses the loop.
    """
    p = parse(
        """
        procedure histogram(H[1], K[1]; n, b)
          doall i = 1, n
            H(int(K(i))) := H(int(K(i))) + 1.0
          end
        end
        """
    )

    def sizes(sc):
        return {"H": (sc["b"] + 1,), "K": (sc["n"] + 1,)}

    def init(arrays, sc, rng):
        arrays["H"][:] = 0.0
        arrays["K"][:] = 0.0
        arrays["K"][1 : sc["n"] + 1] = rng.integers(
            1, sc["b"] + 1, size=sc["n"]
        ).astype(float)

    def reference(arrays, sc):
        h, k = arrays["H"], arrays["K"]
        for i in range(1, sc["n"] + 1):
            h[int(k[i])] = h[int(k[i])] + 1.0

    return Workload("histogram", p, sizes, {"n": 96, "b": 8}, reference, init)


def histogram_disjoint() -> Workload:
    """The same accumulate, but every key is distinct.

    Statically indistinguishable from :func:`histogram` — the verifier
    and the inspector refuse both — although the injective key
    array makes every chunk's write and read sets disjoint.
    """
    p = parse(
        """
        procedure histogram_disjoint(H[1], K[1]; n, b)
          doall i = 1, n
            H(int(K(i))) := H(int(K(i))) + 1.0
          end
        end
        """
    )

    def sizes(sc):
        return {"H": (sc["b"] + 1,), "K": (sc["n"] + 1,)}

    def init(arrays, sc, rng):
        arrays["H"][:] = 0.0
        arrays["K"][:] = 0.0
        arrays["K"][1 : sc["n"] + 1] = (
            rng.permutation(sc["b"])[: sc["n"]] + 1
        ).astype(float)

    def reference(arrays, sc):
        h, k = arrays["H"], arrays["K"]
        for i in range(1, sc["n"] + 1):
            h[int(k[i])] = h[int(k[i])] + 1.0

    return Workload(
        "histogram_disjoint", p, sizes, {"n": 64, "b": 256}, reference, init
    )


def scatter_perm() -> Workload:
    """Scatter a polynomial through a permutation array: inspector bait.

    ``B`` is only written and ``P``/``X`` only read, so the subscript-only
    inspector applies — it evaluates just ``int(P(i))`` per iteration
    (skipping the polynomial), proves the write sets disjoint, and the
    normal executor runs with a runtime certificate.  The body is kept
    arithmetic-heavy so inspection stays cheap relative to execution.
    """
    p = parse(
        """
        procedure scatter_perm(B[1], P[1], X[1]; n)
          doall i = 1, n
            B(int(P(i))) := X(i) * X(i) * X(i) + X(i) * X(i) + X(i) + 0.5
          end
        end
        """
    )

    def sizes(sc):
        n = sc["n"]
        return {"B": (n + 1,), "P": (n + 1,), "X": (n + 1,)}

    def init(arrays, sc, rng):
        n = sc["n"]
        arrays["B"][:] = 0.0
        arrays["P"][:] = 0.0
        arrays["P"][1 : n + 1] = (rng.permutation(n) + 1).astype(float)

    def reference(arrays, sc):
        n = sc["n"]
        idx = arrays["P"][1 : n + 1].astype(int)
        x = arrays["X"][1 : n + 1]
        arrays["B"][idx] = x * x * x + x * x + x + 0.5

    return Workload("scatter_perm", p, sizes, {"n": 2048}, reference, init)


def ragged_update() -> Workload:
    """Indirect row writes with a data-dependent inner bound.

    Each outer iteration fills a *prefix* of a permuted row — the inner
    trip count comes from ``C(i)``, unknown until runtime (rows may be
    empty).  The inspector walks exactly the ragged iteration space the
    execution would, proving the row writes disjoint.
    """
    p = parse(
        """
        procedure ragged_update(B[2], P[1], C[1], X[1]; n, m)
          doall i = 1, n
            for j = 1, int(C(i))
              B(int(P(i)), j) := X(i) + 0.5 * j
            end
          end
        end
        """
    )

    def sizes(sc):
        n, m = sc["n"], sc["m"]
        return {
            "B": (n + 1, m + 1),
            "P": (n + 1,),
            "C": (n + 1,),
            "X": (n + 1,),
        }

    def init(arrays, sc, rng):
        n, m = sc["n"], sc["m"]
        arrays["B"][:] = 0.0
        arrays["P"][:] = 0.0
        arrays["C"][:] = 0.0
        arrays["P"][1 : n + 1] = (rng.permutation(n) + 1).astype(float)
        arrays["C"][1 : n + 1] = rng.integers(0, m + 1, size=n).astype(float)

    def reference(arrays, sc):
        n = sc["n"]
        b, p_, c, x = arrays["B"], arrays["P"], arrays["C"], arrays["X"]
        for i in range(1, n + 1):
            for j in range(1, int(c[i]) + 1):
                b[int(p_[i]), j] = x[i] + 0.5 * j

    return Workload(
        "ragged_update", p, sizes, {"n": 48, "m": 8}, reference, init
    )
