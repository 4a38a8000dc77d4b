"""Canonical kernels, written 1-based (arrays padded with an unused slot 0).

Each constructor returns a :class:`Workload` bundling the IR procedure, a
shape function (scalar values → numpy array shapes), default scalars, and —
where a closed-form answer exists — a numpy reference oracle the test suite
checks both execution backends against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.frontend.dsl import parse
from repro.ir.builder import assign, c, doall, proc, ref, v
from repro.ir.stmt import Procedure


@dataclass(frozen=True)
class Workload:
    """A runnable kernel: procedure + environment recipe + oracle."""

    name: str
    proc: Procedure
    sizes: Callable[[Mapping[str, int]], dict[str, tuple[int, ...]]]
    default_scalars: dict[str, int] = field(default_factory=dict)
    reference: Callable[[dict[str, np.ndarray], Mapping[str, int]], None] | None = None
    init: Callable[[dict[str, np.ndarray], Mapping[str, int], np.random.Generator], None] | None = None


def make_env(
    workload: Workload,
    scalars: Mapping[str, int] | None = None,
    seed: int = 0,
) -> tuple[dict[str, np.ndarray], dict[str, int]]:
    """Random (or workload-initialized) arrays plus resolved scalars."""
    sc = dict(workload.default_scalars)
    if scalars:
        sc.update(scalars)
    rng = np.random.default_rng(seed)
    shapes = workload.sizes(sc)
    arrays = {
        name: rng.standard_normal(shapes[name]) for name in workload.proc.arrays
    }
    if workload.init is not None:
        workload.init(arrays, sc, rng)
    return arrays, sc


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def matmul() -> Workload:
    """Dense matrix multiply: the paper's flagship coalescing candidate.

    The (i, j) DOALL pair coalesces to a single loop of n² tasks; k stays
    serial (a reduction).
    """
    p = parse(
        """
        procedure matmul(A[2], B[2], C[2]; n)
          doall i = 1, n
            doall j = 1, n
              C(i, j) := 0.0
              for k = 1, n
                C(i, j) := C(i, j) + A(i, k) * B(k, j)
              end
            end
          end
        end
        """
    )

    def sizes(sc):
        n = sc["n"]
        return {name: (n + 1, n + 1) for name in "ABC"}

    def reference(arrays, sc):
        a = arrays["A"][1:, 1:]
        b = arrays["B"][1:, 1:]
        arrays["C"][1:, 1:] = a @ b

    return Workload("matmul", p, sizes, {"n": 16}, reference)


def saxpy2d() -> Workload:
    """Element-wise update: every subscript is exactly the nest indices."""
    p = parse(
        """
        procedure saxpy2d(X[2], Y[2]; n, m)
          doall i = 1, n
            doall j = 1, m
              Y(i, j) := Y(i, j) + 2.5 * X(i, j)
            end
          end
        end
        """
    )

    def sizes(sc):
        return {"X": (sc["n"] + 1, sc["m"] + 1), "Y": (sc["n"] + 1, sc["m"] + 1)}

    def reference(arrays, sc):
        n, m = sc["n"], sc["m"]
        arrays["Y"][1:, 1:] += 2.5 * arrays["X"][1:, 1:]

    return Workload("saxpy2d", p, sizes, {"n": 12, "m": 17}, reference)


def jacobi2d() -> Workload:
    """One 5-point Jacobi sweep into a fresh array.

    Interior bounds ``2 .. n−1`` exercise normalization before coalescing.
    """
    p = parse(
        """
        procedure jacobi2d(A[2], B[2]; n, m)
          doall i = 2, n - 1
            doall j = 2, m - 1
              B(i, j) := 0.25 * (A(i - 1, j) + A(i + 1, j) + A(i, j - 1) + A(i, j + 1))
            end
          end
        end
        """
    )

    def sizes(sc):
        return {"A": (sc["n"] + 1, sc["m"] + 1), "B": (sc["n"] + 1, sc["m"] + 1)}

    def reference(arrays, sc):
        a = arrays["A"]
        n, m = sc["n"], sc["m"]
        interior = 0.25 * (
            a[1 : n - 1, 2:m] + a[3 : n + 1, 2:m] + a[2:n, 1 : m - 1] + a[2:n, 3 : m + 1]
        )
        arrays["B"][2:n, 2:m] = interior

    return Workload("jacobi2d", p, sizes, {"n": 14, "m": 11}, reference)


def pi_partial_sums() -> Workload:
    """π by midpoint integration of 4/(1+x²), partial sums per task.

    ``tasks`` parallel workers each accumulate a private partial sum over a
    cyclically assigned subset of ``intervals``, depositing into ``S`` —
    the classic shared-memory idiom for a parallel reduction.  The host sums
    S afterwards.
    """
    p = parse(
        """
        procedure calc_pi(S[1]; tasks, intervals)
          doall t = 1, tasks
            local := 0.0
            for k = 0, (intervals - t) div tasks
              x := (float(t + k * tasks) - 0.5) / float(intervals)
              local := local + 4.0 / (1.0 + x * x)
            end
            S(t) := local / float(intervals)
          end
        end
        """
    )

    def sizes(sc):
        return {"S": (sc["tasks"] + 1,)}

    def reference(arrays, sc):
        t_count, n = sc["tasks"], sc["intervals"]
        out = np.zeros(t_count + 1)
        for t in range(1, t_count + 1):
            idx = np.arange(t, n + 1, t_count, dtype=float)
            x = (idx - 0.5) / n
            out[t] = np.sum(4.0 / (1.0 + x * x)) / n
        arrays["S"][1:] = out[1:]  # slot 0 is the unused 1-based pad

    return Workload("calc_pi", p, sizes, {"tasks": 8, "intervals": 1000}, reference)


def stencil3d() -> Workload:
    """7-point 3-D stencil sweep: a depth-3 coalescing candidate."""
    p = parse(
        """
        procedure stencil3d(A[3], B[3]; n)
          doall i = 2, n - 1
            doall j = 2, n - 1
              doall k = 2, n - 1
                B(i, j, k) := A(i, j, k) + 0.1 * (A(i - 1, j, k) + A(i + 1, j, k)
                  + A(i, j - 1, k) + A(i, j + 1, k) + A(i, j, k - 1) + A(i, j, k + 1)
                  - 6.0 * A(i, j, k))
              end
            end
          end
        end
        """
    )

    def sizes(sc):
        n = sc["n"]
        return {"A": (n + 1, n + 1, n + 1), "B": (n + 1, n + 1, n + 1)}

    def reference(arrays, sc):
        a = arrays["A"]
        n = sc["n"]
        s = slice(2, n)
        lap = (
            a[1 : n - 1, s, s] + a[3 : n + 1, s, s]
            + a[s, 1 : n - 1, s] + a[s, 3 : n + 1, s]
            + a[s, s, 1 : n - 1] + a[s, s, 3 : n + 1]
            - 6.0 * a[s, s, s]
        )
        arrays["B"][s, s, s] = a[s, s, s] + 0.1 * lap

    return Workload("stencil3d", p, sizes, {"n": 8}, reference)


def floyd_warshall() -> Workload:
    """All-pairs shortest paths: serial k over a DOALL (i, j) update pair.

    The second hybrid workload (after Gauss–Jordan): each k-step's (i, j)
    update nest is rectangular, perfect and parallel — exactly what
    per-pivot coalescing targets.  The i=k / j=k rows and columns may be
    read while being written, but the update is idempotent there
    (D(k,j) cannot improve through k itself), so the DOALL tag is sound —
    the classic Floyd–Warshall parallelization argument.
    """
    p = parse(
        """
        procedure floyd(D[2]; n)
          for k = 1, n
            doall i = 1, n
              doall j = 1, n
                D(i, j) := min(D(i, j), D(i, k) + D(k, j))
              end
            end
          end
        end
        """
    )

    def sizes(sc):
        n = sc["n"]
        return {"D": (n + 1, n + 1)}

    def reference(arrays, sc):
        n = sc["n"]
        d = arrays["D"]
        for k in range(1, n + 1):
            d[1:, 1:] = np.minimum(
                d[1:, 1:], d[1:, k : k + 1] + d[k : k + 1, 1:]
            )

    def init(arrays, sc, rng):
        n = sc["n"]
        d = arrays["D"]
        d[:] = rng.uniform(1.0, 10.0, size=d.shape)
        for v_ in range(n + 1):
            d[v_, v_] = 0.0

    return Workload("floyd", p, sizes, {"n": 10}, reference, init)


def mark_nest(shape: tuple[int, ...], name: str = "mark") -> Workload:
    """Perfect DOALL nest writing a unique value per iteration point.

    The canonical correctness probe: any reordering or index error changes
    the result.
    """
    m = len(shape)
    idx = [v(f"i{k}") for k in range(m)]
    value = c(0)
    for k in range(m):
        value = value * 1000 + idx[k]
    body = assign(ref("T", *idx), value)
    loop = body
    for k in range(m - 1, -1, -1):
        loop = doall(f"i{k}", 1, shape[k])(loop)
    p = proc(name, loop, arrays={"T": m})

    def sizes(sc):
        return {"T": tuple(n + 1 for n in shape)}

    def reference(arrays, sc):
        grids = np.meshgrid(
            *[np.arange(n + 1) for n in shape], indexing="ij"
        )
        total = np.zeros(tuple(n + 1 for n in shape))
        for g in grids:
            total = total * 1000 + g
        out = arrays["T"]
        interior = tuple(slice(1, n + 1) for n in shape)
        out[interior] = total[interior]

    return Workload(name, p, sizes, {}, reference)
