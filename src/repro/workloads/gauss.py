"""Gauss–Jordan elimination: the hybrid (serial-outer) workload.

Solves ``A·X = B`` for an n×n system with m right-hand sides, storing B to
the right of A in one n×(n+m) array ``AB``.  The pivot loop over columns is
inherently serial; inside it the row-update loop is parallel (guarded by
``i ≠ j``); the final solution extraction is a perfectly nested DOALL pair —
the nest the coalescing pass targets (E8).

The update ``i`` loop carries its DOALL tag in the source, as in the paper's
setting where the restructurer supplies it; ``mark_doall`` re-derives the
same tag, because the ``i ≠ j`` guard makes the write AB(i, k) and the read
AB(j, k) disjoint and the dependence tester's rational refutation sees
guards.
"""

from __future__ import annotations

import numpy as np

from repro.frontend.dsl import parse
from repro.workloads.kernels import Workload


def _diagonally_dominant(arrays, sc, rng) -> None:
    """Make the left block well-conditioned so elimination is stable."""
    n = sc["n"]
    ab = arrays["AB"]
    ab[1 : n + 1, 1 : n + 1] += np.eye(n) * (n + 1.0)
    arrays["X"][:] = 0.0


def gauss_jordan() -> Workload:
    p = parse(
        """
        procedure gauss_jordan(AB[2], X[2]; n, m)
          for j = 1, n
            doall i = 1, n
              if i != j then
                mult := AB(i, j) / AB(j, j)
                doall k = j + 1, n + m
                  AB(i, k) := AB(i, k) - mult * AB(j, k)
                end
              end
            end
          end
          doall i = 1, n
            doall jj = 1, m
              X(i, jj) := AB(i, jj + n) / AB(i, i)
            end
          end
        end
        """
    )

    def sizes(sc):
        n, m = sc["n"], sc["m"]
        return {"AB": (n + 1, n + m + 1), "X": (n + 1, m + 1)}

    return Workload(
        "gauss_jordan",
        p,
        sizes,
        {"n": 10, "m": 3},
        reference=None,  # verified via gauss_reference on the solution block
        init=_diagonally_dominant,
    )


def gauss_reference(arrays_before: dict, sc) -> np.ndarray:
    """Solve the same system with numpy; returns the (n, m) solution block."""
    n, m = sc["n"], sc["m"]
    a = arrays_before["AB"][1 : n + 1, 1 : n + 1]
    b = arrays_before["AB"][1 : n + 1, n + 1 : n + m + 1]
    return np.linalg.solve(a, b)
