"""Workload registry keyed by name (used by benches and the examples)."""

from __future__ import annotations

from typing import Callable

from repro.workloads.gauss import gauss_jordan
from repro.workloads.kernels import (
    Workload,
    floyd_warshall,
    jacobi2d,
    matmul,
    pi_partial_sums,
    saxpy2d,
    stencil3d,
)
from repro.workloads.irregular import (
    histogram,
    histogram_disjoint,
    ragged_update,
    scatter_perm,
)
from repro.workloads.mixed import (
    dot_product,
    guarded_sum,
    mixed_antidep,
    mixed_update,
)
from repro.workloads.racy import racy_flow, racy_overlap, racy_scalar

WORKLOADS: dict[str, Callable[[], Workload]] = {
    "matmul": matmul,
    "saxpy2d": saxpy2d,
    "jacobi2d": jacobi2d,
    "calc_pi": pi_partial_sums,
    "gauss_jordan": gauss_jordan,
    "stencil3d": stencil3d,
    "floyd": floyd_warshall,
}

#: Deliberately-illegal DOALL claims (see :mod:`repro.workloads.racy`).
#: Kept out of ``WORKLOADS`` so benches and round-trip tests never run
#: them in parallel; resolvable by name everywhere via
#: :func:`get_workload`.
RACY_WORKLOADS: dict[str, Callable[[], Workload]] = {
    "racy_flow": racy_flow,
    "racy_overlap": racy_overlap,
    "racy_scalar": racy_scalar,
}

#: Statically-unprovable loops whose legality depends on runtime data
#: (see :mod:`repro.workloads.irregular`).  Kept out of ``WORKLOADS`` so
#: nothing dispatches them without a dynamic check (the runtime inspector);
#: resolvable by name everywhere via :func:`get_workload`.
IRREGULAR_WORKLOADS: dict[str, Callable[[], Workload]] = {
    "histogram": histogram,
    "histogram_disjoint": histogram_disjoint,
    "scatter_perm": scatter_perm,
    "ragged_update": ragged_update,
}

#: Partially-parallel programs: mixed serial bodies and reduction idioms
#: (see :mod:`repro.workloads.mixed`).  Dispatchable only under the
#: ``transforms="fission,reduction"`` recovery passes, so they are kept
#: out of ``WORKLOADS``; resolvable by name everywhere via
#: :func:`get_workload`.
MIXED_WORKLOADS: dict[str, Callable[[], Workload]] = {
    "mixed_update": mixed_update,
    "mixed_antidep": mixed_antidep,
    "dot_product": dot_product,
    "guarded_sum": guarded_sum,
}


def get_workload(name: str) -> Workload:
    """Instantiate a registered workload (racy/irregular/mixed too)."""
    factory = (
        WORKLOADS.get(name)
        or RACY_WORKLOADS.get(name)
        or IRREGULAR_WORKLOADS.get(name)
        or MIXED_WORKLOADS.get(name)
    )
    if factory is None:
        known = (
            sorted(WORKLOADS)
            + sorted(RACY_WORKLOADS)
            + sorted(IRREGULAR_WORKLOADS)
            + sorted(MIXED_WORKLOADS)
        )
        raise ValueError(f"unknown workload {name!r}; known: {known}")
    return factory()
