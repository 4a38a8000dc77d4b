"""The equivalence assertion the transform tests share.

Run the original and the transformed procedure from identical random
initial stores and compare every array bit-for-bit (or to an ulp tolerance
for float accumulations whose order changed).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.ir.stmt import Procedure
from repro.runtime.equivalence import copy_env, random_env
from repro.runtime.interp import run


def assert_equivalent(
    original: Procedure,
    transformed: Procedure,
    sizes: Mapping[str, tuple[int, ...]],
    scalars: Mapping[str, int | float] | None = None,
    seed: int = 0,
    rtol: float = 0.0,
    atol: float = 0.0,
    runner=None,
    runner_transformed=None,
) -> None:
    """Assert both procedures leave identical array stores.

    ``runner`` / ``runner_transformed`` default to the sequential
    interpreter; pass e.g. E10's shuffled driver
    (:func:`repro.experiments.e10_end_to_end.run_doall_shuffled`) for the
    transformed side to additionally exercise order independence.
    With the default zero tolerances the comparison is exact, which is
    correct whenever the transformation preserves the per-element operation
    order (coalescing does).
    """
    base = random_env(original, sizes, seed=seed)
    env_a = copy_env(base)
    env_b = copy_env(base)

    if runner is None:
        run(original, env_a, scalars)
    else:
        runner(original, env_a, scalars)
    if runner_transformed is None:
        run(transformed, env_b, scalars)
    else:
        runner_transformed(transformed, env_b, scalars)

    for name in original.arrays:
        a, b = env_a[name], env_b.get(name)
        if b is None:
            raise AssertionError(f"transformed run lost array {name!r}")
        if rtol == 0.0 and atol == 0.0:
            if not np.array_equal(a, b):
                diff = np.argwhere(a != b)
                raise AssertionError(
                    f"array {name!r} differs at {len(diff)} positions; first "
                    f"at index {tuple(diff[0])}: {a[tuple(diff[0])]} vs "
                    f"{b[tuple(diff[0])]}"
                )
        else:
            np.testing.assert_allclose(a, b, rtol=rtol, atol=atol, err_msg=name)
