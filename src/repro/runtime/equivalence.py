"""Array environments for equivalence checks.

Transformation correctness throughout the test suite and E10 reduces to
running the original and the transformed procedure from identical random
initial stores and comparing every array: :func:`random_env` builds such a
store and :func:`copy_env` clones it for each side.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.ir.stmt import Procedure


def random_env(
    proc: Procedure,
    sizes: Mapping[str, tuple[int, ...]],
    seed: int = 0,
    dtype=np.float64,
    integer: bool = False,
) -> dict[str, np.ndarray]:
    """Random arrays for every array the procedure declares.

    ``sizes[name]`` gives the full numpy shape (callers writing 1-based
    programs pass padded shapes like ``(n+1, n+1)``).
    """
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    for name, rank in proc.arrays.items():
        shape = sizes[name]
        if len(shape) != rank:
            raise ValueError(
                f"array {name!r}: declared rank {rank}, sizes give {len(shape)}"
            )
        if integer:
            arrays[name] = rng.integers(0, 100, size=shape).astype(dtype)
        else:
            arrays[name] = rng.standard_normal(shape).astype(dtype)
    return arrays


def copy_env(arrays: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Deep copy of an array environment."""
    return {k: v.copy() for k, v in arrays.items()}
