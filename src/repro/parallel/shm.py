"""Shared-memory numpy arrays for the process-parallel runtime.

A :class:`SharedArrayPool` mirrors a caller's array environment into
``multiprocessing.shared_memory`` segments: the parent copies data in once,
every worker attaches zero-copy views by segment name, and the parent copies
results back out on success.  Segment lifetime is the pool's one job — the
pool unlinks everything it created in ``close()``/``__exit__`` no matter how
the run ended, so the test suite can assert ``/dev/shm`` is clean even after
crash-injection runs.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Iterable, Mapping

import numpy as np

#: Prefix of every segment this package creates (tests sweep /dev/shm for it).
SEGMENT_PREFIX = "repro-par"


@dataclass(frozen=True)
class ArraySpec:
    """Picklable description of one shared array (what workers attach by)."""

    name: str  # IR array name
    segment: str  # shared-memory segment name
    shape: tuple[int, ...]
    dtype: str


def attach_array(spec: ArraySpec) -> tuple[np.ndarray, shared_memory.SharedMemory]:
    """Attach a zero-copy view of an existing segment (worker side).

    On Python ≥ 3.13 the attachment is untracked (``track=False``): the
    parent pool owns the unlink.  On older versions the attach registers
    with the resource tracker, which is harmless here — workers inherit the
    parent's tracker and its cache is a set, so the parent's create +
    unlink keep the accounting balanced (no double-unlink, no "leaked
    shared_memory" warnings).
    """
    try:
        shm = shared_memory.SharedMemory(name=spec.segment, track=False)
    except TypeError:  # Python < 3.13: no track= parameter
        shm = shared_memory.SharedMemory(name=spec.segment)
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    return view, shm


def native_layout(
    views: Mapping[str, np.ndarray], ranks: Mapping[str, int]
) -> bool:
    """Can native kernels take every array of ``ranks`` (name → rank)
    zero-copy: present in ``views``, float64, C-contiguous, that rank?"""
    return all(
        a in views
        and views[a].dtype == np.float64
        and views[a].flags["C_CONTIGUOUS"]
        and views[a].ndim == rank
        for a, rank in ranks.items()
    )


class SharedArrayPool:
    """Owns one shared-memory segment per numpy array.

    Usage::

        with SharedArrayPool(arrays) as pool:
            views = pool.views          # parent-side shm-backed ndarrays
            specs = pool.specs()        # picklable, for worker attach
            ...run workers...
            pool.copy_back(arrays)      # only on success
        # segments closed and unlinked here, success or not
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]) -> None:
        self._token = secrets.token_hex(4)
        self._segments: list[shared_memory.SharedMemory] = []
        self.views: dict[str, np.ndarray] = {}
        self._specs: dict[str, ArraySpec] = {}
        self._closed = False
        try:
            for name, arr in arrays.items():
                # Any layout (a zero-stride placeholder included): the
                # segment is C-contiguous and the copy below fills it.
                arr = np.asarray(arr)
                view, spec = self.blank(name, arr.shape, arr.dtype)
                view[...] = arr
                self.views[name], self._specs[name] = view, spec
        except BaseException:
            self.close()
            raise

    def blank(self, name: str, shape, dtype=np.float64):
        """A new segment, its view and its attachment recipe.  The kernel
        fills a page with zeros on first touch, so a page nobody writes
        costs no memory.  ``close`` unlinks it; only the constructor's
        arrays are in :attr:`views` and :meth:`specs`."""
        dtype, idx = np.dtype(dtype), len(self._segments)
        segment = f"{SEGMENT_PREFIX}-{os.getpid()}-{self._token}-{idx}"
        size = max(1, dtype.itemsize * int(np.prod(shape)))
        shm = shared_memory.SharedMemory(create=True, size=size, name=segment)
        self._segments.append(shm)
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        return view, ArraySpec(name, segment, tuple(shape), dtype.str)

    def specs(self) -> list[ArraySpec]:
        """Attachment recipes in declaration order (picklable)."""
        return list(self._specs.values())

    def copy_back(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Copy shared results back into the caller's arrays (each one
        ``arrays`` names: a run passes only those it can have written)."""
        for name, dest in arrays.items():
            np.copyto(dest, self.views[name])

    def load(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Copy caller arrays *into* the shared views (copy_back's inverse).

        This is how a warm pool serves a new request's data: same names,
        same shapes, fresh contents.  Raises ``ValueError`` on an array
        environment that does not match the pool's.
        """
        missing = set(self.views) - set(arrays)
        extra = set(arrays) - set(self.views)
        if missing or extra:
            raise ValueError(
                f"array environment mismatch: missing={sorted(missing)} "
                f"extra={sorted(extra)}"
            )
        for name, view in self.views.items():
            src = arrays[name]
            if tuple(src.shape) != tuple(view.shape):
                raise ValueError(
                    f"array {name!r}: shape {src.shape} does not match the "
                    f"pool's {view.shape}"
                )
            np.copyto(view, src)

    def close(self) -> None:
        """Release views, close and unlink every segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.views.clear()  # drop buffer references before closing
        for shm in self._segments:
            try:
                shm.close()
            except Exception:  # pragma: no cover - defensive
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()

    def __enter__(self) -> "SharedArrayPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # last-resort safety net
        self.close()


def leaked_segments(names: Iterable[str] | None = None) -> list[str]:
    """Segments with our prefix currently present in ``/dev/shm``.

    Test hook: should be empty before and after every run.  On platforms
    without ``/dev/shm`` this returns [] (the POSIX name sweep is the only
    portable leak check we can do without root).
    """
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-Linux
        return []
    found = [n for n in os.listdir(root) if n.startswith(SEGMENT_PREFIX)]
    if names is not None:
        wanted = set(names)
        found = [n for n in found if n in wanted]
    return sorted(found)
