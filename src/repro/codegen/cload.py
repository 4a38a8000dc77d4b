"""Compile generated C with gcc and run it through ctypes.

This closes the loop on the OpenMP-collapse lineage: the same IR procedure
can execute through the Python interpreter, generated Python, and compiled
C (optionally with real OpenMP threads), and the test suite checks all three
agree.  Requires a ``gcc`` on PATH; tests skip gracefully without one.

Compiled shared libraries are content-addressed: by default the ``.so``
lands in the artifact cache under a hash of (generated C, compiler, flags),
so the second identical compile — in this process, another process, or the
server — loads the cached library instead of invoking gcc.  With caching
bypassed, compilation happens in a self-cleaning temporary directory whose
lifetime is tied to the returned :class:`CProcedure` (nothing is leaked
per call).  An explicit ``workdir`` keeps the old behavior of compiling in
a caller-owned directory.

One library is different: the claim library (:func:`claim_loop_library`
— the native claim loop, the region runtime and its fixed one-instance
driver entry) has no per-program content, so it is resolved
at most once per process and then served from a process-lifetime private
copy — independent of whichever store is current, because stores are
swapped and deleted under running processes while forked workers still
dlopen the path a job names.
"""

from __future__ import annotations

import ctypes
import functools
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.cache import artifact_key, resolve_cache
from repro.codegen.cgen import CLAIM_LIBRARY_C, generate_c
from repro.ir.stmt import Procedure


class CCompileError(RuntimeError):
    """gcc rejected the generated translation unit."""


@functools.lru_cache(maxsize=None)
def _compiler_path(cc: str) -> str | None:
    """PATH lookup for ``cc``, probed once per compiler per process.

    The mp runtime consults :func:`have_compiler` on every dispatch
    decision, so the probe must not rescan PATH each time.  Call
    ``_compiler_path.cache_clear()`` if PATH changes mid-process (tests).
    """
    return shutil.which(cc)


def have_compiler(cc: str = "gcc") -> bool:
    """Is a usable C compiler on PATH?  (Cached per ``cc``.)"""
    return _compiler_path(cc) is not None


@functools.lru_cache(maxsize=None)
def supports_openmp(cc: str = "gcc") -> bool:
    """Can ``cc`` build an ``-fopenmp`` shared object on this host?

    Probed once per compiler per process by compiling a one-line OpenMP
    translation unit (some clang installs lack ``libomp``; the probe is the
    only reliable test).  ``supports_openmp.cache_clear()`` resets (tests).
    """
    if not have_compiler(cc):
        return False
    probe = "#include <omp.h>\nint probe_(void) { return omp_get_max_threads(); }\n"
    try:
        with tempfile.TemporaryDirectory(prefix="repro_omp_") as tmp:
            _compile_into(Path(tmp), "omp_probe", probe, cc, "-O0", omp=True)
        return True
    except Exception:
        return False


@dataclass
class CProcedure:
    """A compiled procedure and the handle keeping its library alive."""

    proc: Procedure
    source: str
    library_path: str
    _lib: ctypes.CDLL
    _fn: ctypes._CFuncPtr
    #: True when the ``.so`` came out of the artifact cache (gcc not run).
    from_cache: bool = False
    #: Keeps an uncached compile's temporary directory alive (and cleaned
    #: up with this object) when no cache and no workdir were given.
    _tmp: tempfile.TemporaryDirectory | None = None

    def run(
        self,
        arrays: Mapping[str, np.ndarray],
        scalars: Mapping[str, int] | None = None,
    ) -> None:
        """Execute in place on float64 C-contiguous arrays."""
        scalars = scalars or {}
        args: list = []
        for name, rank in self.proc.arrays.items():
            arr = arrays[name]
            if arr.dtype != np.float64 or not arr.flags["C_CONTIGUOUS"]:
                raise TypeError(
                    f"array {name!r} must be C-contiguous float64 for the C "
                    f"backend (got {arr.dtype}, contiguous="
                    f"{arr.flags['C_CONTIGUOUS']})"
                )
            if arr.ndim != rank:
                raise ValueError(f"array {name!r}: rank {rank} expected")
            args.append(arr.ctypes.data_as(ctypes.POINTER(ctypes.c_double)))
            args.extend(ctypes.c_long(d) for d in arr.shape)
        for name in self.proc.scalars:
            value = scalars[name]
            if not isinstance(value, (int, np.integer)):
                raise TypeError(
                    f"scalar {name!r} must be an integer for the C backend"
                )
            args.append(ctypes.c_long(int(value)))
        self._fn(*args)


def _compile_into(
    tmp: Path, name: str, source: str, cc: str, optimize: str,
    omp: bool = False,
) -> Path:
    """Run the compiler in ``tmp``; return the ``.so`` path."""
    tmp.mkdir(parents=True, exist_ok=True)
    c_path = tmp / f"{name}.c"
    so_path = tmp / f"lib{name}.so"
    c_path.write_text(source)
    cmd = [cc, *optimize.split(), "-fPIC", "-shared",
           str(c_path), "-o", str(so_path), "-lm"]
    if omp:
        cmd.insert(1, "-fopenmp")
    result = subprocess.run(cmd, capture_output=True, text=True)
    if result.returncode != 0:
        raise CCompileError(
            f"gcc failed ({result.returncode}):\n{result.stderr}\n--- source ---\n"
            + source
        )
    return so_path


def _load(proc: Procedure, source: str, so_path: Path, **extra) -> CProcedure:
    lib = ctypes.CDLL(str(so_path))
    fn = getattr(lib, proc.name)
    fn.restype = None
    return CProcedure(proc, source, str(so_path), lib, fn, **extra)


def compile_c_procedure(
    proc: Procedure,
    omp: bool = True,
    cc: str = "gcc",
    optimize: str = "-O2",
    workdir: str | None = None,
    cache: object = "default",
) -> CProcedure:
    """Generate, compile (``cc -shared -fPIC [-fopenmp]``), and load.

    Resolution order for where the ``.so`` lives:

    * ``workdir`` given → compile there (caller owns the files; no cache);
    * a cache is available → content-addressed lookup by (C source, cc,
      flags); a hit skips gcc entirely, a miss compiles once and publishes
      the library for every later identical compile;
    * otherwise → a temporary directory cleaned up with the returned
      object (per-call tempdirs are never leaked).
    """
    if not have_compiler(cc):
        raise CCompileError(f"no C compiler {cc!r} on PATH")
    source = generate_c(proc, omp=omp)
    if workdir is not None:
        so_path = _compile_into(Path(workdir), proc.name, source, cc, optimize, omp)
        return _load(proc, source, so_path)
    store = resolve_cache(cache)
    if store is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro_c_")
        so_path = _compile_into(Path(tmp.name), proc.name, source, cc, optimize, omp)
        return _load(proc, source, so_path, _tmp=tmp)
    key = artifact_key(
        "clib", source=source, cc=cc, optimize=optimize, omp=omp
    )
    so_name = f"lib{proc.name}.so"
    entry = store.get(key)
    if entry is not None:
        return _load(proc, source, entry.file_path(so_name), from_cache=True)
    with tempfile.TemporaryDirectory(prefix="repro_c_") as tmp:
        built = _compile_into(Path(tmp), proc.name, source, cc, optimize, omp)
        entry = store.put(
            key,
            {so_name: built.read_bytes(), f"{proc.name}.c": source},
            meta={"kind": "clib", "name": proc.name, "cc": cc,
                  "optimize": optimize, "omp": omp},
        )
    return _load(proc, source, entry.file_path(so_name))


# ---------------------------------------------------------------------------
# Chunk kernels (the mp runtime's native unit of work)
# ---------------------------------------------------------------------------

#: Process-lifetime directory for chunk libraries built with caching
#: bypassed.  Created lazily; cleaned up by its finalizer at interpreter
#: exit, so uncached chunk compiles never leak per-call tempdirs.
_PRIVATE_DIR: tempfile.TemporaryDirectory | None = None


def _private_dir() -> Path:
    global _PRIVATE_DIR
    if _PRIVATE_DIR is None:
        _PRIVATE_DIR = tempfile.TemporaryDirectory(prefix="repro_chunk_")
    return Path(_PRIVATE_DIR.name)


def compile_chunk_library(
    source: str, name: str, cache: object = "default"
) -> tuple[str, bool]:
    """Compile one chunk-kernel translation unit; return ``(so_path, hit)``.

    Content-addressed exactly like :func:`compile_c_procedure`: the ``.so``
    lands in the artifact cache under a hash of (C source, compiler,
    flags), so every worker process — and every later run, CLI invocation,
    or server — dlopens one shared build per kernel shape.  With caching
    bypassed, builds go to a private process-lifetime directory keyed by
    the same hash (one build per shape per process, nothing leaked).

    Every unit builds with gcc ``-O2``: ``-O3`` never won on a measured
    kernel (DESIGN.md §4g).  Chunk kernels are single-threaded by design
    and never link ``-fopenmp``: parallelism comes from the worker
    processes claiming blocks around them, and a forked worker cannot run
    a libgomp team inherited from a parent that already started one.
    """
    cc, optimize = "gcc", "-O2"
    if not have_compiler(cc):
        raise CCompileError(f"no C compiler {cc!r} on PATH")
    key = artifact_key("chunk_clib", source=source, cc=cc, optimize=optimize)
    so_name = f"lib{name}.so"
    store = resolve_cache(cache)
    if store is None:
        so_path = _private_dir() / f"{key[:16]}-{so_name}"
        if so_path.exists():
            return str(so_path), True
        built = _compile_into(
            _private_dir() / key[:16], name, source, cc, optimize
        )
        built.replace(so_path)
        return str(so_path), False
    entry = store.get(key)
    if entry is not None:
        return str(entry.file_path(so_name)), True
    with tempfile.TemporaryDirectory(prefix="repro_chunk_") as tmp:
        built = _compile_into(Path(tmp), name, source, cc, optimize)
        entry = store.put(
            key,
            {so_name: built.read_bytes(), f"{name}.c": source},
            meta={"kind": "chunk_clib", "name": name, "cc": cc,
                  "optimize": optimize},
        )
    return str(entry.file_path(so_name)), False


_CTYPES = {
    "ptr": ctypes.POINTER(ctypes.c_double),
    "long": ctypes.c_long,
    "double": ctypes.c_double,
}


@functools.lru_cache(maxsize=256)
def load_chunk_kernel(so_path: str, fname: str, sig: tuple[str, ...]):
    """dlopen a chunk kernel and bind its signature (worker-side cache).

    Mirrors :func:`repro.codegen.pygen.compile_chunk_source`'s source-keyed
    memo for the C language: a persistent pool worker receiving the same
    loop shape across many dispatches (one per pivot row in a hybrid
    program) opens the library and resolves the symbol exactly once —
    ``so_path`` is content-addressed, so the key is exact.

    ``sig`` describes the parameters *after* the two leading ``long``
    bounds: ``"ptr"`` (``double *``), ``"long"``, or ``"double"``, exactly
    as the job descriptor carries them.  With argtypes bound, workers pass
    plain ints/floats and ctypes converts — no per-call wrapping.
    """
    lib = ctypes.CDLL(so_path)
    fn = getattr(lib, fname)
    fn.restype = None
    fn.argtypes = [ctypes.c_long, ctypes.c_long] + [_CTYPES[t] for t in sig]
    return fn


# ---------------------------------------------------------------------------
# The claim library (one fixed unit; see cgen.CLAIM_LIBRARY_C)
# ---------------------------------------------------------------------------

#: Process memo of :func:`claim_loop_library`: unset (None), the private
#: copy's path, or False (the build failed — not retried per dispatch).
_CLAIM_LIB: str | bool | None = None
_CLAIM_LIB_LOCK = threading.Lock()


def claim_loop_library(cache: object = "default") -> str | None:
    """Path of this process's copy of the claim library, or None.

    The library has no per-program content, so it is resolved **at most
    once per process**: the first call looks it up in (or builds it into)
    the artifact store exactly like a chunk kernel — a later process with
    a warm store never runs the compiler for it — and every later call is
    a memo read, whatever store it names.

    What is handed out is always a *process-lifetime private copy* under
    :func:`_private_dir`, never the store entry itself.  Stores come and
    go under a running process (``configure(dir=...)`` swaps the default;
    a cold-start caller deletes its store after each call) while worker
    processes forked later still have to dlopen the path a job carries:
    the private copy cannot dangle, and a vanished store can never force
    a rebuild.  A build failure is memoized too (None on every call), so
    a host that cannot build it pays one attempt, not one per dispatch.
    """
    global _CLAIM_LIB
    with _CLAIM_LIB_LOCK:
        if _CLAIM_LIB is None:
            try:
                so_path, _ = compile_chunk_library(
                    CLAIM_LIBRARY_C, "repro_claim", cache=cache
                )
                lib = Path(so_path)
                if lib.parent != _private_dir():  # a store entry
                    lib = _private_dir() / lib.name
                    # Never written in place: renaming gives the path a
                    # new inode, so a mapping of an earlier copy stays
                    # intact.
                    staged = lib.with_suffix(".tmp")
                    shutil.copyfile(so_path, staged)
                    staged.replace(lib)
                load_claim_loop(str(lib))  # unloadable here, so everywhere
                _CLAIM_LIB = str(lib)
            except Exception:
                _CLAIM_LIB = False
    return _CLAIM_LIB or None


def prefetch_claim_loop_library(
    cache: object = "default",
) -> threading.Thread | None:
    """Start :func:`claim_loop_library` on a thread, if it has work to do.

    For a caller about to spend a compiler run of its own (the first
    kernel build of a process): the library's gcc run then overlaps that
    one instead of following it.  Returns the thread to ``join`` — or
    None when the library is already resolved, which is every call but a
    process's first.
    """
    if _CLAIM_LIB is not None:
        return None
    thread = threading.Thread(
        target=claim_loop_library, args=(cache,), name="repro-claim-lib"
    )
    thread.start()
    return thread


def load_claim_loop(so_path: str) -> tuple[ctypes.CDLL, int]:
    """The claim library's ``repro_claim_loop`` as ``(library, address)``:
    what a region driver calls through a pointer (worker-side)."""
    return load_chunk_thunk(so_path, "repro_claim_loop")


@functools.lru_cache(maxsize=256)
def load_chunk_thunk(so_path: str, thunk: str) -> tuple[ctypes.CDLL, int]:
    """A chunk kernel's uniform-entry thunk as ``(library, address)``.

    The address is what a region driver calls; the library handle rides
    along so the cache entry keeps it mapped.
    """
    lib = ctypes.CDLL(so_path)
    return lib, ctypes.cast(getattr(lib, thunk), ctypes.c_void_p).value


#: ``void drain(long rows)`` — how a region driver hands a full claim-log
#: ring back to its caller (:data:`repro.codegen.cgen._REGION_RUNTIME`).
REGION_DRAIN = ctypes.CFUNCTYPE(None, ctypes.c_long)


@functools.lru_cache(maxsize=64)
def load_region_driver(so_path: str, fname: str):
    """dlopen a region unit — a program's, or the claim library with its
    fixed one-instance entry — and bind its driver (worker-side)."""
    fn = getattr(ctypes.CDLL(so_path), fname)
    fn.restype = ctypes.c_long
    pointer, word = ctypes.c_void_p, ctypes.c_long
    fn.argtypes = [
        pointer, pointer,  # int64_t ctr[2], bar[3]
        word, word, word, word,  # wid, workers, spin, run
        pointer, pointer, pointer, pointer,  # claim, fns, argvs, rules
        pointer, pointer,  # rec, tim
        pointer, word, REGION_DRAIN,  # ring, cap, drain
        pointer, pointer,  # params, info
    ]
    return fn
