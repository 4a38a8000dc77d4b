"""The one C build recipe: ``gcc -c``, then a direct ``ld -shared``.

* every libm intrinsic resolves on every engine that compiles C, with
  results bit-identical to the interpreter;
* a library depends only on what it references (``NEEDED``);
* what would have failed at ``dlopen`` fails the build instead, and every
  toolchain failure is a :class:`CCompileError`;
* an uncached build keeps nothing but its ``.so``.
"""

import shutil
import subprocess

import numpy as np
import pytest

from repro.cache import ArtifactCache
from repro.codegen import cload
from repro.codegen.cgen import generate_chunk_c
from repro.codegen.cload import (
    CCompileError,
    compile_c_procedure,
    compile_chunk_library,
    have_compiler,
    supports_openmp,
)
from repro.frontend.dsl import parse
from repro.runtime.equivalence import copy_env, random_env
from repro.runtime.interp import run
from repro.transforms import coalesce_procedure
from repro.workloads import get_workload
from tests.parallel import run_one

needs_gcc = pytest.mark.skipif(not have_compiler(), reason="no gcc on PATH")

INTRINSICS = """
procedure intrinsics(A[1], B[1]; n)
  doall i = 1, n
    B(i) := sin(A(i)) + cos(A(i)) * sqrt(abs(A(i))) + exp(A(i) / 4.0)
      - log(abs(A(i)) + 1.0) + float(isqrt(7 * i))
  end
end
"""


@needs_gcc
@pytest.mark.parametrize("engine", ["mp-c-chunks", "c-serial", "c-openmp"])
def test_every_intrinsic_resolves_on_every_engine(engine):
    if engine == "c-openmp" and not supports_openmp():
        pytest.skip("no OpenMP on this host")
    p = parse(INTRINSICS)
    n, sc = 50, {"n": 50}
    env = random_env(p, {"A": (n + 1,), "B": (n + 1,)}, seed=7)
    want = copy_env(env)
    run(p, want, sc)
    if engine == "mp-c-chunks":
        assert run_one(p, env, sc, workers=2).chunk_lang == "c"
    else:
        compile_c_procedure(p, omp=engine == "c-openmp", cache=None).run(env, sc)
    for name in p.arrays:
        np.testing.assert_array_equal(env[name], want[name], err_msg=name)


def _needed(so_path: str) -> list[str]:
    if shutil.which("readelf") is None:
        pytest.skip("no readelf on PATH")
    out = subprocess.run(
        ["readelf", "-d", so_path], capture_output=True, text=True, check=True
    ).stdout
    return sorted(
        line.split("[", 1)[1].rstrip("]")
        for line in out.splitlines()
        if "(NEEDED)" in line
    )


@needs_gcc
def test_a_library_needs_only_what_it_references():
    """What ``--as-needed`` gives, exactly as gcc's own link did."""
    saxpy, _ = coalesce_procedure(get_workload("saxpy2d").proc)
    plain, _ = compile_chunk_library(generate_chunk_c(saxpy), "saxpy2d__chunk")
    assert _needed(plain) == []
    mathy, _ = compile_chunk_library(
        generate_chunk_c(parse(INTRINSICS)), "intrinsics__chunk"
    )
    assert _needed(mathy) == ["libm.so.6"]
    assert _needed(cload.claim_loop_library()) == ["libc.so.6"]
    if supports_openmp():
        omp = compile_c_procedure(saxpy, omp=True, cache=None)
        assert _needed(omp.library_path) == ["libgomp.so.1"]


@pytest.fixture
def fresh_private_dir(monkeypatch):
    """A private build directory of this test's own (as in a new process)."""
    monkeypatch.setattr(cload, "_PRIVATE_DIR", None)
    return cload._private_dir


@needs_gcc
def test_an_undeclared_call_fails_the_compile(fresh_private_dir):
    with pytest.raises(CCompileError, match="implicit-function-declaration"):
        compile_chunk_library(
            "void f_(void) { g_(); }\n", "undeclared", cache=None
        )


@needs_gcc
def test_an_unresolved_symbol_fails_the_link(fresh_private_dir):
    with pytest.raises(CCompileError, match="undefined reference to .g_"):
        compile_chunk_library(
            "void g_(void);\nvoid f_(void) { g_(); }\n", "unresolved",
            cache=None,
        )


def _missing_linker(monkeypatch, tmp_path):
    """Point the resolved linker at a file that does not exist."""
    real = cload._toolchain_file
    missing = str(tmp_path / "no-such-ld")
    monkeypatch.setattr(
        cload, "_toolchain_file",
        lambda cc, what: missing if what == "prog-name=ld" else real(cc, what),
    )


@needs_gcc
def test_a_missing_linker_is_a_compile_error(
    monkeypatch, tmp_path, fresh_private_dir
):
    _missing_linker(monkeypatch, tmp_path)
    with pytest.raises(CCompileError, match="no-such-ld"):
        compile_chunk_library("void f_(void) {}\n", "nolinker", cache=None)


@needs_gcc
def test_a_failed_claim_library_build_is_tried_once(monkeypatch, tmp_path):
    _missing_linker(monkeypatch, tmp_path)
    built = []
    real = cload._compile_into

    def counting(tmp, name, *args, **kwargs):
        built.append(name)
        return real(tmp, name, *args, **kwargs)

    monkeypatch.setattr(cload, "_compile_into", counting)
    monkeypatch.setattr(cload, "_CLAIM_LIB", None)  # as in a new process
    store = ArtifactCache(tmp_path / "store")
    assert cload.claim_loop_library(store) is None
    assert cload.claim_loop_library(store) is None
    assert built == ["repro_claim"]


@needs_gcc
def test_uncached_builds_leave_only_the_library(fresh_private_dir):
    for k in (1, 2):
        _, hit = compile_chunk_library(
            f"long f{k}_(long a) {{ return a + {k}; }}\n", f"unit{k}",
            cache=None,
        )
        assert not hit
    kept = sorted(p.name for p in fresh_private_dir().iterdir())
    assert len(kept) == 2 and all(name.endswith(".so") for name in kept)
