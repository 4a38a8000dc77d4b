"""The cache wired under the real pipeline: api, cload, mp chunks, CLI."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import transform_function
from repro.cache import ArtifactCache
from repro.codegen.cload import compile_c_procedure, have_compiler
from repro.frontend import parse

needs_gcc = pytest.mark.skipif(not have_compiler(), reason="no gcc on PATH")

KERNEL = """
def scale(A, B, n, m):
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            B[i, j] = 2.0 * A[i, j] + 1.0
"""

SAXPY = """
procedure saxpy(X[1], Y[1]; n)
  doall i = 1, n
    Y(i) := Y(i) + 2.0 * X(i)
  end
end
"""

N = M = 16


def make_env():
    rng = np.random.default_rng(3)
    A = rng.random((N + 1, M + 1))
    return A, np.zeros_like(A)


class TestPipelineCache:
    def test_second_compile_is_a_hit(self, tmp_path):
        store = ArtifactCache(tmp_path)
        cold = transform_function(KERNEL, cache=store)
        assert not cold.from_cache
        warm = transform_function(KERNEL, cache=store)
        assert warm.from_cache
        assert store.stats.hits >= 1

    def test_cached_compile_computes_the_same_thing(self, tmp_path):
        store = ArtifactCache(tmp_path)
        cold = transform_function(KERNEL, cache=store)
        warm = transform_function(KERNEL, cache=store)
        assert warm.loop_source == cold.loop_source
        A, B_cold = make_env()
        _, B_warm = make_env()
        cold(A, B_cold, N, M)
        warm(A, B_warm, N, M)
        assert np.array_equal(B_cold, B_warm)

    def test_option_changes_are_distinct_entries(self, tmp_path):
        store = ArtifactCache(tmp_path)
        transform_function(KERNEL, cache=store, style="ceiling")
        other = transform_function(KERNEL, cache=store, style="divmod")
        assert not other.from_cache
        assert store.entry_count() == 2

    def test_cache_none_bypasses(self, tmp_path):
        store = ArtifactCache(tmp_path)
        f1 = transform_function(KERNEL, cache=None)
        f2 = transform_function(KERNEL, cache=False)
        assert not f1.from_cache and not f2.from_cache
        assert store.entry_count() == 0


class TestCloadCache:
    @needs_gcc
    def test_identical_compiles_share_one_so(self, tmp_path):
        store = ArtifactCache(tmp_path)
        proc = parse(SAXPY)
        first = compile_c_procedure(proc, cache=store)
        second = compile_c_procedure(proc, cache=store)
        assert not first.from_cache and second.from_cache
        assert first.library_path == second.library_path
        assert store.entry_count() == 1  # one published .so, no tempdir leak
        x = np.arange(9, dtype=np.float64)
        y = np.zeros(9)
        second.run({"X": x, "Y": y}, {"n": 8})
        assert np.array_equal(y[1:9], 2.0 * x[1:9])

    @needs_gcc
    def test_no_cache_uses_self_cleaning_tempdir(self, tmp_path):
        proc = parse(SAXPY)
        compiled = compile_c_procedure(proc, cache=None)
        assert compiled._tmp is not None
        built = compiled.library_path
        assert os.path.exists(built)
        del compiled  # drops the TemporaryDirectory handle
        assert not os.path.exists(built)

    @needs_gcc
    def test_workdir_is_caller_owned(self, tmp_path):
        proc = parse(SAXPY)
        compiled = compile_c_procedure(proc, workdir=str(tmp_path))
        assert compiled.library_path.startswith(str(tmp_path))
        assert not compiled.from_cache


class TestChunkCache:
    @needs_gcc
    def test_mp_run_publishes_its_kernel_not_its_chunk_source(self, tmp_path):
        # Kernels go through the process-default store; point it at a
        # private directory for this test, then re-resolve the session one.
        # A generated Python chunk is cheaper to make again than to look
        # up, so none is published.
        from repro.cache import configure

        configure(dir=tmp_path)
        try:
            fn = transform_function(KERNEL, backend="mp", workers=2)
            A, B = make_env()
            fn(A, B, N, M)
            assert fn.last_parallel.chunk_lang == "c"
            objects = tmp_path / "objects"
            assert list(objects.rglob("*.so")), "the kernel is not published"
            assert not list(objects.rglob("*.py")), "chunk text was published"
        finally:
            configure()  # restore the test-session default store


#: The checkout these tests belong to: its ``src/`` is what the CLI runs.
REPO_ROOT = Path(__file__).resolve().parents[2]
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": str(REPO_ROOT / "src"),
}
CLI_ENV.pop("REPRO_CACHE_DIR", None)


class TestCLI:
    def test_cache_dir_flag(self, tmp_path):
        cachedir = tmp_path / "cli-cache"
        cmd = [
            sys.executable, "-m", "repro",
            "--workload", "saxpy2d", "--cache-dir", str(cachedir),
        ]
        out = subprocess.run(
            cmd, capture_output=True, text=True, env=CLI_ENV, cwd=REPO_ROOT
        )
        assert out.returncode == 0, out.stderr
        assert (cachedir / "objects").exists()
        # Second run of the same pipeline is served from that directory.
        again = subprocess.run(
            cmd + ["--report"], capture_output=True, text=True,
            env=CLI_ENV, cwd=REPO_ROOT,
        )
        assert again.returncode == 0, again.stderr

    def test_no_cache_flag(self, tmp_path):
        cachedir = tmp_path / "untouched"
        out = subprocess.run(
            [
                sys.executable, "-m", "repro",
                "--workload", "saxpy2d",
                "--cache-dir", str(cachedir), "--no-cache",
            ],
            capture_output=True, text=True, env=CLI_ENV, cwd=REPO_ROOT,
        )
        assert out.returncode == 0, out.stderr
        assert not (cachedir / "objects").exists()
