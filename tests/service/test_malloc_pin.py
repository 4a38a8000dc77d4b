"""The serving mains pin glibc's mmap/trim thresholds.

Without the pin a bulk ``/run``'s transient 16 MiB buffers are either
recycled from the heap or ``mmap``/``munmap``ed on every request depending
on allocator state unrelated code decides (≈12 000 minor faults and ≈30 ms
of system time per request in the bad mode).  The observable is the
server process's own minor-fault counter, so the test drives a real
``python -m repro serve`` subprocess — the in-process ``serve_background``
deliberately does not touch the host's allocator.
"""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.service import ServiceClient

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>/stat"
)

SAXPY1D = """
procedure saxpy1d(X[1], Y[1]; n)
  doall i = 1, n
    Y(i) := Y(i) + 2.5 * X(i)
  end
end
"""

N = 1 << 20
WARMUPS = 2
REQUESTS = 6
#: Recycled buffers cost a handful of faults per request; remapped ones
#: cost one per 4 KiB page of ~48 MiB.
MAX_FAULTS_PER_REQUEST = 2000


def minor_faults(pid: int) -> int:
    """``minflt``: field 10 of ``/proc/<pid>/stat`` (``comm``, field 2,
    may contain spaces, so count from after its closing parenthesis)."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    return int(stat[stat.rindex(")") + 2 :].split()[7])


def test_bulk_runs_recycle_their_buffers(tmp_path):
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), REPRO_CACHE_DIR=str(tmp_path))
    log = tmp_path / "server.log"
    with open(log, "w") as fh:
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", str(tmp_path / "cache")],
            env=env, stdout=fh, stderr=fh,
        )
    try:
        deadline = time.monotonic() + 60.0
        port = None
        while port is None and time.monotonic() < deadline:
            found = re.search(r"http://[\d.]+:(\d+)", log.read_text())
            if found:
                port = int(found.group(1))
            elif server.poll() is not None:
                break
            else:
                time.sleep(0.05)
        assert port is not None, log.read_text()

        rng = np.random.default_rng(0)
        arrays = {"X": rng.standard_normal(N + 1), "Y": rng.standard_normal(N + 1)}
        want = arrays["Y"].copy()
        want[1:] += 2.5 * arrays["X"][1:]
        client = ServiceClient(port=port, timeout=60.0, transport="wire")
        try:
            key = client.compile(SAXPY1D, backend="mp")["key"]

            def run():
                out = client.run(key, arrays, {"n": N}, workers=2, timeout=60.0)
                assert np.array_equal(out["arrays"]["Y"], want)

            for _ in range(WARMUPS):
                run()
            before = minor_faults(server.pid)
            for _ in range(REQUESTS):
                run()
            per_request = (minor_faults(server.pid) - before) / REQUESTS
        finally:
            client.close()
        assert per_request < MAX_FAULTS_PER_REQUEST, per_request
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
