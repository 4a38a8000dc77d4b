"""Every ``repro.*`` subpackage imports first-in-process.

An import cycle only bites the package that happens to be imported first;
the suite imports them in one fixed order, so each is imported here in a
fresh interpreter (regression: ``import repro.tuning`` used to fail with a
partially-initialized ``repro.tuning.calibrate``).
"""

import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
PACKAGES = ["repro"] + sorted(
    m.name
    for m in pkgutil.iter_modules(repro.__path__, prefix="repro.")
    if m.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_imports_in_a_fresh_interpreter(package):
    done = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        env={"PYTHONPATH": SRC, "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
