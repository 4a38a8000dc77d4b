"""Shared helpers for the benchmark harness.

Every bench regenerates one experiment table (DESIGN.md §4), asserts the
paper's qualitative claim on it, and writes the rendered table to
``benchmarks/results/<experiment>.txt`` — plus a machine-readable
``<experiment>.json`` twin — so the numbers behind EXPERIMENTS.md can be
re-produced with one command::

    pytest benchmarks/ --benchmark-only

A smoke run (``REPRO_BENCH_SMOKE=1``, the CI steps) writes its tables to a
temporary directory instead, leaving ``results/`` as committed.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session", autouse=True)
def _isolated_artifact_cache(tmp_path_factory):
    """Benchmarks must never read a pre-warmed user cache (or pollute it)."""
    from repro.cache import configure

    root = tmp_path_factory.mktemp("artifact-cache")
    os.environ["REPRO_CACHE_DIR"] = str(root)
    configure(dir=root)
    yield
    configure()


def _json_default(obj):
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    return str(obj)


def _write_json(path: pathlib.Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
        + "\n"
    )


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> pathlib.Path:
    """``results/`` — or, under ``REPRO_BENCH_SMOKE``, a temporary
    directory: smoke-sized numbers never overwrite the committed ones."""
    if os.environ.get("REPRO_BENCH_SMOKE"):
        return tmp_path_factory.mktemp("results")
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_table(results_dir):
    """Write tables to results/<name>.txt and results/<name>.json."""

    def save(name: str, *tables) -> None:
        text = "\n\n".join(t.format() for t in tables)
        (results_dir / f"{name}.txt").write_text(text + "\n")
        _write_json(
            results_dir / f"{name}.json",
            {"experiment": name, "tables": [t.to_payload() for t in tables]},
        )

    return save


@pytest.fixture
def save_json(results_dir):
    """Write a machine-readable payload to results/<name>.json."""

    def save(name: str, payload) -> None:
        _write_json(results_dir / f"{name}.json", payload)

    return save


@pytest.fixture
def record_timing(results_dir):
    """Merge one pytest-benchmark measurement into results/<name>.json.

    For benches (t01) that use real multi-round ``benchmark`` timing and
    have no table to render: each test records its stats under its own key
    so the whole module accumulates one JSON file.
    """

    def record(name: str, key: str, benchmark, **extra) -> None:
        stats = getattr(benchmark, "stats", None)
        inner = getattr(stats, "stats", stats)
        measured = {
            field: getattr(inner, field)
            for field in ("min", "max", "mean", "stddev", "rounds")
            if hasattr(inner, field)
        }
        measured.update(extra)
        path = results_dir / f"{name}.json"
        payload = {"experiment": name, "timings": {}}
        if path.exists():
            try:
                payload = json.loads(path.read_text())
            except ValueError:
                pass
        payload.setdefault("timings", {})[key] = measured
        _write_json(path, payload)

    return record
