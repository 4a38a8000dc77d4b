"""The benchmark's own tracer: spans recorded from outside ``src/``.

A span is ``{name, start_ns, end_ns, parent, op}`` on ``perf_counter_ns``.
Spans live in one in-memory list and are written out once, when the
workload ends.  ``parent`` is the index of the enclosing span in that list
(None for an op's root span); ``op`` is the index of the op the span
belongs to, so the spans of one request share an identifier.

Nothing under ``src/`` knows about this file.  The child spans come from
:func:`Tracer.install`, which wraps the *public* functions of each layer
(named in :data:`LAYER_CALLS`) in the namespaces that call them and puts
the originals back in :func:`Tracer.uninstall`; a name that a later change
removes is skipped and reported, never an error.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import contextmanager

#: (module that holds the name, attribute path, span name).  The module is
#: the namespace the *caller* resolves the name in: a ``from x import f``
#: binds ``f`` in the importer, so that is where the wrapper has to go.
LAYER_CALLS = (
    ("repro.api", "from_python", "frontend.parse"),
    ("repro.api", "parse", "frontend.parse"),
    ("repro.api", "mark_doall", "analysis.mark_doall"),
    ("repro.api", "coalesce_procedure", "transforms.coalesce"),
    ("repro.analysis.safety", "verify_procedure", "analysis.verify"),
    ("repro.parallel.runtime", "inspect_dispatch", "runtime.inspector"),
    ("repro.parallel.runtime", "generate_chunk_c", "codegen.generate_chunk_c"),
    ("repro.parallel.runtime", "compile_chunk_library", "codegen.cc"),
    ("repro.parallel.backend", "run_parallel_procedure", "parallel.run"),
    ("repro.parallel.pool", "WorkerPool.__init__", "parallel.pool_spawn"),
    ("repro.parallel.pool", "WorkerPool.close", "parallel.pool_close"),
    ("repro.parallel.pool", "WorkerPool.load", "parallel.pool_load"),
    ("repro.parallel.pool", "WorkerPool.copy_back", "parallel.pool_copy_back"),
    ("repro.parallel.pool", "WorkerPool.dispatch", "parallel.dispatch"),
    ("repro.cache.store", "ArtifactCache.get", "cache.get"),
    ("repro.cache.store", "ArtifactCache.put", "cache.put"),
    ("repro.wire", "encode_frame", "wire.encode"),
    ("repro.wire", "decode_frame", "wire.decode"),
    ("repro.wire", "jsonable_array", "wire.json_encode"),
    ("repro.wire", "array_from_json", "wire.json_decode"),
    ("repro.service.client", "ServiceClient.request_bytes", "service.http"),
)


class Tracer:
    """In-memory span list with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.skipped: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        rec = {
            "name": name,
            "start_ns": 0,
            "end_ns": 0,
            "parent": parent,
            "op": op if parent is None else self.spans[parent]["op"],
        }
        with self._lock:
            index = len(self.spans)
            self.spans.append(rec)
        stack.append(index)
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Layer calls outside an op (set-up, probes) are not recorded:
            # a span tree always hangs from one op's root.
            if not getattr(self._local, "stack", None):
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        for module_name, path, span_name in LAYER_CALLS:
            try:
                owner = importlib.import_module(module_name)
                *holders, attr = path.split(".")
                for holder in holders:
                    owner = getattr(owner, holder)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.skipped.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(original, span_name))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path, **header) -> None:
        doc = {"schema": "repro.e2e.trace/v1", **header, "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(spans: list[dict]) -> list[int]:
    """Self time per span: its duration minus the time its children cover.

    Children of one span run on one thread and never overlap, so the
    covered part is the plain sum of their durations.
    """
    out = [s["end_ns"] - s["start_ns"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end_ns"] - s["start_ns"]
    return out


def layer_self_ms(spans: list[dict]) -> dict[str, float]:
    """Mean self time per op of each span name, in milliseconds."""
    ops = {s["op"] for s in spans}
    totals: dict[str, int] = {}
    for s, self_ns in zip(spans, self_times(spans)):
        totals[s["name"]] = totals.get(s["name"], 0) + self_ns
    return {k: v / 1e6 / max(1, len(ops)) for k, v in sorted(totals.items())}


def unaccounted_ns(spans: list[dict]) -> int:
    """Σ root durations − Σ self times: 0 when the tree adds up."""
    roots = sum(
        s["end_ns"] - s["start_ns"] for s in spans if s["parent"] is None
    )
    return roots - sum(self_times(spans))
