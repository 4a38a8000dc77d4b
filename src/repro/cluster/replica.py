"""Replica processes and the supervisor that keeps N of them alive.

Each replica is a full :class:`~repro.service.server.ReproServer` in its
own OS process (``spawn`` start method: a clean interpreter, no inherited
locks or threads), bound to an ephemeral port it reports back over a pipe.
Every replica opens the *same* artifact-cache directory — the store's
atomic-rename publication makes that safe — so compiles and native
kernels published by one replica are warm cache hits on all the others.

The supervisor's monitor thread restarts replicas that die (crash
injection in the tests SIGKILLs one mid-job and watches the router retry
the job elsewhere while a fresh process takes the dead one's slot).
Graceful stop sends SIGTERM — the replica's signal handler stops
accepting, drains in-flight requests with a deadline, and closes its
pools, unlinking every ``/dev/shm`` segment — then escalates to SIGKILL
only after the deadline.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field

from repro.service.client import ServiceClient

#: How long to wait for a freshly spawned replica to report its port.
SPAWN_TIMEOUT_S = 60.0

#: Monitor poll interval (crash detection latency).
MONITOR_INTERVAL_S = 0.1


def _replica_main(
    host: str,
    conn,
    cache_dir: str | None,
    max_pools: int,
    drain_s: float,
) -> None:
    """Entry point of one replica process (module-level: spawn-picklable)."""
    from repro.cache import ArtifactCache
    from repro.service.server import ReproServer, install_shutdown_handlers

    cache = ArtifactCache(cache_dir) if cache_dir else None
    server = ReproServer((host, 0), cache=cache, max_pools=max_pools)
    install_shutdown_handlers(server)
    conn.send(server.port)
    conn.close()
    server.serve_forever()
    drained = server.drain(drain_s)
    server.close(force=not drained)


@dataclass
class ReplicaHandle:
    """One live (or restarting) replica slot as the router sees it."""

    index: int
    proc: multiprocessing.process.BaseProcess | None = None
    port: int | None = None
    client: ServiceClient | None = None
    #: Bumped on every (re)start — stale failure reports from a previous
    #: incarnation must not trigger another restart.
    generation: int = 0
    #: Jobs currently executing against this replica (the queue-depth
    #: gauge ``cluster.per_replica[i].inflight``).
    inflight: int = 0
    started_at: float = 0.0
    _lock: threading.Lock = field(default_factory=threading.Lock)
    #: Serializes respawns of this slot — the monitor thread and a router
    #: dispatcher may both notice the same death; only one may spawn.
    restart_lock: threading.Lock = field(default_factory=threading.Lock)

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.is_alive()

    def begin(self) -> None:
        with self._lock:
            self.inflight += 1

    def end(self) -> None:
        with self._lock:
            self.inflight -= 1

    def describe(self) -> dict:
        return {
            "index": self.index,
            "port": self.port,
            "alive": self.alive,
            "pid": self.proc.pid if self.proc is not None else None,
            "generation": self.generation,
            "inflight": self.inflight,
            "uptime_s": (
                round(time.monotonic() - self.started_at, 3)
                if self.alive
                else 0.0
            ),
        }


class ReplicaSupervisor:
    """Spawns, monitors, restarts, and stops a fleet of replica servers."""

    def __init__(
        self,
        replicas: int = 2,
        cache_dir: str | os.PathLike | None = None,
        host: str = "127.0.0.1",
        max_pools: int = 4,
        drain_s: float = 5.0,
        request_timeout_s: float = 60.0,
        auto_restart: bool = True,
    ) -> None:
        if replicas < 1:
            raise ValueError("a cluster needs at least one replica")
        self.host = host
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.max_pools = max_pools
        self.drain_s = drain_s
        self.request_timeout_s = request_timeout_s
        self.auto_restart = auto_restart
        self.handles = [ReplicaHandle(index=i) for i in range(replicas)]
        self.restarts = 0
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "ReplicaSupervisor":
        for handle in self.handles:
            self._spawn(handle)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor",
            daemon=True,
        )
        self._monitor.start()
        return self

    def _spawn(self, handle: ReplicaHandle) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_replica_main,
            args=(
                self.host,
                child_conn,
                self.cache_dir,
                self.max_pools,
                self.drain_s,
            ),
            name=f"repro-replica-{handle.index}",
            # Not a daemon: replicas fork their own worker-pool processes,
            # which daemonic processes are forbidden to do.
            daemon=False,
        )
        proc.start()
        child_conn.close()
        if not parent_conn.poll(SPAWN_TIMEOUT_S):
            proc.kill()
            raise RuntimeError(
                f"replica {handle.index} did not report a port within "
                f"{SPAWN_TIMEOUT_S}s"
            )
        port = parent_conn.recv()
        parent_conn.close()
        with self._lock:
            handle.proc = proc
            handle.port = port
            handle.client = ServiceClient(
                host=self.host, port=port, timeout=self.request_timeout_s
            )
            handle.generation += 1
            handle.started_at = time.monotonic()

    def _respawn(self, handle: ReplicaHandle, expected_generation: int) -> bool:
        """Restart a dead replica slot exactly once per death.

        ``restart_lock`` serializes racers (monitor thread vs router
        dispatchers that all saw the same connection failure); the
        generation re-check under the lock makes the losers no-ops, so a
        single death can never spawn two processes (an orphan would block
        interpreter exit — replicas are non-daemon).
        """
        with handle.restart_lock:
            if self._stopping.is_set() or not self.auto_restart:
                return False
            if handle.generation != expected_generation or handle.alive:
                return False
            try:
                self._spawn(handle)
            except RuntimeError:  # pragma: no cover - spawn refused
                return False
        with self._lock:
            self.restarts += 1
        return True

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(MONITOR_INTERVAL_S):
            for handle in self.handles:
                if self._stopping.is_set():
                    return
                if handle.proc is not None and not handle.alive:
                    self._respawn(handle, handle.generation)

    def report_failure(self, handle: ReplicaHandle, generation: int) -> None:
        """Router-observed failure: restart eagerly if the process is dead
        (the monitor would get there too; this just shortens the gap).
        Stale generations are ignored — that incarnation already went."""
        self._respawn(handle, generation)

    # -- test/chaos hooks --------------------------------------------------
    def kill(self, index: int, graceful: bool = False) -> None:
        """Kill one replica (SIGKILL, or SIGTERM when ``graceful``)."""
        handle = self.handles[index]
        if handle.proc is None:
            return
        if graceful:
            handle.proc.terminate()
        else:
            handle.proc.kill()

    # -- queries -----------------------------------------------------------
    def alive_handles(self) -> list[ReplicaHandle]:
        return [h for h in self.handles if h.alive]

    def describe(self) -> dict:
        with self._lock:
            restarts = self.restarts
        return {
            "replicas": len(self.handles),
            "alive": len(self.alive_handles()),
            "restarts": restarts,
            "cache_dir": self.cache_dir,
            "per_replica": [h.describe() for h in self.handles],
        }

    def stop(self, deadline_s: float | None = None) -> None:
        """Graceful fleet shutdown: SIGTERM, wait, then SIGKILL stragglers."""
        deadline_s = (
            self.drain_s + 5.0 if deadline_s is None else deadline_s
        )
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
        # Barrier: an in-flight _respawn finishes (installing its proc in
        # the handle, where the sweep below will see it) before we collect;
        # any respawn that hasn't started yet sees _stopping and refuses.
        for handle in self.handles:
            with handle.restart_lock:
                pass
        procs = [h.proc for h in self.handles if h.proc is not None]
        for proc in procs:
            if proc.is_alive():
                try:
                    os.kill(proc.pid, signal.SIGTERM)
                except (ProcessLookupError, TypeError):
                    pass
        t0 = time.monotonic()
        for proc in procs:
            remaining = max(0.1, deadline_s - (time.monotonic() - t0))
            proc.join(timeout=remaining)
        for proc in procs:
            if proc.is_alive():  # pragma: no cover - drain deadline hit
                proc.kill()
                proc.join(timeout=2.0)

    def __enter__(self) -> "ReplicaSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
