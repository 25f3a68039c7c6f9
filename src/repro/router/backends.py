"""Backend lifecycle: spawn/adopt ``repro.serve`` shards, track health.

A :class:`Backend` is one serve process the router dispatches to —
either spawned here as a local ``paraverser serve`` subprocess
(``--port 0``, the bound port parsed off its stdout) or adopted from a
``host:port`` address.  Each carries a link: an
:class:`~repro.serve.client.AsyncEvalClient`, the multiplexed
newline-JSON client, which fails every in-flight waiter with
:class:`~repro.serve.client.BackendDown` when the connection is closed
or lost.  Marking a shard down closes its link, the pending forwards
raise, and the dispatch loop re-sends them to the next ring replica.
"""

from __future__ import annotations

import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from repro.serve.client import AsyncEvalClient

#: How a spawned ``paraverser serve`` announces its bound address.
_LISTEN_RE = re.compile(r"listening on ([\d.]+):(\d+)")

#: Seconds to wait for one spawned backend to report its port.
SPAWN_TIMEOUT_S = 60.0


@dataclass
class Backend:
    """One serve shard: address, link, health and dispatch accounting."""

    name: str
    host: str
    port: int
    process: subprocess.Popen | None = None
    link: AsyncEvalClient = field(init=False)
    healthy: bool = True
    #: Requests currently forwarded and awaiting a response.
    inflight: int = 0
    inflight_max: int = 0
    forwarded: int = 0
    #: Forwards that failed here and were re-dispatched elsewhere.
    re_dispatched_away: int = 0
    mark_downs: int = 0

    def __post_init__(self) -> None:
        # Forwards go out under router-side ids (``fwd<n>``).
        self.link = AsyncEvalClient(self.host, self.port, id_prefix="fwd")

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"


class BackendManager:
    """Owns the shard set: spawning, adoption, teardown, health flips."""

    def __init__(self) -> None:
        self.backends: dict[str, Backend] = {}

    def __len__(self) -> int:
        return len(self.backends)

    @property
    def names(self) -> list[str]:
        return sorted(self.backends)

    def healthy_names(self) -> list[str]:
        return [name for name in self.names
                if self.backends[name].healthy]

    def adopt(self, addresses: list[tuple[str, int]]) -> list[Backend]:
        """Register already-running backends by address.

        Names are the ``host:port`` strings — stable identities, so
        ring placement survives router restarts against the same fleet.
        """
        added = []
        for host, port in addresses:
            backend = Backend(name=f"{host}:{port}", host=host, port=port)
            self.backends[backend.name] = backend
            added.append(backend)
        return added

    def spawn_local(self, count: int, *, workers: int = 1,
                    trace_dir: str | None = None,
                    batch_window_ms: float | None = None,
                    extra_args: list[str] | None = None) -> list[Backend]:
        """Start ``count`` local serve subprocesses on OS-assigned ports.

        Names are ``shard<i>`` — deterministic, so the ring lays out
        identically for every ``--shards N`` router regardless of which
        ports the OS hands out.
        """
        added = []
        for index in range(count):
            argv = [sys.executable, "-m", "repro.cli", "serve",
                    "--port", "0", "--workers", str(workers)]
            if trace_dir:
                argv += ["--trace-cache", trace_dir]
            if batch_window_ms is not None:
                argv += ["--batch-window-ms", str(batch_window_ms)]
            if extra_args:
                argv += extra_args
            process = subprocess.Popen(
                argv, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True)
            host, port = self._wait_for_listen(process)
            self._drain_stdout(process)
            backend = Backend(name=f"shard{index}", host=host, port=port,
                              process=process)
            self.backends[backend.name] = backend
            added.append(backend)
        return added

    @staticmethod
    def _wait_for_listen(process: subprocess.Popen) -> tuple[str, int]:
        assert process.stdout is not None
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                raise RuntimeError(
                    "spawned serve backend exited before listening "
                    f"(exit code {process.poll()})")
            match = _LISTEN_RE.search(line)
            if match:
                return match.group(1), int(match.group(2))
        process.kill()
        raise RuntimeError("spawned serve backend never reported its port")

    @staticmethod
    def _drain_stdout(process: subprocess.Popen) -> None:
        """Keep reading the shard's stdout so it never blocks on a full
        pipe once it starts logging requests; close it once the shard
        has exited."""
        def _drain() -> None:
            assert process.stdout is not None
            with process.stdout:
                for _ in process.stdout:
                    pass

        threading.Thread(target=_drain, daemon=True,
                         name=f"router-drain-{process.pid}").start()

    async def close_links(self) -> None:
        for backend in self.backends.values():
            await backend.link.close()

    def stop_processes(self, timeout_s: float = 15.0) -> None:
        """Terminate (then kill) every backend spawned here."""
        spawned = [b for b in self.backends.values()
                   if b.process is not None]
        for backend in spawned:
            backend.process.terminate()
        for backend in spawned:
            try:
                backend.process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                backend.process.kill()
                backend.process.wait()
