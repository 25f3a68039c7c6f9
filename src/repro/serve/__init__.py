"""Async batched evaluation service over the detection-backend registry.

The fleet-operator loop the paper motivates — "which detection scheme
should this population run today?" — means many concurrent evaluate
queries against the simulator.  This package serves them:

* :mod:`repro.serve.protocol` — request/response dataclasses and the
  newline-JSON wire codec;
* :mod:`repro.serve.queue` — bounded admission with deadlines and
  load shedding;
* :mod:`repro.serve.batcher` — dedup identical requests and group
  trace-sharing ones into single worker invocations;
* :mod:`repro.serve.workers` — the process pool, reusing the sweep
  engine's per-process caches and ``REPRO_TRACE_CACHE``;
* :mod:`repro.serve.service` — the newline-JSON line server that this
  service and the shard router share, and the evaluation service;
* :mod:`repro.serve.client` — sync and async clients.

``paraverser serve`` runs the server; ``paraverser eval`` is the CLI
client.
"""

from repro.serve.client import AsyncEvalClient, BackendDown, EvalClient
from repro.serve.protocol import (
    EvalRequest,
    EvalResponse,
    ProtocolError,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    STATUS_TIMEOUT,
)
from repro.serve.service import EvalService, LineServer
from repro.serve.workers import WorkerPool

__all__ = [
    "AsyncEvalClient",
    "BackendDown",
    "EvalClient",
    "EvalRequest",
    "EvalResponse",
    "EvalService",
    "LineServer",
    "ProtocolError",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_SHED",
    "STATUS_TIMEOUT",
    "WorkerPool",
]
