"""Multi-node shard router: consistent-hash scale-out for repro.serve.

One asyncio front door (:class:`~repro.router.service.RouterService`)
speaks the existing newline-JSON protocol and shards eval/campaign
traffic across N ``repro.serve`` backends by functional-trace key, with
health-checked failover re-dispatch and exact campaign fan-out.  See
``docs/architecture.md`` ("Shard router") and ``paraverser route``.
"""

from repro.router.backends import Backend, BackendManager
from repro.router.ring import DEFAULT_REPLICAS, HashRing, hash_key
from repro.router.service import (
    RUNTIME_ROW_KEYS,
    RouterService,
    merge_campaign_rows,
)

__all__ = [
    "Backend",
    "BackendManager",
    "DEFAULT_REPLICAS",
    "HashRing",
    "RouterService",
    "RUNTIME_ROW_KEYS",
    "hash_key",
    "merge_campaign_rows",
]
