"""Memory substrate: functional memory, caches, ECC and DRAM models."""

from repro.mem.memory import Memory
from repro.mem.cache import Cache, CacheConfig
from repro.mem.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.mem.dram import DramConfig, DramModel
from repro.mem.ecc import (
    EccError,
    EccWord,
    ParityError,
    check_parity,
    decode_secded,
    encode_secded,
    parity_bit,
)

__all__ = [
    "Cache",
    "CacheConfig",
    "DramConfig",
    "DramModel",
    "EccError",
    "EccWord",
    "HierarchyConfig",
    "Memory",
    "MemoryHierarchy",
    "ParityError",
    "check_parity",
    "decode_secded",
    "encode_secded",
    "parity_bit",
]
