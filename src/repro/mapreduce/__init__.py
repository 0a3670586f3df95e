"""MapReduce substrate: accounting runtime, executor backends, and partitioners."""

from .backends import (
    DiskPartitionStore,
    ExecutorBackend,
    MemoryPartitionStore,
    PartitionArray,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    available_backends,
    available_storage_tiers,
    resolve_backend,
    resolve_storage,
)
from .cluster import DistributedBackend, LocalCluster, parse_worker_address
from .worker import WorkerServer
from .partitioner import (
    ChunkRouter,
    draw_partition_seeds,
    hashed_assignment,
    split_adversarial,
)
from .runtime import (
    JobStats,
    KeyValue,
    MapReduceRuntime,
    RoundStats,
    default_sizeof,
)

__all__ = [
    "ChunkRouter",
    "DiskPartitionStore",
    "DistributedBackend",
    "ExecutorBackend",
    "JobStats",
    "KeyValue",
    "LocalCluster",
    "MapReduceRuntime",
    "MemoryPartitionStore",
    "PartitionArray",
    "ProcessBackend",
    "RoundStats",
    "SerialBackend",
    "ThreadBackend",
    "WorkerServer",
    "available_backends",
    "available_storage_tiers",
    "default_sizeof",
    "draw_partition_seeds",
    "hashed_assignment",
    "parse_worker_address",
    "resolve_backend",
    "resolve_storage",
    "split_adversarial",
]
