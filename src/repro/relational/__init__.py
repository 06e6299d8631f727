"""Relational substrate: HISA, hash tables, relational-algebra kernels, buffers.

Everything here is device-resident state and device-kernel computation:
:class:`~repro.relational.hisa.HISA` indexes (sorted capacity-backed column
buffers + run-structured index + open-addressing hash table, with an O(Δ)
incremental ``merge``), lazy :class:`~repro.relational.columnbatch.ColumnBatch`
operands, the join/dedup/difference operators, semi-naïve
:class:`~repro.relational.relation.Relation` version triples and their
sharded router, planner statistics, semi-join exchange filters, and
iteration-boundary checkpoints.  No module in this package imports an array
library — every primitive goes through the owning device's
:class:`~repro.backend.base.ArrayBackend`, and host arrays cross only at
the charged transfer edges.  See ``docs/architecture.md``.
"""

from .buffers import (
    BufferManagerStats,
    EagerBufferManager,
    MergeBufferManager,
    SimpleBufferManager,
    make_buffer_manager,
)
from .checkpoint import (
    CheckpointStore,
    DiskCheckpointStore,
    EvaluationCheckpoint,
    InMemoryCheckpointStore,
    PartitionState,
    RelationState,
)
from .columnbatch import ColumnBatch
from .hashing import EMPTY_KEY, hash_columns, hash_rows, hash_single, next_power_of_two
from .hashtable import DEFAULT_LOAD_FACTOR, HashTableStats, OpenAddressingHashTable
from .hisa import HISA, HisaMemoryBreakdown
from .operators import (
    ColumnComparison,
    JoinOutput,
    LiveOuter,
    deduplicate,
    difference,
    fused_nway_join,
    hash_join,
    select,
)
from .relation import IterationStats, Relation
from .sharded import ShardedRelation, partition_rows_host, shard_assignments

__all__ = [
    "BufferManagerStats",
    "CheckpointStore",
    "ColumnBatch",
    "ColumnComparison",
    "DEFAULT_LOAD_FACTOR",
    "DiskCheckpointStore",
    "EMPTY_KEY",
    "EagerBufferManager",
    "EvaluationCheckpoint",
    "HISA",
    "InMemoryCheckpointStore",
    "PartitionState",
    "RelationState",
    "HashTableStats",
    "HisaMemoryBreakdown",
    "IterationStats",
    "JoinOutput",
    "LiveOuter",
    "MergeBufferManager",
    "OpenAddressingHashTable",
    "Relation",
    "ShardedRelation",
    "SimpleBufferManager",
    "deduplicate",
    "difference",
    "fused_nway_join",
    "hash_columns",
    "hash_join",
    "hash_rows",
    "hash_single",
    "make_buffer_manager",
    "next_power_of_two",
    "partition_rows_host",
    "select",
    "shard_assignments",
]
