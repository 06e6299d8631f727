"""Simulated SIMT device substrate.

This package replaces the CUDA/HIP hardware the paper runs on with a faithful
software model: real NumPy execution of every bulk primitive, plus an analytic
cost model (bandwidth, compute, launch latency, allocation latency, warp
divergence) parameterised by data-center GPU and CPU specifications.
"""

from .cost import LINK_INTERCONNECT, LINK_PCIE, CostModel, KernelCost
from .device import Device, DeviceSnapshot
from .faults import FAULT_PLAN_ENV_VAR, FaultPlan, FaultSpec, resolve_fault_plan
from .kernels import DeviceKernels, TUPLE_DTYPE, rows_nbytes
from .memory import Buffer, MemoryPool, MemoryStats
from .profiler import (
    FIGURE6_PHASES,
    PHASE_CHECKPOINT,
    PHASE_DEDUPLICATION,
    PHASE_INDEX_DELTA,
    PHASE_INDEX_FULL,
    PHASE_JOIN,
    PHASE_LOAD,
    PHASE_MERGE,
    PHASE_OTHER,
    PHASE_POPULATE_DELTA,
    PHASE_RECOVERY,
    PHASE_SHARD_EXCHANGE,
    PHASE_TRANSFER,
    PhaseSummary,
    ProfileEvent,
    Profiler,
)
from .simt import stride_count, stride_slices, warp_divergence_factor, warp_occupancy
from .spec import (
    AMD_EPYC_7543P,
    AMD_EPYC_7713,
    AMD_MI250,
    AMD_MI50,
    INTEL_XEON_6338,
    NVIDIA_A100,
    NVIDIA_H100,
    DeviceSpec,
    device_preset,
    list_device_presets,
)

__all__ = [
    "AMD_EPYC_7543P",
    "AMD_EPYC_7713",
    "AMD_MI250",
    "AMD_MI50",
    "Buffer",
    "CostModel",
    "Device",
    "DeviceKernels",
    "DeviceSnapshot",
    "DeviceSpec",
    "FAULT_PLAN_ENV_VAR",
    "FIGURE6_PHASES",
    "FaultPlan",
    "FaultSpec",
    "INTEL_XEON_6338",
    "KernelCost",
    "LINK_INTERCONNECT",
    "LINK_PCIE",
    "MemoryPool",
    "MemoryStats",
    "NVIDIA_A100",
    "NVIDIA_H100",
    "PHASE_CHECKPOINT",
    "PHASE_DEDUPLICATION",
    "PHASE_INDEX_DELTA",
    "PHASE_INDEX_FULL",
    "PHASE_JOIN",
    "PHASE_LOAD",
    "PHASE_MERGE",
    "PHASE_OTHER",
    "PHASE_POPULATE_DELTA",
    "PHASE_RECOVERY",
    "PHASE_SHARD_EXCHANGE",
    "PHASE_TRANSFER",
    "PhaseSummary",
    "ProfileEvent",
    "Profiler",
    "TUPLE_DTYPE",
    "device_preset",
    "list_device_presets",
    "resolve_fault_plan",
    "rows_nbytes",
    "stride_count",
    "stride_slices",
    "warp_divergence_factor",
    "warp_occupancy",
]
