"""GPUlog and the comparison engines of the paper's evaluation (Tables 2-4)."""

from .base import (
    STATUS_OK,
    STATUS_OOM,
    STATUS_UNSUPPORTED,
    BaselineEngine,
    EngineRunResult,
)
from .cudf_like import CudfCostParameters, CudfLikeEngine
from .gpujoin import GPUJoinCostParameters, GPUJoinEngine
from .gpulog import GPULogAdapter
from .souffle_cpu import SouffleCostParameters, SouffleCPUEngine

__all__ = [
    "BaselineEngine",
    "CudfCostParameters",
    "CudfLikeEngine",
    "EngineRunResult",
    "GPUJoinCostParameters",
    "GPUJoinEngine",
    "GPULogAdapter",
    "STATUS_OK",
    "STATUS_OOM",
    "STATUS_UNSUPPORTED",
    "SouffleCPUEngine",
    "SouffleCostParameters",
]
