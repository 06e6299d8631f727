"""Adapter exposing :class:`~repro.datalog.engine.GPULogEngine` behind the
common :class:`~repro.engines.base.BaselineEngine` interface.

This is the system under test in every comparison table; out-of-memory
conditions raised by the simulated device are converted into the ``OOM``
status the paper's tables use (GPUlog itself never OOMs in the paper's runs,
and should not here either — the status handling exists so that a
mis-configured memory cap fails loudly rather than crashing an experiment).
"""

from __future__ import annotations

from typing import Mapping, Union

import numpy as np

from ..datalog.ast import Program
from ..datalog.engine import GPULogEngine
from ..device.device import Device
from ..device.spec import DeviceSpec, device_preset
from ..errors import DeviceOutOfMemoryError
from .base import STATUS_OK, STATUS_OOM, BaselineEngine, EngineRunResult


class GPULogAdapter(BaselineEngine):
    """GPUlog (this paper) on a simulated data-center GPU."""

    name = "gpulog"

    def __init__(
        self,
        device: Union[DeviceSpec, str] = "h100",
        *,
        memory_capacity_bytes: int | None = None,
        eager_buffers: bool = True,
        load_factor: float = 0.8,
        materialize_nway: bool = True,
        backend: str | None = None,
        num_shards: int | None = None,
        planner: str | None = None,
    ) -> None:
        self.spec = device_preset(device) if isinstance(device, str) else device
        self.memory_capacity_bytes = memory_capacity_bytes
        self.eager_buffers = eager_buffers
        self.load_factor = load_factor
        self.materialize_nway = materialize_nway
        #: array-backend name/instance for every run (None = REPRO_BACKEND/numpy)
        self.backend = backend
        #: shard devices per run (None = $REPRO_SHARDS and then 1)
        self.num_shards = num_shards
        #: join planner per run (None = $REPRO_PLANNER and then "greedy")
        self.planner = planner
        self.last_result = None

    def run(
        self,
        program: Union[Program, str],
        facts: Mapping[str, np.ndarray],
        *,
        collect_relations: bool = False,
    ) -> EngineRunResult:
        program = self.coerce_program(program)
        device = Device(self.spec, memory_capacity_bytes=self.memory_capacity_bytes, backend=self.backend)
        engine = GPULogEngine(
            device,
            eager_buffers=self.eager_buffers,
            load_factor=self.load_factor,
            materialize_nway=self.materialize_nway,
            collect_relations=collect_relations,
            num_shards=self.num_shards,
            planner=self.planner,
        )
        for name, rows in facts.items():
            engine.add_fact_array(name, np.asarray(rows, dtype=np.int64))
        try:
            result = engine.run(program)
        except DeviceOutOfMemoryError as error:
            # Any shard may have raised; report the cluster view with the
            # same max-over-shards convention as a successful sharded run
            # (on a single-device run engine.devices is just [device]).
            slowest = max(engine.devices, key=lambda shard: shard.elapsed_seconds)
            return EngineRunResult(
                engine=self.name,
                device=self.spec.name,
                status=STATUS_OOM,
                seconds=slowest.elapsed_seconds,
                fixed_seconds=slowest.profiler.fixed_seconds,
                variable_seconds=slowest.profiler.variable_seconds,
                peak_memory_bytes=max(shard.peak_memory_bytes for shard in engine.devices),
                detail=str(error),
            )
        finally:
            engine.close()

        self.last_result = result
        relations = None
        if collect_relations:
            relations = {name: result.relation_set(name) for name in result.relations}
        return EngineRunResult(
            engine=self.name,
            device=self.spec.name,
            status=STATUS_OK,
            seconds=result.elapsed_seconds,
            # On a sharded run these describe the slowest shard, matching
            # the max-over-shards elapsed time above.
            fixed_seconds=result.fixed_seconds,
            variable_seconds=result.variable_seconds,
            peak_memory_bytes=result.peak_memory_bytes,
            iterations=result.total_iterations,
            relation_counts=dict(result.relation_counts),
            relations=relations,
        )
