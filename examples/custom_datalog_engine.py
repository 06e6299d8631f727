#!/usr/bin/env python
"""Using the lower layers directly: HISA, joins and a custom device.

This example skips the Datalog front-end and shows the building blocks:
defining a custom GPU specification, building a HISA over a relation, running
a hash join (Algorithm 3 of the paper), and inspecting the profiler.
It also demonstrates string-valued facts through the engine's symbol table.
"""

import numpy as np

from repro import GPULogEngine
from repro.device import Device, DeviceSpec
from repro.relational import HISA, ColumnBatch, JoinOutput, hash_join


def relational_layer_demo() -> None:
    # A hypothetical mid-range accelerator.
    spec = DeviceSpec(
        name="Example Accelerator",
        kind="gpu",
        sm_count=48,
        cores_per_sm=64,
        clock_ghz=1.2,
        memory_bandwidth_gbps=800.0,
        memory_capacity_bytes=16 * 1024**3,
    )
    device = Device(spec)

    # employee(id, department), salary(id, amount)
    employee = np.array([[1, 10], [2, 10], [3, 20], [4, 30]], dtype=np.int64)
    salary = np.array([[1, 90], [2, 70], [3, 85], [4, 60]], dtype=np.int64)

    # A bare array is host data; a ColumnBatch is device data (charged upload).
    employee = ColumnBatch.from_host(device, employee, 2, label="employee.h2d")
    salary = ColumnBatch.from_host(device, salary, 2, label="salary.h2d")

    salary_index = HISA(device, salary, join_columns=(0,), label="salary")
    joined = hash_join(
        device,
        employee,
        outer_join_columns=[0],
        inner=salary_index,
        output=[JoinOutput("outer", 1), JoinOutput("inner", 1)],
        label="employee_salary",
    )
    print("department/salary pairs:")
    print(joined.to_host())  # the join result is a lazy batch; rows gather and download here
    print(f"simulated join time on {spec.name}: {device.elapsed_seconds * 1e6:.2f} us")
    print("kernels executed:", sorted(device.profiler.kernel_seconds()))
    print()


def symbolic_facts_demo() -> None:
    engine = GPULogEngine(device="a100")
    engine.add_facts("manages", [("alice", "bob"), ("bob", "carol"), ("carol", "dave")])
    result = engine.run(
        """
        chain(x, y) :- manages(x, y).
        chain(x, y) :- manages(x, z), chain(z, y).
        """
    )
    print("management chain (string constants are interned transparently):")
    for who, report in sorted(result.relation("chain")):
        print(f"  {who} -> {report}")
    engine.close()


if __name__ == "__main__":
    relational_layer_demo()
    symbolic_facts_demo()
