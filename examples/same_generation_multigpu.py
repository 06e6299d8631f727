#!/usr/bin/env python
"""Same Generation across data-center GPUs: re-pricing, sharding, ablation.

Runs the SG query (a three-way join) on a finite-element-style mesh with
GPUlog, then

1. re-prices the recorded kernel schedule under the H100, A100, MI250 and MI50
   device specifications (the experiment behind Table 5),
2. re-evaluates the query **sharded across 4 simulated H100s**
   (``GPULogEngine(num_shards=4)``): relations hash-partitioned by their
   canonical join column, foreign-keyed delta tuples exchanged over the
   charged NVLink-class interconnect each iteration, and
3. re-evaluates with the fused (non-materialized) n-way join to show why
   GPUlog materializes temporaries (Section 5.2).
"""

from repro.datalog.engine import GPULogEngine
from repro.datasets import finite_element_mesh
from repro.experiments import reprice_events
from repro.queries import SG_SOURCE

NUM_SHARDS = 4


def run_sg(materialize: bool = True, num_shards: int = 1):
    mesh = finite_element_mesh(30, 6, seed=3, name="example-mesh")
    engine = GPULogEngine(
        "h100",
        materialize_nway=materialize,
        collect_relations=False,
        num_shards=num_shards,
    )
    engine.add_fact_array("edge", mesh.edges)
    result = engine.run(SG_SOURCE)
    events = engine.device.profiler.events
    engine.close()  # releases every shard device; double-close is a no-op
    return mesh, result, events


def main() -> None:
    mesh, result, events = run_sg(materialize=True)
    print(f"mesh: {mesh.n_nodes} nodes, {mesh.edge_count} edges")
    print(f"SG size: {result.count('sg')} tuples in {result.total_iterations} iterations")
    print()

    print("GPUlog runtime across devices (same kernel schedule, re-priced):")
    for device in ("h100", "a100", "mi250", "mi50"):
        total, _, _ = reprice_events(events, device)
        print(f"  {device.upper():6s} {total * 1e3:8.3f} ms (simulated)")
    print()

    _, sharded, _ = run_sg(num_shards=NUM_SHARDS)
    print(f"sharded across {NUM_SHARDS} H100s (hash-partitioned, delta exchange):")
    print(f"  single device: {result.elapsed_seconds * 1e3:8.3f} ms (simulated)")
    print(
        f"  {NUM_SHARDS} shards:      {sharded.elapsed_seconds * 1e3:8.3f} ms "
        f"(max over shards, {result.elapsed_seconds / sharded.elapsed_seconds:.2f}x)"
    )
    for shard, seconds in enumerate(sharded.shard_elapsed_seconds):
        peak = sharded.shard_peak_memory_bytes[shard] / 1024**2
        print(f"    shard {shard}: {seconds * 1e3:8.3f} ms, peak {peak:7.2f} MiB")
    exchange_mib = sharded.exchange_bytes / 1024**2
    print(
        f"  exchange volume: {exchange_mib:.2f} MiB / {sharded.exchange_tuples} tuples "
        f"over the NVLink-class interconnect"
    )
    print(
        f"  shard_exchange phase: "
        f"{sharded.phase_seconds.get('shard_exchange', 0.0) * 1e3:.3f} device-ms"
    )
    print(f"  same answer as single device: {sharded.count('sg') == result.count('sg')}")
    print(
        "  (this mesh is tiny and launch-latency-bound, so sharding cannot pay off;\n"
        "   it pays once bandwidth dominates: on the depth-7 SG tree, |sg| = 5.4M,\n"
        "   4 shards reach ~2x max-over-shards speedup)"
    )
    print()

    _, fused, _ = run_sg(materialize=False)
    print("temporarily-materialized vs fused n-way join (H100):")
    print(f"  materialized: {result.elapsed_seconds * 1e3:8.3f} ms")
    print(f"  fused:        {fused.elapsed_seconds * 1e3:8.3f} ms")
    print(f"  fused produces the same answer: {fused.count('sg') == result.count('sg')}")


if __name__ == "__main__":
    main()
