"""Per-shard semi-join key filters for volume-minimizing exchanges.

Distributed Datalog engines ("Scaling-Up In-Memory Datalog Processing";
BigDatalog's broadcast joins) cut exchange volume by shipping only the outer
tuples whose join key can actually match on the receiving shard.  This module
provides the filter side of that design for the simulated cluster: one
compact, exact key set per ``(relation, join column, shard)`` triple, built
from each shard's inner-relation join column and refreshed incrementally from
deltas after every merge.

The filters are *exact* sorted-unique key arrays rather than Bloom
signatures: the simulated interconnect charges by bytes, the key sets are a
join column's distinct values (small next to the row payloads they prune),
and exactness keeps the pruning sound without a false-positive story.

Honest accounting: building a filter charges the owning device's dedup
kernels, and distributing it to the probing peers goes through the charged
``broadcast_to`` interconnect edge — so a filter only pays for itself when
the rows it drops outweigh the keys it ships.  Probes charge the standard
``binary_search_keys`` pattern on the sending device.
"""

from __future__ import annotations

from ..backend import Array
from ..device.device import Device
from ..device.profiler import PHASE_SHARD_EXCHANGE

__all__ = ["ExchangeFilterBank"]


class ExchangeFilterBank:
    """Sorted-unique join-key sets, one per (relation, column, target shard).

    Lifecycle: :meth:`ensure` lazily builds (and charges) the per-shard key
    sets for an inner relation's join column the first time an exchange wants
    to prune against it; :meth:`refresh` folds newly merged delta keys in
    after each fixpoint iteration; :meth:`invalidate` drops everything on a
    fault rollback, since a restored ``full`` no longer matches the filters
    built from the pre-crash state.
    """

    def __init__(self, devices: "list[Device]") -> None:
        # A live view, not a copy: shard rebuilds swap device entries in
        # place and the bank must see the replacements.
        self.devices = devices
        self.num_shards = len(self.devices)
        #: (relation name, join column) -> per-shard sorted unique key arrays
        self._keys: dict[tuple[str, int], list[Array]] = {}

    def __len__(self) -> int:
        return len(self._keys)

    def has(self, name: str, column: int) -> bool:
        return (name, int(column)) in self._keys

    def has_relation(self, name: str) -> bool:
        """True if any column of ``name`` has a live filter (refresh needed)."""
        return any(tracked == name for tracked, _column in self._keys)

    # ------------------------------------------------------------------
    # Construction / maintenance
    # ------------------------------------------------------------------
    def ensure(self, name: str, column: int, shards) -> None:
        """Build the per-shard key sets for ``shards[i]``'s ``column`` values.

        Each owning shard deduplicates its own full-version column (charged
        on the owner) and broadcasts the resulting key set to every probing
        peer over the charged interconnect.  No-op when already built.
        """
        key = (name, int(column))
        if key in self._keys:
            return
        keysets: list[Array] = []
        for shard_index, shard in enumerate(shards):
            device = self.devices[shard_index]
            with device.profiler.phase(PHASE_SHARD_EXCHANGE):
                values = shard.full_batch().column(int(column), label=f"{name}.filter_scan")
                unique = device.kernels.unique_columns([values], label=f"{name}.filter_build")
                keyset = unique[0] if unique else values
                peers = [peer for index, peer in enumerate(self.devices) if index != shard_index]
                if peers and keyset.shape[0]:
                    device.kernels.broadcast_to(keyset, peers, label=f"{name}.filter")
            keysets.append(keyset)
        self._keys[key] = keysets

    def refresh(self, name: str, shards) -> None:
        """Fold freshly merged delta keys into every filter over ``name``.

        Called right after ``end_iteration`` promotes *new* into *delta*:
        the delta rows are exactly the keys that just entered ``full``, so
        only they are deduplicated, broadcast, and merged — the incremental
        counterpart of :meth:`ensure`'s full build.
        """
        for (tracked_name, column), keysets in self._keys.items():
            if tracked_name != name:
                continue
            for shard_index, shard in enumerate(shards):
                if shard.delta_count == 0:
                    continue
                device = self.devices[shard_index]
                backend = device.backend
                with device.profiler.phase(PHASE_SHARD_EXCHANGE):
                    values = shard.delta_batch.column(column, label=f"{name}.filter_delta")
                    unique = device.kernels.unique_columns(
                        [values], label=f"{name}.filter_refresh"
                    )
                    fresh = unique[0] if unique else values
                    if not fresh.shape[0]:
                        continue
                    peers = [
                        peer for index, peer in enumerate(self.devices) if index != shard_index
                    ]
                    if peers:
                        device.kernels.broadcast_to(fresh, peers, label=f"{name}.filter")
                    merged = device.kernels.unique_columns(
                        [backend.concatenate([keysets[shard_index], fresh])],
                        label=f"{name}.filter_merge",
                    )
                keysets[shard_index] = merged[0]

    def invalidate(self) -> None:
        """Drop every filter (fault rollback: ``full`` rewound past them)."""
        self._keys.clear()

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe(
        self,
        device: Device,
        name: str,
        column: int,
        target: int,
        keys: Array,
        *,
        label: str = "semijoin_probe",
    ) -> "Array | None":
        """Mask of ``keys`` present in shard ``target``'s filter, or ``None``.

        ``None`` means no filter is tracked for this (relation, column) —
        the caller ships unfiltered.  Charged as a batch binary search on
        the *sending* device (where the outer keys live).
        """
        keysets = self._keys.get((name, int(column)))
        if keysets is None:
            return None
        backend = device.backend
        keys = backend.asarray(keys, dtype=backend.int64)
        n = int(keys.shape[0])
        keyset = keysets[target]
        size = int(keyset.shape[0])
        if n == 0 or size == 0:
            return backend.zeros(n, dtype=backend.bool_)
        device.kernels.binary_search_keys(n, size, 8.0, label=label)
        positions = backend.searchsorted(keyset, keys, side="left")
        # Wrap the one-past-the-end rank back into range: a key greater than
        # the filter maximum then compares against the minimum, which cannot
        # spuriously match it.
        positions = positions % size
        return backend.take(keyset, positions) == keys
