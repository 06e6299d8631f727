"""Columnar (SoA) tuple batches with late materialization.

Moving row-major ``(n, arity)`` tuple arrays between operators would make
each join / project / dedup step re-materialize full tuples even when
downstream steps only need a subset of columns.  :class:`ColumnBatch` is the
column-oriented currency of the join pipeline instead: a set of named
per-column ``int64`` arrays plus an optional *lazy gather* — each column is
either

* **materialized** — a 1-D array of length ``num_rows``, or
* **lazy** — a pair ``(base, selection chain)`` where ``base`` is a (usually
  larger) backing column (e.g. a HISA's stored column) and the selection
  chain is a sequence of index vectors shared by every column drawn from the
  same *source*.

All arrays are owned by the device's
:class:`~repro.backend.base.ArrayBackend`; the batch never touches an array
library directly, which is what lets the same datapath run on NumPy, CuPy, or
the contract-enforcing guard.

The late-materialization contract
---------------------------------

1. Operators that only *route* tuples — ``project``, join output wiring,
   comparison filtering, ``take`` — never copy column values.  They append
   index vectors to the per-source selection chains and rewire column
   metadata; nothing is charged to the device.
2. Column values are gathered exactly once, at first access
   (:meth:`column` / :meth:`as_rows`).  Resolving a source's selection chain
   composes its index vectors right-to-left, so every composition runs at
   the *final* (smallest, post-filter) batch length, and the simulated
   device is charged per column and per composition actually performed.
   Columns no downstream operator reads — join attributes dropped by a later
   projection, variables absent from a rule head — are **never** gathered,
   and sources no live column references are never composed.
3. Base arrays are append-only: producers (HISA merges) may grow their
   storage or swap in larger buffers, but never mutate the prefix a live
   selection can reference, so a lazy batch stays valid across fixpoint
   bookkeeping until it is materialized.

A batch is the only form tuples take on the device; a bare row-major
``(n, arity)`` array is host data.  :meth:`from_host` is the one way in (the
charged ``from_host`` upload, then column views of the uploaded block) and
:meth:`to_host` the one way out (the columns stacked into a block for the
charged ``to_host`` download).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..backend import INDEX_DTYPE, TUPLE_DTYPE, TUPLE_ITEMSIZE, Array
from ..device.device import Device
from ..errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from ..device.kernels import PackedColumns

__all__ = ["ColumnBatch"]


class ColumnBatch:
    """A batch of tuples stored column-wise, with optional lazy gathers."""

    __slots__ = ("device", "_length", "_selections", "_sources", "_bases", "_cache", "_monotone", "names")

    def __init__(
        self,
        device: Device,
        *,
        length: int,
        bases: list[Array],
        sources: list[int],
        selections: list["list[Array] | None"],
        names: tuple[str, ...] | None = None,
    ) -> None:
        self.device = device
        self._length = int(length)
        self._bases = bases
        self._sources = sources
        self._selections = selections
        self._cache: dict[int, Array] = {}
        #: per-source coalescing flag of the resolved selection: seeded by
        #: :meth:`take` for selections that are monotone by construction,
        #: otherwise computed once at first gather, and carried by the routing
        #: operators to the batches that keep the source
        self._monotone: dict[int, bool] = {}
        if names is not None and len(names) != len(bases):
            raise SchemaError(f"{len(names)} column names for {len(bases)} columns")
        self.names = names

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        device: Device,
        columns: Sequence[Array],
        *,
        length: int | None = None,
        names: tuple[str, ...] | None = None,
    ) -> "ColumnBatch":
        """Wrap already-materialized per-column arrays (no copy)."""
        backend = device.backend
        cols = [backend.asarray(column, dtype=TUPLE_DTYPE).reshape(-1) for column in columns]
        if length is None:
            length = int(cols[0].shape[0]) if cols else 0
        for column in cols:
            if column.shape[0] != length:
                raise SchemaError("all columns of a batch must have the same length")
        return cls(
            device,
            length=int(length),
            bases=cols,
            sources=[0] * len(cols),
            selections=[None],
            names=names,
        )

    @classmethod
    def from_rows(
        cls, device: Device, rows: Array, *, names: tuple[str, ...] | None = None
    ) -> "ColumnBatch":
        """Wrap a row-major tuple array as column views (no copy)."""
        rows = device.backend.as_rows(rows)
        return cls.from_columns(
            device,
            [rows[:, position] for position in range(rows.shape[1])],
            length=int(rows.shape[0]),
            names=names,
        )

    @classmethod
    def from_host(cls, device: Device, rows, arity: int, *, label: str = "h2d_transfer") -> "ColumnBatch":
        """The one way in: host ``(n, arity)`` tuples become a device batch.

        The payload crosses PCIe through the charged ``from_host`` kernel and
        is viewed as columns; an empty payload of any shape is an empty batch
        and a single 1-D tuple is one row.
        """
        rows = device.kernels.from_host(rows, dtype=TUPLE_DTYPE, label=label)
        if rows.size == 0:
            return cls.empty(device, arity)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        if rows.ndim != 2 or rows.shape[1] != arity:
            raise SchemaError(f"{label}: expected tuples of arity {arity}, got shape {rows.shape}")
        return cls.from_rows(device, rows)

    @classmethod
    def empty(cls, device: Device, arity: int, *, names: tuple[str, ...] | None = None) -> "ColumnBatch":
        backend = device.backend
        return cls.from_columns(
            device, [backend.empty(0, dtype=TUPLE_DTYPE) for _ in range(arity)], length=0, names=names
        )

    @classmethod
    def from_live_columns(
        cls,
        device: Device,
        columns: Sequence[Array],
        live_positions: Sequence[int],
        arity: int,
        *,
        length: int | None = None,
        names: tuple[str, ...] | None = None,
    ) -> "ColumnBatch":
        """A full-arity batch of which only the *live* positions hold values.

        ``columns[i]`` becomes position ``live_positions[i]``; every other
        position shares one zero-filled placeholder column that, by
        construction (the planner's liveness analysis), no downstream
        operator will ever gather.  How an exchanged shipment and a join
        outer made distinct on its live columns rejoin the flowing schema.
        """
        if len(columns) != len(live_positions):
            raise SchemaError(
                f"{len(columns)} live columns for {len(live_positions)} live positions"
            )
        if length is None:
            length = int(columns[0].shape[0]) if columns else 0
        live = {int(position): column for position, column in zip(live_positions, columns)}
        placeholder: Array | None = None
        full: list[Array] = []
        for position in range(arity):
            column = live.get(position)
            if column is None:
                if placeholder is None:
                    placeholder = device.backend.zeros(length, dtype=TUPLE_DTYPE)
                column = placeholder
            full.append(column)
        return cls.from_columns(device, full, length=length, names=names)

    @classmethod
    def from_shipped(
        cls,
        device: Device,
        rows: Array,
        live_positions: Sequence[int],
        arity: int,
        *,
        names: tuple[str, ...] | None = None,
    ) -> "ColumnBatch":
        """Rebuild a full-arity batch from a cross-shard shipment.

        The exchange path ships only *live* columns (positions a downstream
        plan step reads, per the planner's liveness analysis) packed as a
        ``(n, len(live_positions))`` row block.  This wraps that block back
        into the receiving shard's full flowing schema
        (:meth:`from_live_columns`): live positions become zero-copy column
        views of the block.
        """
        rows = device.backend.as_rows(rows)
        if rows.shape[0] and rows.shape[1] != len(live_positions):
            raise SchemaError(
                f"shipped block has {rows.shape[1]} columns, expected {len(live_positions)}"
            )
        return cls.from_live_columns(
            device,
            [rows[:, index] for index in range(len(live_positions))],
            live_positions,
            arity,
            length=int(rows.shape[0]),
            names=names,
        )

    def ship_columns(
        self, positions: Sequence[int], *, label: str = "ship"
    ) -> "list[Array]":
        """Materialise exactly the columns a shipment carries (sender-side).

        Resolving the selection chains here — before the bytes cross the
        interconnect — is what makes cross-shard laziness pay: a filtered or
        projected batch ships its post-selection values, never the backing
        stores the lazy metadata points into.
        """
        return [self.column(int(position), label=f"{label}.resolve") for position in positions]

    @classmethod
    def concatenate(
        cls,
        device: Device,
        parts: Sequence["ColumnBatch"],
        *,
        arity: int,
        label: str = "concatenate_columns",
        charge: bool = True,
    ) -> "ColumnBatch":
        """Concatenate batches column-wise; empty input keeps ``arity``."""
        parts = [part for part in parts if part is not None and len(part)]
        if not parts:
            return cls.empty(device, arity)
        for part in parts:
            if part.arity != arity:
                raise SchemaError(f"cannot concatenate batches of arity {part.arity} into arity {arity}")
        materialized = [
            [part.column(position, charge=charge, label=label) for position in range(arity)]
            for part in parts
        ]
        if charge:
            columns = device.kernels.concatenate_columns(materialized, label=label)
        else:
            columns = [
                device.backend.concatenate([cols[position] for cols in materialized])
                for position in range(arity)
            ]
        # Pass the row count explicitly so zero-arity batches keep their length.
        total = sum(len(part) for part in parts)
        return cls.from_columns(device, columns, length=total, names=parts[0].names)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return self._length

    def __len__(self) -> int:
        return self._length

    @property
    def arity(self) -> int:
        return len(self._bases)

    @property
    def nbytes(self) -> int:
        """Logical payload size: the bytes a full materialization would occupy."""
        return self._length * self.arity * TUPLE_ITEMSIZE

    def is_materialized(self, position: int) -> bool:
        return position in self._cache or self._selections[self._sources[position]] is None

    @property
    def materialized_column_count(self) -> int:
        return sum(1 for position in range(self.arity) if self.is_materialized(position))

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def _resolve_selection(
        self, source: int, *, charge: bool, label: str
    ) -> Array | None:
        """Collapse a source's selection chain to one index vector.

        Compositions run right-to-left, so each one is sized by the *last*
        (post-filter, smallest) index vector of the chain; the resolved
        vector replaces the chain so later columns of the same source reuse
        it for free.
        """
        chain = self._selections[source]
        if chain is None:
            return None
        # A source flagged monotone while its chain is still unresolved got
        # the flag from :meth:`take`: every link is monotone, so every
        # composition coalesces and needs no check of its own.
        coalesced = self._monotone.get(source) or None
        while len(chain) > 1:
            tail = chain.pop()
            head = chain.pop()
            if charge:
                composed = self.device.kernels.compose_selection(
                    head, tail, label=f"{label}.compose", coalesced=coalesced
                )
            else:
                composed = head[tail]
            chain.append(composed)
        return chain[0]

    def column(self, position: int, *, charge: bool = True, label: str = "gather_column") -> Array:
        """Materialise (and cache) one column as a 1-D int64 array."""
        if position < 0 or position >= self.arity:
            raise SchemaError(f"column {position} out of range for arity {self.arity}")
        cached = self._cache.get(position)
        if cached is not None:
            return cached
        base, selection, coalesced = self._lazy_column(position, charge=charge, label=label)
        if selection is None:
            out = base
        elif charge:
            out = self.device.kernels.gather_column(base, selection, label=label, coalesced=coalesced)
        else:
            out = base[selection]
        self._cache[position] = out
        return out

    def _lazy_column(
        self, position: int, *, charge: bool, label: str
    ) -> tuple[Array, "Array | None", bool | None]:
        """``(base, resolved selection, coalescing flag)`` of one unread
        column; the selection is ``None`` when the base is the column."""
        base = self._bases[position]
        source = self._sources[position]
        selection = self._resolve_selection(source, charge=charge, label=label)
        coalesced = None
        if selection is not None and charge:
            coalesced = self._monotone.get(source)
            if coalesced is None:
                coalesced = self.device.backend.is_monotone(selection)
                self._monotone[source] = coalesced
        return base, selection, coalesced

    def columns(self, *, charge: bool = True, label: str = "gather_column") -> list[Array]:
        return [self.column(position, charge=charge, label=label) for position in range(self.arity)]

    def packed(self, *, label: str = "gather_column") -> "PackedColumns | None":
        """Every column as one packed sort-key column, built from the lazy
        sources (:meth:`DeviceKernels.gather_packed`): the gathered columns
        are never written.  Charged as :meth:`columns` — the selection
        compositions, then one gather per lazy column with the same
        coalescing flag.  ``None`` when the ranges do not fit one key: the
        compositions are charged then, and :meth:`columns` charges the rest.
        """
        sources = []
        for position in range(self.arity):
            cached = self._cache.get(position)
            if cached is not None:
                sources.append((cached, None, None))
            else:
                sources.append(self._lazy_column(position, charge=True, label=label))
        return self.device.kernels.gather_packed(sources, label=label)

    def to_host(self, *, charge: bool = True, label: str = "d2h_transfer"):
        """The one way out: the batch as a host ``(n, arity)`` row array.

        The columns are stacked into the row block the DMA reads (part of the
        transfer, like the upload's column views) and cross PCIe through the
        charged ``to_host`` kernel; ``charge=False`` is for callers that
        account the download themselves and for test introspection.
        """
        block = self.device.backend.column_stack(self.columns(label=label))
        if charge:
            return self.device.kernels.to_host(block, label=label)
        return self.device.backend.to_host(block)

    def as_rows(self, *, charge: bool = True, label: str = "materialize_rows") -> Array:
        """Materialise the batch as a device-resident ``(n, arity)`` row block."""
        backend = self.device.backend
        out = backend.empty((self._length, self.arity), dtype=TUPLE_DTYPE)
        for position in range(self.arity):
            out[:, position] = self.column(position, charge=charge, label=label)
        if charge and self.arity:
            self.device.kernels.transform(
                self._length,
                bytes_per_item=float(self.arity) * TUPLE_ITEMSIZE,
                ops_per_item=float(self.arity),
                label=label,
            )
        return out

    # ------------------------------------------------------------------
    # Lazy routing operators (metadata only — nothing is copied or charged)
    # ------------------------------------------------------------------
    def project(self, positions: Sequence[int], *, names: tuple[str, ...] | None = None) -> "ColumnBatch":
        """Reorder / repeat / drop columns — pure metadata, no copies."""
        positions = [int(position) for position in positions]
        for position in positions:
            if position < 0 or position >= self.arity:
                raise SchemaError(f"projection column {position} out of range for arity {self.arity}")
        batch = ColumnBatch(
            self.device,
            length=self._length,
            bases=[self._bases[position] for position in positions],
            sources=[self._sources[position] for position in positions],
            selections=self._selections,
            names=names,
        )
        batch._monotone = self._monotone  # same sources, same selection chains
        for new_position, position in enumerate(positions):
            if position in self._cache:
                batch._cache[new_position] = self._cache[position]
        return batch

    def assemble(
        self,
        entries: Sequence[tuple[str, int]],
        *,
        label: str = "assemble",
        charge: bool = True,
        names: tuple[str, ...] | None = None,
    ) -> "ColumnBatch":
        """Build a new batch from ``("column", position)`` / ``("constant", value)``
        entries — the head-projection primitive.  Routed columns stay lazy;
        only constant columns are written (and charged) here.
        """
        backend = self.device.backend
        bases: list[Array] = []
        sources: list[int] = []
        selections = list(self._selections)
        identity_slot: int | None = None
        cache_entries: dict[int, Array] = {}
        constant_columns = 0
        for new_position, (kind, value) in enumerate(entries):
            if kind == "column":
                position = int(value)
                if position < 0 or position >= self.arity:
                    raise SchemaError(f"assemble column {position} out of range for arity {self.arity}")
                bases.append(self._bases[position])
                sources.append(self._sources[position])
                if position in self._cache:
                    cache_entries[new_position] = self._cache[position]
            else:
                if identity_slot is None:
                    identity_slot = len(selections)
                    selections.append(None)
                bases.append(backend.full(self._length, int(value), dtype=TUPLE_DTYPE))
                sources.append(identity_slot)
                constant_columns += 1
        if charge and constant_columns and self._length:
            self.device.kernels.transform(
                self._length,
                bytes_per_item=float(constant_columns) * TUPLE_ITEMSIZE,
                ops_per_item=float(constant_columns),
                label=label,
            )
        batch = ColumnBatch(
            self.device, length=self._length, bases=bases, sources=sources, selections=selections, names=names
        )
        batch._cache.update(cache_entries)
        batch._monotone.update(self._monotone)
        return batch

    def append_lazy(self, specs: Sequence[tuple[Array, Array]]) -> "ColumnBatch":
        """Append lazy ``(base, selection)`` columns — the join-output wiring.

        Specs sharing the *same* selection array object share one source, so
        later routing composes that selection only once.  Pure metadata: no
        values move until the columns are read.
        """
        backend = self.device.backend
        bases = list(self._bases)
        sources = list(self._sources)
        selections = list(self._selections)
        slot_of: dict[int, int] = {}
        for base, selection in specs:
            selection = backend.asarray(selection, dtype=INDEX_DTYPE)
            if selection.shape[0] != self._length:
                raise SchemaError("appended selection length must equal the batch length")
            slot = slot_of.get(id(selection))
            if slot is None:
                slot = len(selections)
                selections.append([selection])
                slot_of[id(selection)] = slot
            bases.append(backend.asarray(base, dtype=TUPLE_DTYPE).reshape(-1))
            sources.append(slot)
        batch = ColumnBatch(
            self.device, length=self._length, bases=bases, sources=sources, selections=selections
        )
        batch._cache.update(self._cache)
        batch._monotone.update(self._monotone)
        return batch

    def take(self, indices: Array, *, label: str = "take", monotone: bool = False) -> "ColumnBatch":
        """Select rows by index — appends to each source's selection chain.

        No composition happens here; chains resolve lazily at first column
        access, so sources whose columns are never read are never composed.
        Columns already materialized are re-based onto their cached values,
        reusing the earlier gather instead of repeating it.

        ``monotone`` certifies that ``indices`` is non-decreasing *by
        construction* (match expansion's probe-major indices, a compaction's
        surviving positions).  A source whose selection then is ``indices``
        alone, or ``indices`` applied to a selection already known monotone
        (non-decreasing maps compose), gets its coalescing flag here instead
        of from an O(n) ``is_monotone`` pass at first gather.
        """
        indices = self.device.backend.asarray(indices, dtype=INDEX_DTYPE).reshape(-1)
        bases = list(self._bases)
        sources = list(self._sources)
        IDENTITY = -1
        for position, cached in self._cache.items():
            bases[position] = cached
            sources[position] = IDENTITY
        selections: list[list[Array] | None] = []
        known_monotone: dict[int, bool] = {}
        slot_of: dict[int, int] = {}
        for position in range(len(bases)):
            source = sources[position]
            if source == IDENTITY:
                continue
            slot = slot_of.get(source)
            if slot is None:
                chain = self._selections[source]
                slot = len(selections)
                selections.append([indices] if chain is None else list(chain) + [indices])
                slot_of[source] = slot
                if monotone and (chain is None or self._monotone.get(source)):
                    known_monotone[slot] = True
            sources[position] = slot
        if IDENTITY in sources or not selections:
            identity_slot = len(selections)
            selections.append([indices])
            sources = [identity_slot if source == IDENTITY else source for source in sources]
            if monotone:
                known_monotone[identity_slot] = True
        batch = ColumnBatch(
            self.device,
            length=int(indices.shape[0]),
            bases=bases,
            sources=sources,
            selections=selections,
            names=self.names,
        )
        batch._monotone = known_monotone
        return batch

    def filter(self, mask: Array, *, charge: bool = True, label: str = "filter") -> "ColumnBatch":
        """Keep rows where ``mask`` is true (scan + lazy selection append)."""
        backend = self.device.backend
        mask = backend.asarray(mask, dtype=backend.bool_)
        if mask.shape[0] != self._length:
            raise SchemaError("mask length must equal the batch length")
        indices = backend.nonzero_indices(mask)
        if charge:
            self.device.kernels.transform(
                self._length, bytes_per_item=1.0, ops_per_item=1.0, label=f"{label}.scan"
            )
        return self.take(indices, label=label, monotone=True)
