"""Pluggable array backends for the execution datapath.

One datapath, many array libraries: the relational substrate and the device
kernels run entirely on the :class:`ArrayBackend` contract, so the engine can
execute on host NumPy (the reference backend), CuPy (when importable), or the
contract-enforcing guard wrapper — without a single branch in the datapath.

Backend selection
-----------------

* ``Device(spec, backend=...)`` / ``GPULogEngine(backend=...)`` accept a
  backend instance or a registry name.
* The ``REPRO_BACKEND`` environment variable supplies the default for every
  device that does not name a backend explicitly (used by the CI guard job
  and the ``--backend`` flags of the experiment runner and benchmarks).
* ``guard`` wraps the reference backend; ``guard:<name>`` wraps any
  registered backend, e.g. ``guard:cupy``.

Registering a backend::

    from repro.backend import register_backend
    register_backend("mylib", MyLibBackend)   # factory: () -> ArrayBackend

The transfer-boundary rule
--------------------------

Host arrays enter the datapath only through
:meth:`~repro.backend.base.ArrayBackend.from_host` and leave it only through
:meth:`~repro.backend.base.ArrayBackend.to_host`; the device kernels charge
both as PCIe transfers.  Inside the datapath every array is backend-owned.
"""

from __future__ import annotations

import os
from itertools import chain, repeat
from typing import Callable, Iterator, Union

from ..errors import BackendError, BackendUnavailableError
from .base import (
    ARRAY_BACKEND_CONTRACT,
    EMPTY_KEY,
    INDEX_DTYPE,
    INDEX_ITEMSIZE,
    TUPLE_DTYPE,
    TUPLE_ITEMSIZE,
    Array,
    ArrayBackend,
    is_wide_keys,
)
from .guard import GuardBackend
from .numpy_backend import NumpyBackend

#: Environment variable naming the default backend for new devices.
BACKEND_ENV_VAR = "REPRO_BACKEND"

BackendLike = Union[ArrayBackend, str, None]

_REGISTRY: dict[str, Callable[[], ArrayBackend]] = {}


def register_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register a backend factory under ``name`` (later wins, like overrides)."""
    _REGISTRY[str(name)] = factory


def available_backends() -> tuple[str, ...]:
    """Names of every registered (instantiable) backend."""
    return tuple(sorted(_REGISTRY))


register_backend("numpy", NumpyBackend)

try:  # CuPy registers only when it imports (no hard dependency).
    from .cupy_backend import CUPY_AVAILABLE, CupyBackend

    if CUPY_AVAILABLE:  # pragma: no cover - requires a CUDA device
        register_backend("cupy", CupyBackend)
except ImportError:  # pragma: no cover - cupy_backend itself always imports
    CUPY_AVAILABLE = False

#: Shared reference-backend instance (module-level helpers and host-side
#: interop delegate here so there is exactly one NumPy implementation).
HOST_BACKEND = NumpyBackend()


#: Rows turned into Python tuples at a time when host rows leave as tuples.
#: A pass holds one block's column value lists instead of a list of every
#: tuple.  One pass over ``sg-tree``'s 596,778 two-column tuples (2-vCPU
#: Xeon VM, CPython 3.11, NumPy 2.4; median of seven, two sweeps) took
#: 66-68 ms at 4,096 rows a block, 65-66 ms at 16,384, 72-78 ms at 65,536
#: and 91 ms at 262,144, with a traced peak of 0.3, 1.2, 4.8 and 17 MB;
#: ``list()`` of the same tuples traces 68-77 MB.
DECODE_BLOCK_ROWS = 16_384


def _block_tuples(block, translate) -> Iterator[tuple]:
    count, arity = block.shape
    if arity == 0:
        return repeat((), count)
    columns = []
    for index in range(arity):
        column = block[:, index]
        values = column.tolist()
        columns.append(values if translate is None else translate(column, values))
    return zip(*columns)


def host_rows_to_tuples(rows, translate=None) -> Iterator[tuple]:
    """Rows of an ``(n, arity)`` host integer array as tuples of Python ints.

    The one array-to-Python-objects conversion on the host side of the
    transfer boundary.  It streams: each block of :data:`DECODE_BLOCK_ROWS`
    rows takes one ``tolist()`` per column and one ``zip``, and
    ``itertools.chain`` joins the blocks, so Python code runs once a block,
    not once a value, and a pass holds one block's values at a time.
    ``translate(column, values)`` may return a replacement for a block
    column's value list (the symbol table decodes interned identifiers
    through it); row order is preserved.
    """
    block = DECODE_BLOCK_ROWS
    return chain.from_iterable(
        _block_tuples(rows[start : start + block], translate) for start in range(0, rows.shape[0], block)
    )


def get_backend(spec: BackendLike = None) -> ArrayBackend:
    """Resolve a backend instance from a name, instance, or the environment.

    ``None`` consults :data:`BACKEND_ENV_VAR` and falls back to ``numpy``.
    ``"guard"`` wraps the reference backend; ``"guard:<name>"`` wraps any
    registered backend.
    """
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR) or "numpy"
    if not isinstance(spec, str):
        return spec
    name = spec.strip().lower()
    if name.startswith("guard"):
        inner = name.split(":", 1)[1] if ":" in name else "numpy"
        return GuardBackend(get_backend(inner))
    factory = _REGISTRY.get(name)
    if factory is None:
        raise BackendUnavailableError(
            f"unknown array backend {spec!r}; available: {', '.join(available_backends())} "
            "(plus 'guard' / 'guard:<name>')"
        )
    return factory()


__all__ = [
    "ARRAY_BACKEND_CONTRACT",
    "Array",
    "ArrayBackend",
    "BACKEND_ENV_VAR",
    "BackendError",
    "BackendUnavailableError",
    "CUPY_AVAILABLE",
    "DECODE_BLOCK_ROWS",
    "EMPTY_KEY",
    "GuardBackend",
    "HOST_BACKEND",
    "INDEX_DTYPE",
    "INDEX_ITEMSIZE",
    "NumpyBackend",
    "TUPLE_DTYPE",
    "TUPLE_ITEMSIZE",
    "available_backends",
    "get_backend",
    "host_rows_to_tuples",
    "is_wide_keys",
    "register_backend",
]
