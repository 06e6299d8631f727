"""Vectorised 64-bit hashing of join-column tuples.

Section 4.3: HISA's open-addressing hash table stores the *hash* of the join
columns as its key rather than the column values themselves, which is how the
structure supports join keys wider than the 64/128-bit atomic-CAS limit
([R3]).  We reproduce that decision: keys of any arity are folded into one
64-bit value with a splitmix64-style mixer.

A 64-bit hash can collide for distinct join keys; the probability for the
relation sizes in this reproduction is ~n^2 / 2^64.  A collision is correct
only because both sides handle it: a table build decides its CAS races by
claimant, not by hash, so two keys with one hash each get a slot, and a probe
verifies the actual column values of every hash hit and walks on past one
that belongs to another key.  A collision costs those extra probes, never a
lost or a phantom match (``tests/relational/test_incremental.py`` forces one
with a backend whose hash is the key modulo 4).

The fold itself lives on the :class:`~repro.backend.base.ArrayBackend`
contract (:meth:`~repro.backend.base.ArrayBackend.hash_columns`), so every
backend — and every layout, row or columnar — produces byte-identical hashes.
The module-level functions here are the host-side conveniences bound to the
reference backend; datapath code hashes through ``device.backend`` instead.
"""

from __future__ import annotations

from ..backend import EMPTY_KEY, HOST_BACKEND, Array

__all__ = ["EMPTY_KEY", "hash_columns", "hash_rows", "hash_scalar", "hash_single", "next_power_of_two"]


def hash_rows(rows: Array) -> Array:
    """Hash each row of an ``(n, k)`` int64 array into a uint64 value.

    Columns are folded left-to-right so that every column influences the
    result; the folding is order sensitive, matching a hash of the
    concatenated join-column bytes.
    """
    return HOST_BACKEND.hash_rows(rows)


def hash_columns(columns) -> Array:
    """Hash join keys given as per-column arrays (SoA layout)."""
    return HOST_BACKEND.hash_columns(columns)


def hash_single(values: tuple[int, ...] | list[int]) -> int:
    """Hash one join key given as a Python tuple (convenience for tests)."""
    row = HOST_BACKEND.as_rows([list(values)])
    return int(HOST_BACKEND.hash_rows(row)[0])


def hash_scalar(backend, value: int):
    """``value`` as a scalar of ``backend``'s hash dtype (uint64), for masks and shifts."""
    return backend.asarray(value, dtype=backend.uint64)[()]


def next_power_of_two(value: int) -> int:
    """Smallest power of two >= ``value`` (minimum 2)."""
    value = max(2, int(value))
    return 1 << (value - 1).bit_length()
