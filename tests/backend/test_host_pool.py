"""The numpy backend's process-wide host memory pool (glibc ``mallopt``)."""

from __future__ import annotations

import ctypes
import sys

import numpy as np
import pytest

import repro.backend.numpy_backend  # noqa: F401  (importing it configures the allocator)


def _program_break() -> int:
    libc = ctypes.CDLL(None)
    libc.sbrk.restype = ctypes.c_void_p
    libc.sbrk.argtypes = [ctypes.c_ssize_t]
    libc.gnu_get_libc_version  # AttributeError on a C library that is not glibc
    return libc.sbrk(0)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc malloc only")
def test_large_arrays_come_from_the_reused_heap_not_fresh_mappings():
    try:
        _program_break()
    except (OSError, AttributeError):
        pytest.skip("no glibc")
    # 64 MiB is above glibc's largest mmap threshold (32 MiB): by default it
    # would be its own mapping, far above the program break, unmapped on free.
    array = np.ones(8 << 20, dtype=np.int64)
    assert array.ctypes.data < _program_break()
