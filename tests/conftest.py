"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices import get_device
from repro.ir import DType, LoopBuilder


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=["xeon_4310t", "raspberry_pi_4", "mango_pi_d1", "visionfive_jh7100"])
def device_key(request):
    return request.param


@pytest.fixture
def device(device_key):
    return get_device(device_key)


def require_native():
    """Skip the calling test when the native replay core is unavailable."""
    from repro.memsim.native import native_available, native_status

    if not native_available():
        pytest.skip(f"native engine {native_status()}")


def stream_segments(generator, core: int = 0):
    """Every segment of one core's stream, flattened out of its batches."""
    return [seg for batch in generator.core_stream(core) for seg in batch.segments()]


def triad_program(n: int, parallel: bool = False):
    """A tiny STREAM-triad-shaped program, built inline so IR tests do not
    depend on the kernels package."""
    b = LoopBuilder(f"triad_{n}")
    a = b.array("a", DType.F64, (n,))
    x = b.array("b", DType.F64, (n,))
    y = b.array("c", DType.F64, (n,))
    with b.loop("i", 0, n, parallel=parallel) as i:
        b.store(a, i, x[i] + 3.0 * y[i])
    return b.build()


def transpose_program(n: int):
    b = LoopBuilder(f"transpose_{n}")
    mat = b.array("mat", DType.F64, (n, n))
    with b.loop("i", 0, n) as i:
        with b.loop("j", i + 1, n) as j:
            t = b.local("t", mat[i, j])
            b.store(mat, (i, j), mat[j, i])
            b.store(mat, (j, i), t)
    return b.build()
