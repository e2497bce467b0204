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
    """Skip the calling test when no C compiler is on ``PATH``; fail it,
    naming :func:`native_status`, when a compiler is there but the native
    replay core does not load (a compile error or a failed self-test)."""
    import shutil

    from repro.memsim.native import native_available, native_status

    if native_available():
        return
    if shutil.which("cc") or shutil.which("gcc"):
        pytest.fail(f"native engine {native_status()} although a C compiler is on PATH")
    pytest.skip(f"native engine {native_status()}")


def fresh_modules(code: str, prefixes) -> list:
    """Run ``code`` in a fresh interpreter with this checkout's ``repro``
    on the path; return the sorted imported modules under ``prefixes``."""
    import json
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    probe = (
        f"{code}\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({tuple(prefixes)!r}))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


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
