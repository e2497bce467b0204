"""The kernel registry: name resolution and program building for one cell.

A *cell* is one (kernel, variant, device) triple.  Every front-end that
runs a single cell — ``repro profile``, ``repro perf``, ``repro
analyze``, ``repro lint`` and the serve tier — resolves user-typed names
with :func:`resolve_cell` and builds the program with :func:`build`, so
they accept the same spellings and build the same program for the same
cell.

Names resolve case-insensitively, and any unambiguous prefix is
accepted (``--device visionfive`` is ``visionfive_jh7100``).

The table holds kernel *modules* and :func:`build` looks up
``module.build`` at call time, so a patched builder is honoured.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.devices.catalog import DEVICE_KEYS
from repro.devices.spec import DeviceSpec
from repro.errors import ReproError
from repro.ir.program import Program
from repro.kernels import blur, scan, stream, transpose

#: kernel name -> (builder module, name of the module's variant list).
_TABLE = {
    "transpose": (transpose, "VARIANT_ORDER"),
    "blur": (blur, "VARIANT_ORDER"),
    "stream": (stream, "TESTS"),
    "scan": (scan, "VARIANT_ORDER"),
}

KERNELS = tuple(_TABLE)


class KernelError(ReproError):
    """Unknown or ambiguous kernel, variant or device name."""


def _lookup(name: str, options: Iterable[Any], what: str) -> str:
    """Case-insensitive lookup, accepting any unambiguous prefix; an
    exact match always wins over being a prefix of something longer."""
    options = [str(opt) for opt in options]
    by_lower = {opt.lower(): opt for opt in options}
    lowered = name.lower()
    if lowered in by_lower:
        return by_lower[lowered]
    prefixed = [full for low, full in by_lower.items() if low.startswith(lowered)]
    if len(prefixed) == 1:
        return prefixed[0]
    if len(prefixed) > 1:
        raise KernelError(
            f"ambiguous {what} {name!r}; matches: {', '.join(sorted(prefixed))}"
        )
    raise KernelError(f"unknown {what} {name!r}; known: {', '.join(options)}")


def variants(kernel: str) -> List[str]:
    """The variant labels of a (canonical) kernel name, in figure order."""
    module, attr = _TABLE[kernel]
    return list(getattr(module, attr))


def resolve_cell(kernel: str, variant: str, device: str) -> Tuple[str, str, str]:
    """Canonical ``(kernel, variant, device_key)`` for user-typed names."""
    kernel = _lookup(kernel, KERNELS, "kernel")
    variant = _lookup(variant, variants(kernel), f"{kernel} variant")
    return kernel, variant, _lookup(device, DEVICE_KEYS, "device")


def build(
    kernel: str,
    variant: str,
    device: DeviceSpec,
    n: Optional[int] = None,
    block: Optional[int] = None,
    filter_size: Optional[int] = None,
) -> Tuple[Program, Dict[str, Any], Dict[str, Any]]:
    """Build one cell's program plus its (params, simulate kwargs).

    Sizes default to the figure harness's simulated sizes; ``stream``
    sizes its arrays to the device's DRAM footprint.
    """
    from repro.experiments.config import (
        BLUR_FILTER,
        BLUR_SIM_WH,
        STREAM_REPETITIONS,
        TRANSPOSE_BLOCK,
        TRANSPOSE_SIZES,
    )

    kernel = _lookup(kernel, KERNELS, "kernel")
    variant = _lookup(variant, variants(kernel), f"{kernel} variant")
    module = _TABLE[kernel][0]
    if kernel == "transpose":
        size = n if n is not None else TRANSPOSE_SIZES[0][1]
        blk = block if block is not None else TRANSPOSE_BLOCK
        program = module.build(variant, size, block=blk)
        return program, {"n": size, "block": blk}, {"check_capacity": False}
    if kernel == "blur":
        width, height = BLUR_SIM_WH
        size = n if n is not None else width
        h = height * size // width  # keep the figure aspect ratio
        f = filter_size if filter_size is not None else BLUR_FILTER
        program = module.build(variant, h, size, f)
        return program, {"w": size, "h": h, "filter": f}, {"check_capacity": False}
    if kernel == "scan":
        size = n if n is not None else module.DEFAULT_N
        program = module.build(variant, size)
        return program, {"n": size}, {"check_capacity": False}
    from repro.metrics.bandwidth import level_footprint_bytes

    if n is not None:
        elements = n
    else:
        elements = module.array_elements_for_footprint(
            variant, level_footprint_bytes(device, "DRAM")
        )
    program = module.build(variant, elements, parallel=device.cores > 1)
    params = {"elements": elements, "repetitions": STREAM_REPETITIONS}
    kwargs = {
        "repetitions": STREAM_REPETITIONS,
        "steady_state": True,
        "check_capacity": False,
    }
    return program, params, kwargs
