"""The paper's benchmark kernels as IR programs.

* :mod:`repro.kernels.stream` — STREAM copy/scale/add/triad (Section 4.1);
* :mod:`repro.kernels.transpose` — five in-place transposition variants
  (Section 4.2, Listings 1-3);
* :mod:`repro.kernels.blur` — five Gaussian-blur variants (Section 4.3,
  Listings 4-5);
* :mod:`repro.kernels.scan` — a loop-carried recurrence (not a paper
  kernel; the race-checker demo for ``repro lint``);
* :mod:`repro.kernels.common` — filter weights and input generators;
* :mod:`repro.kernels.registry` — name resolution and program building
  for one (kernel, variant, device) cell, shared by every front-end.
"""

from repro.kernels import blur, common, scan, stream, transpose
from repro.kernels.registry import KERNELS, KernelError, build, resolve_cell, variants

__all__ = [
    "KERNELS",
    "KernelError",
    "blur",
    "build",
    "common",
    "resolve_cell",
    "scan",
    "stream",
    "transpose",
    "variants",
]
