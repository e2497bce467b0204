"""Compiler passes over the loop-nest IR.

Each optimization the paper applies to its kernels is a pass here:

=====================  =====================================================
Paper variant          Recipe
=====================  =====================================================
"Parallel"             ``Parallelize(outer)``
"Blocking"             ``TileTriangular2D(i, j, B)`` + ``Parallelize``
"Dynamic"              same + ``Parallelize(..., schedule='dynamic')``
"Unit-stride" (blur)   ``Interchange`` moving the channel loop inward
compiler vectorization ``AutoVectorize`` / ``Vectorize``
=====================  =====================================================

("Manual_blocking" and the separable-filter rewrite change the algorithm,
not just the loop structure, so they are separate kernels in
:mod:`repro.kernels`, exactly as they are separate codes in the paper.)
"""

from repro.transforms.base import Pass, PassManager, apply_passes
from repro.transforms.interchange import Interchange
from repro.transforms.parallelize import Parallelize, Serialize
from repro.transforms.tiling import StripMine, TileTriangular2D
from repro.transforms.unroll import Unroll
from repro.transforms.vectorize import AutoVectorize, Vectorize, for_device, vectorizable

__all__ = [
    "AutoVectorize",
    "Interchange",
    "Parallelize",
    "Pass",
    "PassManager",
    "Serialize",
    "StripMine",
    "TileTriangular2D",
    "Unroll",
    "Vectorize",
    "apply_passes",
    "for_device",
    "vectorizable",
]
