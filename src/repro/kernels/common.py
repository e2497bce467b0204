"""Shared kernel utilities: Gaussian filter weights, input generators."""

from __future__ import annotations

import numpy as np


def gaussian_kernel_1d(size: int, sigma: float = None) -> np.ndarray:
    """Normalized 1-D Gaussian kernel (float32), as in the paper's Eq. (1)."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"filter size must be odd and positive, got {size}")
    if sigma is None:
        # OpenCV's convention for an unspecified sigma.
        sigma = 0.3 * ((size - 1) * 0.5 - 1) + 0.8
    x = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    kernel = np.exp(-(x * x) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    return kernel.astype(np.float32)


def gaussian_kernel_2d(size: int, sigma: float = None) -> np.ndarray:
    """Separable 2-D Gaussian kernel: the outer product of the 1-D kernel.

    Built as an exact outer product so the separable variants agree with
    the 2-D variant up to float rounding only.
    """
    k1 = gaussian_kernel_1d(size, sigma).astype(np.float64)
    return np.outer(k1, k1).astype(np.float32)


def random_image(height: int, width: int, channels: int = 3, seed: int = 0) -> np.ndarray:
    """A reproducible random float32 image laid out (H, W*C) row-major —
    the flat interleaved-channel layout the kernels index."""
    rng = np.random.default_rng(seed)
    return rng.random((height, width * channels)).astype(np.float32)
