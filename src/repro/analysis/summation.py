"""Closed-form summation of polynomial per-iteration quantities.

Counting operations in a triangular loop nest (the transposition kernels
iterate ``j in [i+1, N)``) naively costs one Python iteration per loop
trip.  Because every bound in the IR is affine, per-iteration counts are
polynomials in the loop variable, so the sum over the loop has a closed
form.  We recover it numerically with Newton forward differences:

    sum_{t=0}^{T-1} p(t) = sum_k  d_k * C(T, k+1)

where ``d_k`` are the forward differences of ``p`` at 0.  The fit is
validated against extra sample points; if the quantity is *not* polynomial
(it never is for valid IR, but a buggy caller might), we fall back to brute
force so the result is always exact.
"""

from __future__ import annotations

from math import comb
from typing import Callable

MAX_DEGREE = 4


def newton_sum(samples, trips: int) -> int:
    """Sum of the degree-(len(samples)-1) polynomial through ``samples``
    evaluated at t = 0 .. trips-1.

    ``samples`` are the polynomial's values at t = 0, 1, 2, ...
    """
    diffs = list(samples)
    total = 0
    for order in range(len(samples)):
        total += diffs[0] * comb(trips, order + 1)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if not diffs:
            break
    return total


def sum_over_range(fn: Callable[[int], int], lo: int, hi: int, step: int = 1) -> int:
    """Exact ``sum(fn(v) for v in range(lo, hi, step))``, in O(degree) calls
    to ``fn`` when ``fn`` is polynomial of degree <= MAX_DEGREE.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if hi <= lo:
        return 0
    trips = (hi - lo + step - 1) // step
    probe = min(trips, MAX_DEGREE + 2)
    samples = [fn(lo + t * step) for t in range(probe)]
    if trips <= MAX_DEGREE + 2:
        return sum(samples)
    # Fit on the first MAX_DEGREE+1 samples; the extra sample and the very
    # last iteration validate the polynomial hypothesis.
    fit = samples[: MAX_DEGREE + 1]
    diffs = _forward_diffs(fit)
    last_t = trips - 1
    if _eval_diffs(diffs, MAX_DEGREE + 1) != samples[MAX_DEGREE + 1]:
        return sum(fn(lo + t * step) for t in range(trips))
    if _eval_diffs(diffs, last_t) != fn(lo + last_t * step):
        return sum(fn(lo + t * step) for t in range(trips))
    total = diffs[0] * trips
    c = trips
    for k in range(1, len(diffs)):
        c = c * (trips - k) // (k + 1)
        total = total + diffs[k] * c
    return total


def _forward_diffs(samples) -> list:
    """Leading forward differences ``[p(0), Δp(0), Δ²p(0), ...]``."""
    out = []
    row = list(samples)
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out


def _eval_diffs(diffs, t: int):
    """Evaluate the Newton polynomial from precomputed differences at
    integer ``t`` (``comb(t, k)`` built by the integer recurrence)."""
    total = diffs[0]
    c = 1
    for k in range(1, len(diffs)):
        c = c * (t - k + 1) // k
        total = total + diffs[k] * c
    return total


def _newton_eval(samples, t: int) -> int:
    """Evaluate the Newton forward-difference polynomial at integer ``t``."""
    diffs = list(samples)
    value = 0
    for order in range(len(samples)):
        value += diffs[0] * comb(t, order)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        if not diffs:
            break
    return value
