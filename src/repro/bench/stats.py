"""Robust statistics for wall-clock benchmarking.

Wall-clock samples on shared hosts are contaminated: scheduler
preemption, page-cache state and turbo transitions produce a
right-skewed distribution with occasional extreme stragglers.  Means
and standard deviations are the wrong tools for that shape, so the
bench harness reduces samples with

* the **median** as the location estimate,
* **MAD** (median absolute deviation, scaled to be consistent with the
  standard deviation under normality) as the dispersion estimate,
* **MAD outlier rejection** with a hard cap on the rejected fraction —
  a straggler is discarded, a genuinely bimodal run is not silently
  halved,
* a **percentile bootstrap confidence interval of the median**, seeded
  so the same samples always produce the same interval.

``compare`` is deliberately symmetric: whether a 7 % delta is signal
depends only on the two runs' noise floors, not on which run is called
the baseline.  Significance is therefore decided on the *log* ratio
(``|ln(new/old)|`` is invariant under swapping the operands) against a
floor derived from both intervals' relative half-widths.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Consistency constant: ``1.4826 * MAD`` estimates the standard
#: deviation of normally distributed data.
MAD_SCALE = 1.4826

#: Default modified-z-score threshold for outlier rejection.
DEFAULT_OUTLIER_K = 3.5

#: Outlier rejection never drops more than this fraction of the samples
#: (the cap keeps a bimodal distribution visible instead of halving it).
DEFAULT_MAX_REJECT_FRAC = 0.2

DEFAULT_CONFIDENCE = 0.95
DEFAULT_RESAMPLES = 500

def median(samples: Sequence[float]) -> float:
    """Sample median (average of the two middle order statistics)."""
    if not samples:
        raise ValueError("median of no samples")
    ordered = sorted(samples)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(samples: Sequence[float], center: Optional[float] = None) -> float:
    """Median absolute deviation around ``center`` (default: the median)."""
    if not samples:
        raise ValueError("mad of no samples")
    if center is None:
        center = median(samples)
    return median([abs(x - center) for x in samples])


def reject_outliers(
    samples: Sequence[float],
    k: float = DEFAULT_OUTLIER_K,
    max_frac: float = DEFAULT_MAX_REJECT_FRAC,
) -> Tuple[List[float], List[float]]:
    """Split samples into ``(kept, rejected)`` by modified z-score.

    A sample is an outlier when ``|x - median| > k * 1.4826 * MAD``.
    With ``MAD == 0`` (a majority of identical samples) the deviation
    scale degenerates, so the threshold falls back to a relative band
    around the median.  At most ``floor(max_frac * n)`` samples are
    rejected; when more exceed the threshold, the ones closest to the
    median are kept — a heavy tail is reported, not erased.
    """
    xs = list(samples)
    n = len(xs)
    if n < 3:
        return xs, []
    med = median(xs)
    scale = MAD_SCALE * mad(xs, med)
    if scale <= 0.0:
        # Degenerate spread: treat anything beyond a relative band (or an
        # absolute epsilon around zero medians) as an outlier.
        scale = max(abs(med) * 1e-3, 1e-12)
    flagged = [(abs(x - med) / scale, i) for i, x in enumerate(xs)]
    budget = int(max_frac * n)
    reject_idx = sorted(
        (i for score, i in flagged if score > k),
        key=lambda i: -abs(xs[i] - med),
    )[:budget]
    reject_set = set(reject_idx)
    kept = [x for i, x in enumerate(xs) if i not in reject_set]
    rejected = [xs[i] for i in sorted(reject_set)]
    return kept, rejected


def bootstrap_ci(
    samples: Sequence[float],
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile bootstrap CI of the median, deterministic under ``seed``.

    The interval is widened (never narrowed) to contain the sample
    median itself — at tiny sample counts the percentile bootstrap can
    otherwise exclude it, which would make "is the baseline inside the
    CI" checks vacuously fail.
    """
    xs = list(samples)
    if not xs:
        raise ValueError("bootstrap_ci of no samples")
    med = median(xs)
    n = len(xs)
    if n == 1:
        return med, med
    rng = random.Random(seed)
    medians = []
    for _ in range(resamples):
        resample = [xs[rng.randrange(n)] for _ in range(n)]
        medians.append(median(resample))
    medians.sort()
    alpha = (1.0 - confidence) / 2.0
    lo_idx = int(alpha * (resamples - 1))
    hi_idx = int((1.0 - alpha) * (resamples - 1))
    lo, hi = medians[lo_idx], medians[hi_idx]
    return min(lo, med), max(hi, med)


@dataclass(frozen=True)
class Summary:
    """Robust reduction of one benchmark's repeat samples."""

    n: int
    n_rejected: int
    median: float
    mad: float
    mean: float
    min: float
    max: float
    ci_low: float
    ci_high: float
    confidence: float = DEFAULT_CONFIDENCE

    @property
    def rel_ci(self) -> float:
        """Relative CI half-width — the run's own noise floor."""
        if self.median <= 0:
            return 0.0
        return (self.ci_high - self.ci_low) / 2.0 / self.median

    def as_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        data["rel_ci"] = self.rel_ci
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Summary":
        return cls(
            n=int(data["n"]),
            n_rejected=int(data.get("n_rejected", 0)),
            median=float(data["median"]),
            mad=float(data.get("mad", 0.0)),
            mean=float(data.get("mean", data["median"])),
            min=float(data.get("min", data["median"])),
            max=float(data.get("max", data["median"])),
            ci_low=float(data.get("ci_low", data["median"])),
            ci_high=float(data.get("ci_high", data["median"])),
            confidence=float(data.get("confidence", DEFAULT_CONFIDENCE)),
        )


def summarize(
    samples: Sequence[float],
    outlier_k: float = DEFAULT_OUTLIER_K,
    max_reject_frac: float = DEFAULT_MAX_REJECT_FRAC,
    confidence: float = DEFAULT_CONFIDENCE,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> Summary:
    """Outlier-rejected robust summary with a bootstrap CI of the median."""
    xs = list(samples)
    if not xs:
        raise ValueError("summarize of no samples")
    kept, rejected = reject_outliers(xs, k=outlier_k, max_frac=max_reject_frac)
    lo, hi = bootstrap_ci(kept, confidence=confidence, resamples=resamples, seed=seed)
    return Summary(
        n=len(xs),
        n_rejected=len(rejected),
        median=median(kept),
        mad=mad(kept),
        mean=sum(kept) / len(kept),
        min=min(kept),
        max=max(kept),
        ci_low=lo,
        ci_high=hi,
        confidence=confidence,
    )


@dataclass(frozen=True)
class Comparison:
    """Noise-aware verdict on ``new`` relative to ``base`` (seconds-like:
    larger is worse)."""

    ratio: float              # new.median / base.median (0.0 when degenerate)
    delta_pct: float          # 100 * (ratio - 1)
    noise_floor_pct: float    # 100 * max(sum of rel CI half-widths, min_effect)
    significant: bool
    direction: str            # "regression" | "improvement" | "flat" | "incomparable"

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


def compare(base: Summary, new: Summary, min_effect: float = 0.02) -> Comparison:
    """Is ``new`` meaningfully different from ``base``?

    The noise floor is the sum of the two runs' relative CI half-widths
    (a conservative union: either interval alone could explain that much
    drift), floored at ``min_effect`` — deltas below it are never
    significant no matter how tight the intervals.  Significance is
    evaluated on the log ratio, making the verdict exactly symmetric:
    ``compare(a, b).significant == compare(b, a).significant``.
    """
    if base.median <= 0 or new.median <= 0:
        return Comparison(
            ratio=0.0, delta_pct=0.0, noise_floor_pct=100.0 * min_effect,
            significant=False, direction="incomparable",
        )
    ratio = new.median / base.median
    floor = max(base.rel_ci + new.rel_ci, min_effect)
    significant = abs(math.log(ratio)) > math.log1p(floor)
    if not significant:
        direction = "flat"
    elif ratio > 1.0:
        direction = "regression"
    else:
        direction = "improvement"
    return Comparison(
        ratio=ratio,
        delta_pct=100.0 * (ratio - 1.0),
        noise_floor_pct=100.0 * floor,
        significant=significant,
        direction=direction,
    )
