"""Robust statistics and host identity for the committed benchmark files.

``benchmarks/bench_simulator.py`` writes ``BENCH_simulator.json``:
repeated wall-clock measurements reduced to medians with bootstrap
confidence intervals, stamped with the measuring host and commit.  This
module is that reduction; the repository's wall-clock regression
benchmark is ``perfbench/``.

Wall-clock samples on shared hosts are contaminated: scheduler
preemption, page-cache state and turbo transitions produce a
right-skewed distribution with occasional extreme stragglers.  Means
and standard deviations are the wrong tools for that shape, so samples
are reduced with

* the **median** as the location estimate,
* **MAD** (median absolute deviation, scaled to be consistent with the
  standard deviation under normality) as the dispersion estimate,
* **MAD outlier rejection** with a hard cap on the rejected fraction —
  a straggler is discarded, a genuinely bimodal run is not silently
  halved,
* a **percentile bootstrap confidence interval of the median**, seeded
  so the same samples always produce the same interval.

:func:`host_fingerprint` captures everything that makes two runs'
seconds comparable — machine, Python, core count, numpy, native
engine availability, the resolved ``REPRO_ENGINE`` — and
:func:`fingerprint_hash` reduces the identity-bearing subset to a short
stable hash stored with every result file.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import subprocess
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
    otherwise exclude it.
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


# -- host fingerprint and commit ----------------------------------------------

#: Fingerprint keys that bear on comparability of absolute seconds.
#: Everything else in the fingerprint is context for humans.
IDENTITY_KEYS = (
    "machine", "system", "python", "cores", "engine", "native", "numpy",
)


def host_fingerprint() -> Dict[str, Any]:
    """Everything that decides whether two runs' seconds are comparable."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a baked-in dependency
        numpy_version = ""
    try:
        from repro.memsim.native import native_available
        native = bool(native_available())
    except Exception:
        native = False
    from repro.memsim.columnar import resolve_engine

    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cores": os.cpu_count() or 1,
        "numpy": numpy_version,
        "native": native,
        "engine": resolve_engine(None),
        "env": {
            name: os.environ[name]
            for name in ("REPRO_ENGINE", "REPRO_PMU", "REPRO_JOBS")
            if name in os.environ
        },
    }


def fingerprint_hash(fingerprint: "Dict[str, Any] | None" = None) -> str:
    """Short stable hash of the identity-bearing fingerprint subset
    (defaults to this host's fingerprint)."""
    if fingerprint is None:
        fingerprint = host_fingerprint()
    identity = {key: fingerprint.get(key) for key in IDENTITY_KEYS}
    blob = json.dumps(identity, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def current_commit() -> str:
    """Short ``git rev-parse`` of this checkout (with a ``+`` suffix when
    the tree is dirty), else ``"unknown"`` — a missing git must not fail
    a benchmark run."""
    cwd = os.path.dirname(os.path.abspath(__file__))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10.0,
        )
        if commit.returncode != 0:
            return "unknown"
        rev = commit.stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd, capture_output=True, text=True, timeout=10.0,
        )
        if status.returncode == 0 and status.stdout.strip():
            rev += "+"
        return rev or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"
