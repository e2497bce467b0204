"""Calibrated measurement: warmup, auto-repeat, phase spans, fingerprint.

:func:`measure` wraps a workload callable in the discipline a defensible
wall-clock number needs: warmup iterations that never count, repeats
until the bootstrap CI of the median is narrower than a target relative
width (bounded by a repeat cap and a time budget), and MAD outlier
rejection over the collected samples.

Each repeat runs under its own freshly-installed span
:class:`~repro.profiling.tracer.Tracer`, and spans named
``bench.phase.<name>`` (emitted via :func:`phase_span` by the workloads)
are aggregated into per-phase sample vectors.  That is what lets the
gate attribute a flagged regression to *tracegen vs replay vs timing vs
cache I/O* instead of reporting a bare total.

:func:`host_fingerprint` captures everything that makes two runs
comparable — machine, Python, core count, numpy, cffi/native-engine
availability, the resolved ``REPRO_ENGINE`` — and
:func:`fingerprint_hash` reduces the identity-bearing subset to a short
stable hash stored with every run and trend point.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List

from repro.bench.stats import (
    DEFAULT_MAX_REJECT_FRAC,
    DEFAULT_OUTLIER_K,
    Summary,
    summarize,
)
from repro.profiling import tracer

#: Span-name prefix marking a bench phase (everything after it is the
#: phase name the gate attributes regressions to).
PHASE_PREFIX = "bench.phase."

DEFAULT_TARGET_REL_CI = 0.05
DEFAULT_MIN_REPEATS = 5
DEFAULT_MAX_REPEATS = 30
DEFAULT_MAX_SECONDS = 60.0


@contextmanager
def phase_span(name: str) -> Iterator[None]:
    """Mark a bench phase; nested simulator spans stay children of it."""
    with tracer.span(PHASE_PREFIX + name, cat="bench"):
        yield


@dataclass
class Measurement:
    """One workload's calibrated result."""

    summary: Summary
    phases: Dict[str, Summary] = field(default_factory=dict)
    samples: List[float] = field(default_factory=list)
    phase_samples: Dict[str, List[float]] = field(default_factory=dict)
    repeats: int = 0
    warmup: int = 0
    target_rel_ci: float = DEFAULT_TARGET_REL_CI
    converged: bool = False
    elapsed_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "summary": self.summary.as_dict(),
            "phases": {name: s.as_dict() for name, s in self.phases.items()},
            "samples": [round(s, 9) for s in self.samples],
            "repeats": self.repeats,
            "warmup": self.warmup,
            "target_rel_ci": self.target_rel_ci,
            "converged": self.converged,
            "elapsed_s": round(self.elapsed_s, 6),
        }


def _phase_totals(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Seconds per bench phase in one repeat (sibling spans sum; nested
    simulator spans under a phase are intentionally not double-counted
    because only ``bench.phase.*`` names participate)."""
    totals: Dict[str, float] = {}
    for span in spans:
        name = span.get("name", "")
        if name.startswith(PHASE_PREFIX):
            phase = name[len(PHASE_PREFIX):]
            totals[phase] = totals.get(phase, 0.0) + span.get("dur_us", 0.0) / 1e6
    return totals


def measure(
    fn: Callable[[], Any],
    warmup: int = 1,
    min_repeats: int = DEFAULT_MIN_REPEATS,
    max_repeats: int = DEFAULT_MAX_REPEATS,
    target_rel_ci: float = DEFAULT_TARGET_REL_CI,
    max_seconds: float = DEFAULT_MAX_SECONDS,
    outlier_k: float = DEFAULT_OUTLIER_K,
    max_reject_frac: float = DEFAULT_MAX_REJECT_FRAC,
    seed: int = 0,
) -> Measurement:
    """Run ``fn`` repeatedly until the median's CI is tight enough.

    Stops at the first of: relative CI half-width ≤ ``target_rel_ci``
    (with at least ``min_repeats`` samples), ``max_repeats`` samples, or
    ``max_seconds`` of wall-clock spent measuring.  ``converged`` on the
    result records whether the CI target was actually reached — a run
    that ran out of budget says so instead of looking equally tight.
    """
    if min_repeats < 1:
        raise ValueError("min_repeats must be >= 1")
    max_repeats = max(max_repeats, min_repeats)
    started = time.perf_counter()
    for _ in range(max(0, warmup)):
        fn()

    samples: List[float] = []
    phase_samples: Dict[str, List[float]] = {}
    converged = False
    while True:
        repeat_tracer = tracer.Tracer()
        with tracer.install(repeat_tracer):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        for name, seconds in _phase_totals(repeat_tracer.span_dicts()).items():
            phase_samples.setdefault(name, []).append(seconds)
        if len(samples) >= min_repeats:
            partial = summarize(
                samples, outlier_k=outlier_k,
                max_reject_frac=max_reject_frac, seed=seed,
            )
            if partial.rel_ci <= target_rel_ci:
                converged = True
                break
        if len(samples) >= max_repeats:
            break
        if time.perf_counter() - started >= max_seconds:
            break

    kwargs = dict(outlier_k=outlier_k, max_reject_frac=max_reject_frac, seed=seed)
    return Measurement(
        summary=summarize(samples, **kwargs),
        phases={
            name: summarize(values, **kwargs)
            for name, values in phase_samples.items()
            if len(values) == len(samples)
        },
        samples=samples,
        phase_samples=phase_samples,
        repeats=len(samples),
        warmup=max(0, warmup),
        target_rel_ci=target_rel_ci,
        converged=converged,
        elapsed_s=time.perf_counter() - started,
    )


# -- host fingerprint ---------------------------------------------------------

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
    try:
        import cffi  # noqa: F401
        has_cffi = True
    except Exception:
        has_cffi = False
    from repro.memsim.columnar import resolve_engine

    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cores": os.cpu_count() or 1,
        "numpy": numpy_version,
        "cffi": has_cffi,
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


def fingerprints_comparable(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """Can absolute seconds from the two hosts be compared at all?

    Dimensionless ratios (engine speedups) survive host changes;
    absolute medians do not — the gate downgrades them to "skipped"
    rather than failing a laptop run against a CI-host baseline.
    """
    return all(a.get(key) == b.get(key) for key in IDENTITY_KEYS)
