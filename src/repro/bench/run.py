"""Workload execution: run documents, baselines, trend appends.

``run_workloads`` measures the bench workloads through the calibrated
harness and reduces the results to one JSON-able **run document**::

    {
      "schema": 1, "ts": ..., "commit": "fe709f7",
      "fingerprint": {...}, "host_hash": "ab12cd34ef56",
      "workloads": {
        "fig2_naive": {"summary": {...},
                       "phases": {"tracegen": {...}, ...}, ...},
        ...
      },
      "derived": {"engine_speedup": {"value": ..., "ci_low": ..., ...}}
    }

The same document shape is what ``--save-baseline`` commits (plus
optional ``ratio_gates``) and what the gate compares.  Every run also
appends one point per workload to the commit-keyed trend store.
"""

from __future__ import annotations

import json
import logging
import os
import time
from typing import Any, Callable, Dict, List, Optional

from repro.bench.harness import (
    DEFAULT_MAX_REPEATS,
    DEFAULT_MAX_SECONDS,
    DEFAULT_MIN_REPEATS,
    DEFAULT_TARGET_REL_CI,
    Measurement,
    fingerprint_hash,
    host_fingerprint,
    measure,
)
from repro.bench.stats import Summary
from repro.bench.trend import BENCH_DIR, DEFAULT_TREND_DIR, TrendStore, current_commit
from repro.bench.workloads import DERIVED_RATIOS, Workload, select_workloads

LOG = logging.getLogger("repro.bench.run")

BENCH_SCHEMA = 1

#: Committed baseline the gate compares against by default.
DEFAULT_BASELINE_PATH = os.path.join(BENCH_DIR, "bench_baseline.json")

#: Where ``repro bench run`` drops its latest document (under the trend
#: directory, next to the history it also appends to).
DEFAULT_RUN_PATH = os.path.join(DEFAULT_TREND_DIR, "last_run.json")


def run_workloads(
    only: Optional[List[str]] = None,
    target_rel_ci: float = DEFAULT_TARGET_REL_CI,
    min_repeats: int = DEFAULT_MIN_REPEATS,
    max_repeats: int = DEFAULT_MAX_REPEATS,
    max_seconds_per_workload: float = DEFAULT_MAX_SECONDS,
    warmup: int = 1,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Measure the bench workloads (or just ``only``); returns the run
    document."""
    workloads = select_workloads(only)
    say = progress or (lambda line: None)

    doc: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "ts": time.time(),
        "commit": current_commit(),
        "fingerprint": host_fingerprint(),
        "workloads": {},
    }
    doc["host_hash"] = fingerprint_hash(doc["fingerprint"])

    for workload in workloads:
        say(f"{workload.id}: measuring ({workload.description})")
        measurement = _measure_workload(
            workload,
            target_rel_ci=target_rel_ci,
            min_repeats=min_repeats,
            max_repeats=max_repeats,
            max_seconds=max_seconds_per_workload,
            warmup=warmup,
            seed=seed,
        )
        entry = measurement.as_dict()
        entry["description"] = workload.description
        doc["workloads"][workload.id] = entry
        summary = measurement.summary
        say(
            f"{workload.id}: median {fmt_seconds(summary.median)} "
            f"±{100.0 * summary.rel_ci:.1f}% "
            f"({measurement.repeats} repeats"
            f"{'' if measurement.converged else ', CI target not reached'})"
        )

    doc["derived"] = _derive_ratios(doc["workloads"])
    return doc


def _measure_workload(workload: Workload, **kwargs: Any) -> Measurement:
    fn = workload.build()
    try:
        return measure(fn, **kwargs)
    finally:
        close = getattr(fn, "close", None)
        if close is not None:
            try:
                close()
            except Exception as exc:  # cleanup must not eat the measurement
                LOG.warning("workload %s cleanup failed: %s", workload.id, exc)


def _derive_ratios(workloads: Dict[str, Any]) -> Dict[str, Any]:
    """Dimensionless cross-workload phase ratios with conservative CIs.

    The ratio CI divides the extreme ends of the operand CIs
    (``[num.lo/den.hi, num.hi/den.lo]``) — wider than a bootstrap of the
    paired ratio, never narrower, so a floor on ``ci_low`` is safe.
    """
    out: Dict[str, Any] = {}
    for name, (num_id, den_id, phase) in DERIVED_RATIOS.items():
        num = workloads.get(num_id, {}).get("phases", {}).get(phase)
        den = workloads.get(den_id, {}).get("phases", {}).get(phase)
        if not num or not den:
            continue
        num_s = Summary.from_dict(num)
        den_s = Summary.from_dict(den)
        if den_s.median <= 0 or den_s.ci_low <= 0 or den_s.ci_high <= 0:
            continue
        out[name] = {
            "value": num_s.median / den_s.median,
            "ci_low": num_s.ci_low / den_s.ci_high,
            "ci_high": num_s.ci_high / den_s.ci_low,
            "numerator": num_id,
            "denominator": den_id,
            "phase": phase,
        }
    return out


def fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}µs"


# -- document I/O -------------------------------------------------------------


def save_run(doc: Dict[str, Any], path: str) -> str:
    directory = os.path.dirname(os.path.abspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def load_run(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"bench document {path} has schema "
            f"{doc.get('schema') if isinstance(doc, dict) else '?'} "
            f"(want {BENCH_SCHEMA}); regenerate it with `repro bench run`"
        )
    doc.setdefault("workloads", {})
    doc.setdefault("derived", {})
    return doc


def append_trend(doc: Dict[str, Any], store: Optional[TrendStore] = None) -> int:
    """One trend point per workload (plus one per derived ratio)."""
    store = store or TrendStore()
    appended = 0
    base = {
        "ts": doc.get("ts"),
        "commit": doc.get("commit", "unknown"),
        "host": doc.get("host_hash", ""),
    }
    for workload_id, entry in sorted(doc.get("workloads", {}).items()):
        summary = entry.get("summary", {})
        store.append(
            dict(
                base,
                workload=workload_id,
                n=summary.get("n"),
                median=summary.get("median"),
                ci_low=summary.get("ci_low"),
                ci_high=summary.get("ci_high"),
                mad=summary.get("mad"),
                rel_ci=summary.get("rel_ci"),
                phases={
                    name: phase.get("median")
                    for name, phase in entry.get("phases", {}).items()
                },
            )
        )
        appended += 1
    for name, ratio in sorted(doc.get("derived", {}).items()):
        store.append(
            dict(
                base,
                workload=name,
                kind="derived-ratio",
                median=ratio.get("value"),
                ci_low=ratio.get("ci_low"),
                ci_high=ratio.get("ci_high"),
            )
        )
        appended += 1
    return appended
