"""Counter baselines: committed counter sets, checked exactly.

``repro profile --save-baseline`` and ``repro perf --save-baseline``
record a cell's counters (and seconds) under a stable key in one JSON
file, ``benchmarks/counter_baseline.json``; ``--check`` on either
command re-runs the same cell and fails loudly when anything drifts.
The key names the cell and its parameters, so a cell saved by one
command checks clean under the other.  Committed to the repository and
wired into CI, this turns *simulator* regressions — a cache model
suddenly missing more, a transform emitting extra traffic — into
visible diffs instead of silent slow drift.

The simulator is deterministic: counters are integers compared exactly,
and ``seconds`` (a float through the contention bisection) is compared
at the fixed relative tolerance :data:`SECONDS_RTOL`.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

BASELINE_SCHEMA = 1

#: The committed baseline (repo root / benchmarks).
DEFAULT_BASELINE_PATH = os.path.abspath(
    os.path.join(
        os.path.dirname(__file__), "..", "..", "..", "benchmarks", "counter_baseline.json"
    )
)

#: Relative tolerance for the wall-clock seconds comparison.
SECONDS_RTOL = 1e-6


def entry_key(kernel: str, variant: str, device_key: str, params: Dict[str, Any]) -> str:
    """Stable identity of one profiled/perf'd configuration."""
    joined = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{kernel}/{variant}/{device_key}?{joined}"


def load_baselines(path: str) -> Dict[str, Any]:
    """Parse a baseline file; missing file means no baselines yet."""
    if not os.path.exists(path):
        return {"schema": BASELINE_SCHEMA, "entries": {}}
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"baseline file {path} has schema {data.get('schema') if isinstance(data, dict) else '?'}"
            f" (want {BASELINE_SCHEMA}); regenerate it with --save-baseline"
        )
    data.setdefault("entries", {})
    return data


def save_entry(
    path: str,
    key: str,
    counters: Dict[str, int],
    seconds: float,
    active_cores: int,
) -> str:
    """Merge one configuration's counters into the baseline file; returns
    the entry key.  Existing entries for other configurations are kept."""
    data = load_baselines(path)
    data["entries"][key] = {
        "counters": dict(counters),
        "seconds": seconds,
        "active_cores": active_cores,
    }
    directory = os.path.dirname(os.path.abspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return key


def check_entry(
    path: str,
    key: str,
    counters: Dict[str, int],
    seconds: float,
) -> List[str]:
    """Compare one configuration against its baseline entry.

    Returns human-readable violation lines (empty list = clean).  A
    missing entry is itself a violation: the check must never silently
    pass because nobody saved a baseline.
    """
    try:
        data = load_baselines(path)
    except (OSError, ValueError) as exc:
        return [f"baseline file unusable: {exc}"]
    entry = data["entries"].get(key)
    if entry is None:
        return [
            f"no baseline entry for {key!r} in {path} "
            "(run with --save-baseline first)"
        ]
    violations: List[str] = []
    base_counters: Dict[str, Any] = entry.get("counters", {})
    for name, expected in base_counters.items():
        actual = counters.get(name)
        if actual is None:
            violations.append(f"counter {name} missing from run (baseline {expected})")
        elif actual != expected:
            violations.append(
                f"counter {name}: baseline {expected}, run {actual} "
                f"({_drift(expected, actual)})"
            )
    for name in counters:
        if name not in base_counters:
            violations.append(
                f"counter {name} not in baseline (run {counters[name]}); "
                "re-save the baseline to adopt new counters"
            )
    expected_seconds = entry.get("seconds")
    if expected_seconds is not None and not _within(expected_seconds, seconds):
        violations.append(
            f"seconds: baseline {expected_seconds!r}, run {seconds!r} "
            f"({_drift(expected_seconds, seconds)})"
        )
    return violations


def _within(expected: float, actual: float) -> bool:
    if expected == actual:
        return True
    denom = max(abs(expected), abs(actual))
    return denom > 0 and abs(expected - actual) / denom <= SECONDS_RTOL


def _drift(expected: float, actual: float) -> str:
    if expected == 0:
        return "was zero"
    return f"{100.0 * (actual - expected) / expected:+.2f}%"
