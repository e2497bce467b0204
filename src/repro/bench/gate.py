"""Baseline comparison and the phase-attributed regression gate.

``compare_runs`` pairs every workload of two run documents and renders a
noise-aware verdict per workload; for significant deltas the verdict
carries a **phase attribution** string built from the stored per-phase
medians — ``"tracegen +1210.3%, replay -0.8%, timing +1.2%"`` — naming
the pipeline stage that actually moved instead of reporting a bare
total.

``gate_runs`` turns the verdicts into a CI decision:

* absolute-seconds regressions fail the gate only when both documents
  carry the same host fingerprint hash (a laptop run against a CI-host
  baseline is *skipped*, not failed);
* dimensionless ratio floors (``ratio_gates`` in the baseline document,
  e.g. ``{"engine_speedup": {"min": 8.0}}``) apply regardless of host —
  the statistical replacement for the old hard-coded ≥10× fast-engine
  assert: the measured ratio's **CI low** must clear the floor, so a
  lucky point estimate cannot pass the gate;
* :func:`check_committed_speedup` applies the same CI-low discipline to
  the committed ``BENCH_simulator.json`` snapshot.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.bench.stats import Comparison, Summary, compare
from repro.bench.trend import BENCH_DIR

DEFAULT_MIN_EFFECT = 0.02

#: Default effect floor for the pass/fail *gate* (vs the informational
#: ``compare``, which stays at DEFAULT_MIN_EFFECT).  Within-run bootstrap
#: CIs capture sampling noise but not between-invocation noise on shared
#: or virtualized hosts (VM steal, governor shifts, process placement),
#: which routinely moves medians ±30-40% with no code change — and a
#: regression gate that flakes gets ignored.  The movements this gate
#: exists to catch (engine rot, a phase going quadratic) are multiples,
#: not percents; tighten with ``--min-effect`` on dedicated hardware.
DEFAULT_GATE_MIN_EFFECT = 0.5

DEFAULT_COMMITTED_BENCH = os.path.join(BENCH_DIR, "BENCH_simulator.json")

#: Default floor for the committed fast-engine speedup (the historical
#: CI contract, now enforced on the interval rather than the point).
DEFAULT_MIN_SPEEDUP = 10.0


@dataclass
class WorkloadVerdict:
    """One workload's comparison outcome."""

    workload: str
    status: str               # ok | regression | improvement | skipped | missing
    base_median: float = 0.0
    new_median: float = 0.0
    delta_pct: float = 0.0
    noise_floor_pct: float = 0.0
    phase_verdict: str = ""   # "tracegen +12.3%, replay -1.0%" for significant deltas
    primary_phase: str = ""   # largest mover (empty when phases are unknown)
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def render(self) -> str:
        if self.status == "missing":
            return f"{self.workload}: {self.detail}"
        if self.status == "skipped":
            return f"{self.workload}: skipped ({self.detail})"
        line = (
            f"{self.workload}: {self.status} "
            f"{self.delta_pct:+.1f}% "
            f"(noise floor ±{self.noise_floor_pct:.1f}%)"
        )
        if self.phase_verdict:
            line += f" — {self.phase_verdict}"
        return line


@dataclass
class GateResult:
    ok: bool
    failures: List[str] = field(default_factory=list)
    verdicts: List[WorkloadVerdict] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "failures": list(self.failures),
            "verdicts": [v.as_dict() for v in self.verdicts],
        }


def _phase_attribution(
    base_entry: Dict[str, Any], new_entry: Dict[str, Any]
) -> "tuple[str, str]":
    """(verdict string, primary phase) from stored per-phase medians.

    Phases are ordered by the absolute seconds they moved, so the
    heaviest contributor leads the string; the primary phase is the
    largest *positive* mover (the thing that actually got slower).
    """
    base_phases = base_entry.get("phases", {})
    new_phases = new_entry.get("phases", {})
    names = [name for name in base_phases if name in new_phases]
    movers = []
    for name in names:
        base_med = float(base_phases[name].get("median", 0.0))
        new_med = float(new_phases[name].get("median", 0.0))
        if base_med <= 0:
            continue
        movers.append((name, new_med - base_med, 100.0 * (new_med - base_med) / base_med))
    if not movers:
        return "", ""
    movers.sort(key=lambda item: -abs(item[1]))
    verdict = ", ".join(f"{name} {pct:+.1f}%" for name, _delta, pct in movers)
    positive = [item for item in movers if item[1] > 0]
    primary = positive[0][0] if positive else ""
    return verdict, primary


def compare_workload(
    workload: str,
    base_entry: Dict[str, Any],
    new_entry: Dict[str, Any],
    min_effect: float = DEFAULT_MIN_EFFECT,
) -> WorkloadVerdict:
    base_summary = Summary.from_dict(base_entry["summary"])
    new_summary = Summary.from_dict(new_entry["summary"])
    comparison: Comparison = compare(base_summary, new_summary, min_effect=min_effect)
    phase_verdict, primary = ("", "")
    if comparison.significant:
        phase_verdict, primary = _phase_attribution(base_entry, new_entry)
    status = {
        "regression": "regression",
        "improvement": "improvement",
        "flat": "ok",
        "incomparable": "skipped",
    }[comparison.direction]
    detail = "degenerate medians" if comparison.direction == "incomparable" else ""
    return WorkloadVerdict(
        workload=workload,
        status=status,
        base_median=base_summary.median,
        new_median=new_summary.median,
        delta_pct=comparison.delta_pct,
        noise_floor_pct=comparison.noise_floor_pct,
        phase_verdict=phase_verdict,
        primary_phase=primary,
        detail=detail,
    )


def compare_runs(
    base_doc: Dict[str, Any],
    new_doc: Dict[str, Any],
    min_effect: float = DEFAULT_MIN_EFFECT,
) -> List[WorkloadVerdict]:
    """Verdicts for every workload present in either document."""
    verdicts: List[WorkloadVerdict] = []
    base_workloads = base_doc.get("workloads", {})
    new_workloads = new_doc.get("workloads", {})
    comparable = base_doc.get("host_hash", "") == new_doc.get("host_hash", "")
    for workload in sorted(set(base_workloads) | set(new_workloads)):
        base_entry = base_workloads.get(workload)
        new_entry = new_workloads.get(workload)
        if base_entry is None:
            verdicts.append(WorkloadVerdict(
                workload=workload, status="missing",
                detail="not in baseline (new workload; re-save the baseline)",
            ))
            continue
        if new_entry is None:
            verdicts.append(WorkloadVerdict(
                workload=workload, status="missing",
                detail="in baseline but not measured by this run",
            ))
            continue
        if not comparable:
            verdicts.append(WorkloadVerdict(
                workload=workload, status="skipped",
                base_median=float(base_entry["summary"].get("median", 0.0)),
                new_median=float(new_entry["summary"].get("median", 0.0)),
                detail=(
                    f"host fingerprint differs "
                    f"({base_doc.get('host_hash', '?')} vs "
                    f"{new_doc.get('host_hash', '?')}); absolute seconds "
                    "not comparable"
                ),
            ))
            continue
        verdicts.append(
            compare_workload(workload, base_entry, new_entry, min_effect=min_effect)
        )
    return verdicts


def _ratio_gate_failures(
    base_doc: Dict[str, Any], new_doc: Dict[str, Any]
) -> List[str]:
    failures: List[str] = []
    gates = base_doc.get("ratio_gates", {})
    derived = new_doc.get("derived", {})
    for name, spec in sorted(gates.items()):
        floor = float(spec.get("min", 0.0))
        if floor <= 0:
            continue
        ratio = derived.get(name)
        if ratio is None:
            failures.append(
                f"ratio gate {name}: no measurement in this run "
                f"(floor {floor:g})"
            )
            continue
        ci_low = float(ratio.get("ci_low", 0.0))
        if ci_low < floor:
            failures.append(
                f"ratio gate {name}: CI low {ci_low:.2f} below floor "
                f"{floor:g} (value {float(ratio.get('value', 0.0)):.2f})"
            )
    return failures


def gate_runs(
    base_doc: Dict[str, Any],
    new_doc: Dict[str, Any],
    min_effect: float = DEFAULT_GATE_MIN_EFFECT,
) -> GateResult:
    """CI decision: regressions outside the noise floor (same host) and
    violated ratio floors fail; improvements and foreign hosts do not.

    The default effect floor is deliberately coarser than ``compare``'s
    (see :data:`DEFAULT_GATE_MIN_EFFECT`): the gate trades sensitivity to
    sub-50% drifts for never flaking on shared hosts."""
    verdicts = compare_runs(base_doc, new_doc, min_effect=min_effect)
    failures: List[str] = []
    for verdict in verdicts:
        if verdict.status == "regression":
            failures.append(verdict.render())
        elif verdict.status == "missing" and "not measured" in verdict.detail:
            failures.append(verdict.render())
    failures.extend(_ratio_gate_failures(base_doc, new_doc))
    return GateResult(ok=not failures, failures=failures, verdicts=verdicts)


def check_committed_speedup(
    path: str = DEFAULT_COMMITTED_BENCH,
    min_speedup: float = DEFAULT_MIN_SPEEDUP,
) -> List[str]:
    """Validate the committed simulator benchmark's engine speedup.

    The ``engine`` section must carry a ``speedup_ci`` interval, and its
    low end must clear the floor; a point estimate alone does not pass.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"committed benchmark {path} unreadable: {exc}"]
    engine = payload.get("engine")
    if not isinstance(engine, dict):
        return [f"committed benchmark {path} has no 'engine' section"]
    ci = engine.get("speedup_ci")
    if not (isinstance(ci, (list, tuple)) and len(ci) == 2):
        return [
            f"committed benchmark {path} has no engine speedup_ci interval; "
            "regenerate it with benchmarks/bench_simulator.py"
        ]
    low = float(ci[0])
    if low < min_speedup:
        return [
            f"committed engine speedup CI low {low:.2f} below the "
            f"{min_speedup:g}x floor (point {engine.get('speedup')})"
        ]
    return []


def default_ratio_gates(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Ratio floors derived from a run being saved as a baseline: half
    the measured CI low, so a clean re-run passes with margin while an
    order-of-magnitude engine regression cannot."""
    gates: Dict[str, Any] = {}
    for name, ratio in doc.get("derived", {}).items():
        ci_low = float(ratio.get("ci_low", 0.0))
        if ci_low > 2.0:
            gates[name] = {"min": round(ci_low / 2.0, 2)}
    return gates
