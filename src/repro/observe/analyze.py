"""``repro analyze``'s engine: run the symbolic cache classifier on one
(kernel, variant, device) cell and render its certificates.

Names resolve, and the cell's program is built, through the same
:mod:`repro.kernels` registry the profiler uses, at reduced default
sizes (the classifier walks every segment in Python; paper-scale blur
is a CI-budget problem, and the cache behavior it proves is
size-generic).  Each cell carries:

* the :class:`~repro.analysis.cachemodel.CacheAnalysis` — per-group,
  per-level verdict runs with proofs and predicted miss counts;
* optionally the differential-validation problem list (``--strict``
  replays every certificate through the exact simulator);
* optionally a measured :class:`~repro.observe.perf.PerfCell` for the
  predicted-vs-PMU table.  That comparison is *diagnostic, not a gate*:
  the perf simulation runs the full hierarchy with the prefetcher and
  cross-reference interference, while certificates are proved against
  isolated cold levels — the differential replay in ``validate.py`` is
  the apples-to-apples oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.cachemodel import (
    CONFLICT,
    UNKNOWN,
    VERDICTS,
    CacheAnalysis,
    Classification,
    analyze_program,
    validate_analysis,
)
from repro.experiments.config import CACHE_SCALE, scaled_device
from repro.observe.perf import PerfCell

#: ``repro analyze`` default sizes.  The relation walk is O(segments) in
#: Python, so defaults shrink the iteration space, not the cache scale:
#: at ``CACHE_SCALE`` the scaled L1s hold 32-1024 lines, and a 128x128
#: transpose / 96x80 blur still exercise every verdict the paper-size
#: runs do (streaming rows, resident windows, column-walk conflicts).
ANALYZE_TRANSPOSE_N = 128
ANALYZE_BLUR_W = 64
ANALYZE_BLUR_FILTER = 9

#: The strict gate's floor for classified (non-UNKNOWN) traffic across a
#: figure run; mirrors the lint RPR009 target.
COVERAGE_TARGET = 0.8


@dataclass
class AnalyzeCell:
    """One classified (kernel, variant, device) cell."""

    kernel: str
    variant: str
    base_device: str
    scale: int
    params: Dict[str, Any]
    analysis: CacheAnalysis
    problems: Optional[List[str]] = None   # differential replay (strict)
    measured: Optional[PerfCell] = None    # full-hierarchy PMU (diagnostic)

    @property
    def touches(self) -> int:
        return sum(
            res.touches for ga in self.analysis.groups for res in ga.levels.values()
        )

    @property
    def classified_touches(self) -> int:
        return sum(
            res.classified_touches
            for ga in self.analysis.groups
            for res in ga.levels.values()
        )


def run_analyze(
    kernel: str,
    variant: str,
    device_key: str,
    scale: int = CACHE_SCALE,
    n: Optional[int] = None,
    block: Optional[int] = None,
    filter_size: Optional[int] = None,
    validate: bool = False,
    measure: bool = False,
) -> AnalyzeCell:
    """Classify one cell; optionally replay-validate and PMU-measure it."""
    from repro.kernels import build, resolve_cell
    from repro.observe.perf import run_perf

    kernel, variant, device_key = resolve_cell(kernel, variant, device_key)
    if kernel == "transpose" and n is None:
        n = ANALYZE_TRANSPOSE_N
    if kernel == "blur":
        if n is None:
            n = ANALYZE_BLUR_W
        if filter_size is None:
            filter_size = ANALYZE_BLUR_FILTER
    device = scaled_device(device_key, scale)
    program, params, _ = build(
        kernel, variant, device, n=n, block=block, filter_size=filter_size
    )
    analysis = analyze_program(program, device)
    cell = AnalyzeCell(
        kernel=kernel,
        variant=variant,
        base_device=device_key,
        scale=scale,
        params=params,
        analysis=analysis,
    )
    if validate:
        cell.problems = validate_analysis(analysis)
    if measure:
        cell.measured = run_perf(
            kernel, variant, device_key, scale=scale,
            n=params.get("n", params.get("w")), block=block,
            filter_size=filter_size,
        )
    return cell


def aggregate_coverage(cells: List[AnalyzeCell]) -> float:
    """Touch-weighted classified fraction across a run's cells."""
    total = sum(c.touches for c in cells)
    classified = sum(c.classified_touches for c in cells)
    return classified / total if total else 1.0


def strict_failures(cells: List[AnalyzeCell]) -> List[str]:
    """What fails the ``--strict`` gate: any certificate the exact
    simulator refutes, plus a run-wide coverage shortfall."""
    failures: List[str] = []
    for cell in cells:
        for problem in cell.problems or []:
            failures.append(
                f"{cell.kernel}/{cell.variant}@{cell.base_device}: {problem}"
            )
    coverage = aggregate_coverage(cells)
    if coverage < COVERAGE_TARGET:
        failures.append(
            f"classified coverage {coverage:.1%} across the run is below "
            f"the {COVERAGE_TARGET:.0%} target"
        )
    return failures


# -- text ---------------------------------------------------------------------


def _verdict_histogram(runs: List[Classification]) -> Dict[str, int]:
    hist = {v: 0 for v in VERDICTS}
    for run in runs:
        hist[run.verdict] += 1
    return hist


def render_cell(cell: AnalyzeCell, proofs: int = 2) -> str:
    """Compiler-style report for one cell: per-level coverage and verdict
    summaries, every CONFLICT certificate, and up to ``proofs`` rendered
    proof chains per level."""
    an = cell.analysis
    head = (
        f"{cell.kernel}/{cell.variant} on {an.device} "
        f"(scale {cell.scale}, {cell.params})"
    )
    lines = [head, "=" * len(head)]
    for geom in an.geoms:
        cov = an.coverage(geom.name)
        lines.append(
            f"{geom.name}: {geom.size_bytes} B, {geom.ways}-way, "
            f"{geom.sets} sets, {geom.policy} — coverage {cov:.1%}"
        )
        level_runs: List[Tuple[Any, Classification]] = []
        for ga in an.groups:
            res = ga.levels.get(geom.name)
            if res is None:
                continue
            for run in res.runs:
                level_runs.append((ga.group, run))
        hist = _verdict_histogram([r for _, r in level_runs])
        summary = ", ".join(f"{v}:{hist[v]}" for v in VERDICTS if hist[v])
        lines.append(f"  runs: {summary or 'none'}")
        pred = {"accesses": 0, "misses": 0, "compulsory": 0, "capacity": 0,
                "conflict": 0}
        for _, run in level_runs:
            if run.verdict == UNKNOWN:
                continue
            pred["accesses"] += run.touches
            pred["misses"] += run.misses
            pred["compulsory"] += run.compulsory
            pred["capacity"] += run.capacity
            pred["conflict"] += run.conflict
        lines.append(
            f"  predicted: {pred['accesses']} accesses, {pred['misses']} misses "
            f"(3C {pred['compulsory']}/{pred['capacity']}/{pred['conflict']})"
        )
        if cell.measured is not None:
            try:
                lvl = cell.measured.level(geom.name)
            except KeyError:
                lvl = None
            if lvl is not None:
                accesses = lvl["hits"] + lvl["misses"]
                lines.append(
                    f"  measured (full hierarchy, diagnostic): {accesses} "
                    f"accesses, {lvl['misses']} misses "
                    f"(3C {lvl['compulsory']}/{lvl['capacity']}/{lvl['conflict']})"
                )
        shown = 0
        for group, run in level_runs:
            if run.verdict != CONFLICT:
                continue
            sets = sorted(run.conflict_sets)
            lines.append(
                f"  CONFLICT {run.array}[ref {run.ref_id}] "
                f"t={run.t_lo}..{run.t_hi}: {run.conflict} conflict misses "
                f"across {len(sets)} set(s) {sets[:8]}"
                + ("..." if len(sets) > 8 else "")
            )
            if shown < proofs:
                for step in run.proof.render():
                    lines.append(f"    {step}")
                shown += 1
    if cell.problems is not None:
        if cell.problems:
            lines.append("differential replay: FAILED")
            lines.extend(f"  {p}" for p in cell.problems)
        else:
            certs = len(an.certificates())
            lines.append(
                f"differential replay: {certs} certificates checked against "
                f"the exact simulator, all hold"
            )
    return "\n".join(lines)


def render_report(cells: List[AnalyzeCell], proofs: int = 2) -> str:
    parts = [render_cell(cell, proofs=proofs) for cell in cells]
    parts.append(f"overall classified coverage: {aggregate_coverage(cells):.1%}")
    return "\n\n".join(parts)


# -- machine emitters ---------------------------------------------------------


def _run_dict(run: Classification) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "verdict": run.verdict,
        "level": run.level,
        "core": run.core,
        "ref": run.ref_id,
        "array": run.array,
        "is_write": run.is_write,
        "segments": [run.t_lo, run.t_hi],
        "accesses": run.touches,
        "hits": run.hits,
        "misses": run.misses,
        "compulsory": run.compulsory,
        "capacity": run.capacity,
        "conflict": run.conflict,
        "details": run.details,
        "proof": run.proof.render(),
        "proof_verified": run.proof.verified,
    }
    if run.distance_lo is not None:
        out["distance"] = [run.distance_lo, run.distance_hi]
    if run.conflict_sets:
        out["conflict_sets"] = {str(k): v for k, v in sorted(run.conflict_sets.items())}
    return out


def cell_dict(cell: AnalyzeCell) -> Dict[str, Any]:
    an = cell.analysis
    out: Dict[str, Any] = {
        "kernel": cell.kernel,
        "variant": cell.variant,
        "device": an.device,
        "base_device": cell.base_device,
        "scale": cell.scale,
        "params": cell.params,
        "coverage": {g.name: an.coverage(g.name) for g in an.geoms},
        "overall_coverage": an.overall_coverage,
        "groups": [
            {
                "core": ga.group.core,
                "ref": ga.group.ref.ref_id,
                "array": ga.group.ref.array,
                "is_write": ga.group.ref.is_write,
                "segments": len(ga.group.segments),
                "touches": ga.group.touches,
                "levels": {
                    name: {
                        "coverage": res.coverage,
                        "predicted": res.predicted(),
                        "runs": [_run_dict(r) for r in res.runs],
                    }
                    for name, res in ga.levels.items()
                },
            }
            for ga in an.groups
        ],
    }
    if cell.problems is not None:
        out["validation_problems"] = cell.problems
    if cell.measured is not None:
        out["measured_levels"] = [
            {k: lvl[k] for k in ("name", "hits", "misses", "compulsory",
                                 "capacity", "conflict")}
            for lvl in cell.measured.levels
        ]
    return out


def render_json(cells: List[AnalyzeCell]) -> str:
    payload = {
        "tool": "repro-analyze",
        "overall_coverage": aggregate_coverage(cells),
        "cells": [cell_dict(c) for c in cells],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


_SARIF_RULES = [
    {
        "id": "CACHE-CONFLICT",
        "shortDescription": {
            "text": "proved conflict-miss run: reuse distance fits the level "
            "but the set mapping evicts the lines anyway"
        },
    },
    {
        "id": "CACHE-UNSOUND",
        "shortDescription": {
            "text": "the exact simulator refutes a certificate (soundness bug)"
        },
    },
    {
        "id": "CACHE-COVERAGE",
        "shortDescription": {
            "text": "classified traffic below the coverage target"
        },
    },
]


def _sarif_result(rule: str, level: str, message: str,
                  logical: str, properties: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "ruleId": rule,
        "level": level,
        "message": {"text": message},
        "locations": [
            {"logicalLocations": [{"fullyQualifiedName": logical}]}
        ],
        "properties": properties,
    }


def render_sarif(cells: List[AnalyzeCell]) -> str:
    """SARIF 2.1.0: one result per conflicting (reference, level) — the
    steady-state re-walk repeats the same proved thrash thousands of
    times, so runs aggregate (first run's proof attached as the sample)
    — plus one per refuted certificate and per under-target coverage."""
    results: List[Dict[str, Any]] = []
    for cell in cells:
        an = cell.analysis
        where = f"{cell.kernel}/{cell.variant}@{an.device}"
        for ga in an.groups:
            for res in ga.levels.values():
                conflicts = [r for r in res.runs if r.verdict == CONFLICT]
                if not conflicts:
                    continue
                first = conflicts[0]
                misses = sum(r.conflict for r in conflicts)
                sets: set = set()
                for r in conflicts:
                    sets.update(r.conflict_sets)
                results.append(
                    _sarif_result(
                        "CACHE-CONFLICT",
                        "warning",
                        f"{first.array}[ref {first.ref_id}] {first.level}: "
                        f"{misses} proved conflict misses over "
                        f"{len(conflicts)} runs "
                        f"(t={first.t_lo}..{conflicts[-1].t_hi}) in "
                        f"{len(sets)} set(s) {sorted(sets)[:8]}",
                        f"{where}::{first.array}",
                        {
                            "runs": len(conflicts),
                            "conflict_misses": misses,
                            "sample_proof": first.proof.render(),
                            "sample_run": _run_dict(first),
                        },
                    )
                )
        for problem in cell.problems or []:
            results.append(
                _sarif_result(
                    "CACHE-UNSOUND", "error", problem, where, {}
                )
            )
        if an.overall_coverage < COVERAGE_TARGET:
            results.append(
                _sarif_result(
                    "CACHE-COVERAGE",
                    "note",
                    f"{where}: classified coverage "
                    f"{an.overall_coverage:.1%} below "
                    f"{COVERAGE_TARGET:.0%} (non-LRU levels classify "
                    f"honest UNKNOWN)",
                    where,
                    {"coverage": an.overall_coverage},
                )
            )
    doc = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analyze",
                        "informationUri": "https://example.invalid/repro",
                        "rules": _SARIF_RULES,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
