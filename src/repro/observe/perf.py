"""``repro perf``: the simulated PMU's perf(1)-style front-end.

Runs one (kernel, variant, device) cell through the simulator with the
PMU attached and reduces it to a :class:`PerfCell` — a picklable bundle
of flat counters, per-level 3C splits with conflict-set histograms and
per-reference attribution.  On top of that sit the three views the CLI
exposes (``stat``, ``annotate``, ``diff``), the OpenMetrics export
(:mod:`repro.observe.openmetrics`) and the committed counter baseline
(:mod:`repro.profiling.baseline`, shared with ``repro profile``).

Cells default to ``scale=1`` — real cache sizes — because miss *classes*
are the point here: scaling caches down the way the figure harness does
would turn the Fig. 2 conflict story into a capacity story.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.memsim.pmu import MISS_CLASSES
from repro.observe.annotate import program_lines
from repro.profiling.baseline import entry_key
from repro.profiling.counters import counter_set
from repro.simulate import SimulationResult

#: How many of the worst conflict sets each level keeps in its histogram.
TOP_SETS = 8

#: ``repro perf`` default cache scale: real sizes (see module docstring).
PERF_SCALE = 1

#: ``repro perf`` transpose default size: small enough that the Naive
#: column walk's reuse distance fits a fully-associative L1, so its
#: misses classify as *conflict* (the Section 4.2 story), while staying
#: fast enough to run interactively at real cache sizes.
PERF_TRANSPOSE_N = 256


@dataclass(frozen=True)
class PerfCell:
    """One fully-attributed PMU measurement, reduced to primitives."""

    kernel: str
    variant: str
    base_device: str              # catalog key the user named
    device_key: str               # simulated (scaled) device key
    scale: int
    params: Dict[str, Any]
    active_cores: int
    seconds: float
    bottleneck: str
    counters: Dict[str, int]      # flat registry counters, summed over cores
    levels: List[Dict[str, Any]] = field(default_factory=list)
    refs: List[Dict[str, Any]] = field(default_factory=list)
    ir_lines: List[Any] = field(default_factory=list)
    # Observability only (not part of the baseline counter contract):
    # which replay engine ran and how many line operations each fast-path
    # skip class absorbed (``resident``/``streaming``/``replayed``).
    engine: str = ""
    engine_skips: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def level(self, name: str) -> Dict[str, Any]:
        for lvl in self.levels:
            if lvl["name"] == name:
                return lvl
        raise KeyError(name)

    @property
    def baseline_key(self) -> str:
        return entry_key(self.kernel, self.variant, self.device_key, self.params)


def run_perf(
    kernel: str,
    variant: str,
    device_key: str,
    scale: int = PERF_SCALE,
    n: Optional[int] = None,
    block: Optional[int] = None,
    filter_size: Optional[int] = None,
    cores: Optional[int] = None,
) -> PerfCell:
    """Simulate one cell with the PMU on and reduce it to a PerfCell."""
    from repro.kernels import resolve_cell
    from repro.profiling.profile import simulate_cell

    if n is None and resolve_cell(kernel, variant, device_key)[0] == "transpose":
        n = PERF_TRANSPOSE_N
    cell = simulate_cell(
        kernel, variant, device_key, scale,
        n=n, block=block, filter_size=filter_size, cores=cores,
    )
    result = cell.result
    return PerfCell(
        kernel=cell.kernel,
        variant=cell.variant,
        base_device=cell.base_device,
        device_key=cell.device.key,
        scale=scale,
        params=dict(cell.params),
        active_cores=result.active_cores,
        seconds=result.seconds,
        bottleneck=result.timing.bottleneck,
        counters=dict(counter_set(result)),
        levels=_merge_levels(result),
        refs=_merge_refs(result),
        ir_lines=[list(pair) for pair in program_lines(cell.program)],
        engine=result.engine,
        engine_skips=dict(result.engine_skips),
    )


def perf_cell_task(task: Dict[str, Any]) -> PerfCell:
    """Module-level worker for fanning cells across a WorkPool."""
    return run_perf(**task)


# -- reduction ---------------------------------------------------------------


def _merge_levels(result: SimulationResult) -> List[Dict[str, Any]]:
    """Per-level event totals over cores.

    Hit/miss/writeback and 3C counts come from the snapshot *deltas* (so
    steady-state runs report the measured repetition, and the 3C split
    sums exactly to the reported misses); conflict-set histograms come
    from the live PMUs (whole-run attribution).
    """
    out: List[Dict[str, Any]] = []
    if not result.snapshots:
        return out
    for idx, level in enumerate(result.snapshots[0].levels):
        name = level.name
        sets: Dict[int, int] = {}
        for p in result.pmus:
            for set_idx, count in p.levels[idx].set_conflicts.items():
                sets[set_idx] = sets.get(set_idx, 0) + count
        top = sorted(sets.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP_SETS]
        out.append(
            {
                "name": name,
                "hits": sum(s.levels[idx].hits for s in result.snapshots),
                "misses": sum(s.levels[idx].misses for s in result.snapshots),
                "writebacks": sum(s.levels[idx].writebacks for s in result.snapshots),
                "compulsory": sum(
                    s.pmu.get(f"pmu.{name}.compulsory", 0) for s in result.snapshots
                ),
                "capacity": sum(
                    s.pmu.get(f"pmu.{name}.capacity", 0) for s in result.snapshots
                ),
                "conflict": sum(
                    s.pmu.get(f"pmu.{name}.conflict", 0) for s in result.snapshots
                ),
                "conflict_sets": len(sets),
                "top_sets": [[set_idx, count] for set_idx, count in top],
            }
        )
    return out


def _merge_refs(result: SimulationResult) -> List[Dict[str, Any]]:
    """Per-reference attribution over cores, joined with the ref table."""
    if not result.pmus:
        return []
    level_names = [lvl.name for lvl in result.pmus[0].levels]
    merged: Dict[int, Dict[str, Any]] = {}

    def entry(ref_id: int) -> Dict[str, Any]:
        if ref_id not in merged:
            info = result.ref_table.get(ref_id)
            merged[ref_id] = {
                "ref_id": ref_id,
                "array": info.array if info else "?",
                "is_write": bool(info.is_write) if info else False,
                "stmt_id": info.stmt_id if info else -1,
                "loop": info.loop if info else "",
                "depth": info.depth if info else 0,
                "accesses": 0,
                "bytes": 0,
                "dram_read_lines": 0,
                "dram_written_lines": 0,
                "tlb_walks": 0,
                "misses": {name: [0, 0, 0] for name in level_names},
            }
        return merged[ref_id]

    for p in result.pmus:
        for ref_id, count in p.ref_accesses.items():
            entry(ref_id)["accesses"] += count
        for ref_id, count in p.ref_bytes.items():
            entry(ref_id)["bytes"] += count
        for ref_id, count in p.ref_dram_read_lines.items():
            entry(ref_id)["dram_read_lines"] += count
        for ref_id, count in p.ref_dram_written_lines.items():
            entry(ref_id)["dram_written_lines"] += count
        for ref_id, count in p.ref_tlb_walks.items():
            entry(ref_id)["tlb_walks"] += count
        for idx, name in enumerate(level_names):
            for ref_id, triple in p.levels[idx].per_ref.items():
                slot = entry(ref_id)["misses"][name]
                for k in range(3):
                    slot[k] += triple[k]
    return [merged[ref_id] for ref_id in sorted(merged)]


# -- rendering ---------------------------------------------------------------


def _fmt(value: int) -> str:
    return f"{value:,d}"


def _params_text(cell: PerfCell) -> str:
    parts = [f"{k}={v}" for k, v in cell.params.items()]
    parts.append(f"scale={cell.scale}")
    cores = f"{cell.active_cores} core{'s' if cell.active_cores != 1 else ''}"
    parts.append(cores)
    return ", ".join(parts)


def _stat_rows(cell: PerfCell) -> List[Any]:
    """(value, name, comment) rows in perf-stat order."""
    rows: List[Any] = []
    for lvl in cell.levels:
        name = lvl["name"]
        rows.append((lvl["hits"], f"{name}.hits", ""))
        total = lvl["misses"]
        comment = ""
        if total:
            share = 100.0 * lvl["conflict"] / total
            comment = (
                f"{_fmt(lvl['compulsory'])} compulsory, "
                f"{_fmt(lvl['capacity'])} capacity, "
                f"{_fmt(lvl['conflict'])} conflict ({share:.1f}%)"
            )
        rows.append((total, f"{name}.misses", comment))
        rows.append((lvl["writebacks"], f"{name}.writebacks", ""))
        if lvl["top_sets"]:
            worst = ", ".join(
                f"set {set_idx}: {_fmt(count)}" for set_idx, count in lvl["top_sets"][:4]
            )
            rows.append(
                (
                    lvl["conflict_sets"],
                    f"{name}.conflict_sets",
                    f"worst: {worst}",
                )
            )
    counters = cell.counters
    rows.append((counters.get("tlb.walks", 0), "tlb.walks", ""))
    rows.append((counters.get("dram.read_bytes", 0), "dram.read_bytes", ""))
    rows.append((counters.get("dram.written_bytes", 0), "dram.written_bytes", ""))
    issued = counters.get("pmu.prefetch.issued", 0)
    useful = counters.get("pmu.prefetch.useful", 0)
    comment = ""
    if issued:
        comment = (
            f"{_fmt(useful)} useful ({100.0 * useful / issued:.1f}%), "
            f"{_fmt(counters.get('pmu.prefetch.polluting', 0))} polluting, "
            f"{_fmt(counters.get('pmu.prefetch.late', 0))} late"
        )
    rows.append((issued, "prefetch.lines", comment))
    if cell.engine_skips:
        skip_total = sum(cell.engine_skips.values()) or 1
        for path in ("resident", "streaming", "replayed"):
            count = cell.engine_skips.get(path, 0)
            share = 100.0 * count / skip_total
            rows.append(
                (
                    count,
                    f"engine.{path}",
                    f"{share:.1f}% of line ops ({cell.engine} engine)",
                )
            )
    return rows


def render_stat(cell: PerfCell) -> str:
    """One cell as a ``perf stat`` style table."""
    out = [
        f"Perf stat — {cell.kernel}/{cell.variant} on {cell.device_key} "
        f"({_params_text(cell)})",
        "",
    ]
    for value, name, comment in _stat_rows(cell):
        line = f"{_fmt(value):>16s}  {name:<22s}"
        if comment:
            line += f"# {comment}"
        out.append(line.rstrip())
    out.append("")
    out.append(
        f"{cell.seconds:>16.6g}  seconds (simulated)    # bottleneck: {cell.bottleneck}"
    )
    return "\n".join(out)


def render_diff(a: PerfCell, b: PerfCell) -> str:
    """Two cells side by side — the Naive-vs-Blocking conflict story."""
    from repro.experiments.report import render_table

    header = (
        f"Perf diff — {a.kernel} on {a.device_key}: "
        f"{a.variant} ({_params_text(a)}) vs {b.variant} ({_params_text(b)})"
    )
    rows: List[List[str]] = []
    names_a = {lvl["name"]: lvl for lvl in a.levels}
    names_b = {lvl["name"]: lvl for lvl in b.levels}
    for name in [lvl["name"] for lvl in a.levels]:
        la, lb = names_a[name], names_b.get(name)
        if lb is None:
            continue
        for key in ("misses",) + MISS_CLASSES + ("writebacks",):
            va, vb = la[key], lb[key]
            rows.append([f"{name}.{key}", _fmt(va), _fmt(vb), _ratio(va, vb)])
    for key in ("tlb.walks", "dram.read_bytes", "dram.written_bytes"):
        va, vb = a.counters.get(key, 0), b.counters.get(key, 0)
        rows.append([key, _fmt(va), _fmt(vb), _ratio(va, vb)])
    rows.append(
        ["seconds", f"{a.seconds:.6g}", f"{b.seconds:.6g}", _ratio(a.seconds, b.seconds)]
    )
    table = render_table(
        ["counter", a.variant, b.variant, f"{b.variant}/{a.variant}"], rows
    )
    lines = [header, "", table]
    conf_a = sum(lvl["conflict"] for lvl in a.levels)
    conf_b = sum(lvl["conflict"] for lvl in b.levels)
    miss_a = sum(lvl["misses"] for lvl in a.levels) or 1
    miss_b = sum(lvl["misses"] for lvl in b.levels) or 1
    lines.append("")
    lines.append(
        f"conflict misses: {a.variant} {_fmt(conf_a)} "
        f"({100.0 * conf_a / miss_a:.1f}% of misses) -> "
        f"{b.variant} {_fmt(conf_b)} ({100.0 * conf_b / miss_b:.1f}%)"
    )
    return "\n".join(lines)


def _ratio(a: float, b: float) -> str:
    if not a:
        return "—" if not b else "new"
    return f"{b / a:7.3f}x"


# -- lint evidence -----------------------------------------------------------


def cache_evidence(cell: PerfCell, level: str = "L1"):
    """Reduce a cell to the measured-evidence form the linter consumes."""
    from repro.analysis.lint.evidence import CacheEvidence

    lvl = cell.level(level)
    per_array: Dict[str, List[int]] = {}
    for ref in cell.refs:
        triple = ref["misses"].get(level, [0, 0, 0])
        slot = per_array.setdefault(ref["array"], [0, 0, 0])
        for k in range(3):
            slot[k] += triple[k]
    return CacheEvidence(
        device_key=cell.device_key,
        level=level,
        misses=lvl["misses"],
        compulsory=lvl["compulsory"],
        capacity=lvl["capacity"],
        conflict=lvl["conflict"],
        per_array={name: tuple(triple) for name, triple in per_array.items()},
    )
