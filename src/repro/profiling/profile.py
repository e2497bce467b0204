"""The ``repro profile`` implementation.

Profiles one (kernel, variant, device) triple: runs the full simulation
(not the cached figure pipeline — a profile must reflect *this* run),
then reports

* the flat perf-counter set (:mod:`repro.profiling.counters`),
* the time-attribution breakdown that sums to the wall-clock
  (:class:`repro.timing.model.TimeAttribution`),
* the kernel's roofline position on the device.

Kernels are the paper's suites: ``transpose`` (Fig. 2), ``blur``
(Fig. 6) and ``stream`` (Fig. 1, steady-state DRAM footprint), plus
``scan`` (the linter's loop-carried recurrence demo), resolved and built
through the :mod:`repro.kernels` registry.  Sizes default to the
figure-harness simulated sizes and can be overridden.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.devices.catalog import get_device
from repro.devices.spec import DeviceSpec
from repro.experiments.config import CACHE_SCALE
from repro.ir.program import Program
from repro.kernels import build, resolve_cell
from repro.metrics.roofline import (
    measured_roofline_point,
    measured_traffic_bytes,
    roofline_point,
)
from repro.profiling import tracer
from repro.profiling.baseline import entry_key
from repro.profiling.counters import counter_set, per_core_counter_sets
from repro.simulate import SimulationResult, simulate
from repro.transforms import for_device


@dataclass
class ProfileReport:
    """Everything ``repro profile`` prints, in serializable form."""

    kernel: str
    variant: str
    device_key: str               # the simulated (scaled) device key
    scale: int
    params: Dict[str, Any]
    active_cores: int
    seconds: float
    bottleneck: str
    counters: Dict[str, int]
    per_core_counters: List[Dict[str, int]] = field(default_factory=list)
    attribution: Dict[str, float] = field(default_factory=dict)
    per_core_attribution: List[Dict[str, float]] = field(default_factory=list)
    roofline: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kernel": self.kernel,
            "variant": self.variant,
            "device_key": self.device_key,
            "scale": self.scale,
            "params": self.params,
            "active_cores": self.active_cores,
            "seconds": self.seconds,
            "bottleneck": self.bottleneck,
            "counters": dict(self.counters),
            "per_core_counters": [dict(c) for c in self.per_core_counters],
            "attribution": dict(self.attribution),
            "per_core_attribution": [dict(a) for a in self.per_core_attribution],
            "roofline": dict(self.roofline),
        }

    @property
    def baseline_key(self) -> str:
        return entry_key(self.kernel, self.variant, self.device_key, self.params)


@dataclass(frozen=True)
class SimulatedCell:
    """One cell built, vectorized and simulated with the PMU on."""

    kernel: str
    variant: str
    base_device: str              # catalog key, resolved from the user's name
    device: DeviceSpec            # the simulated (scaled) device
    program: Program
    params: Dict[str, Any]
    result: SimulationResult


def simulate_cell(
    kernel: str,
    variant: str,
    device_key: str,
    scale: int,
    n: Optional[int] = None,
    block: Optional[int] = None,
    filter_size: Optional[int] = None,
    cores: Optional[int] = None,
) -> SimulatedCell:
    """Resolve the names, scale the device, build and vectorize the
    program, then simulate it with the PMU on: the path ``repro profile``
    and ``repro perf`` share."""
    kernel, variant, base_key = resolve_cell(kernel, variant, device_key)
    device = get_device(base_key).scaled(scale)
    with tracer.span("profile", cat="profile", kernel=kernel, variant=variant, device=base_key):
        program, params, sim_kwargs = build(
            kernel, variant, device, n=n, block=block, filter_size=filter_size
        )
        program = for_device(program, device)
        result = simulate(program, device, active_cores=cores, pmu=True, **sim_kwargs)
    return SimulatedCell(kernel, variant, base_key, device, program, params, result)


def profile_run(
    kernel: str,
    variant: str,
    device_key: str,
    scale: int = CACHE_SCALE,
    n: Optional[int] = None,
    block: Optional[int] = None,
    filter_size: Optional[int] = None,
    cores: Optional[int] = None,
) -> Tuple[ProfileReport, SimulationResult]:
    """Simulate once and assemble the full profile report."""
    cell = simulate_cell(
        kernel, variant, device_key, scale,
        n=n, block=block, filter_size=filter_size, cores=cores,
    )
    device, program, result = cell.device, cell.program, cell.result
    roofline = roofline_point(program, device, bandwidth_gbs=device.dram.bandwidth_gbs)
    measured = measured_roofline_point(
        result, device, bandwidth_gbs=device.dram.bandwidth_gbs
    )
    achieved_gflops = (
        result.total_ops.flops / result.seconds / 1e9 if result.seconds > 0 else 0.0
    )
    report = ProfileReport(
        kernel=cell.kernel,
        variant=cell.variant,
        device_key=device.key,
        scale=scale,
        params=cell.params,
        active_cores=result.active_cores,
        seconds=result.seconds,
        bottleneck=result.timing.bottleneck,
        counters=counter_set(result),
        per_core_counters=per_core_counter_sets(result),
        attribution=result.timing.attribution_summary(),
        per_core_attribution=[a.as_dict() for a in result.timing.attribution],
        roofline={
            "arithmetic_intensity": roofline.arithmetic_intensity,
            "measured_intensity": measured.arithmetic_intensity,
            "peak_gflops": roofline.peak_gflops,
            "bandwidth_gbs": roofline.bandwidth_gbs,
            "attainable_gflops": roofline.attainable_gflops,
            "measured_attainable_gflops": measured.attainable_gflops,
            "achieved_gflops": achieved_gflops,
            "achieved_dram_gbs": result.achieved_dram_gbs,
            "memory_bound": roofline.memory_bound,
            "measured_traffic_bytes": measured_traffic_bytes(result),
        },
    )
    return report, result


def render_report(report: ProfileReport, result: SimulationResult) -> str:
    """Counter table + attribution table + roofline line, for terminals,
    then the call's host seconds per ``simulate()`` stage
    (:attr:`SimulationResult.stage_s`) beside the work each stage did and
    its rate.  Host time varies run to run, so the stage tables are
    printed but never part of :meth:`ProfileReport.as_dict`."""
    from repro.experiments.report import render_table

    params = ", ".join(f"{k}={v}" for k, v in report.params.items())
    header = (
        f"Profile — {report.kernel}/{report.variant} on {report.device_key} "
        f"({params}, {report.active_cores} core{'s' if report.active_cores != 1 else ''})"
    )
    wall = f"simulated wall-clock: {report.seconds:.6g} s    bottleneck: {report.bottleneck}"

    counter_rows = [[name, value] for name, value in report.counters.items()]
    counter_table = render_table(
        ["counter", "value"], counter_rows, title="perf counters (all cores)"
    )

    total = report.seconds or 1.0
    attr_rows = [
        [name, f"{seconds:.6g}", f"{100.0 * seconds / total:5.1f}%"]
        for name, seconds in report.attribution.items()
    ]
    attr_table = render_table(
        ["component", "seconds", "share"],
        attr_rows,
        title="time attribution (average core; components sum to wall-clock)",
    )

    roof = report.roofline
    bound = "memory-bound" if roof.get("memory_bound") else "compute-bound"
    pct = (
        100.0 * roof["achieved_gflops"] / roof["attainable_gflops"]
        if roof.get("attainable_gflops")
        else 0.0
    )
    roofline_line = (
        f"roofline: AI {roof['arithmetic_intensity']:.4g} flop/B, {bound}; "
        f"attainable {roof['attainable_gflops']:.4g} GF/s, "
        f"achieved {roof['achieved_gflops']:.4g} GF/s ({pct:.0f}% of roof); "
        f"DRAM {roof['achieved_dram_gbs']:.3g}/{roof['bandwidth_gbs']:.3g} GB/s"
    )
    if "measured_intensity" in roof:
        roofline_line += (
            f"\nmeasured: AI {roof['measured_intensity']:.4g} flop/B "
            f"(per real DRAM byte moved), "
            f"attainable {roof['measured_attainable_gflops']:.4g} GF/s"
        )
    stage_s = result.stage_s
    segments = result.trace_segments
    # A line op is a probe into a level or a writeback out of one.
    line_ops = sum(probes + writebacks for probes, _misses, writebacks in result.line_ops.values())
    work = {
        "tracegen": (f"{segments} segments from {result.trace_rows} rows", segments, "segment"),
        "replay": (
            f"{line_ops} line ops; TLB {result.tlb_pages} pages, {result.tlb_walks} walks; "
            f"{result.prefetch_covered} prefetch-covered lines",
            line_ops,
            "line op",
        ),
    }
    stage_total = sum(stage_s.values()) or 1.0
    stage_rows = []
    for stage, seconds in sorted(stage_s.items(), key=lambda kv: -kv[1]):
        done, units, unit = work.get(stage, ("", 0, ""))
        rate = f"{seconds * 1e9 / units:.1f} ns/{unit}" if units else ""
        stage_rows.append(
            [stage, f"{seconds:.6f}", f"{100.0 * seconds / stage_total:5.1f}%", done, rate]
        )
    stage_table = render_table(
        ["stage", "seconds", "share", "work", "rate"],
        stage_rows,
        title="host stages (this simulate() call's host seconds, largest first)",
    )
    level_table = render_table(
        ["level", "probes in", "misses out", "writebacks out"],
        [[name, *ops] for name, ops in result.line_ops.items()],
        title="replay line ops per level (all cores)",
    )
    return "\n\n".join(
        [header, wall, counter_table, attr_table, roofline_line, stage_table, level_table]
    )
