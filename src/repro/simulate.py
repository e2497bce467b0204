"""End-to-end simulation: program + device -> wall-clock estimate.

This is the main entry point users call::

    from repro import simulate, kernels, devices

    program = kernels.transpose.blocking(512, block=16)
    result = simulate(program, devices.xeon_4310t().scaled(16))
    print(result.seconds, result.timing.bottleneck)

It wires the trace generator, per-core memory hierarchies and the timing
model together, with optional steady-state repetition (used by the STREAM
benchmark, which reports the best of many repetitions of a warm loop).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.analysis.opcount import OpCounts
from repro.devices.spec import DeviceSpec
from repro.errors import SimulationError
from repro.exec.trace import CoreWork, RefInfo
from repro.exec.tracegen import TraceGenerator
from repro.ir.program import Program
from repro.ir.stmt import For, walk_stmts
from repro.memsim.columnar import SKIP_PATHS, account_skips, resolve_engine
from repro.memsim.pmu import Pmu
from repro.memsim.stats import HierarchySnapshot, snapshot
from repro.profiling import tracer
from repro.timing.model import TimingResult, time_run


#: Pipeline stages :attr:`SimulationResult.stage_s` reports, in run order.
STAGES = ("build", "plan", "tracegen", "replay", "timing")


def has_parallel_loop(program: Program) -> bool:
    return any(
        isinstance(node, For) and node.parallel for node in walk_stmts(program.body)
    )


@dataclass
class SimulationResult:
    """Everything one simulated run produced."""

    program_name: str
    device_key: str
    active_cores: int
    seconds: float
    timing: TimingResult
    works: List[CoreWork] = field(default_factory=list)
    snapshots: List[HierarchySnapshot] = field(default_factory=list)
    # PMU attribution state (populated only when ``simulate(..., pmu=True)``,
    # not with ``pmu="counters"``):
    # one live Pmu per core plus the reference-id -> RefInfo join table used
    # by ``repro perf annotate`` to map counters back onto IR statements.
    pmus: List[Pmu] = field(default_factory=list)
    ref_table: Dict[int, RefInfo] = field(default_factory=dict)
    # Observability only: which replay engine actually ran (``"exact"``
    # when ``"fast"`` fell back) and how many line operations each skip
    # class absorbed.  Never part of the counter contract —
    # snapshots/records stay engine-independent.
    engine: str = ""
    engine_skips: Dict[str, int] = field(default_factory=dict)
    # Observability only, like ``engine``: host seconds per pipeline
    # stage (:data:`STAGES`) of this call.  ``build`` is hierarchy
    # construction plus PMU attach, ``plan`` the trace generator's
    # compilation, ``tracegen`` the pulls of batches from the per-core
    # streams, ``replay`` feeding, draining and flushing the hierarchies,
    # ``timing`` snapshots, work accounting and the timing model.
    stage_s: Dict[str, float] = field(default_factory=dict)
    # Observability only, like ``stage_s``: the work of the ``tracegen``
    # and ``replay`` stages over the whole call (every repetition, where
    # ``works`` and ``snapshots`` hold the measured ones).  Segments the
    # generator yielded, the rows it materialised before expanding them
    # (one per reference per innermost or descriptor loop execution),
    # and per cache level the lines probed, missed and written back
    # (summed over cores); beside them the pages the TLB looked up, its
    # page walks, and the lines the prefetcher covered.
    trace_segments: int = 0
    trace_rows: int = 0
    line_ops: Dict[str, List[int]] = field(default_factory=dict)
    tlb_pages: int = 0
    tlb_walks: int = 0
    prefetch_covered: int = 0

    @property
    def dram_bytes(self) -> int:
        return sum(snap.dram_bytes for snap in self.snapshots)

    @property
    def total_ops(self) -> OpCounts:
        total = OpCounts()
        for work in self.works:
            total = total + work.total
        return total

    @property
    def achieved_dram_gbs(self) -> float:
        if self.seconds <= 0:
            return 0.0
        return self.dram_bytes / self.seconds / 1e9

    def level_misses(self, name: str) -> int:
        return sum(snap.level(name).misses for snap in self.snapshots)

    def summary(self) -> Dict[str, float]:
        return {
            "seconds": self.seconds,
            "dram_bytes": float(self.dram_bytes),
            "achieved_dram_gbs": self.achieved_dram_gbs,
            "flops": float(self.total_ops.flops),
        }


def simulate(
    program: Program,
    device: DeviceSpec,
    active_cores: Optional[int] = None,
    repetitions: int = 1,
    steady_state: bool = False,
    flush_writebacks: bool = False,
    check_capacity: bool = True,
    pmu: Union[bool, str] = False,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Simulate one run of ``program`` on ``device``.

    Parameters
    ----------
    active_cores:
        Cores used.  Defaults to all device cores when the program has a
        parallel loop, else 1 (the paper runs sequential code on the
        single-core Mango Pi and ``OMP_NUM_THREADS = cores`` elsewhere).
    repetitions / steady_state:
        Run the access trace ``repetitions`` times through the hierarchy;
        with ``steady_state=True`` the timing uses only the *last*
        repetition (caches warm), which is how STREAM-style bandwidth is
        measured.  With ``steady_state=False`` all repetitions are timed:
        memory events and operation counts accumulate across every
        repetition (the first one cold, the rest as warm as the caches
        allow).
    flush_writebacks:
        Charge dirty lines still cached at the end as DRAM writebacks.
    check_capacity:
        Raise :class:`~repro.errors.OutOfMemoryError` when the working set
        exceeds device DRAM (Fig. 2's missing Mango Pi bars at 16384^2).
    pmu:
        Attach a simulated PMU to every core's hierarchy: classify each
        miss via the 3C model, keep per-set conflict histograms and
        prefetch-accuracy counters, and attribute everything back to the
        emitting IR statement.  PMU counters are monotonic across
        repetitions (snapshot deltas subtract them like any other
        counter), and the classification is purely observational — cache
        contents and timing are byte-for-byte identical with it off.
        ``pmu="counters"`` computes only what the snapshots carry: the
        ``pmu.<level>.{compulsory,capacity,conflict}`` and
        ``pmu.prefetch.*`` counters, the same values as ``pmu=True``.
        :attr:`SimulationResult.pmus` and ``ref_table`` then stay empty,
        and the fast engine skips the per-reference and per-set tables
        (figure cells take this mode; ``repro profile``, ``repro perf``
        and the cache-model validator take ``pmu=True``).
    engine:
        Replay engine: ``"exact"`` (the per-reference oracle loop) or
        ``"fast"`` (the runtime-compiled C core, bit-identical on every
        counter).  ``None`` resolves ``REPRO_ENGINE``, defaulting to
        ``fast``.  ``fast`` replays on exact hierarchies when the native
        core cannot load (logged once per process) or the device's
        replacement policies are outside what it models;
        :attr:`SimulationResult.engine` names the engine that replayed.
    """
    if pmu not in (False, True, "counters"):
        raise SimulationError(f"pmu must be False, True or 'counters', not {pmu!r}")
    attribute = bool(pmu) and pmu != "counters"
    if repetitions < 1:
        raise SimulationError("repetitions must be >= 1")
    if steady_state and repetitions < 2:
        raise SimulationError("steady_state needs at least 2 repetitions (warm-up + measured)")

    if check_capacity:
        device.check_capacity(program.footprint_bytes(), what=f"program {program.name!r}")

    if active_cores is None:
        active_cores = device.cores if has_parallel_loop(program) else 1

    engine = resolve_engine(engine)

    # Accumulating stage timers: each ``lap`` closes the interval since
    # the previous one, so the stages tile the call from hierarchy build
    # to the timing model (about two clock reads per batch).
    clock = time.perf_counter_ns
    stage_ns = dict.fromkeys(STAGES, 0)
    mark = clock()

    def lap(stage: str) -> None:
        nonlocal mark
        now = clock()
        stage_ns[stage] += now - mark
        mark = now

    with tracer.span(
        "simulate", cat="sim", program=program.name, device=device.key,
        cores=active_cores, engine=engine,
    ):
        with tracer.span("build_hierarchies", cat="sim"):
            hierarchies = device.build_hierarchies(active_cores, engine=engine)
        engine = hierarchies[0].engine
        pmus: List[Pmu] = []
        if pmu:
            mode = "attribution" if attribute else "counters"
            pmus = [h.attach_pmu(mode) for h in hierarchies]
        lap("build")
        with tracer.span("tracegen.plan", cat="tracegen"):
            generator = TraceGenerator(program, num_cores=active_cores)
        lap("plan")

        first = baselines = [snapshot(h) for h in hierarchies]
        first_tlb_prefetch = _tlb_prefetch_work(hierarchies)
        works = [CoreWork() for _ in range(active_cores)]
        trace_segments = trace_rows = 0
        lap("timing")
        for rep in range(repetitions):
            if steady_state and rep == repetitions - 1:
                # Warm measurement: only the last repetition's memory
                # events and work count toward the timing.
                baselines = [snapshot(h) for h in hierarchies]
                works = [CoreWork() for _ in range(active_cores)]
                lap("timing")
            for core, hierarchy in enumerate(hierarchies):
                run = hierarchy.process_segments
                # Trace generation and cache simulation are one pipeline:
                # the span covers both (batches are consumed as emitted).
                with tracer.span(
                    "trace+memsim", cat="memsim", core=core, repetition=rep
                ):
                    for batch in generator.core_stream(core):
                        lap("tracegen")
                        run(batch)
                        lap("replay")
                    lap("tracegen")
                    hierarchy.drain()
                    lap("replay")
            # ``core_stream`` resets ``generator.work[core]`` on entry, so
            # after the loop it holds exactly this repetition's counts;
            # accumulate so ``works`` always matches the snapshot deltas.
            works = [acc.merge(one) for acc, one in zip(works, generator.work)]
            trace_segments += sum(one.segments for one in generator.work)
            trace_rows += sum(generator.rows)
            for core, core_pmu in enumerate(pmus):
                # Chrome-trace counter track per core: cumulative PMU
                # counters sampled at each repetition boundary.
                tracer.counter(
                    f"pmu.core{core}", dict(core_pmu.counters()), tid=core + 1
                )
            lap("timing")

        if flush_writebacks:
            with tracer.span("flush_writebacks", cat="memsim"):
                for hierarchy in hierarchies:
                    hierarchy.flush()
            lap("replay")

        finals = [snapshot(h) for h in hierarchies]
        deltas = [final - base for final, base in zip(finals, baselines)]
        line_ops: Dict[str, List[int]] = {}
        for final, start in zip(finals, first):
            for level in (final - start).levels:
                ops = line_ops.setdefault(level.name, [0, 0, 0])
                ops[0] += level.accesses
                ops[1] += level.misses
                ops[2] += level.writebacks

        tlb_pages, tlb_walks, prefetch_covered = (
            now - then
            for now, then in zip(_tlb_prefetch_work(hierarchies), first_tlb_prefetch)
        )

        engine_skips: Dict[str, int] = {}
        for hierarchy in hierarchies:
            counts_fn = getattr(hierarchy, "skip_counts", None)
            if counts_fn is None:
                continue
            for path, value in counts_fn().items():
                if path in SKIP_PATHS and value:
                    engine_skips[path] = engine_skips.get(path, 0) + int(value)
        if engine_skips:
            account_skips(engine_skips)

        timing = time_run(device, works, deltas, active_cores)
        lap("timing")
    return SimulationResult(
        program_name=program.name,
        device_key=device.key,
        active_cores=active_cores,
        seconds=timing.seconds,
        timing=timing,
        works=works,
        snapshots=deltas,
        pmus=pmus if attribute else [],
        ref_table=generator.references() if attribute else {},
        engine=engine,
        engine_skips=engine_skips,
        stage_s={stage: ns / 1e9 for stage, ns in stage_ns.items()},
        trace_segments=trace_segments,
        trace_rows=trace_rows,
        line_ops=line_ops,
        tlb_pages=tlb_pages,
        tlb_walks=tlb_walks,
        prefetch_covered=prefetch_covered,
    )


def _tlb_prefetch_work(hierarchies) -> List[int]:
    """TLB pages looked up, TLB page walks and prefetch-covered lines so
    far, summed over ``hierarchies`` (drained)."""
    work = [0, 0, 0]
    for hierarchy in hierarchies:
        tlb = hierarchy.tlb
        if tlb is not None:
            work[0] += tlb.l1.stats.hits + tlb.l1.stats.misses
            work[1] += tlb.walks
        work[2] += hierarchy.prefetcher.covered_lines
    return work
