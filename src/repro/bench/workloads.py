"""Deterministic bench workload manifests.

Each workload is a named, fixed-parameter measurement target whose
per-repeat callable decomposes its work into ``bench.phase.*`` spans
(:func:`repro.bench.harness.phase_span`), which is what makes
regression verdicts attributable.  The pipeline phases mirror
``simulate()``'s own structure but are *materialized* rather than
pipelined — ``simulate`` streams trace generation straight into replay
inside one span, so separating the two requires generating the segment
streams first (exactly what ``benchmarks/bench_simulator.py`` always
did for its engine-only metric):

``tracegen``   walking the loop nests into per-core segment streams;
``replay``     feeding the pre-materialized streams through fresh
               per-core memory hierarchies (the engine under test);
``timing``     snapshot deltas + the contention-bisection timing model;
``cache_io``   a RunCache store + reload round trip of the record.

Manifests:

``quick``  figure slices (Naive + Blocking transpose), tracegen-only,
           and the fast/exact engine-replay pair — a couple of minutes
           on a laptop, the CI gate's diet;
``full``   ``quick`` plus the serve round-trip (boots a real server on
           an ephemeral port and measures submit→terminal latency).
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.harness import phase_span

#: Fixed transpose size for the bench cells: big enough that replay
#: dominates timer resolution, small enough for interactive repeats.
BENCH_N = 256

#: Device every bench cell simulates (the paper's VisionFive board: two
#: cache levels + stride prefetcher exercise every replay path).
BENCH_DEVICE = "visionfive_jh7100"

BENCH_BLOCK = 16

#: Cache scale matching the figure harness (so the bench slice measures
#: the same simulated configuration the figures regenerate).
BENCH_SCALE = 16

#: Serve round-trip job spec: tiny, cacheable after the first repeat, so
#: the phase measures the serve tier's own overhead, not simulation.
SERVE_SPEC = {
    "kernel": "transpose", "variant": "Naive", "device": "mango_pi_d1", "n": 64,
}


@dataclass(frozen=True)
class Workload:
    """One deterministic measurement target."""

    id: str
    kind: str                 # figure-slice | tracegen | engine-replay | serve
    description: str
    build: Callable[[], Callable[[], Any]]
    # Dimensionless ratios derived across workloads (see DERIVED_RATIOS).


def _scaled_bench_device():
    from repro.experiments.config import scaled_device

    return scaled_device(BENCH_DEVICE, BENCH_SCALE)


def _materialize_streams(program, device) -> Tuple[Any, List[List[Any]], int]:
    from repro.exec.tracegen import TraceGenerator
    from repro.simulate import has_parallel_loop

    cores = device.cores if has_parallel_loop(program) else 1
    generator = TraceGenerator(program, num_cores=cores)
    streams = [list(generator.core_stream(core)) for core in range(cores)]
    return generator, streams, cores


def _replay(hierarchy, batches) -> None:
    for batch in batches:
        hierarchy.process_segments(batch)
    hierarchy.drain()


def _build_fig_slice(variant: str) -> Callable[[], Any]:
    """Phased figure-cell pipeline: tracegen → replay → timing → cache I/O."""
    from repro.kernels import transpose as tr
    from repro.memsim.columnar import resolve_engine
    from repro.memsim.stats import snapshot
    from repro.runtime.cache import RunCache, canonical_key
    from repro.timing.model import time_run

    device = _scaled_bench_device()
    program = tr.build(variant, BENCH_N, block=BENCH_BLOCK)
    tmp = tempfile.mkdtemp(prefix="repro-bench-")
    cache_path = os.path.join(tmp, "bench_cache.json")

    def run() -> None:
        engine = resolve_engine(None)
        with phase_span("tracegen"):
            generator, streams, cores = _materialize_streams(program, device)
        with phase_span("replay"):
            hierarchies = device.build_hierarchies(cores, engine=engine)
            baselines = [snapshot(h) for h in hierarchies]
            for hierarchy, batches in zip(hierarchies, streams):
                _replay(hierarchy, batches)
        with phase_span("timing"):
            deltas = [
                snapshot(h) - base for h, base in zip(hierarchies, baselines)
            ]
            timing = time_run(device, list(generator.work), deltas, cores)
        with phase_span("cache_io"):
            cache = RunCache(cache_path)
            key = canonical_key(("bench", variant, BENCH_N))
            record = {
                "seconds": timing.seconds,
                "counters": [delta.as_dict() for delta in deltas],
            }
            cache.put(key, record)
            if cache.reload(key) is None:
                raise AssertionError("bench cache round trip lost the record")

    run.close = lambda: shutil.rmtree(tmp, ignore_errors=True)  # type: ignore[attr-defined]
    return run


def _build_tracegen(variant: str) -> Callable[[], Any]:
    """Trace generation only — ROADMAP item 1's remaining headroom."""
    from repro.exec.tracegen import TraceGenerator
    from repro.kernels import transpose as tr

    program = tr.build(variant, BENCH_N, block=BENCH_BLOCK)

    def run() -> int:
        with phase_span("tracegen"):
            generator = TraceGenerator(program, num_cores=1)
            count = 0
            for batch in generator.core_stream(0):
                count += len(batch.ref)
        return count

    return run


def _build_replay(engine: str) -> Callable[[], Any]:
    """Engine replay of pre-materialized streams (fixed engine)."""
    from repro.kernels import transpose as tr

    device = _scaled_bench_device()
    program = tr.build("Naive", BENCH_N, block=BENCH_BLOCK)
    _generator, streams, cores = _materialize_streams(program, device)

    def run() -> None:
        with phase_span("replay"):
            hierarchies = device.build_hierarchies(cores, engine=engine)
            for hierarchy, batches in zip(hierarchies, streams):
                _replay(hierarchy, batches)

    return run


class _ServeRoundtrip:
    """Submit→terminal latency against a real server on a loopback port."""

    def __init__(self) -> None:
        from repro.serve import ServeConfig, ServerHandle
        from repro.serve.client import ServeClient

        self._tmp = tempfile.mkdtemp(prefix="repro-bench-serve-")
        config = ServeConfig(
            jobs=1,
            queue_max=8,
            drain_timeout_s=10.0,
            cache_path=os.path.join(self._tmp, "serve_cache.json"),
        )
        self._handle = ServerHandle(config).start()
        self._client = ServeClient(port=self._handle.port)

    def __call__(self) -> None:
        with phase_span("serve"):
            result = self._client.submit_and_wait(dict(SERVE_SPEC), timeout_s=60.0)
            if result.get("outcome") not in ("completed", None) and \
                    result.get("state") != "done":
                raise AssertionError(f"serve round trip failed: {result!r}")

    def close(self) -> None:
        try:
            self._handle.stop()
        finally:
            shutil.rmtree(self._tmp, ignore_errors=True)


WORKLOADS: Dict[str, Workload] = {
    w.id: w
    for w in (
        Workload(
            id="fig2_naive",
            kind="figure-slice",
            description=(
                f"transpose/Naive n={BENCH_N} on {BENCH_DEVICE} (scale "
                f"{BENCH_SCALE}): phased tracegen/replay/timing/cache_io"
            ),
            build=lambda: _build_fig_slice("Naive"),
        ),
        Workload(
            id="fig2_blocking",
            kind="figure-slice",
            description=(
                f"transpose/Blocking n={BENCH_N} block={BENCH_BLOCK} on "
                f"{BENCH_DEVICE}: tracegen-heavy figure slice"
            ),
            build=lambda: _build_fig_slice("Blocking"),
        ),
        Workload(
            id="tracegen_blocking",
            kind="tracegen",
            description=(
                f"segment generation only, transpose/Blocking n={BENCH_N} "
                "(the shared cost both engines Amdahl on)"
            ),
            build=lambda: _build_tracegen("Blocking"),
        ),
        Workload(
            id="replay_fast",
            kind="engine-replay",
            description=(
                f"fast-engine replay of pre-materialized Naive n={BENCH_N} "
                "streams"
            ),
            build=lambda: _build_replay("fast"),
        ),
        Workload(
            id="replay_exact",
            kind="engine-replay",
            description=(
                f"exact-engine replay of the identical Naive n={BENCH_N} "
                "streams"
            ),
            build=lambda: _build_replay("exact"),
        ),
        Workload(
            id="serve_roundtrip",
            kind="serve",
            description=(
                "HTTP submit→terminal round trip against a live server "
                "(cached job: measures the serve tier, not simulation)"
            ),
            build=_ServeRoundtrip,
        ),
    )
}

MANIFESTS: Dict[str, List[str]] = {
    "quick": [
        "fig2_naive",
        "fig2_blocking",
        "tracegen_blocking",
        "replay_fast",
        "replay_exact",
    ],
    "full": [
        "fig2_naive",
        "fig2_blocking",
        "tracegen_blocking",
        "replay_fast",
        "replay_exact",
        "serve_roundtrip",
    ],
}

#: Dimensionless ratios derived from workload pairs: name -> (numerator
#: workload, denominator workload).  Ratios survive host changes, so the
#: gate can enforce floors on them even against a foreign baseline.
DERIVED_RATIOS: Dict[str, Tuple[str, str]] = {
    "engine_speedup": ("replay_exact", "replay_fast"),
}


def manifest_workloads(
    manifest: str, only: Optional[List[str]] = None
) -> List[Workload]:
    """Resolve a manifest name (optionally filtered) to workload objects."""
    try:
        ids = MANIFESTS[manifest]
    except KeyError:
        raise ValueError(
            f"unknown manifest {manifest!r} (have: {', '.join(sorted(MANIFESTS))})"
        ) from None
    if only:
        unknown = [wid for wid in only if wid not in WORKLOADS]
        if unknown:
            raise ValueError(
                f"unknown workload(s) {', '.join(unknown)} "
                f"(have: {', '.join(sorted(WORKLOADS))})"
            )
        ids = [wid for wid in ids if wid in set(only)]
    return [WORKLOADS[wid] for wid in ids]
