"""Outside-in layer tracing for the traced benchmark run.

The benchmark does not edit the program to trace it: :func:`install`
wraps public functions of each layer (module or class attributes) with a
span that records its wall time and the time of the spans it caused.  A
layer's self time is its span time minus its children.  Trace generation
is timed per generator pull and kept as a (sum, count) accumulator, not
as one span per segment, so that tracing stays cheap.

Only the standard library is used for timing; ``repro.profiling`` and
``repro.bench`` are deliberately not imported, so that rewriting them
cannot move the ruler.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from typing import Callable, Dict, List


class Probe:
    """A span stack plus per-name self time, call and work counters."""

    def __init__(self) -> None:
        self._stack: List[List[float]] = []   # [child seconds] per open span
        self.self_s: Dict[str, float] = Counter()
        self.calls: Dict[str, int] = Counter()
        self.counts: Dict[str, int] = Counter()
        self._undo: List[Callable[[], None]] = []

    def timed(self, name: str, fn: Callable, on_result: Callable = None) -> Callable:
        """``fn`` wrapped in a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                self.self_s[name] += duration - frame[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += duration
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def pulls(self, name: str, fn: Callable) -> Callable:
        """``fn`` returns a generator; time each ``next`` on it."""
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            total = 0
            count = 0
            try:
                while True:
                    start = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        total += clock() - start
                        return
                    total += clock() - start
                    count += 1
                    yield item
            finally:
                seconds = total / 1e9
                self.self_s[name] += seconds
                self.counts[name] += count
                if self._stack:
                    self._stack[-1][0] += seconds

        return wrapper

    def patch(self, owner, attr: str, wrapper_factory: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper_factory(original))
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()



def install(probe: Probe, sink: Dict[str, int]) -> None:
    """Wrap every layer boundary the benchmark attributes time to.

    ``sink`` collects work counts read off returned values (oracle
    outcomes, supervisor attempts, simulated misses and bytes).
    """
    from repro.analysis import dependence
    from repro.devices.spec import DeviceSpec
    from repro.exec.tracegen import TraceGenerator
    from repro.experiments import export, fig2, runner
    from repro.kernels import blur, transpose
    from repro.runtime.cache import RunCache
    from repro.runtime.journal import Journal
    from repro.transforms import AutoVectorize

    # ``repro.simulate`` as an attribute is the function the package
    # re-exports; the module itself comes from the import system.
    simulate_mod = importlib.import_module("repro.simulate")

    def on_oracle(result) -> None:
        sink["analysis.oracle_calls"] += 1
        sink["analysis.oracle_skipped"] += result is None

    def on_outcome(outcome) -> None:
        sink["runtime.attempts"] += outcome.attempts

    def on_simulation(result) -> None:
        for snap in result.snapshots:
            sink["memsim.l1_misses"] += snap.levels[0].misses
            sink["memsim.llc_misses"] += snap.levels[-1].misses
            sink["memsim.dram_bytes"] += snap.dram_bytes
        ops = result.total_ops
        sink["memsim.refs"] += ops.loads + ops.stores

    def span(name, on_result=None):
        return lambda fn: probe.timed(name, fn, on_result)

    probe.patch(transpose, "build", span("kernels.build"))
    probe.patch(blur, "build", span("kernels.build"))
    probe.patch(dependence, "certify_parallel", span("analysis.certify"))
    probe.patch(dependence, "enumeration_oracle", span("analysis.oracle", on_oracle))
    probe.patch(AutoVectorize, "run", span("transforms.vectorize"))
    probe.patch(TraceGenerator, "__init__", span("exec.plan"))
    probe.patch(TraceGenerator, "core_stream", lambda fn: probe.pulls("exec.tracegen", fn))
    probe.patch(DeviceSpec, "build_hierarchies", span("memsim.hier_build"))
    replay = span("memsim.replay", on_simulation)
    probe.patch(simulate_mod, "simulate", replay)
    probe.patch(runner, "simulate", replay)
    probe.patch(simulate_mod, "time_run", span("timing.time_run"))
    probe.patch(runner, "supervise", span("runtime.supervise_self", on_outcome))
    probe.patch(RunCache, "save", span("runtime.cache_save"))
    probe.patch(Journal, "record", span("runtime.journal"))
    probe.patch(fig2, "render", span("experiments.export"))
    probe.patch(export, "export_figure_json", span("experiments.export"))
    probe.patch(export, "export_figure_perf_json", span("experiments.export"))


#: Layers whose self times partition the traced wall, in report order.
#: ``analysis.certify`` is reported inclusive of its oracle child;
#: ``trace.other`` is the span around the whole workload call, so its
#: self time is the part no layer claims.
PARTITION = (
    "kernels.build",
    "analysis.certify",
    "transforms.vectorize",
    "exec.plan",
    "exec.tracegen",
    "memsim.hier_build",
    "memsim.replay",
    "timing.time_run",
    "runtime.supervise_self",
    "runtime.cache_save",
    "runtime.journal",
    "experiments.export",
    "trace.other",
)


def layer_times(probe: Probe) -> Dict[str, float]:
    """Self seconds per partition layer (certify folds in its oracle)."""
    times = {name: float(probe.self_s.get(name, 0.0)) for name in PARTITION}
    times["analysis.certify"] += float(probe.self_s.get("analysis.oracle", 0.0))
    return times
