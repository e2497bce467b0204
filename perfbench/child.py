"""One fresh benchmark child process.

    python3 perfbench/child.py MODE REQUEST_JSON RESULT_PATH

``run.py`` starts every measurement in a new process of this script, so
no run inherits warm caches, compiled plans or memoised records from
another.  Modes:

* ``env``: import the package and load the native core untimed
  (compiling both on first use) and report the host facts recorded with
  every result;
* ``setup``: time ``import repro.cli`` plus loading the native core;
* ``run``: one workload iteration, optionally traced;
* ``check``: re-simulate one small cell on the exact and fast engines.

``setup`` and ``run`` children sample the host's speed while they
measure (:class:`HostSpeed`).  The result is written as JSON to
RESULT_PATH (stdout belongs to the program under test, which prints its
figure tables there).
"""

from __future__ import annotations

import json
import signal
import sys
import time

REFERENCE_LOOPS = 4_000           # about 2 ms on an idle 2.0 GHz x86 server core
REFERENCE_BYTES = 1 << 20         # an L2-sized buffer, so the loop feels cache contention
TICK_S = 0.1                      # interval between two reference samples


class HostSpeed:
    """Times a fixed loop of interpreter work, which uses nothing of the
    program under test, every ``TICK_S`` while a measurement runs, and
    once right after it.  (Traced runs take only the last sample, so
    that no tick lands in a layer's self time.)

    On a shared host the speed of a core drifts with the load of other
    tenants; these samples see the same drift as the measurement they
    interleave.  ``overhead_s`` is their own time, which the caller
    takes off the measured time.
    """

    def __init__(self, ticking: bool = True) -> None:
        self.ticking = ticking
        self.samples: list = []
        self._buf = bytearray(REFERENCE_BYTES)
        self._table: dict = {}

    def sample(self) -> None:
        buf, table = self._buf, self._table
        start = time.perf_counter()
        i = acc = 0
        for n in range(REFERENCE_LOOPS):
            i = (i * 1103515245 + 12345) & (REFERENCE_BYTES - 1)
            acc = (acc + buf[i] + n) & 0xFFFF
            buf[i] = acc & 0xFF
            table[acc & 0x3FF] = n
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        if self.ticking:
            self._previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.ticking:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.overhead_s = sum(self.samples)
        self.sample()

    def report(self) -> dict:
        return {"ref_s": sum(self.samples) / len(self.samples), "ref_n": len(self.samples)}


def _setup() -> dict:
    with HostSpeed() as speed:
        start = time.perf_counter()
        import repro.cli  # noqa: F401  (the import is what is timed)
        from repro.memsim.native import native_available

        native_available()
        setup = time.perf_counter() - start
    return dict(speed.report(), setup_s=setup - speed.overhead_s)


def _env() -> dict:
    import os
    import platform
    import shutil

    import numpy

    import repro.cli  # noqa: F401  (writes every bytecode file before setup is timed)
    from repro.memsim.columnar import resolve_engine
    from repro.memsim.native import native_available, native_status

    try:
        import cffi

        cffi_version = cffi.__version__
    except ImportError:
        cffi_version = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cffi": cffi_version,
        "cc": shutil.which("cc") or shutil.which("gcc") or "",
        "engine": resolve_engine(),
        "native": native_available(),
        "native_status": native_status(),
    }


def _run(request: dict) -> dict:
    import os
    import resource
    from collections import Counter

    import probe
    import workloads

    call, collect = workloads.prepare(request["workload"], request["inputs"], request["workdir"])

    from repro.memsim.columnar import process_skip_totals

    tracer = sink = None
    if request.get("trace"):
        tracer, sink = probe.Probe(), Counter()
        probe.install(tracer, sink)
        call = tracer.timed("trace.other", call)

    skips_before = process_skip_totals()
    with HostSpeed(ticking=tracer is None) as speed:
        start = time.perf_counter()
        value = call()
        wall = time.perf_counter() - start
    skips_after = process_skip_totals()
    if tracer is not None:
        tracer.uninstall()

    result = collect(value)
    result.update(speed.report(), wall_s=wall - speed.overhead_s)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["skips"] = {k: skips_after[k] - skips_before[k] for k in skips_after}
    if tracer is not None:
        cache = os.environ["REPRO_CACHE"]
        result.update(
            layers=probe.layer_times(tracer),
            oracle_s=float(tracer.self_s.get("analysis.oracle", 0.0)),
            segments=int(tracer.counts.get("exec.tracegen", 0)),
            cache_saves=int(tracer.calls.get("runtime.cache_save", 0)),
            cache_file_bytes=os.path.getsize(cache) if os.path.exists(cache) else 0,
            sink=dict(sink),
        )
    return result


def main(argv) -> int:
    mode, request, out_path = argv[1], json.loads(argv[2]), argv[3]
    if mode == "setup":
        result = _setup()
    elif mode == "env":
        result = _env()
    elif mode == "run":
        result = _run(request)
    elif mode == "check":
        import workloads

        cell = workloads.check_cell(request["workload"], request["seed"])
        try:
            result = workloads.cross_check(cell)
        except Exception as exc:  # a cell that cannot be simulated fails the check
            result = {"ok": False, "cell": cell, "error": f"{type(exc).__name__}: {exc}"}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
