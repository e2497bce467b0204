"""The repository benchmark: one command, three workloads, every metric.

    python3 perfbench/run.py --workload fig2_fresh --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Every measurement happens in a fresh
child process (``child.py``) with a fixed ``PYTHONHASHSEED``, one BLAS
thread, no ``REPRO_*`` settings of the caller, and a fresh run cache,
journal and temp directory under ``.bench_build/`` in the checkout.  The
native replay core is compiled there by an untimed first child, so a
one-off C compile never lands in a sample.

Times are reported at a fixed host speed.  On a shared host the speed
of a core drifts by up to 1.8x over minutes with the load of other
tenants, and every iteration and cold start of a run slows together,
so no order statistic of raw times repeats between two sets of runs.
Each child therefore times a 2 ms reference loop (interpreter work over
an L2-sized buffer, nothing of the program) every 0.1 s while it
measures (``child.HostSpeed``), takes that time off the measured time,
and the rest is multiplied by ``REFERENCE_S / mean(its reference
times)``: seconds on a host that runs the loop in ``REFERENCE_S`` (an
idle 2.0 GHz x86 server core).  A change to the program moves these
values; a change of host load moves the reference times too and
cancels.  Raw seconds and reference times are printed on a ``#`` line
before the result.

End-to-end metrics (``--trace 0``):

* ``wall_s``: median scaled seconds of one workload iteration, from the
  first workload call to the last output written;
* ``setup_s``: median over ``SETUP_SAMPLES`` cold children, spread over
  the run, of the scaled seconds of ``import repro.cli`` plus loading
  the native core.  Cold starts vary by 2x within a run, so one sample
  does not repeat;
* ``peak_rss_mb``: median peak resident memory of an iteration child;
* ``sim_mrefs_per_s``: simulated loads plus stores per second of
  ``wall_s``, in millions.

Per-layer metrics (``--trace 1``) come from traced iterations that
alternate with untraced ones, in raw seconds (a traced child samples
the reference loop only once, after its call, so that no sample lands
in a layer); ``host.reference_s`` is the median reference time of the
untraced iterations.  ``trace.overhead_s`` is the difference of the
traced and untraced median walls.  Self times of the partition layers
plus ``trace.other_s`` (the untraced rest) sum to ``trace.wall_s``.

Operations are figure cells.  A cell fails if it does not complete or
its outputs are missing, and a run fails if an iteration's outputs
differ from the first iteration's, if ``fig2_fresh`` outputs differ
from the stored digests, or if the seeded cross-check cell is not
bit-identical on the exact engine.  A failed run still prints its
result line, then exits 1.  A missing native core on a host that has
cffi and a C compiler is a failed precondition (exit 3, no result), not
a slow run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig2_fresh", "fig6_visionfive", "naive_sweep")
SETUP_SAMPLES = 9
REFERENCE_S = 0.002               # reference-loop seconds the times are scaled to
CHILD_TIMEOUT_S = 150
EXPECTED = os.path.join(HERE, "expected.json")


class BenchError(Exception):
    """A child failed or a precondition does not hold."""


def child_env(workdir: str, build_dir: str) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=workdir,
        REPRO_CACHE=os.path.join(workdir, "cache.json"),
        REPRO_NATIVE_CACHE=os.path.join(build_dir, "native"),
    )
    return env


class Session:
    """Fresh child processes, each in its own work directory under
    ``.bench_build/`` (removed again when the child has ended)."""

    def __init__(self) -> None:
        self.build_dir = os.path.join(ROOT, ".bench_build")
        os.makedirs(self.build_dir, exist_ok=True)
        self.base = tempfile.mkdtemp(prefix="run-", dir=self.build_dir)
        self._n = 0

    def spawn(self, mode: str, request: Dict) -> Dict:
        """Run one child to completion; its result."""
        self._n += 1
        workdir = os.path.join(self.base, f"{self._n:03d}-{mode}")
        os.makedirs(workdir)
        out_path = os.path.join(workdir, "result.json")
        command = [sys.executable, os.path.join(HERE, "child.py"), mode,
                   json.dumps(dict(request, workdir=workdir)), out_path]
        try:
            proc = subprocess.run(
                command,
                cwd=ROOT,
                env=child_env(workdir, self.build_dir),
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=CHILD_TIMEOUT_S,
            )
            if proc.returncode != 0:
                tail = proc.stderr.decode(errors="replace").strip().splitlines()[-5:]
                raise BenchError(f"{mode} child exited {proc.returncode}: " + " | ".join(tail))
            with open(out_path) as fh:
                return json.load(fh)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child exceeded {CHILD_TIMEOUT_S}s")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.base, ignore_errors=True)


def check_native(env: Dict) -> None:
    if env["cffi"] and env["cc"] and not env["native"]:
        raise BenchError(
            "native replay core not loaded although cffi and a C compiler are "
            f"present ({env['native_status']}); refusing to measure a fallback"
        )


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def iterate(session: Session, request: Dict, seconds: float, traced: bool) -> Dict[str, List]:
    """Fresh-child iterations until the next one would end past ``seconds``
    (at least one).  Traced mode alternates untraced and traced children.

    The ``SETUP_SAMPLES`` cold-start samples are spread over the window
    in step with elapsed time rather than taken back to back: a burst of
    host contention then moves a few samples, not the median.
    """
    plain: List[Dict] = []
    marked: List[Dict] = []
    setup: List[Dict] = []
    start = time.perf_counter()

    def sample_setup(due: int) -> None:
        while len(setup) < min(due, SETUP_SAMPLES):
            setup.append(session.spawn("setup", {}))

    while True:
        sample_setup(1 + int(SETUP_SAMPLES * (time.perf_counter() - start) / seconds))
        t0 = time.perf_counter()
        plain.append(session.spawn("run", dict(request, trace=0)))
        if traced:
            marked.append(session.spawn("run", dict(request, trace=1)))
        step = time.perf_counter() - t0
        if time.perf_counter() - start + step > seconds:
            sample_setup(SETUP_SAMPLES)
            return {"plain": plain, "traced": marked, "setup": setup}


def scaled(sample: Dict, key: str) -> float:
    """``sample[key]`` at a host speed that runs the reference loop in
    ``REFERENCE_S``."""
    return sample[key] * REFERENCE_S / sample["ref_s"]


def end_to_end(plain: List[Dict], setup: List[Dict]) -> Dict[str, Dict]:
    wall = median([scaled(r, "wall_s") for r in plain])
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": median([scaled(r, "setup_s") for r in setup]), "unit": "s"},
        "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in plain]), "unit": "MiB"},
        "sim_mrefs_per_s": {"value": plain[0]["refs"] / wall / 1e6, "unit": "Mref/s"},
    }


def per_layer(plain: List[Dict], traced: List[Dict]) -> Dict[str, Dict]:
    """Medians of the traced self times; counts from the first traced run
    (``consistent_counts`` has checked that they repeat)."""
    first = traced[0]
    sink = first["sink"]

    def med(fn) -> float:
        return median([fn(r) for r in traced])

    out: Dict[str, Dict] = {}

    def put(name: str, value, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for layer in first["layers"]:
        put(f"{layer}_s", med(lambda r, layer=layer: r["layers"][layer]), "s")
    put("analysis.oracle_s", med(lambda r: r["oracle_s"]), "s")
    calls = sink.get("analysis.oracle_calls", 0)
    skipped = sink.get("analysis.oracle_skipped", 0)
    put("analysis.oracle_calls", calls, "count")
    put("analysis.oracle_skipped", skipped, "count")
    put("analysis.oracle_useful_share", (calls - skipped) / calls if calls else 0.0, "ratio")
    segments = first["segments"]
    put("exec.segments", segments, "count")
    put("exec.ns_per_segment",
        med(lambda r: r["layers"]["exec.tracegen"] * 1e9 / max(1, r["segments"])), "ns")
    refs = sink.get("memsim.refs", 0)
    put("memsim.refs", refs, "count")
    put("memsim.ns_per_ref",
        med(lambda r: r["layers"]["memsim.replay"] * 1e9 / max(1, r["sink"]["memsim.refs"])), "ns")
    for name, unit in (("l1_misses", "count"), ("llc_misses", "count"), ("dram_bytes", "bytes")):
        put(f"memsim.{name}", sink.get(f"memsim.{name}", 0), unit)
    skips = first["skips"]
    put("memsim.skip_resident_ops", skips["resident"], "count")
    put("memsim.skip_streaming_ops", skips["streaming"], "count")
    put("memsim.replayed_ops", skips["replayed"], "count")
    total = sum(skips.values())
    put("memsim.skip_share", (skips["resident"] + skips["streaming"]) / total if total else 0.0,
        "ratio")
    put("runtime.attempts", sink.get("runtime.attempts", 0), "count")
    put("runtime.cache_saves", first["cache_saves"], "count")
    put("runtime.cache_file_bytes", first["cache_file_bytes"], "bytes")
    put("experiments.cells", first["cells"], "count")
    put("experiments.cells_failed", first["cells_failed"], "count")
    put("host.reference_s", median([r["ref_s"] for r in plain]), "s")
    put("trace.wall_s", med(lambda r: r["wall_s"]), "s")
    put("trace.overhead_s",
        med(lambda r: r["wall_s"]) - median([r["wall_s"] for r in plain]), "s")
    return out


#: Per-run work counts that must repeat exactly between iterations.
COUNT_KEYS = ("cells", "cells_failed", "refs", "digest", "skips", "segments", "sink",
              "cache_saves", "cache_file_bytes")


def consistent_counts(results: List[Dict]) -> List[str]:
    """Names of counts that differ between iterations of one seed."""
    bad = []
    for key in COUNT_KEYS:
        values = [json.dumps(r.get(key), sort_keys=True) for r in results]
        if len(set(values)) > 1:
            bad.append(key)
    return bad


def expected_outputs(workload: str) -> Optional[Dict[str, str]]:
    """Stored output digests (``fig2_fresh`` runs one grid for every seed)."""
    with open(EXPECTED) as fh:
        return json.load(fh).get(workload)


def measure(args) -> Dict:
    session = Session()
    try:
        env = session.spawn("env", {})
        check_native(env)
        env["REPRO_ENGINE"] = os.environ.get("REPRO_ENGINE", "")
        print("# host: " + json.dumps(env, sort_keys=True), flush=True)

        request = {"workload": args.workload, "inputs": workloads.inputs(args.workload, args.seed)}
        runs = iterate(session, request, args.seconds, traced=bool(args.trace))
        check = session.spawn("check", {"workload": args.workload, "seed": args.seed})
    finally:
        session.close()

    plain, traced, setup = runs["plain"], runs["traced"], runs["setup"]
    problems = []
    everything = plain + traced
    attempted = sum(r["cells"] for r in everything) + 1
    failed = sum(r["cells_failed"] for r in everything)
    drift = consistent_counts(plain) + [f"traced {k}" for k in consistent_counts(traced)]
    if traced and plain[0]["digest"] != traced[0]["digest"]:
        drift.append("traced digest")
    if drift:
        problems.append("outputs or counts differ between iterations: " + ", ".join(drift))
        failed += 1
    expected = expected_outputs(args.workload)
    if expected is not None and plain[0]["outputs"] != expected:
        problems.append(f"outputs {plain[0]['outputs']} differ from stored {expected}")
        failed += 1
    if not check["ok"]:
        problems.append(f"cross-check cell {check['cell']} differs from the exact engine")
        failed += 1

    metrics = per_layer(plain, traced) if traced else end_to_end(plain, setup)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "walls": [[round(r["wall_s"], 3), round(r["ref_s"] * 1e3, 3), r["ref_n"]] for r in plain],
        "setups": [[round(r["setup_s"], 3), round(r["ref_s"] * 1e3, 3), r["ref_n"]] for r in setup],
        "outputs": plain[0]["outputs"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        report = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    for problem in report["problems"]:
        print(f"# FAILED: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} raw [seconds, reference ms, samples]: "
          f"walls={report['walls']} setups={report['setups']} "
          f"outputs={json.dumps(report['outputs'], sort_keys=True)}")
    for name, metric in report["metrics"].items():
        print(f"{name:34s} {metric['value']:>18.6g} {metric['unit']}")
    line = {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line, sort_keys=True))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
