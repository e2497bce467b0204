"""Statistical benchmarking and regression detection.

The perf trajectory of this repository is itself a deliverable: the
source paper's argument is measured throughput, and every optimisation
PR (fast engine, workpool fan-out, serve batching) claims a wall-clock
win.  This package turns those claims into defensible numbers:

* :mod:`repro.bench.stats` — robust statistics: median, MAD outlier
  rejection, deterministic bootstrap confidence intervals, and a
  symmetric noise-aware ``compare``;
* :mod:`repro.bench.harness` — calibrated measurement: warmup,
  auto-repeat until a target CI width, per-phase samples and a host
  fingerprint so runs are comparable;
* :mod:`repro.bench.workloads` — deterministic workloads: Fig. 2
  transpose cells run through ``simulate()``, phased by its own stage
  timers, under both replay engines;
* :mod:`repro.bench.trend` — append-only commit-keyed JSONL trend store
  under ``benchmarks/trend/`` (rotation-aware like the run journal);
* :mod:`repro.bench.run` / :mod:`repro.bench.gate` — run documents,
  baseline comparison and the phase-attributed CI gate;
* :mod:`repro.bench.cli` — ``repro bench {run,compare,trend,gate}``.
"""

from repro.bench.stats import (
    Comparison,
    Summary,
    bootstrap_ci,
    compare,
    mad,
    median,
    reject_outliers,
    summarize,
)
from repro.bench.harness import (
    Measurement,
    fingerprint_hash,
    fingerprints_comparable,
    host_fingerprint,
    measure,
)
from repro.bench.trend import TrendStore, current_commit

__all__ = [
    "Comparison",
    "Summary",
    "bootstrap_ci",
    "compare",
    "mad",
    "median",
    "reject_outliers",
    "summarize",
    "Measurement",
    "fingerprint_hash",
    "fingerprints_comparable",
    "host_fingerprint",
    "measure",
    "TrendStore",
    "current_commit",
]
