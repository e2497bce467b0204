"""``repro bench {run,compare,trend,gate}``.

* ``run``     measure the bench workloads, print/save the run document,
  append to the trend store;
* ``compare`` diff a run against the committed baseline with noise-aware
  verdicts;
* ``trend``   query the commit-keyed history;
* ``gate``    the CI decision — exit 1 on a statistically significant
  regression (phase-attributed), a violated ratio floor, or (with
  ``--check-committed``) a committed engine-speedup interval below the
  floor.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import Any, Dict, List, Optional

LOG = logging.getLogger("repro.bench")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    from repro.bench.harness import (
        DEFAULT_MAX_REPEATS,
        DEFAULT_MAX_SECONDS,
        DEFAULT_MIN_REPEATS,
        DEFAULT_TARGET_REL_CI,
    )

    parser.add_argument("--workload", action="append", dest="workloads",
                        metavar="ID", default=None,
                        help="restrict to these workload ids (repeatable)")
    parser.add_argument("--target-ci", type=float, default=DEFAULT_TARGET_REL_CI,
                        help="stop repeating once the median's relative CI "
                             "half-width is below this (default %(default)s)")
    parser.add_argument("--min-repeats", type=int, default=DEFAULT_MIN_REPEATS,
                        help="minimum timed repeats per workload")
    parser.add_argument("--max-repeats", type=int, default=DEFAULT_MAX_REPEATS,
                        help="repeat cap per workload")
    parser.add_argument("--budget", type=float, default=DEFAULT_MAX_SECONDS,
                        metavar="SECONDS",
                        help="wall-clock budget per workload (default %(default)ss)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="untimed warmup iterations per workload")


def _run_document(args: argparse.Namespace) -> Dict[str, Any]:
    from repro.bench.run import run_workloads

    return run_workloads(
        only=args.workloads,
        target_rel_ci=args.target_ci,
        min_repeats=args.min_repeats,
        max_repeats=args.max_repeats,
        max_seconds_per_workload=args.budget,
        warmup=args.warmup,
        progress=lambda line: print(line, file=sys.stderr),
    )


def _render_run(doc: Dict[str, Any]) -> str:
    from repro.bench.run import fmt_seconds

    out = [
        f"Bench run — commit {doc['commit']}, "
        f"host {doc['host_hash']} "
        f"({doc['fingerprint'].get('machine', '?')}, "
        f"{doc['fingerprint'].get('cores', '?')} cores, "
        f"python {doc['fingerprint'].get('python', '?')}, "
        f"engine {doc['fingerprint'].get('engine', '?')})",
        "",
    ]
    for workload_id, entry in sorted(doc["workloads"].items()):
        summary = entry["summary"]
        ci = (
            f"[{fmt_seconds(summary['ci_low'])}, "
            f"{fmt_seconds(summary['ci_high'])}]"
        )
        flag = "" if entry.get("converged") else "  (CI target not reached)"
        out.append(
            f"  {workload_id:<18s} {fmt_seconds(summary['median']):>10s} "
            f"±{100.0 * summary['rel_ci']:4.1f}%  CI95 {ci}  "
            f"n={summary['n']}"
            + (f" (-{summary['n_rejected']} outliers)" if summary["n_rejected"] else "")
            + flag
        )
        phases = entry.get("phases", {})
        if phases:
            parts = ", ".join(
                f"{name} {fmt_seconds(phase['median'])}"
                for name, phase in sorted(
                    phases.items(), key=lambda kv: -kv[1]["median"]
                )
            )
            out.append(f"  {'':<18s} phases: {parts}")
    for name, ratio in sorted(doc.get("derived", {}).items()):
        out.append(
            f"  {name:<18s} {ratio['value']:10.2f}x  "
            f"CI95 [{ratio['ci_low']:.2f}x, {ratio['ci_high']:.2f}x]"
        )
    return "\n".join(out)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.bench.run import DEFAULT_RUN_PATH, append_trend, save_run
    from repro.bench.trend import TrendStore

    doc = _run_document(args)
    if args.save_baseline:
        from repro.bench.gate import default_ratio_gates

        doc["ratio_gates"] = default_ratio_gates(doc)
        save_run(doc, args.save_baseline)
        LOG.info("[bench baseline saved to %s]", args.save_baseline)
    output = args.output or DEFAULT_RUN_PATH
    save_run(doc, output)
    LOG.info("[bench run saved to %s]", output)
    if not args.no_trend:
        store = TrendStore(args.trend_dir) if args.trend_dir else TrendStore()
        appended = append_trend(doc, store)
        LOG.info("[%d trend points appended to %s]", appended, store.path)
    print(json.dumps(doc, indent=1, sort_keys=True) if args.json else _render_run(doc))
    return 0


def _load_pair(args: argparse.Namespace) -> "tuple[Dict[str, Any], Dict[str, Any]]":
    from repro.bench.run import DEFAULT_BASELINE_PATH, DEFAULT_RUN_PATH, load_run

    base = load_run(args.baseline or DEFAULT_BASELINE_PATH)
    new = load_run(args.run or DEFAULT_RUN_PATH)
    return base, new


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.bench.gate import compare_runs

    try:
        base, new = _load_pair(args)
    except (OSError, ValueError) as exc:
        LOG.error("%s", exc)
        return 2
    verdicts = compare_runs(base, new, min_effect=args.min_effect)
    if args.json:
        print(json.dumps([v.as_dict() for v in verdicts], indent=1, sort_keys=True))
    else:
        print(
            f"Bench compare — baseline commit {base.get('commit', '?')} vs "
            f"run commit {new.get('commit', '?')}"
        )
        for verdict in verdicts:
            print(f"  {verdict.render()}")
    regressions = [v for v in verdicts if v.status == "regression"]
    return 1 if regressions else 0


def _cmd_trend(args: argparse.Namespace) -> int:
    from repro.bench.trend import TrendStore

    store = TrendStore(args.trend_dir) if args.trend_dir else TrendStore()
    points = store.points(workload=args.workload, limit=args.limit)
    if args.openmetrics:
        from repro.observe.openmetrics import render_trend_openmetrics

        with open(args.openmetrics, "w", encoding="utf-8") as fh:
            fh.write(render_trend_openmetrics(points))
        LOG.info("[trend exposition written to %s]", args.openmetrics)
    if args.json:
        print(json.dumps(points, indent=1, sort_keys=True))
        return 0
    if not points:
        print(f"no trend points in {store.path}")
        return 0
    print(f"{'commit':<12s} {'workload':<18s} {'median':>12s} {'rel CI':>7s}  host")
    for point in points:
        median = point.get("median")
        rel_ci = point.get("rel_ci")
        print(
            f"{str(point.get('commit', '?')):<12s} "
            f"{str(point.get('workload', '?')):<18s} "
            f"{median:>12.6g} "
            + (f"{100.0 * rel_ci:>6.1f}%" if isinstance(rel_ci, float) else f"{'—':>7s}")
            + f"  {point.get('host', '')}"
        )
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    from repro.bench.gate import (
        DEFAULT_GATE_MIN_EFFECT,
        check_committed_speedup,
        gate_runs,
    )
    from repro.bench.run import (
        DEFAULT_BASELINE_PATH,
        DEFAULT_RUN_PATH,
        append_trend,
        load_run,
        save_run,
    )

    failures: List[str] = []
    result = None
    if args.check_committed is not None:
        failures.extend(
            check_committed_speedup(
                args.check_committed if args.check_committed else args.committed_path,
                min_speedup=args.min_speedup,
            )
        )
    else:
        try:
            base = load_run(args.baseline or DEFAULT_BASELINE_PATH)
        except (OSError, ValueError) as exc:
            LOG.error("baseline unusable: %s", exc)
            return 2
        if args.run:
            try:
                new = load_run(args.run)
            except (OSError, ValueError) as exc:
                LOG.error("run document unusable: %s", exc)
                return 2
        else:
            new = _run_document(args)
            save_run(new, DEFAULT_RUN_PATH)
            if not args.no_trend:
                append_trend(new)
        min_effect = (
            args.min_effect if args.min_effect is not None
            else DEFAULT_GATE_MIN_EFFECT
        )
        result = gate_runs(base, new, min_effect=min_effect)
        failures.extend(result.failures)

    if args.json:
        payload: Dict[str, Any] = {"ok": not failures, "failures": failures}
        if result is not None:
            payload["verdicts"] = [v.as_dict() for v in result.verdicts]
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        if result is not None:
            for verdict in result.verdicts:
                print(f"  {verdict.render()}")
        if failures:
            print(f"bench gate FAILED ({len(failures)} violation(s)):")
            for failure in failures:
                print(f"  {failure}")
        else:
            print("bench gate OK")
    return 1 if failures else 0


def bench_main(argv: Optional[List[str]] = None) -> int:
    from repro.cli import add_logging_flags, configure_logging

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description=(
            "Statistical benchmarking: calibrated runs, commit-keyed "
            "trends, and phase-attributed regression gating."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="measure the bench workloads")
    _add_run_flags(p_run)
    p_run.add_argument("--output", default=None,
                       help="run document path (default: benchmarks/trend/last_run.json)")
    p_run.add_argument("--save-baseline", metavar="FILE", default=None,
                       help="also save this run (plus derived ratio floors) "
                            "as a gate baseline")
    p_run.add_argument("--no-trend", action="store_true",
                       help="do not append to the trend store")
    p_run.add_argument("--trend-dir", default=None,
                       help="trend store directory (default benchmarks/trend)")
    p_run.add_argument("--json", action="store_true",
                       help="print the run document as JSON")
    add_logging_flags(p_run)

    p_compare = sub.add_parser("compare", help="diff a run against a baseline")
    p_compare.add_argument("--baseline", default=None,
                           help="baseline document (default benchmarks/bench_baseline.json)")
    p_compare.add_argument("--run", default=None,
                           help="run document (default benchmarks/trend/last_run.json)")
    p_compare.add_argument("--min-effect", type=float, default=0.02,
                           help="deltas below this fraction are never significant")
    p_compare.add_argument("--json", action="store_true",
                           help="print verdicts as JSON")
    add_logging_flags(p_compare)

    p_trend = sub.add_parser("trend", help="query the commit-keyed history")
    p_trend.add_argument("--workload", default=None, help="filter to one workload id")
    p_trend.add_argument("--limit", type=int, default=None,
                         help="only the most recent N points")
    p_trend.add_argument("--trend-dir", default=None,
                         help="trend store directory (default benchmarks/trend)")
    p_trend.add_argument("--json", action="store_true", help="print points as JSON")
    p_trend.add_argument("--openmetrics", metavar="PATH", default=None,
                         help="also write the latest point per workload as an "
                              "OpenMetrics exposition")
    add_logging_flags(p_trend)

    p_gate = sub.add_parser(
        "gate", help="CI gate: fail on attributed regressions / ratio floors"
    )
    _add_run_flags(p_gate)
    p_gate.add_argument("--baseline", default=None,
                        help="baseline document (default benchmarks/bench_baseline.json)")
    p_gate.add_argument("--run", default=None,
                        help="gate an existing run document instead of measuring")
    p_gate.add_argument("--min-effect", type=float, default=None,
                        help="deltas below this fraction never fail the gate "
                             "(default 0.5: coarse on purpose so shared-host "
                             "noise cannot flake CI; tighten on dedicated "
                             "hardware)")
    p_gate.add_argument("--no-trend", action="store_true",
                        help="do not append the fresh measurement to the trend store")
    p_gate.add_argument("--check-committed", nargs="?", const="", default=None,
                        metavar="FILE",
                        help="instead of measuring, validate the committed "
                             "BENCH_simulator.json engine-speedup interval")
    p_gate.add_argument("--min-speedup", type=float, default=10.0,
                        help="floor for --check-committed (default 10)")
    p_gate.add_argument("--json", action="store_true", help="print the result as JSON")
    add_logging_flags(p_gate)

    args = parser.parse_args(argv)
    configure_logging(args.verbose, args.quiet)
    if getattr(args, "check_committed", None) is not None:
        from repro.bench.gate import DEFAULT_COMMITTED_BENCH

        args.committed_path = DEFAULT_COMMITTED_BENCH
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "trend":
        return _cmd_trend(args)
    return _cmd_gate(args)
