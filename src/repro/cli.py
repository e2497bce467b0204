"""Command-line entry point: figures, run-journal status, profiling.

Usage::

    repro-experiments fig1
    repro-experiments fig2 fig3 --trace figures.json
    repro-experiments all --jobs 4
    repro-experiments fig2 --jobs 2 --json-dir out/
    repro-experiments ablations
    repro-experiments status
    repro-experiments profile transpose Naive mango_pi_d1
    repro-experiments profile blur Memory xeon_4310t --json --trace out.json
    repro-experiments profile transpose Naive mango_pi_d1 --n 256 --check
    repro lint transpose Naive --strict
    repro lint --figures --sarif -o lint.sarif
    repro lint scan Parallel --device mango_pi_d1 --json
    repro lint transpose Naive --device visionfive --measure
    repro perf stat transpose Naive Blocking --device visionfive
    repro perf annotate transpose Naive --device visionfive --level L1
    repro perf diff transpose Naive Blocking --device visionfive
    repro perf stat transpose Naive --device mango --check --openmetrics perf.om
    repro serve --port 8321 --jobs 2 --queue-max 8 --rate 5
    repro trace j000001 --port 8321 --chrome job.trace.json
    repro trace j000002 --port 8321 --follow
    repro top --port 8321
    repro status
    repro status --trace 69097a69

(The ``repro`` console script is an alias, so ``repro profile ...`` works
as well.)

Figures are isolated from one another: a failure in one figure does not
abort the rest of the run (or lose already-written ``--csv-dir`` output).
A failure summary logs at the end and the exit code is nonzero iff any
figure failed.  ``--jobs N`` (or ``REPRO_JOBS``) fans the independent
figure cells across N worker processes via the runtime
:class:`~repro.runtime.WorkPool`; results are collected in task order,
so figures (and ``--csv-dir``/``--json-dir`` exports) are byte-identical
for any worker count.  ``status`` summarizes the run journal the
supervised runner appends next to the on-disk cache, including
per-worker throughput when parallel runs were journalled.  ``profile`` simulates one
(kernel, variant, device) triple and prints its perf counters, time
attribution and roofline position; ``--trace`` writes a Chrome
trace-event JSON of the run's pipeline spans.  ``lint`` statically
checks a kernel variant with the symbolic dependence engine (races,
false sharing, strides, tile fit) and gates CI via ``--strict``;
``--measure`` backs the stride/tile-fit diagnostics with measured 3C
miss counts from the simulated PMU.  ``perf`` runs one or more
(kernel, variant, device) cells with the PMU attached and reports
perf-stat style counters (``stat``), a per-IR-statement miss/byte
annotation (``annotate``), or a side-by-side variant comparison
(``diff``); ``--openmetrics`` additionally writes the counters in
OpenMetrics/Prometheus text format.  ``profile`` and ``perf`` share one
``--save-baseline`` / ``--check`` pair over the committed
``benchmarks/counter_baseline.json``.
``serve`` runs the fault-tolerant simulation-as-a-service tier
(:mod:`repro.serve`): HTTP/JSON job submission with admission control,
duplicate coalescing, a circuit breaker and graceful SIGTERM drain.
``trace`` fetches a serve job's distributed span tree (``--follow``
streams its SSE progress first, ``--chrome`` exports a merged Chrome
trace); ``top`` renders a live one-screen serve status from
``/metrics`` and the SSE event streams; ``status`` summarizes the run
journal and with ``--trace <id>`` filters one trace's records across
rotated segments.

Diagnostics (progress, warnings, failure summaries) go through
``logging`` — quiet them with ``--quiet`` or amplify with ``-v`` —
while results (tables, JSON, reports) stay on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
import threading
import time
from typing import List, Optional, Tuple

from repro.experiments import FIGURES, ablations
from repro.experiments.report import render_table
from repro.experiments.runner import default_cache_path
from repro.profiling import tracer
from repro.runtime import WorkPool

LOG = logging.getLogger("repro.cli")


def configure_logging(verbose: int = 0, quiet: bool = False) -> None:
    """Route diagnostics through the ``repro`` logger hierarchy.

    Default shows status lines (INFO); ``--quiet`` keeps only warnings
    and errors; ``-v`` adds debug detail with logger names.
    """
    if quiet:
        level = logging.WARNING
    elif verbose >= 1:
        level = logging.DEBUG
    else:
        level = logging.INFO
    fmt = "[%(name)s] %(message)s" if verbose >= 1 else "%(message)s"
    root = logging.getLogger("repro")
    root.setLevel(level)
    # Replace handlers rather than stacking them (main() may run twice in
    # one process, e.g. under tests).
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(fmt))
    root.addHandler(handler)
    # Propagation stays on: the root logger has no handlers in CLI use (so
    # nothing double-prints) and pytest's caplog captures at the root.


def add_logging_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="debug diagnostics (logger names included)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="only warnings and errors on stderr",
    )


def _add_baseline_flags(parser: argparse.ArgumentParser) -> None:
    from repro.profiling.baseline import DEFAULT_BASELINE_PATH

    parser.add_argument("--baseline", default=DEFAULT_BASELINE_PATH,
                        help="counter baseline file for --save-baseline/--check")
    parser.add_argument("--save-baseline", action="store_true",
                        help="record each cell's counters in the baseline file")
    parser.add_argument("--check", action="store_true",
                        help="diff each cell's counters against the baseline "
                             "(exit 1 on drift)")


def _save_or_check_baseline(args: argparse.Namespace, cells) -> int:
    """``--save-baseline`` / ``--check`` for ``profile`` and ``perf``, one
    :mod:`repro.profiling.baseline` entry per cell; returns the exit code."""
    from repro.profiling.baseline import check_entry, save_entry

    if args.save_baseline:
        for cell in cells:
            save_entry(args.baseline, cell.baseline_key, cell.counters,
                       cell.seconds, cell.active_cores)
            LOG.info("[baseline %r saved to %s]", cell.baseline_key, args.baseline)
    if not args.check:
        return 0
    violations = [
        f"{cell.baseline_key}: {violation}"
        for cell in cells
        for violation in check_entry(args.baseline, cell.baseline_key,
                                     cell.counters, cell.seconds)
    ]
    if violations:
        LOG.error("baseline check FAILED (%d violations):", len(violations))
        for violation in violations:
            LOG.error("  %s", violation)
        return 1
    LOG.info("[baseline check OK against %s]", args.baseline)
    return 0


def _run_figure(name: str, pool: Optional[WorkPool] = None) -> Tuple[str, object]:
    """Regenerate one figure; returns (rendered text, raw result) so
    exports reuse the result instead of re-running the figure."""
    try:
        module = FIGURES[name]
    except KeyError:
        raise ValueError(f"unknown figure {name!r}")
    with tracer.span(f"figure.{name}", cat="figure"):
        result = module.run(pool=pool)
    return module.render(result), result


def _run_ablations(pool: Optional[WorkPool] = None) -> Tuple[str, List[str]]:
    """Each ablation block is isolated: a failing block renders an error
    note while the remaining blocks still run.  Returns the rendered text
    plus the labels of any failed blocks."""
    blocks = [
        (
            "block-size sweep",
            lambda: ablations.render_block_sweep(ablations.block_size_sweep(pool=pool)),
        ),
        (
            "prefetcher on/off",
            lambda: render_table(
                ["device", "prefetch on (s)", "prefetch off (s)", "slowdown"],
                ablations.prefetch_ablation(pool=pool),
                title="Ablation — prefetcher on/off (naive transpose)",
            ),
        ),
        (
            "replacement policy",
            lambda: render_table(
                ["policy", "Naive (s)", "Blocking (s)"],
                [
                    [p, v["Naive"], v["Blocking"]]
                    for p, v in ablations.replacement_policy_swap().items()
                ],
                title="Ablation — U74 replacement policy",
            ),
        ),
        (
            "contention model",
            lambda: render_table(
                ["model", "seconds"],
                list(ablations.contention_model_comparison().items()),
                title="Ablation — DRAM contention model",
            ),
        ),
        (
            "cache-scale sensitivity",
            lambda: render_table(
                ["cache scale", "blocking speedup"],
                sorted(ablations.scale_sensitivity().items()),
                title="Ablation — cache-scale sensitivity",
            ),
        ),
    ]
    parts = []
    errors = []
    for label, thunk in blocks:
        with tracer.span(f"ablation.{label}", cat="figure"):
            try:
                parts.append(thunk())
            except Exception as exc:
                parts.append(f"Ablation — {label}: FAILED ({type(exc).__name__}: {exc})")
                errors.append(f"{label} ({type(exc).__name__}: {exc})")
    return "\n\n".join(parts), errors


def _render_status() -> str:
    """Summarize the run journal for ``repro-experiments status``."""
    from repro.runtime import default_journal_path, read_journal, summarize

    cache_path = default_cache_path()
    if not cache_path:
        return "run journal disabled (REPRO_CACHE=off)"
    journal_path = default_journal_path(cache_path)
    entries = read_journal(journal_path)
    if not entries:
        return f"run journal empty (no attempts recorded at {journal_path})"
    stats = summarize(entries)
    rows = [[outcome, count] for outcome, count in sorted(stats["by_outcome"].items())]
    rows.append(["total", stats["total"]])
    sources = "   ".join(
        f"{source}: {count}" for source, count in sorted(stats["by_source"].items())
    )
    lines = [
        render_table(["outcome", "attempts"], rows, title=f"Run journal — {journal_path}"),
        f"provenance: {sources}",
        f"retries: {stats['retries']}   simulated time spent: {stats['duration_s']:.2f}s",
    ]
    quantiles = stats["duration_quantiles"]
    if quantiles:
        from repro.experiments.report import DASH

        # Below 3 samples the quantiles are dominated by noise; print a
        # dash rather than a number nobody should trust.
        duration_rows = [
            [
                figure,
                int(q["runs"]),
                DASH if q["runs"] < 3 else f"{q['p50']:.3f}",
                DASH if q["runs"] < 3 else f"{q['p95']:.3f}",
            ]
            for figure, q in quantiles.items()
        ]
        lines.append(
            render_table(
                ["figure", "runs", "p50 (s)", "p95 (s)"],
                duration_rows,
                title="Simulated run durations per figure",
            )
        )
    throughput = stats.get("worker_throughput", {})
    if throughput:
        worker_rows = [
            [
                worker,
                int(t["attempts"]),
                int(t["simulated"]),
                f"{t['throughput_per_s']:.2f}",
            ]
            for worker, t in sorted(throughput.items())
        ]
        lines.append(
            render_table(
                ["worker", "attempts", "simulated", "attempts/s"],
                worker_rows,
                title="Per-worker throughput",
            )
        )
    if stats["failures"]:
        lines.append("most recent non-completed attempts:")
        for entry in stats["failures"]:
            trace_tag = f"  trace={entry.trace[:16]}" if entry.trace else ""
            lines.append(f"  [{entry.outcome}] {entry.key}{trace_tag}: {entry.error}")
    return "\n".join(lines)


def _render_trace_status(trace_id: str) -> str:
    """One trace's journal records for ``repro status --trace``.

    Matches by trace-id prefix (operators paste the short form shown in
    exemplars and status lines) and reads across rotated journal
    segments, so a trace that straddles a rotation still shows whole.
    """
    from repro.runtime import default_journal_path, read_events, read_journal

    cache_path = default_cache_path()
    if not cache_path:
        return "run journal disabled (REPRO_CACHE=off)"
    journal_path = default_journal_path(cache_path)
    entries = [
        e for e in read_journal(journal_path)
        if e.trace and e.trace.startswith(trace_id)
    ]
    events = [
        ev for ev in read_events(journal_path)
        if str(ev.get("trace", "")).startswith(trace_id)
    ]
    if not entries and not events:
        return f"no journal records for trace {trace_id!r} at {journal_path}"
    lines: List[str] = []
    if entries:
        rows = [
            [
                time.strftime("%H:%M:%S", time.localtime(e.ts)),
                e.trace[:16],
                e.outcome,
                e.attempts,
                f"{e.duration_s:.3f}",
                e.worker or "serial",
                e.key if len(e.key) <= 48 else e.key[:45] + "...",
            ]
            for e in entries
        ]
        lines.append(
            render_table(
                ["ts", "trace", "outcome", "attempts", "duration (s)", "worker", "key"],
                rows,
                title=f"Attempts for trace {trace_id} — {journal_path}",
            )
        )
    if events:
        lines.append(f"wide events ({len(events)}):")
        for ev in events:
            stamp = time.strftime("%H:%M:%S", time.localtime(float(ev.get("ts", 0.0))))
            name = ev.get("event", "?")
            detail = "  ".join(
                f"{k}={v}"
                for k, v in sorted(ev.items())
                if k not in ("type", "ts", "event", "trace")
            )
            lines.append(f"  {stamp} [{name}] {detail}".rstrip())
    return "\n".join(lines)


def status_main(argv: List[str]) -> int:
    """``repro status`` — run-journal summary, or one trace's records."""
    parser = argparse.ArgumentParser(
        prog="repro status",
        description="Summarize the run journal, or drill into one trace.",
    )
    parser.add_argument(
        "--trace",
        metavar="ID",
        default=None,
        help="only records of this trace id (prefix match), searched "
             "across rotated journal segments",
    )
    add_logging_flags(parser)
    args = parser.parse_args(argv)
    configure_logging(args.verbose, args.quiet)
    print(_render_trace_status(args.trace) if args.trace else _render_status())
    return 0


def trace_main(argv: List[str]) -> int:
    """``repro trace`` — fetch and render serve jobs' span trees."""
    from repro.profiling.tracer import render_span_tree, spans_to_chrome_events
    from repro.serve.client import ServeClient, ServeError

    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Fetch a serve job's distributed span tree and render it.",
    )
    parser.add_argument("job_ids", nargs="+", metavar="JOB_ID")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--follow",
        action="store_true",
        help="stream the job's SSE events until it settles, then fetch the tree",
    )
    parser.add_argument(
        "--chrome",
        metavar="FILE",
        default=None,
        help="also write the merged Chrome trace-event JSON "
             "(chrome://tracing / Perfetto)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="print the raw trace response JSON instead of the rendered tree",
    )
    add_logging_flags(parser)
    args = parser.parse_args(argv)
    configure_logging(args.verbose, args.quiet)

    client = ServeClient(host=args.host, port=args.port)
    merged: List[dict] = []
    status = 0
    for job_id in args.job_ids:
        if args.follow:
            try:
                for event in client.stream_events(job_id):
                    if "comment" in event:
                        continue
                    detail = "  ".join(
                        f"{k}={v}"
                        for k, v in sorted(event.items())
                        if k not in ("event", "id", "ts", "job_id")
                    )
                    LOG.info("[%s] %s  %s", job_id, event.get("event", "?"), detail)
            except ServeError as exc:
                LOG.warning("event stream for %s: %s", job_id, exc)
        try:
            trace = client.trace(job_id)
        except ServeError as exc:
            LOG.error("%s", exc)
            status = 1
            continue
        if args.as_json:
            print(json.dumps(trace, indent=1, sort_keys=True))
        else:
            spans = trace.get("spans", [])
            roots = int(trace.get("roots", 0))
            state = "complete" if trace.get("complete") else "in flight"
            print(
                f"job {job_id}  trace {trace.get('trace_id', '?')}  "
                f"({len(spans)} spans, {roots} root{'s' if roots != 1 else ''}, {state})"
            )
            print(render_span_tree(trace.get("tree", [])))
            if roots != 1:
                LOG.warning(
                    "trace for %s has %d roots (expected one connected tree)",
                    job_id, roots,
                )
        merged.extend(trace.get("spans", []))
    if args.chrome:
        if merged:
            merged.sort(key=lambda s: (float(s.get("start_us", 0.0)),
                                       int(s.get("seq", 0))))
            with open(args.chrome, "w") as fh:
                json.dump(spans_to_chrome_events(merged), fh, indent=1)
                fh.write("\n")
            LOG.info("[chrome trace: %d events -> %s]", len(merged), args.chrome)
        else:
            LOG.warning("no spans fetched; %s not written", args.chrome)
    return status


class _EventFeed:
    """Background SSE consumers feeding ``repro top``'s activity pane.

    One daemon thread per watched job streams ``/jobs/<id>/events`` into
    a bounded recent-lines buffer; the render loop just reads the tail.
    """

    def __init__(self, client, limit: int = 8):
        self.client = client
        self.limit = limit
        self.lock = threading.Lock()
        self.recent: List[str] = []
        self.watched: set = set()

    def watch(self, job_id: str) -> None:
        with self.lock:
            if job_id in self.watched:
                return
            self.watched.add(job_id)
        threading.Thread(
            target=self._pump, args=(job_id,), daemon=True,
            name=f"repro-top-sse-{job_id}",
        ).start()

    def _pump(self, job_id: str) -> None:
        try:
            for event in self.client.stream_events(job_id, timeout_s=30.0):
                if "comment" in event:
                    continue
                detail = "  ".join(
                    f"{k}={v}"
                    for k, v in sorted(event.items())
                    if k not in ("event", "id", "ts", "job_id", "trace")
                )
                line = (
                    f"{time.strftime('%H:%M:%S')} {job_id} "
                    f"{event.get('event', '?')}  {detail}"
                ).rstrip()
                with self.lock:
                    self.recent.append(line)
                    del self.recent[:-self.limit]
        except Exception:
            pass  # a dropped stream only stops this pane's updates
        finally:
            with self.lock:
                self.watched.discard(job_id)

    def tail(self) -> List[str]:
        with self.lock:
            return list(self.recent)


def _metric_value(samples: List[dict], name: str, default: float = 0.0,
                  **labels: str) -> float:
    for sample in samples:
        if sample["name"] != name:
            continue
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            return sample["value"]
    return default


def _bucket_quantile(buckets: List[Tuple[float, float]], q: float) -> float:
    """Upper-bound quantile estimate from cumulative ``(le, count)``."""
    if not buckets:
        return 0.0
    total = buckets[-1][1]
    if total <= 0:
        return 0.0
    target = q * total
    for le, cumulative in buckets:
        if cumulative >= target:
            return le
    return buckets[-1][0]


def _phase_buckets(samples: List[dict], phase: str) -> List[Tuple[float, float]]:
    """Cumulative job-phase buckets summed across outcomes."""
    by_le: dict = {}
    for sample in samples:
        if sample["name"] != "repro_serve_job_phase_seconds_bucket":
            continue
        if sample["labels"].get("phase") != phase:
            continue
        raw = sample["labels"].get("le", "")
        le = float("inf") if raw == "+Inf" else float(raw)
        by_le[le] = by_le.get(le, 0.0) + sample["value"]
    return sorted(by_le.items())


def _fmt_le(seconds: float) -> str:
    return "inf" if seconds == float("inf") else f"<={seconds:g}"


def _render_top(samples: List[dict], jobs: List[dict],
                feed_lines: List[str], endpoint: str) -> str:
    breaker = {0: "closed", 1: "half-open", 2: "open"}.get(
        int(_metric_value(samples, "repro_serve_breaker_state")), "?"
    )
    draining = _metric_value(samples, "repro_serve_draining") > 0
    rejected = sum(
        s["value"] for s in samples if s["name"] == "repro_serve_rejected_total"
    )
    lines = [
        f"repro top — {endpoint}  [{'draining' if draining else 'serving'}]  "
        f"breaker: {breaker}  "
        f"queue: {int(_metric_value(samples, 'repro_serve_queue_depth'))}  "
        f"inflight: {int(_metric_value(samples, 'repro_serve_inflight'))}",
        f"submitted: {int(_metric_value(samples, 'repro_serve_submissions_total'))}  "
        f"admitted: {int(_metric_value(samples, 'repro_serve_admitted_total'))}  "
        f"coalesced: {int(_metric_value(samples, 'repro_serve_coalesced_total'))}  "
        f"rejected: {int(rejected)}",
    ]
    outcomes = "  ".join(
        f"{s['labels'].get('outcome', '?')}: {int(s['value'])}"
        for s in samples
        if s["name"] == "repro_serve_jobs_total"
    )
    if outcomes:
        lines.append(f"outcomes: {outcomes}")
    phase_rows = []
    for phase in ("queue", "exec", "total"):
        count = sum(
            s["value"] for s in samples
            if s["name"] == "repro_serve_job_phase_seconds_count"
            and s["labels"].get("phase") == phase
        )
        if not count:
            continue
        seconds = sum(
            s["value"] for s in samples
            if s["name"] == "repro_serve_job_phase_seconds_sum"
            and s["labels"].get("phase") == phase
        )
        buckets = _phase_buckets(samples, phase)
        phase_rows.append([
            phase,
            int(count),
            f"{seconds / count:.3f}",
            _fmt_le(_bucket_quantile(buckets, 0.50)),
            _fmt_le(_bucket_quantile(buckets, 0.95)),
        ])
    if phase_rows:
        lines.append(render_table(
            ["phase", "jobs", "avg (s)", "p50 (s)", "p95 (s)"],
            phase_rows,
            title="Job latency (bucket upper bounds)",
        ))
    exemplars = []
    for sample in samples:
        exemplar = sample.get("exemplar")
        if not exemplar:
            continue
        trace_id = exemplar.get("labels", {}).get("trace_id", "")
        if trace_id and trace_id not in exemplars:
            exemplars.append(trace_id)
    if exemplars:
        shown = "  ".join(t[:16] for t in exemplars[-4:])
        lines.append(f"recent exemplar traces: {shown}   (repro status --trace <id>)")
    active = [j for j in jobs if j.get("state") != "done"]
    if active:
        lines.append(f"active jobs ({len(active)}):")
        for job in active[:8]:
            trace_tag = (
                f"  trace={job['trace_id'][:16]}" if job.get("trace_id") else ""
            )
            spec = job.get("spec") or {}
            lines.append(
                f"  {job.get('job_id', '?')} [{job.get('state', '?')}] "
                f"{spec.get('kernel', '?')}/{spec.get('variant', '?')}{trace_tag}"
            )
    if feed_lines:
        lines.append("recent events:")
        lines.extend(f"  {line}" for line in feed_lines)
    return "\n".join(lines)


def top_main(argv: List[str]) -> int:
    """``repro top`` — live one-screen serve status."""
    from repro.observe.openmetrics import parse_exposition
    from repro.serve.client import ServeClient, ServeError

    parser = argparse.ArgumentParser(
        prog="repro top",
        description="Live one-screen serve status from /metrics and SSE.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="refresh period in seconds (default: 2)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit (no screen clearing)",
    )
    add_logging_flags(parser)
    args = parser.parse_args(argv)
    configure_logging(args.verbose, args.quiet)

    client = ServeClient(host=args.host, port=args.port, timeout_s=10.0)
    feed = _EventFeed(client)
    endpoint = f"{args.host}:{args.port}"
    try:
        while True:
            try:
                samples = parse_exposition(client.metrics())
                _status, listing, _headers = client.request("GET", "/jobs")
                jobs = listing.get("jobs", []) if isinstance(listing, dict) else []
            except ServeError as exc:
                LOG.error("%s", exc)
                return 1
            for job in jobs:
                if job.get("state") != "done" and job.get("job_id"):
                    feed.watch(str(job["job_id"]))
            screen = _render_top(samples, jobs, feed.tail(), endpoint)
            if args.once:
                print(screen)
                return 0
            # ANSI clear + home keeps the refresh flicker-free without
            # pulling in curses.
            sys.stdout.write("\x1b[2J\x1b[H" + screen + "\n")
            sys.stdout.flush()
            time.sleep(max(0.2, args.interval))
    except KeyboardInterrupt:
        return 0


def figures_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's figures from simulation.",
    )
    parser.add_argument(
        "figures",
        nargs="+",
        choices=list(FIGURES) + ["all", "figures", "ablations", "status"],
        help="figures to regenerate ('figures' = 'all'; 'status' for the "
             "run-journal summary)",
    )
    parser.add_argument(
        "--csv-dir",
        default=None,
        help="also write each figure's data as CSV into this directory",
    )
    parser.add_argument(
        "--json-dir",
        default=None,
        help="also write each figure's full result as canonical JSON "
             "(byte-identical for equal results; CI diffs these)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="fan figure cells across N worker processes "
             "(0 = all cores; default: REPRO_JOBS or serial)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event JSON of the whole run to FILE",
    )
    parser.add_argument(
        "--engine",
        choices=("exact", "fast"),
        default=None,
        help="replay engine: 'exact' per-reference simulator or the "
             "bit-identical batched 'fast' engine "
             "(default: $REPRO_ENGINE, else fast)",
    )
    add_logging_flags(parser)
    args = parser.parse_args(argv)
    configure_logging(args.verbose, args.quiet)
    if args.engine:
        # Exported (not passed through call chains) so WorkPool workers
        # inherit the selection too.
        os.environ["REPRO_ENGINE"] = args.engine

    names: List[str] = []
    for name in args.figures:
        if name in ("all", "figures"):
            names.extend(FIGURES)
        else:
            names.append(name)

    from repro.experiments import export

    # (failure label, writer(name, result) -> path, log prefix); each
    # writer looks its export function up at call time.
    exports = []
    if args.csv_dir:
        exports.append(("csv", lambda name, result: export.export_figure_csv(
            name, args.csv_dir, result), "csv written to"))
    if args.json_dir:
        exports.append(("json", lambda name, result: export.export_figure_json(
            name, args.json_dir, result), "json written to"))
        exports.append(("perf", lambda name, result: export.export_figure_perf_json(
            name, args.json_dir), "perf counters written to"))

    trace_obj = tracer.Tracer() if args.trace else None
    failures: List[Tuple[str, str]] = []
    with tracer.install(trace_obj) if trace_obj else contextlib.nullcontext(), \
            WorkPool(args.jobs) as pool:
        if pool.parallel:
            LOG.info("[parallel run: --jobs %d]", pool.jobs)
        for name in dict.fromkeys(names):  # dedupe, keep order
            if name == "status":
                print(_render_status())
                continue
            start = time.time()
            result = None
            try:
                if name == "ablations":
                    output, block_errors = _run_ablations(pool)
                    for detail in block_errors:
                        failures.append(("ablations", detail))
                else:
                    output, result = _run_figure(name, pool)
            except Exception as exc:
                detail = f"{type(exc).__name__}: {exc}"
                failures.append((name, detail))
                LOG.error("[%s FAILED: %s]", name, detail)
                continue
            print(output)
            for label, write, written in exports if name != "ablations" else ():
                try:
                    LOG.info("[%s %s]", written, write(name, result))
                except Exception as exc:  # one failed export must not stop the run
                    detail = f"{type(exc).__name__}: {exc}"
                    failures.append((f"{name} ({label} export)", detail))
                    LOG.error("[%s %s export FAILED: %s]", name, label, detail)
            LOG.info("[%s regenerated in %.1fs]", name, time.time() - start)

    if trace_obj is not None:
        trace_obj.write_chrome_trace(args.trace)
        LOG.info("[trace written to %s]", args.trace)

    if failures:
        LOG.error("FAILURE SUMMARY:")
        for name, detail in failures:
            LOG.error("  %s: %s", name, detail)
        return 1
    return 0


def _dedupe_diagnostics(diagnostics):
    """Collapse diagnostics repeated verbatim across devices (race,
    false-sharing and most stride findings are device-independent; only
    capacity-dependent messages differ and therefore survive)."""
    seen = set()
    out = []
    for diag in diagnostics:
        key = (diag.code, diag.location, diag.array, diag.message)
        if key in seen:
            continue
        seen.add(key)
        out.append(diag)
    return out


def _resolve_targets(targets, devices):
    """Canonical ``(kernel, variant)`` targets and device keys for
    ``lint`` and ``analyze``; raises KernelError on a bad name."""
    from repro.kernels import resolve_cell

    targets = [resolve_cell(kernel, variant, devices[0])[:2] for kernel, variant in targets]
    device_keys = [resolve_cell(*targets[0], device)[2] for device in devices]
    return targets, device_keys


def lint_main(argv: List[str]) -> int:
    from repro.analysis.lint import (
        FIGURE_WAIVERS,
        Severity,
        lint_program,
        render_json,
        render_sarif,
        strict_failures,
    )
    from repro.devices.catalog import DEVICE_KEYS, get_device
    from repro.experiments.config import paper_variants
    from repro.kernels import KERNELS, KernelError, build

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "Statically lint a kernel variant: race / false-sharing / "
            "stride / tile-fit / uncertified-transform diagnostics from "
            "the symbolic dependence engine."
        ),
    )
    parser.add_argument("kernel", nargs="?", help=" | ".join(KERNELS))
    parser.add_argument("variant", nargs="?",
                        help="figure variant label (e.g. Naive, Blocking, triad)")
    parser.add_argument("--figures", action="store_true",
                        help="lint every paper figure variant (Fig. 2 transpose + "
                             "Fig. 6 blur) with the committed figure waivers")
    parser.add_argument("--device", action="append", dest="devices", metavar="KEY",
                        default=None,
                        help="device for the locality checkers (repeatable; "
                             "default: all catalog devices)")
    parser.add_argument("--scale", type=int, default=1,
                        help="cache scale factor (default 1: lint against the "
                             "real hardware cache sizes)")
    parser.add_argument("--n", type=int, default=None,
                        help="problem size override (matrix n / image width / elements)")
    parser.add_argument("--block", type=int, default=None, help="transpose block size")
    parser.add_argument("--filter", dest="filter_size", type=int, default=None,
                        help="blur filter size")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit diagnostics as JSON")
    fmt.add_argument("--sarif", action="store_true",
                     help="emit diagnostics as SARIF 2.1.0 (for code-scanning upload)")
    parser.add_argument("-o", "--output", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on any unwaived warning-or-worse diagnostic")
    parser.add_argument("--measure", action="store_true",
                        help="run the kernel through the simulated PMU first and "
                             "cite measured 3C miss counts in the diagnostics")
    parser.add_argument("--waive", action="append", default=[], metavar="CODE[=REASON]",
                        help="waive a diagnostic code for this run (repeatable)")
    add_logging_flags(parser)
    args = parser.parse_args(argv)
    configure_logging(args.verbose, args.quiet)

    if args.figures == bool(args.kernel and args.variant):
        parser.error("give a kernel and a variant, or --figures (not both)")

    extra_waivers = {}
    for spec in args.waive:
        code, _, reason = spec.partition("=")
        extra_waivers[code.strip().upper()] = reason or "waived on the command line"

    try:
        targets, device_keys = _resolve_targets(
            paper_variants() if args.figures else [(args.kernel, args.variant)],
            args.devices or DEVICE_KEYS,
        )
    except KernelError as exc:
        LOG.error("%s", exc)
        return 2

    sections = []          # (kernel, variant, diagnostics, waived, failures)
    for kernel, variant in targets:
        waivers = dict(FIGURE_WAIVERS.get((kernel, variant), {})) if args.figures else {}
        waivers.update(extra_waivers)
        diagnostics = []
        waived = []
        failures = []
        program = None
        for key in device_keys:
            device = get_device(key).scaled(args.scale)
            # Only stream sizes its arrays off the device; every other
            # kernel builds (and certifies its transforms) once.
            if program is None or kernel == "stream":
                program, _params, _kwargs = build(
                    kernel, variant, device,
                    n=args.n, block=args.block, filter_size=args.filter_size,
                )
            evidence = None
            if args.measure:
                from repro.observe import cache_evidence, run_perf

                evidence = cache_evidence(run_perf(
                    kernel, variant, key, scale=args.scale,
                    n=args.n, block=args.block,
                    filter_size=args.filter_size,
                ))
            report = lint_program(
                program, device=device, waivers=waivers,
                kernel=kernel, variant=variant, evidence=evidence,
            )
            diagnostics.extend(report.diagnostics)
            waived.extend(report.waived)
            failures.extend(strict_failures(report))
        sections.append((
            kernel,
            variant,
            _dedupe_diagnostics(diagnostics),
            _dedupe_diagnostics([d for d, _ in waived]),
            _dedupe_diagnostics(failures),
        ))

    all_diags = [d for _, _, diags, _, _ in sections for d in diags]
    failed = [d for _, _, _, _, fails in sections for d in fails]
    meta = {
        "targets": [f"{k}/{v}" for k, v, _, _, _ in sections],
        "devices": device_keys,
        "scale": args.scale,
        "strict": args.strict,
    }

    if args.sarif:
        output = render_sarif(all_diags, meta=meta)
    elif args.json:
        output = render_json(all_diags, meta=meta)
    else:
        lines = []
        waiver_reasons = dict(extra_waivers)
        for kernel, variant, diags, waived, _fails in sections:
            reasons = dict(FIGURE_WAIVERS.get((kernel, variant), {})) if args.figures else {}
            reasons.update(waiver_reasons)
            for diag in diags:
                lines.append(diag.render())
            for diag in waived:
                reason = reasons.get(diag.code, "waived")
                lines.append(f"{diag.program}: waived {diag.code} ({diag.checker}): {reason}")
            if not diags and not waived:
                lines.append(f"{kernel}/{variant}: clean")
        n_warn = sum(1 for d in all_diags if d.severity >= Severity.WARNING)
        n_note = len(all_diags) - n_warn
        n_waived = sum(len(w) for _, _, _, w, _ in sections)
        lines.append(
            f"{n_warn} warning{'s' if n_warn != 1 else ''}, "
            f"{n_note} note{'s' if n_note != 1 else ''}"
            + (f", {n_waived} waived" if n_waived else "")
        )
        output = "\n".join(lines)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(output + "\n")
        LOG.info("[lint report written to %s]", args.output)
    else:
        print(output)

    if args.strict and failed:
        LOG.error("strict lint FAILED: %d unwaived warning-or-worse diagnostic%s",
                  len(failed), "s" if len(failed) != 1 else "")
        return 1
    return 0


def analyze_main(argv: List[str]) -> int:
    from repro.experiments.config import CACHE_SCALE, paper_variants
    from repro.observe.analyze import (
        aggregate_coverage,
        render_json,
        render_report,
        render_sarif,
        run_analyze,
        strict_failures,
    )
    from repro.devices.catalog import DEVICE_KEYS
    from repro.kernels import KERNELS, KernelError

    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description=(
            "Symbolically classify a kernel's cache behavior: per-segment "
            "STREAMING / RESIDENT / CONFLICT / UNKNOWN certificates with "
            "machine-checked proofs, predicted miss counts and 3C splits, "
            "replayed against the exact simulator under --strict."
        ),
    )
    parser.add_argument("kernel", nargs="?", help=" | ".join(KERNELS))
    parser.add_argument("variant", nargs="?",
                        help="figure variant label (e.g. Naive, Blocking)")
    parser.add_argument("--figures", action="store_true",
                        help="analyze every paper figure variant (Fig. 2 "
                             "transpose + Fig. 6 blur)")
    parser.add_argument("--device", action="append", dest="devices", metavar="KEY",
                        default=None,
                        help="device to classify against (repeatable; "
                             "default: all catalog devices)")
    parser.add_argument("--scale", type=int, default=CACHE_SCALE,
                        help="cache scale divisor (default %(default)s, the "
                             "figure pipeline's tier-1 scale)")
    parser.add_argument("--n", type=int, default=None,
                        help="problem size override (matrix n / image width)")
    parser.add_argument("--block", type=int, default=None, help="transpose block size")
    parser.add_argument("--filter", dest="filter_size", type=int, default=None,
                        help="blur filter size")
    parser.add_argument("--proofs", type=int, default=2, metavar="N",
                        help="proof chains rendered per level in text mode")
    fmt = parser.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true",
                     help="emit the full certificate set as JSON")
    fmt.add_argument("--sarif", action="store_true",
                     help="emit CONFLICT certificates and soundness findings "
                          "as SARIF 2.1.0 (for code-scanning upload)")
    parser.add_argument("-o", "--output", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--strict", action="store_true",
                        help="replay every certificate through the exact "
                             "simulator; exit 1 on any refuted certificate "
                             "or a run-wide coverage shortfall")
    parser.add_argument("--measure", action="store_true",
                        help="also run the full-hierarchy PMU simulation and "
                             "show measured counts next to predictions "
                             "(diagnostic only: prefetch and interference "
                             "are outside the certified model)")
    add_logging_flags(parser)
    args = parser.parse_args(argv)
    configure_logging(args.verbose, args.quiet)

    if args.figures == bool(args.kernel and args.variant):
        parser.error("give a kernel and a variant, or --figures (not both)")

    try:
        targets, device_keys = _resolve_targets(
            paper_variants() if args.figures else [(args.kernel, args.variant)],
            args.devices or DEVICE_KEYS,
        )
    except KernelError as exc:
        LOG.error("%s", exc)
        return 2

    cells = []
    for kernel, variant in targets:
        for key in device_keys:
            LOG.info("[analyze %s/%s on %s]", kernel, variant, key)
            cells.append(run_analyze(
                kernel, variant, key, scale=args.scale,
                n=args.n, block=args.block, filter_size=args.filter_size,
                validate=args.strict, measure=args.measure,
            ))

    if args.sarif:
        output = render_sarif(cells)
    elif args.json:
        output = render_json(cells)
    else:
        output = render_report(cells, proofs=args.proofs)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(output + "\n")
        LOG.info("[analyze report written to %s]", args.output)
    else:
        print(output)

    if args.strict:
        failed = strict_failures(cells)
        if failed:
            for failure in failed:
                LOG.error("%s", failure)
            LOG.error("strict analyze FAILED: %d problem%s",
                      len(failed), "s" if len(failed) != 1 else "")
            return 1
        LOG.info("[strict analyze OK: %d cells, coverage %.1f%%]",
                 len(cells), 100.0 * aggregate_coverage(cells))
    return 0


def profile_main(argv: List[str]) -> int:
    from repro.experiments.config import CACHE_SCALE
    from repro.kernels import KernelError
    from repro.profiling.profile import profile_run, render_report

    parser = argparse.ArgumentParser(
        prog="repro profile",
        description=(
            "Profile one simulated run: perf counters, time attribution "
            "and roofline position."
        ),
    )
    parser.add_argument("kernel", help="transpose | blur | stream")
    parser.add_argument("variant", help="figure variant label (e.g. Naive, Blocking, triad)")
    parser.add_argument("device", help="device key (e.g. mango_pi_d1, xeon_4310t)")
    parser.add_argument("--scale", type=int, default=CACHE_SCALE,
                        help="cache scale factor (default: the figure harness scale)")
    parser.add_argument("--n", type=int, default=None,
                        help="problem size override (matrix n / image width / vector elements)")
    parser.add_argument("--block", type=int, default=None, help="transpose block size")
    parser.add_argument("--filter", dest="filter_size", type=int, default=None,
                        help="blur filter size")
    parser.add_argument("--cores", type=int, default=None, help="active core count override")
    parser.add_argument("--json", action="store_true", help="emit the report as JSON on stdout")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write Chrome trace-event JSON of the pipeline spans")
    parser.add_argument("--tree", action="store_true", help="also print the span tree")
    _add_baseline_flags(parser)
    add_logging_flags(parser)
    args = parser.parse_args(argv)
    configure_logging(args.verbose, args.quiet)

    trace_obj = tracer.Tracer()
    try:
        with tracer.install(trace_obj):
            report, result = profile_run(
                args.kernel,
                args.variant,
                args.device,
                scale=args.scale,
                n=args.n,
                block=args.block,
                filter_size=args.filter_size,
                cores=args.cores,
            )
    except KernelError as exc:
        LOG.error("%s", exc)
        return 2

    if args.json:
        print(json.dumps(report.as_dict(), indent=1))
    else:
        print(render_report(report, result.stage_s))
    _lint_hints_for_profile(report, args)
    if args.tree:
        tree = trace_obj.render_tree(min_us=10.0)
        print(tree, file=sys.stderr if args.json else sys.stdout)
    if args.trace:
        trace_obj.write_chrome_trace(args.trace)
        LOG.info("[trace written to %s]", args.trace)
    return _save_or_check_baseline(args, [report])


#: Share of wall-clock spent in exposed DRAM latency above which the
#: profiler cross-references the linter for a likely cause.
DRAM_LATENCY_HINT_THRESHOLD = 0.5


def _lint_hints_for_profile(report, args) -> None:
    """When the attribution blames exposed DRAM latency for most of the
    run, point at the matching static diagnostics (a column-stride walk
    or an oversized tile usually *is* the cause)."""
    try:
        from repro.analysis.lint import lint_program
        from repro.devices.catalog import get_device
        from repro.kernels import build, resolve_cell

        base_key = resolve_cell(report.kernel, report.variant, args.device)[2]
        device = get_device(base_key).scaled(args.scale)
        # Exposed latency is keyed by the cache level the miss occurred
        # at; misses at the *last* level are the ones DRAM services.  The
        # bandwidth terms (dram_stream/dram_contention) are DRAM-exposed
        # time too, just attributed to throughput rather than latency.
        dram_keys = {
            f"exposed_latency.{device.caches[-1].name}",
            "exposed_latency.all",
            "dram_stream",
            "dram_contention",
        }
        total = sum(report.attribution.values())
        exposed_dram = sum(
            seconds
            for component, seconds in report.attribution.items()
            if component in dram_keys
        )
        if total <= 0 or exposed_dram / total <= DRAM_LATENCY_HINT_THRESHOLD:
            return
        program, _params, _kwargs = build(
            report.kernel, report.variant, device,
            n=args.n, block=args.block, filter_size=args.filter_size,
        )
        lint = lint_program(program, device=device,
                            kernel=report.kernel, variant=report.variant)
        hints = [d for d in lint.diagnostics if d.code in ("RPR002", "RPR003", "RPR004")]
    except Exception as exc:  # a failed hint must never fail the profile
        LOG.debug("lint hint skipped (%s: %s)", type(exc).__name__, exc)
        return
    if not hints:
        return
    LOG.warning(
        "%.0f%% of the wall-clock is exposed DRAM latency; "
        "`repro lint %s %s` flags likely causes:",
        100.0 * exposed_dram / total, report.kernel, report.variant,
    )
    for diag in hints:
        LOG.warning("  %s", diag.render().replace("\n", "\n  "))


def perf_main(argv: List[str]) -> int:
    from repro.kernels import KernelError
    from repro.observe.perf import (
        PERF_SCALE,
        perf_cell_task,
        render_diff,
        render_stat,
        run_perf,
    )

    parser = argparse.ArgumentParser(
        prog="repro perf",
        description=(
            "Simulated-PMU reports: perf-stat counter tables with 3C miss "
            "attribution, per-statement annotation, and variant diffs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, devices: bool) -> None:
        p.add_argument("kernel", help="transpose | blur | stream | scan")
        if devices:
            p.add_argument("--device", action="append", dest="devices", metavar="KEY",
                           default=None,
                           help="device key or unique prefix (repeatable; "
                                "default: mango_pi_d1)")
        else:
            p.add_argument("--device", default="mango_pi_d1", metavar="KEY",
                           help="device key or unique prefix (default: mango_pi_d1)")
        p.add_argument("--scale", type=int, default=PERF_SCALE,
                       help="cache scale factor (default 1: real cache sizes, "
                            "so miss classes match the hardware story)")
        p.add_argument("--n", type=int, default=None,
                       help="problem size override (matrix n / image width / elements)")
        p.add_argument("--block", type=int, default=None, help="transpose block size")
        p.add_argument("--filter", dest="filter_size", type=int, default=None,
                       help="blur filter size")
        p.add_argument("--cores", type=int, default=None,
                       help="active core count override")
        p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="fan cells across N worker processes "
                            "(0 = all cores; default: REPRO_JOBS or serial)")
        p.add_argument("--json", action="store_true",
                       help="emit the cells as JSON on stdout")
        p.add_argument("--openmetrics", metavar="FILE", default=None,
                       help="also write the counters in OpenMetrics text format")
        _add_baseline_flags(p)
        p.add_argument("--engine", choices=("exact", "fast"), default=None,
                       help="replay engine: 'exact' per-reference simulator or "
                            "the bit-identical batched 'fast' engine "
                            "(default: $REPRO_ENGINE, else fast)")
        add_logging_flags(p)

    p_stat = sub.add_parser("stat", help="perf-stat style counter table per cell")
    common(p_stat, devices=True)
    p_stat.add_argument("variants", nargs="+", metavar="variant",
                        help="one or more variant labels (e.g. Naive Blocking)")

    p_annotate = sub.add_parser(
        "annotate", help="per-IR-statement miss/byte breakdown on the listing"
    )
    common(p_annotate, devices=False)
    p_annotate.add_argument("variant", help="variant label (e.g. Naive)")
    p_annotate.add_argument("--level", default="L1",
                            help="cache level to annotate (default L1)")

    p_diff = sub.add_parser("diff", help="two variants side by side")
    common(p_diff, devices=False)
    p_diff.add_argument("variant_a", help="baseline variant (e.g. Naive)")
    p_diff.add_argument("variant_b", help="comparison variant (e.g. Blocking)")

    args = parser.parse_args(argv)
    configure_logging(args.verbose, args.quiet)
    if args.engine:
        # Exported (not passed through call chains) so WorkPool workers
        # inherit the selection too.
        os.environ["REPRO_ENGINE"] = args.engine

    base = {
        "kernel": args.kernel,
        "scale": args.scale,
        "n": args.n,
        "block": args.block,
        "filter_size": args.filter_size,
        "cores": args.cores,
    }
    if args.command == "stat":
        devices = args.devices or ["mango_pi_d1"]
        tasks = [
            dict(base, variant=variant, device_key=device)
            for device in devices
            for variant in args.variants
        ]
    elif args.command == "annotate":
        tasks = [dict(base, variant=args.variant, device_key=args.device)]
    else:
        tasks = [
            dict(base, variant=args.variant_a, device_key=args.device),
            dict(base, variant=args.variant_b, device_key=args.device),
        ]

    try:
        if len(tasks) > 1:
            with WorkPool(args.jobs) as pool:
                cells = pool.map(perf_cell_task, tasks)
        else:
            cells = [run_perf(**tasks[0])]
    except KernelError as exc:
        LOG.error("%s", exc)
        return 2

    if args.json:
        print(json.dumps([cell.as_dict() for cell in cells],
                         indent=1, sort_keys=True))
    elif args.command == "stat":
        print("\n\n".join(render_stat(cell) for cell in cells))
    elif args.command == "annotate":
        from repro.observe.annotate import render_annotate

        print(render_annotate(cells[0], level=args.level))
    else:
        print(render_diff(cells[0], cells[1]))

    if args.openmetrics:
        from repro.observe.openmetrics import render_openmetrics

        with open(args.openmetrics, "w", encoding="utf-8") as fh:
            fh.write(render_openmetrics(cells))
        LOG.info("[openmetrics written to %s]", args.openmetrics)

    return _save_or_check_baseline(args, cells)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "perf":
        return perf_main(argv[1:])
    if argv and argv[0] == "lint":
        return lint_main(argv[1:])
    if argv and argv[0] == "analyze":
        return analyze_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.server import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "top":
        return top_main(argv[1:])
    if argv and argv[0] == "status":
        # ``repro status`` grows trace filtering; the positional
        # ``repro-experiments status`` spelling keeps working below.
        return status_main(argv[1:])
    return figures_main(argv)


if __name__ == "__main__":
    sys.exit(main())
