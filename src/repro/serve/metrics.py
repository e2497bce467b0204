"""Serve-tier counters rendered in the shared OpenMetrics dialect.

The serve counters ride the same exposition helpers as the PMU exporter
(:mod:`repro.observe.openmetrics`), so a scraper sees one consistent
text format across ``repro perf --openmetrics`` artifacts and the live
``/metrics`` endpoint.

Families:

* ``repro_serve_submissions_total`` — every POST that reached admission;
* ``repro_serve_admitted_total`` / ``repro_serve_coalesced_total`` —
  enqueued as new work vs. attached to an in-flight duplicate;
* ``repro_serve_rejected_total{reason}`` — per rejection reason
  (``bad_request``, ``queue_full``, ``rate_limited``, ``breaker_open``,
  ``draining``);
* ``repro_serve_jobs_total{outcome}`` — terminal outcomes;
* ``repro_serve_job_seconds_total`` / ``repro_serve_jobs_timed_total``
  — executor wall-clock sum and count (average = sum / count);
* gauges: ``repro_serve_queue_depth``, ``repro_serve_inflight``,
  ``repro_serve_draining``, ``repro_serve_breaker_state`` (0 closed,
  1 half-open, 2 open) and ``repro_serve_breaker_transitions_total``.

RED/SLO latency histograms (all in seconds, ``# UNIT`` declared):

* ``repro_serve_request_seconds{endpoint,method}`` — HTTP request
  latency per normalized endpoint (job ids collapse to ``/jobs/{id}``);
* ``repro_serve_job_phase_seconds{phase,outcome}`` — per-job latency
  split into ``queue`` (admission → start), ``exec`` (start → settle)
  and ``total`` (admission → settle), labelled by terminal outcome.

Histogram buckets carry OpenMetrics **exemplars**: the most recent
traced observation that fell into the bucket, as a ``trace_id`` label —
so an operator staring at a hot p99 bucket can jump straight to
``GET /jobs/<id>/trace`` / ``repro trace`` for one concrete request.

All mutation happens on the server event loop, so there is no locking.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.observe.openmetrics import format_sample, render_exposition

_BREAKER_STATES = {"closed": 0, "half-open": 1, "open": 2}

#: Default latency buckets (seconds): sub-ms cache hits through
#: multi-second simulate calls.
DEFAULT_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.5, 1.0, 2.5, 10.0)


class Histogram:
    """A fixed-bucket latency histogram with per-bucket exemplars.

    One instance per label set; cumulative bucket counts are computed at
    render time so observation stays O(log buckets)-ish (linear scan of
    a tiny tuple, in practice).
    """

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)   # +Inf bucket last
        self.exemplars: List[Optional[Tuple[str, float]]] = [None] * len(self.counts)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, trace_id: str = "") -> None:
        value = max(0.0, float(value))
        self.sum += value
        self.count += 1
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        if trace_id:
            self.exemplars[index] = (trace_id, value)

    def sample_lines(self, name: str, labels: List[Tuple[str, str]]) -> List[str]:
        """``_bucket``/``_count``/``_sum`` exposition lines."""
        lines: List[str] = []
        cumulative = 0
        for i, bound in enumerate(list(self.buckets) + [float("inf")]):
            cumulative += self.counts[i]
            le = "+Inf" if bound == float("inf") else f"{bound:g}"
            exemplar = None
            if self.exemplars[i] is not None:
                trace_id, value = self.exemplars[i]
                exemplar = ([("trace_id", trace_id)], value)
            lines.append(format_sample(
                f"{name}_bucket", labels + [("le", le)], cumulative,
                exemplar=exemplar,
            ))
        lines.append(format_sample(f"{name}_count", labels, self.count))
        lines.append(format_sample(f"{name}_sum", labels, repr(self.sum)))
        return lines


class ServeMetrics:
    """Mutable counter/gauge state for one server instance."""

    def __init__(self) -> None:
        self.submissions = 0
        self.admitted = 0
        self.coalesced = 0
        self.rejected: Dict[str, int] = {}
        self.outcomes: Dict[str, int] = {}
        self.job_seconds = 0.0
        self.jobs_timed = 0
        self.queue_depth = 0
        self.inflight = 0
        self.draining = 0
        self.breaker_state = "closed"
        self.breaker_transitions = 0
        # (endpoint, method) -> request-latency histogram
        self.request_latency: Dict[Tuple[str, str], Histogram] = {}
        # (phase, outcome) -> job-phase-latency histogram
        self.job_phases: Dict[Tuple[str, str], Histogram] = {}

    # -- recording -----------------------------------------------------------

    def record_rejection(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def record_outcome(self, outcome: str, duration_s: float = 0.0) -> None:
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if duration_s > 0:
            self.job_seconds += duration_s
            self.jobs_timed += 1

    def record_request(self, endpoint: str, method: str, seconds: float,
                       trace_id: str = "") -> None:
        histogram = self.request_latency.get((endpoint, method))
        if histogram is None:
            histogram = self.request_latency[(endpoint, method)] = Histogram()
        histogram.observe(seconds, trace_id)

    def record_job_phase(self, phase: str, outcome: str, seconds: float,
                         trace_id: str = "") -> None:
        histogram = self.job_phases.get((phase, outcome))
        if histogram is None:
            histogram = self.job_phases[(phase, outcome)] = Histogram()
        histogram.observe(seconds, trace_id)

    def avg_job_seconds(self) -> float:
        return self.job_seconds / self.jobs_timed if self.jobs_timed else 0.0

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """One OpenMetrics exposition (terminated with ``# EOF``)."""
        families: Dict[str, Tuple[str, ...]] = {
            "repro_serve_submissions_total": ("counter", "Submissions reaching admission."),
            "repro_serve_admitted_total": ("counter", "Submissions enqueued as new jobs."),
            "repro_serve_coalesced_total": (
                "counter", "Duplicate submissions attached to in-flight jobs.",
            ),
            "repro_serve_rejected_total": ("counter", "Rejections per admission reason."),
            "repro_serve_jobs_total": ("counter", "Terminal job outcomes."),
            "repro_serve_job_seconds_total": (
                "counter", "Executor wall-clock seconds.", "seconds",
            ),
            "repro_serve_jobs_timed_total": ("counter", "Jobs contributing to job seconds."),
            "repro_serve_request_seconds": (
                "histogram",
                "HTTP request latency per endpoint (exemplars carry trace ids).",
                "seconds",
            ),
            "repro_serve_job_phase_seconds": (
                "histogram",
                "Job latency split into queue/exec/total phases per outcome.",
                "seconds",
            ),
            "repro_serve_queue_depth": ("gauge", "Jobs waiting in the bounded queue."),
            "repro_serve_inflight": ("gauge", "Jobs currently executing."),
            "repro_serve_draining": ("gauge", "1 while a SIGTERM drain is in progress."),
            "repro_serve_breaker_state": (
                "gauge", "Circuit breaker state: 0 closed, 1 half-open, 2 open.",
            ),
            "repro_serve_breaker_transitions_total": (
                "counter", "Circuit breaker state transitions.",
            ),
        }
        samples: Dict[str, List[str]] = {
            "repro_serve_submissions_total": [
                format_sample("repro_serve_submissions_total", [], self.submissions)
            ],
            "repro_serve_admitted_total": [
                format_sample("repro_serve_admitted_total", [], self.admitted)
            ],
            "repro_serve_coalesced_total": [
                format_sample("repro_serve_coalesced_total", [], self.coalesced)
            ],
            "repro_serve_rejected_total": [
                format_sample("repro_serve_rejected_total", [("reason", reason)], count)
                for reason, count in sorted(self.rejected.items())
            ],
            "repro_serve_jobs_total": [
                format_sample("repro_serve_jobs_total", [("outcome", outcome)], count)
                for outcome, count in sorted(self.outcomes.items())
            ],
            "repro_serve_job_seconds_total": [
                format_sample("repro_serve_job_seconds_total", [], repr(self.job_seconds))
            ],
            "repro_serve_jobs_timed_total": [
                format_sample("repro_serve_jobs_timed_total", [], self.jobs_timed)
            ],
            "repro_serve_request_seconds": [
                line
                for (endpoint, method), histogram in sorted(self.request_latency.items())
                for line in histogram.sample_lines(
                    "repro_serve_request_seconds",
                    [("endpoint", endpoint), ("method", method)],
                )
            ],
            "repro_serve_job_phase_seconds": [
                line
                for (phase, outcome), histogram in sorted(self.job_phases.items())
                for line in histogram.sample_lines(
                    "repro_serve_job_phase_seconds",
                    [("phase", phase), ("outcome", outcome)],
                )
            ],
            "repro_serve_queue_depth": [
                format_sample("repro_serve_queue_depth", [], self.queue_depth)
            ],
            "repro_serve_inflight": [
                format_sample("repro_serve_inflight", [], self.inflight)
            ],
            "repro_serve_draining": [
                format_sample("repro_serve_draining", [], self.draining)
            ],
            "repro_serve_breaker_state": [
                format_sample(
                    "repro_serve_breaker_state", [],
                    _BREAKER_STATES.get(self.breaker_state, 2),
                )
            ],
            "repro_serve_breaker_transitions_total": [
                format_sample(
                    "repro_serve_breaker_transitions_total", [], self.breaker_transitions
                )
            ],
        }
        return render_exposition(families, samples)
