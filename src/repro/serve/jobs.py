"""Job specs and job state for the serve tier.

A job names one ``(kernel, variant, device, scale)`` simulation cell —
the same coordinates the figure harnesses sweep — plus optional size
overrides, a tenant id (for rate limiting) and a per-job deadline that
is mapped onto the runtime supervisor's whole-call budget.

Every job terminates in exactly one structured outcome:

* ``completed`` / ``skipped`` / ``timed_out`` / ``failed`` — the
  supervisor's classifications, passed through from the runner;
* ``rejected`` — the serve tier's own terminal state: the job was
  refused at admission (queue full, rate limited, breaker open,
  draining) or drained before it could run.

Duplicate submissions dedup on the job's canonical ``v2:`` cache key
(:func:`repro.runtime.canonical_key` over the run-key tuple), the same
identity the run cache and the cross-process key locks use — so "one
in-flight computation per key" composes with the existing dogpile
protection instead of inventing a parallel notion of identity.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.runtime.cache import canonical_key

#: Every terminal job outcome the API can return.
TERMINAL_OUTCOMES = ("completed", "skipped", "timed_out", "failed", "rejected")

#: Admission-rejection reasons (the ``reason`` label on the metrics).
REJECT_BAD_REQUEST = "bad_request"
REJECT_QUEUE_FULL = "queue_full"
REJECT_RATE_LIMITED = "rate_limited"
REJECT_BREAKER_OPEN = "breaker_open"
REJECT_DRAINING = "draining"


class JobValidationError(ValueError):
    """A submission payload that cannot become a job (HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """Validated coordinates of one simulation job."""

    kernel: str
    variant: str
    device: str
    scale: int = 1
    n: Optional[int] = None
    block: Optional[int] = None
    filter_size: Optional[int] = None
    tenant: str = "default"
    deadline_s: Optional[float] = None
    engine: Optional[str] = None           # exact | fast | None (env default)

    def run_key(self) -> Tuple:
        """The runner key tuple; ``serve`` is the journal family tag.

        ``engine`` is deliberately excluded: the fast engine is
        bit-identical to the exact one, so both produce the same record
        and may share cache entries and in-flight dedup.
        """
        return (
            "serve", self.kernel, self.variant, self.device,
            self.scale, self.n, self.block, self.filter_size,
        )

    def cache_key(self) -> str:
        return canonical_key(self.run_key())

    def task(self, cache_path: Optional[str]) -> Dict[str, Any]:
        """The picklable executor task for this spec."""
        task = asdict(self)
        task["cache_path"] = cache_path
        return task


def _opt_positive_int(payload: Dict, name: str) -> Optional[int]:
    value = payload.get(name)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value <= 0:
        raise JobValidationError(f"{name!r} must be a positive integer, got {value!r}")
    return value


def resolve_spec(payload: Any, default_scale: int = 1) -> JobSpec:
    """Validate a submission payload into a :class:`JobSpec`.

    Kernel, variant and device names are resolved with the same
    case-insensitive unique-prefix rules the CLI uses, so the service
    rejects unknown work at admission (HTTP 400) instead of burning a
    queue slot on a job that can only fail.
    """
    from repro.kernels import KernelError, resolve_cell

    if not isinstance(payload, dict):
        raise JobValidationError("submission body must be a JSON object")
    unknown = set(payload) - {
        "kernel", "variant", "device", "scale", "n", "block",
        "filter_size", "tenant", "deadline_s", "engine",
    }
    if unknown:
        raise JobValidationError(f"unknown fields: {', '.join(sorted(unknown))}")
    try:
        kernel, variant, device = resolve_cell(
            str(payload.get("kernel", "")),
            str(payload.get("variant", "")),
            str(payload.get("device", "")),
        )
    except KernelError as exc:
        raise JobValidationError(str(exc)) from exc

    scale = payload.get("scale", default_scale)
    if isinstance(scale, bool) or not isinstance(scale, int) or scale < 1:
        raise JobValidationError(f"'scale' must be a positive integer, got {scale!r}")

    deadline = payload.get("deadline_s")
    if deadline is not None:
        if isinstance(deadline, bool) or not isinstance(deadline, (int, float)) \
                or deadline <= 0:
            raise JobValidationError(
                f"'deadline_s' must be a positive number, got {deadline!r}"
            )
        deadline = float(deadline)

    tenant = str(payload.get("tenant", "default")) or "default"
    if len(tenant) > 128:
        raise JobValidationError("'tenant' must be at most 128 characters")

    engine = payload.get("engine")
    if engine is not None and engine not in ("exact", "fast"):
        raise JobValidationError(
            f"'engine' must be 'exact' or 'fast', got {engine!r}"
        )

    return JobSpec(
        kernel=kernel,
        variant=variant,
        device=device,
        scale=scale,
        n=_opt_positive_int(payload, "n"),
        block=_opt_positive_int(payload, "block"),
        filter_size=_opt_positive_int(payload, "filter_size"),
        tenant=tenant,
        deadline_s=deadline,
        engine=engine,
    )


@dataclass
class Job:
    """One submitted job's full lifecycle, owned by the server loop."""

    id: str
    spec: JobSpec
    key: str
    state: str = "queued"                  # queued | running | done
    outcome: str = ""                      # one of TERMINAL_OUTCOMES when done
    reason: str = ""
    record: Optional[Dict[str, Any]] = None
    source: str = ""                       # simulated | disk-cache | memory-cache
    submitted_ts: float = field(default_factory=time.time)
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None
    attempts: int = 0
    duration_s: float = 0.0
    submissions: int = 1                   # coalesced duplicate submissions
    done: "asyncio.Event" = field(default_factory=asyncio.Event, repr=False)
    # -- distributed tracing (empty when the server runs with tracing off) --
    trace_id: str = ""                     # whole-request trace id
    parent_span: str = ""                  # remote caller's span (traceparent header)
    root_span: str = ""                    # the serve.job span id
    exec_span: str = ""                    # the serve.execute span id (worker parent)
    # Tracer-clock (µs since tracer epoch) marks for settle-time spans.
    submitted_us: float = 0.0
    started_us: Optional[float] = None
    finished_us: Optional[float] = None
    # -- progress event log (the SSE stream's source of truth) --------------
    events: List[Dict[str, Any]] = field(default_factory=list, repr=False)
    attempts_seen: Set[int] = field(default_factory=set, repr=False)

    @property
    def terminal(self) -> bool:
        return self.state == "done"

    def add_event(self, name: str, **fields: Any) -> Dict[str, Any]:
        """Append one progress event with a monotonically increasing id
        (the SSE ``id:`` field, so ``Last-Event-ID`` resume is exact)."""
        event: Dict[str, Any] = {
            "id": len(self.events) + 1,
            "event": name,
            "ts": time.time(),
            "job_id": self.id,
        }
        if self.trace_id:
            event["trace"] = self.trace_id
        event.update(fields)
        self.events.append(event)
        return event

    def finish(self, outcome: str, reason: str = "", record: Optional[Dict] = None,
               attempts: int = 0, duration_s: float = 0.0, source: str = "") -> None:
        self.state = "done"
        self.outcome = outcome
        self.reason = reason
        self.record = record
        self.attempts = attempts
        self.duration_s = duration_s
        self.source = source
        self.finished_ts = time.time()
        self.add_event("outcome", outcome=outcome, reason=reason, source=source,
                       attempts=attempts, duration_s=duration_s)
        self.done.set()

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "job_id": self.id,
            "key": self.key,
            "state": self.state,
            "spec": asdict(self.spec),
            "submitted_ts": self.submitted_ts,
            "submissions": self.submissions,
        }
        if self.trace_id:
            out["trace_id"] = self.trace_id
        if self.started_ts is not None:
            out["started_ts"] = self.started_ts
        if self.terminal:
            out["outcome"] = self.outcome
            out["reason"] = self.reason
            out["attempts"] = self.attempts
            out["duration_s"] = self.duration_s
            out["finished_ts"] = self.finished_ts
            out["source"] = self.source
            if self.record is not None:
                out["record"] = self.record
        return out
