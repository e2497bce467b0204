"""The ``repro serve`` tier: admission, breaker, coalescing, drain, chaos.

The integration tests boot a real :class:`ServerHandle` (asyncio server
on a background thread, real TCP sockets on an ephemeral port) and talk
to it with the blocking :class:`ServeClient` — the same path the CI
smoke job uses.  Faults are injected via ``REPRO_FAULTS`` exactly like
the batch chaos suite, so degradation (retries, timeouts, breaker
trips) is deterministic.
"""

from __future__ import annotations

import http.client
import json
import re
import threading
import time

import pytest

from repro.observe.openmetrics import parse_exposition
from repro.runtime import clear_faults, default_journal_path, read_journal
from repro.serve import ServeConfig, ServerHandle
from repro.serve.admission import RateLimiter, TokenBucket, retry_after_for_queue
from repro.serve.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.client import ServeClient, ServeError, ServeTimeout
from repro.serve.executor import execute_job, reset_runners
from repro.serve.jobs import TERMINAL_OUTCOMES, JobValidationError, resolve_spec


SPEC = {"kernel": "transpose", "variant": "Naive", "device": "mango_pi_d1", "n": 64}


@pytest.fixture(autouse=True)
def _serve_isolation(monkeypatch, tmp_path):
    """Fresh cache, no faults, no PMU, fast retries for every test."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.setenv("REPRO_PMU", "off")
    monkeypatch.setenv("REPRO_RETRY_BASE", "0.001")
    monkeypatch.delenv("REPRO_RETRIES", raising=False)
    monkeypatch.delenv("REPRO_DEADLINE", raising=False)
    clear_faults()
    reset_runners()
    yield
    clear_faults()
    reset_runners()


def _config(tmp_path, **overrides) -> ServeConfig:
    defaults = dict(
        jobs=1,
        queue_max=8,
        drain_timeout_s=5.0,
        cache_path=str(tmp_path / "serve_cache.json"),
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


# -- admission units -----------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_reject_then_refill(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        now = 100.0
        assert bucket.take(now) == (True, 0.0)
        assert bucket.take(now) == (True, 0.0)
        ok, retry = bucket.take(now)
        assert not ok and retry == pytest.approx(1.0)
        ok, retry = bucket.take(now + 1.0)  # one token refilled
        assert ok

    def test_zero_rate_never_refills(self):
        bucket = TokenBucket(rate=0.0, burst=1.0)
        assert bucket.take(10.0)[0]
        ok, retry = bucket.take(1000.0)
        assert not ok and retry > 0


class TestRateLimiter:
    def test_disabled_at_zero_rate(self):
        limiter = RateLimiter(rate=0.0)
        assert all(limiter.admit("t")[0] for _ in range(100))

    def test_tenants_are_isolated(self):
        limiter = RateLimiter(rate=0.001, burst=1.0)
        assert limiter.admit("a")[0]
        assert not limiter.admit("a")[0]  # a's bucket is empty…
        assert limiter.admit("b")[0]      # …but b's is untouched


class TestRetryAfterForQueue:
    def test_floor_and_estimate(self):
        assert retry_after_for_queue(0, 2, 0.0) == 1
        assert retry_after_for_queue(8, 2, 3.0) == 12  # 8*3/2
        assert retry_after_for_queue(1, 4, 0.01) == 1  # floored


# -- breaker unit --------------------------------------------------------------


class TestCircuitBreaker:
    def test_consecutive_failures_trip(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=10.0)
        for _ in range(2):
            breaker.record("failed", now=0.0)
        breaker.record("completed", now=0.0)  # resets the streak
        assert breaker.state == CLOSED
        for _ in range(3):
            breaker.record("failed", now=0.0)
        assert breaker.state == OPEN

    def test_degraded_outcomes_do_not_trip(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=10.0)
        for outcome in ("timed_out", "skipped", "timed_out", "skipped"):
            breaker.record(outcome, now=0.0)
        assert breaker.state == CLOSED

    def test_open_rejects_until_cooldown_then_single_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0)
        breaker.record("failed", now=0.0)
        assert breaker.state == OPEN
        allowed, retry = breaker.allow(now=1.0)
        assert not allowed and retry == pytest.approx(4.0)
        # Cooldown expired: half-open admits exactly one probe.
        assert breaker.allow(now=6.0) == (True, 0.0)
        assert breaker.state == HALF_OPEN
        assert not breaker.allow(now=6.0)[0]

    def test_probe_outcome_closes_or_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0)
        breaker.record("failed", now=0.0)
        assert breaker.allow(now=6.0)[0]
        breaker.record("completed", now=6.5)
        assert breaker.state == CLOSED

        breaker.record("failed", now=7.0)
        assert breaker.allow(now=13.0)[0]
        breaker.record("failed", now=13.5)
        assert breaker.state == OPEN


# -- job spec validation -------------------------------------------------------


class TestResolveSpec:
    def test_prefix_resolution(self):
        spec = resolve_spec({"kernel": "trans", "variant": "na", "device": "mango"})
        assert spec.kernel == "transpose"
        assert spec.variant == "Naive"
        assert spec.device == "mango_pi_d1"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(JobValidationError):
            resolve_spec({"kernel": "fft", "variant": "Naive", "device": "mango"})

    def test_unknown_field_rejected(self):
        with pytest.raises(JobValidationError, match="unknown fields"):
            resolve_spec(dict(SPEC, bogus=1))

    def test_bad_scale_and_sizes_rejected(self):
        with pytest.raises(JobValidationError):
            resolve_spec(dict(SPEC, scale=0))
        with pytest.raises(JobValidationError):
            resolve_spec(dict(SPEC, n=-4))
        with pytest.raises(JobValidationError):
            resolve_spec(dict(SPEC, deadline_s=0))

    def test_cache_key_is_canonical_and_stable(self):
        a = resolve_spec(dict(SPEC))
        b = resolve_spec({"kernel": "trans", "variant": "naive",
                          "device": "mango", "n": 64})
        assert a.cache_key() == b.cache_key()
        assert a.cache_key().startswith("v2:")


# -- executor ------------------------------------------------------------------


class TestExecuteJob:
    def test_completes_with_record(self, tmp_path):
        spec = resolve_spec(dict(SPEC))
        result = execute_job(spec.task(str(tmp_path / "cache.json")))
        assert result["outcome"] == "completed"
        assert result["record"]["seconds"] > 0
        assert result["source"] == "simulated"

    def test_never_raises_on_garbage_task(self):
        result = execute_job({"kernel": "transpose"})  # missing fields
        assert result["outcome"] == "failed"
        assert "executor crash" in result["reason"]

    def test_deadline_maps_to_timed_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "sim_hang:0.4")
        spec = resolve_spec(dict(SPEC, deadline_s=0.05))
        result = execute_job(spec.task(str(tmp_path / "cache.json")))
        assert result["outcome"] == "timed_out"


# -- server integration --------------------------------------------------------


class TestServerBasics:
    def test_submit_completes_and_caches(self, tmp_path):
        with ServerHandle(_config(tmp_path)) as handle:
            client = ServeClient(port=handle.port, timeout_s=15)
            done = client.submit_and_wait(SPEC, timeout_s=30)
            assert done["outcome"] == "completed"
            assert done["record"]["seconds"] > 0
            assert done["source"] == "simulated"
            # Same key again: served from cache, no re-simulation.
            again = client.submit_and_wait(SPEC, timeout_s=30)
            assert again["outcome"] == "completed"
            assert again["source"] in ("memory-cache", "disk-cache")

    def test_health_ready_metrics_endpoints(self, tmp_path):
        with ServerHandle(_config(tmp_path)) as handle:
            client = ServeClient(port=handle.port, timeout_s=15)
            assert client.healthz()["status"] == "ok"
            ready, body = client.readyz()
            assert ready and body["breaker"] == "closed"
            client.submit_and_wait(SPEC, timeout_s=30)
            exposition = client.metrics()
            assert "# TYPE repro_serve_submissions_total counter" in exposition
            assert 'repro_serve_jobs_total{outcome="completed"} 1' in exposition
            assert exposition.rstrip().endswith("# EOF")

    def test_bad_request_is_structured_400(self, tmp_path):
        with ServerHandle(_config(tmp_path)) as handle:
            client = ServeClient(port=handle.port, timeout_s=15)
            status, body = client.submit({"kernel": "fft", "variant": "x",
                                          "device": "mango"})
            assert status == 400
            assert body["outcome"] == "rejected"
            assert body["reason"] == "bad_request"

    def test_unknown_endpoint_and_job_are_structured(self, tmp_path):
        with ServerHandle(_config(tmp_path)) as handle:
            client = ServeClient(port=handle.port, timeout_s=15)
            status, body, _ = client.request("GET", "/nope")
            assert status == 404 and body["outcome"] == "rejected"
            status, body, _ = client.request("GET", "/jobs/j999999")
            assert status == 404 and body["outcome"] == "rejected"


class TestCoalescing:
    def test_duplicate_submissions_execute_once(self, tmp_path, monkeypatch):
        """Concurrent duplicates of one key coalesce onto one in-flight
        job and the journal shows exactly one simulated execution."""
        monkeypatch.setenv("REPRO_FAULTS", "sim_hang:0.6")
        cache_path = str(tmp_path / "serve_cache.json")
        config = _config(tmp_path, cache_path=cache_path)
        with ServerHandle(config) as handle:
            client = ServeClient(port=handle.port, timeout_s=15)
            status, first = client.submit(SPEC)
            assert status == 202
            # While the first job hangs in simulate, duplicates coalesce.
            dup_ids = []
            for _ in range(4):
                dup_status, dup = client.submit(dict(SPEC))
                assert dup_status == 200
                dup_ids.append(dup["job_id"])
            assert set(dup_ids) == {first["job_id"]}
            done = client.wait(first["job_id"], timeout_s=30)
            assert done["outcome"] == "completed"
            assert done["submissions"] == 5
            exposition = client.metrics()
            assert "repro_serve_coalesced_total 4" in exposition

        entries = [
            e for e in read_journal(default_journal_path(cache_path))
            if e.key == done["key"] and e.source == "simulated"
        ]
        assert len(entries) == 1


class TestBackpressure:
    def test_queue_overflow_is_429_with_retry_after(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "sim_hang:1.0")
        config = _config(tmp_path, jobs=1, queue_max=1, drain_timeout_s=8.0)
        with ServerHandle(config) as handle:
            client = ServeClient(port=handle.port, timeout_s=15)
            status, first = client.submit(SPEC)
            assert status == 202
            # Wait until the first job occupies the worker…
            deadline = time.monotonic() + 5.0
            while client.job(first["job_id"])["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.02)
            # …then one distinct job fills the queue and the next overflows.
            status, _ = client.submit(dict(SPEC, variant="Blocking"))
            assert status == 202
            status, body, headers = client.request(
                "POST", "/jobs", dict(SPEC, variant="Dynamic")
            )
            assert status == 429
            assert body["reason"] == "queue_full"
            assert int(headers["retry-after"]) >= 1

    def test_rate_limit_is_429_per_tenant(self, tmp_path):
        config = _config(tmp_path, rate=0.001, burst=1.0)
        with ServerHandle(config) as handle:
            client = ServeClient(port=handle.port, timeout_s=15)
            status, _ = client.submit(dict(SPEC, tenant="alice"))
            assert status == 202
            status, body, headers = client.request(
                "POST", "/jobs", dict(SPEC, variant="Blocking", tenant="alice")
            )
            assert status == 429
            assert body["reason"] == "rate_limited"
            assert int(headers["retry-after"]) >= 1
            # A different tenant is unaffected.
            status, _ = client.submit(dict(SPEC, variant="Blocking",
                                           tenant="bob"))
            assert status == 202


class TestBreakerIntegration:
    def test_breaker_opens_sheds_load_and_recovers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "1")
        monkeypatch.setenv("REPRO_FAULTS", "sim_flaky:99")
        config = _config(tmp_path, breaker_threshold=2, breaker_cooldown_s=0.3)
        with ServerHandle(config) as handle:
            client = ServeClient(port=handle.port, timeout_s=15)
            for variant in ("Naive", "Blocking"):
                done = client.submit_and_wait(dict(SPEC, variant=variant),
                                              timeout_s=30)
                assert done["outcome"] == "failed"
            # Two consecutive failures tripped the breaker: load is shed.
            status, body, headers = client.request(
                "POST", "/jobs", dict(SPEC, variant="Dynamic")
            )
            assert status == 503
            assert body["reason"] == "breaker_open"
            assert int(headers["retry-after"]) >= 1
            ready, ready_body = client.readyz()
            assert not ready and ready_body["breaker"] == "open"
            assert client.healthz()["status"] == "ok"  # liveness unaffected

            # Heal the fault, wait out the cooldown: the probe job closes it.
            monkeypatch.delenv("REPRO_FAULTS")
            clear_faults()
            time.sleep(0.35)
            done = client.submit_and_wait(dict(SPEC, variant="Dynamic"),
                                          timeout_s=30)
            assert done["outcome"] == "completed"
            assert client.readyz()[0]


class TestDrain:
    def test_drain_rejects_new_work_and_resolves_queued(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "sim_hang:1.0")
        config = _config(tmp_path, jobs=1, queue_max=4, drain_timeout_s=0.2)
        handle = ServerHandle(config).start()
        client = ServeClient(port=handle.port, timeout_s=15)
        status, running = client.submit(SPEC)
        assert status == 202
        status, queued = client.submit(dict(SPEC, variant="Blocking"))
        assert status == 202

        assert handle._loop is not None
        handle._loop.call_soon_threadsafe(handle.server.begin_drain)
        time.sleep(0.05)
        status, body = client.submit(dict(SPEC, variant="Dynamic"))
        assert status == 503 and body["reason"] == "draining"

        handle.stop()
        # Every admitted job resolved to a structured terminal outcome.
        for job in (running, queued):
            stored = handle.server._jobs[job["job_id"]]
            assert stored.terminal
            assert stored.outcome in TERMINAL_OUTCOMES
        assert handle.server._jobs[queued["job_id"]].outcome == "rejected"


class TestSigterm:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """A real ``repro serve`` process completes in-flight work and
        exits 0 on SIGTERM (the CI smoke job's core assertion)."""
        import os
        import signal
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE"] = str(tmp_path / "cache.json")
        env["REPRO_PMU"] = "off"
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from repro.cli import main; "
             "sys.exit(main(['serve', '--port', '0', '--drain-timeout', '10']))"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            port = int(line.strip().rsplit(":", 1)[1])
            client = ServeClient(port=port, timeout_s=15)
            assert client.healthz()["status"] == "ok"
            done = client.submit_and_wait(SPEC, timeout_s=60)
            assert done["outcome"] == "completed"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


class TestChaosSoak:
    def test_concurrent_clients_under_faults_all_resolve(self, tmp_path, monkeypatch):
        """≥8 concurrent clients vs a 2-slot server under transient
        faults: every submission resolves to a structured outcome, no
        unhandled 500s, endpoints stay live."""
        monkeypatch.setenv("REPRO_FAULTS", "sim_flaky:1")  # fail once per key
        monkeypatch.setenv("REPRO_RETRIES", "3")
        config = _config(tmp_path, jobs=2, queue_max=32, drain_timeout_s=30.0)
        variants = ["Naive", "Parallel", "Blocking", "Dynamic"]
        results: list = []
        errors: list = []

        with ServerHandle(config) as handle:
            client = ServeClient(port=handle.port, timeout_s=30)

            def hammer(worker: int) -> None:
                try:
                    spec = dict(SPEC, variant=variants[worker % len(variants)])
                    outcome = client.submit_and_wait(spec, timeout_s=60)
                    results.append(outcome)
                    if worker % 3 == 0:  # sprinkle invalid and probe traffic
                        status, body = client.submit({"kernel": "bogus",
                                                      "variant": "x",
                                                      "device": "mango"})
                        assert status == 400 and body["outcome"] == "rejected"
                        client.healthz()
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append((worker, repr(exc)))

            threads = [threading.Thread(target=hammer, args=(w,))
                       for w in range(9)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)

            assert not errors, errors
            assert len(results) == 9
            for outcome in results:
                assert outcome["outcome"] in TERMINAL_OUTCOMES
                # sim_flaky:1 with 3 attempts: every job degrades to success.
                assert outcome["outcome"] == "completed"
            exposition = client.metrics()
            assert "repro_serve_submissions_total" in exposition
            assert client.healthz()["status"] == "ok"


class TestTracingIntegration:
    def test_job_trace_is_one_connected_tree(self, tmp_path):
        with ServerHandle(_config(tmp_path)) as handle:
            client = ServeClient(port=handle.port, timeout_s=15)
            status, body = client.submit(SPEC)
            assert status == 202
            done = client.wait(body["job_id"], timeout_s=30)
            assert done["outcome"] == "completed"
            assert len(done["trace_id"]) == 32
            trace = client.trace(body["job_id"])
            assert trace["trace_id"] == done["trace_id"]
            assert trace["complete"]
            assert trace["roots"] == 1
            names = {s["name"] for s in trace["spans"]}
            assert {"serve.job", "serve.queue_wait", "serve.execute"} <= names
            assert "simulate" in names  # the worker side joined the tree
            assert len(trace["tree"]) == 1

    def test_worker_process_spans_join_the_tree(self, tmp_path):
        """--jobs 2: spans recorded inside the spawned pool worker re-root
        under the server's execute span — one tree across two pids."""
        with ServerHandle(_config(tmp_path, jobs=2)) as handle:
            client = ServeClient(port=handle.port, timeout_s=30)
            status, body = client.submit(SPEC)
            assert status == 202
            done = client.wait(body["job_id"], timeout_s=60)
            assert done["outcome"] == "completed"
            trace = client.trace(body["job_id"])
            assert trace["roots"] == 1
            pids = {s["pid"] for s in trace["spans"]}
            assert len(pids) >= 2  # server track + worker track
            # Every span except the root links to a parent in the set.
            by_id = {s["span_id"] for s in trace["spans"]}
            orphans = [
                s for s in trace["spans"]
                if s["parent_id"] and s["parent_id"] not in by_id
            ]
            assert orphans == []

    def test_traceparent_header_continues_client_trace(self, tmp_path):
        client_trace = "ab" * 16
        client_span = "cd" * 8
        header = f"00-{client_trace}-{client_span}-01"
        with ServerHandle(_config(tmp_path)) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=15)
            try:
                conn.request(
                    "POST", "/jobs", body=json.dumps(SPEC),
                    headers={"Content-Type": "application/json",
                             "traceparent": header},
                )
                body = json.loads(conn.getresponse().read())
            finally:
                conn.close()
            client = ServeClient(port=handle.port, timeout_s=15)
            done = client.wait(body["job_id"], timeout_s=30)
            assert done["trace_id"] == client_trace
            trace = client.trace(body["job_id"])
            # The server's root span parents under the client's span; the
            # tree still assembles to one root (the client span is remote).
            assert trace["roots"] == 1
            root = trace["tree"][0]
            assert root["name"] == "serve.job"
            assert root["parent_id"] == client_span

    def test_malformed_traceparent_header_minted_fresh(self, tmp_path):
        with ServerHandle(_config(tmp_path)) as handle:
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=15)
            try:
                conn.request(
                    "POST", "/jobs", body=json.dumps(SPEC),
                    headers={"Content-Type": "application/json",
                             "traceparent": "00-" + "0" * 32 + "-" + "1" * 16 + "-01"},
                )
                body = json.loads(conn.getresponse().read())
            finally:
                conn.close()
            client = ServeClient(port=handle.port, timeout_s=15)
            done = client.wait(body["job_id"], timeout_s=30)
            # All-zero trace id is invalid; the server minted its own.
            assert len(done["trace_id"]) == 32
            assert done["trace_id"] != "0" * 32

    def test_trace_endpoint_404s(self, tmp_path):
        with ServerHandle(_config(tmp_path)) as handle:
            client = ServeClient(port=handle.port, timeout_s=15)
            status, body, _ = client.request("GET", "/jobs/j999999/trace")
            assert status == 404 and body["outcome"] == "rejected"
        with ServerHandle(_config(tmp_path, trace=False)) as handle:
            client = ServeClient(port=handle.port, timeout_s=15)
            status, body = client.submit(SPEC)
            assert status == 202
            client.wait(body["job_id"], timeout_s=30)
            status, payload, _ = client.request(
                "GET", f"/jobs/{body['job_id']}/trace"
            )
            assert status == 404
            assert "disabled" in payload["reason"]


class TestSSEStreaming:
    def test_replays_full_event_sequence(self, tmp_path):
        with ServerHandle(_config(tmp_path)) as handle:
            client = ServeClient(port=handle.port, timeout_s=15)
            status, body = client.submit(SPEC)
            assert status == 202
            client.wait(body["job_id"], timeout_s=30)
            events = [e for e in client.stream_events(body["job_id"])
                      if "comment" not in e]
            names = [e["event"] for e in events]
            assert names[0] == "admitted"
            assert "queued" in names and "started" in names
            assert names[-1] == "outcome"
            ids = [e["id"] for e in events]
            assert ids == sorted(ids) and len(set(ids)) == len(ids)
            outcome = events[-1]
            assert outcome["outcome"] == "completed"
            assert outcome["trace"] == client.job(body["job_id"])["trace_id"]

    def test_heartbeats_keep_slow_streams_alive(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "sim_hang:0.8")
        config = _config(tmp_path, sse_heartbeat_s=0.2)
        with ServerHandle(config) as handle:
            client = ServeClient(port=handle.port, timeout_s=15)
            status, body = client.submit(SPEC)
            assert status == 202
            frames = list(client.stream_events(body["job_id"], timeout_s=30))
            heartbeats = [f for f in frames if f.get("comment") == "heartbeat"]
            assert heartbeats  # idle gaps were filled
            assert frames[-1].get("event") == "outcome"

    def test_disconnect_then_resume_via_last_event_id(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "sim_hang:0.6")
        with ServerHandle(_config(tmp_path)) as handle:
            client = ServeClient(port=handle.port, timeout_s=15)
            status, body = client.submit(SPEC)
            assert status == 202
            # Read the first event, then drop the connection mid-stream.
            first = None
            for frame in client.stream_events(body["job_id"], timeout_s=30):
                if "comment" not in frame:
                    first = frame
                    break
            assert first is not None and first["event"] == "admitted"
            # Resume: already-seen ids are not replayed.
            resumed = [
                f for f in client.stream_events(
                    body["job_id"], last_event_id=first["id"], timeout_s=30)
                if "comment" not in f
            ]
            assert resumed, "resume replayed nothing"
            assert all(f["id"] > first["id"] for f in resumed)
            assert resumed[-1]["event"] == "outcome"

    def test_resume_via_query_parameter(self, tmp_path):
        with ServerHandle(_config(tmp_path)) as handle:
            client = ServeClient(port=handle.port, timeout_s=15)
            status, body = client.submit(SPEC)
            assert status == 202
            client.wait(body["job_id"], timeout_s=30)
            all_events = [e for e in client.stream_events(body["job_id"])
                          if "comment" not in e]
            conn = http.client.HTTPConnection("127.0.0.1", handle.port,
                                              timeout=15)
            try:
                conn.request(
                    "GET",
                    f"/jobs/{body['job_id']}/events?last_event_id={all_events[0]['id']}",
                    headers={"Accept": "text/event-stream"},
                )
                response = conn.getresponse()
                assert response.status == 200
                assert response.getheader("Content-Type").startswith(
                    "text/event-stream")
                raw = response.read().decode("utf-8")
            finally:
                conn.close()
            ids = [int(m) for m in re.findall(r"^id: (\d+)$", raw, re.M)]
            assert ids and all(i > all_events[0]["id"] for i in ids)
            assert "event: outcome" in raw

    def test_unknown_job_stream_is_404(self, tmp_path):
        with ServerHandle(_config(tmp_path)) as handle:
            client = ServeClient(port=handle.port, timeout_s=15)
            with pytest.raises(ServeError, match="404"):
                list(client.stream_events("j999999"))


_OM_LABELS = r'\{[a-zA-Z_]\w*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_]\w*="(?:[^"\\]|\\.)*")*\}'
_OM_NUMBER = r"[+-]?(?:[0-9]*\.?[0-9]+(?:e[+-]?[0-9]+)?|Inf|NaN)"
_OM_META_RE = re.compile(
    r"^# (?:TYPE [a-zA-Z_:][\w:]* (?:counter|gauge|histogram|info|unknown)"
    r"|UNIT [a-zA-Z_:][\w:]* [a-z]+"
    r"|HELP [a-zA-Z_:][\w:]* \S.*)$"
)
_OM_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][\w:]*(?:%s)? %s(?: # %s %s)?$"
    % (_OM_LABELS, _OM_NUMBER, _OM_LABELS, _OM_NUMBER)
)


class TestOpenMetricsCompliance:
    def _exposition(self, tmp_path) -> str:
        with ServerHandle(_config(tmp_path)) as handle:
            client = ServeClient(port=handle.port, timeout_s=15)
            done = client.submit_and_wait(SPEC, timeout_s=30)
            assert done["outcome"] == "completed"
            return client.metrics()

    def test_every_line_matches_the_grammar(self, tmp_path):
        text = self._exposition(tmp_path)
        assert text.endswith("# EOF\n")
        lines = text.splitlines()
        assert lines[-1] == "# EOF"
        assert lines.count("# EOF") == 1  # single terminator, at the end
        for line in lines[:-1]:
            assert line, "blank line inside exposition"
            if line.startswith("#"):
                assert _OM_META_RE.match(line), line
            else:
                assert _OM_SAMPLE_RE.match(line), line

    def test_duration_families_declare_a_seconds_unit(self, tmp_path):
        text = self._exposition(tmp_path)
        assert "# UNIT repro_serve_job_seconds_total seconds" in text
        assert "# UNIT repro_serve_request_seconds seconds" in text
        assert "# UNIT repro_serve_job_phase_seconds seconds" in text
        # Metadata order per family: TYPE, then UNIT, then HELP.
        block = re.search(
            r"^# TYPE repro_serve_request_seconds histogram\n"
            r"# UNIT repro_serve_request_seconds seconds\n"
            r"# HELP repro_serve_request_seconds .+$",
            text, re.M,
        )
        assert block is not None

    def test_histograms_are_cumulative_with_exemplars(self, tmp_path):
        samples = parse_exposition(self._exposition(tmp_path))
        buckets: dict = {}
        counts: dict = {}
        for sample in samples:
            labels = dict(sample["labels"])
            if sample["name"] == "repro_serve_job_phase_seconds_bucket":
                le = labels.pop("le")
                bound = float("inf") if le == "+Inf" else float(le)
                key = tuple(sorted(labels.items()))
                buckets.setdefault(key, []).append((bound, sample["value"]))
            elif sample["name"] == "repro_serve_job_phase_seconds_count":
                counts[tuple(sorted(labels.items()))] = sample["value"]
        assert buckets and counts
        for key, series in buckets.items():
            series.sort()
            values = [count for _bound, count in series]
            assert values == sorted(values), f"non-cumulative buckets: {key}"
            assert series[-1][0] == float("inf")
            assert series[-1][1] == counts[key]  # +Inf bucket == _count
        exemplar_traces = [
            sample["exemplar"]["labels"]["trace_id"]
            for sample in samples
            if sample.get("exemplar")
            and "trace_id" in sample["exemplar"]["labels"]
        ]
        assert exemplar_traces
        assert all(re.fullmatch(r"[0-9a-f]{32}", t) for t in exemplar_traces)


class TestLongPoll:
    def test_wait_times_out_with_last_state(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "sim_hang:1.5")
        with ServerHandle(_config(tmp_path)) as handle:
            client = ServeClient(port=handle.port, timeout_s=15)
            status, body = client.submit(SPEC)
            assert status == 202
            with pytest.raises(ServeTimeout) as exc:
                client.wait(body["job_id"], timeout_s=0.3, poll_wait_s=0.1)
            assert exc.value.last is not None
            assert exc.value.last["state"] in ("queued", "running")
