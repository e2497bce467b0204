"""Append-only commit-keyed trend store under ``benchmarks/trend/``.

Every ``repro bench run`` appends one JSONL point per workload —
timestamp, git commit, workload id, robust summary, phase medians, host
hash — turning nine PRs of invisible perf trajectory into a queryable
history (``repro bench trend``).

The store borrows the run journal's durability discipline
(:mod:`repro.runtime.journal`): appends are serialized under a
:class:`~repro.runtime.locks.FileLock`, the active file rotates at a
size bound (``trend.jsonl → trend.jsonl.1 → …``), and reads walk every
surviving segment oldest-first so rotation never loses the visible
history mid-query.  Unparseable lines (torn writes) are skipped, not
fatal.
"""

from __future__ import annotations

import json
import logging
import os
import subprocess
import time
from typing import Any, Dict, List, Optional

from repro.runtime.locks import FileLock

LOG = logging.getLogger("repro.bench.trend")

TREND_BASENAME = "trend.jsonl"

#: The repository's ``benchmarks/`` directory: committed bench documents
#: and the trend store live under it.
BENCH_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "..", "benchmarks")
)

#: Default trend location (repo root / benchmarks / trend, gitignored).
DEFAULT_TREND_DIR = os.path.join(BENCH_DIR, "trend")

#: Rotation bounds (same semantics as the journal's: 0 max bytes
#: disables rotation).
DEFAULT_MAX_BYTES = 512 * 1024
DEFAULT_MAX_SEGMENTS = 4

#: Commit override for environments without a git checkout (CI tarballs).
ENV_COMMIT = "REPRO_COMMIT"


def current_commit(cwd: Optional[str] = None) -> str:
    """Short commit id keying trend points: ``REPRO_COMMIT`` if set, else
    ``git rev-parse`` (with a ``+`` suffix when the tree is dirty), else
    ``"unknown"`` — a missing git must not fail a benchmark run."""
    env = os.environ.get(ENV_COMMIT, "").strip()
    if env:
        return env
    cwd = cwd or BENCH_DIR
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10.0,
        )
        if commit.returncode != 0:
            return "unknown"
        rev = commit.stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd, capture_output=True, text=True, timeout=10.0,
        )
        if status.returncode == 0 and status.stdout.strip():
            rev += "+"
        return rev or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


class TrendStore:
    """Locked, size-rotated JSONL store of bench trend points."""

    def __init__(
        self,
        directory: str = DEFAULT_TREND_DIR,
        max_bytes: int = DEFAULT_MAX_BYTES,
        max_segments: int = DEFAULT_MAX_SEGMENTS,
    ):
        self.directory = directory
        self.path = os.path.join(directory, TREND_BASENAME)
        self.max_bytes = max(0, int(max_bytes))
        self.max_segments = max(1, int(max_segments))

    # -- writing -------------------------------------------------------------

    def append(self, point: Dict[str, Any]) -> None:
        """Append one point (a ``ts`` is added when missing)."""
        payload = dict(point)
        payload.setdefault("ts", time.time())
        try:
            line = json.dumps(payload, sort_keys=True, default=str)
        except (TypeError, ValueError) as exc:
            LOG.warning("trend point not serializable: %s", exc)
            return
        try:
            os.makedirs(self.directory, exist_ok=True)
            lock = FileLock(f"{self.path}.lock", timeout_s=10.0)
            locked = lock.acquire()
            if not locked:
                LOG.warning("trend lock %s.lock busy; appending without it", self.path)
            try:
                with open(self.path, "a") as fh:
                    fh.write(line + "\n")
                    fh.flush()
                    size = fh.tell()
                # Rotation renames whole files, so it only happens under
                # the lock that serializes appends (an unlocked append
                # skips it; a later locked one catches up).
                if self.max_bytes and size > self.max_bytes and locked:
                    self._rotate()
            finally:
                if locked:
                    lock.release()
        except OSError as exc:
            LOG.warning("trend %s not appended: %s", self.path, exc)

    def _rotate(self) -> None:
        try:
            os.unlink(f"{self.path}.{self.max_segments}")
        except OSError:
            pass
        for index in range(self.max_segments - 1, 0, -1):
            source = f"{self.path}.{index}"
            if os.path.exists(source):
                try:
                    os.replace(source, f"{self.path}.{index + 1}")
                except OSError as exc:
                    LOG.warning("trend segment %s not rotated: %s", source, exc)
        try:
            os.replace(self.path, f"{self.path}.1")
        except OSError as exc:
            LOG.warning("trend %s not rotated: %s", self.path, exc)

    # -- reading -------------------------------------------------------------

    def segments(self) -> List[str]:
        """Existing trend files oldest-first (rotated then active)."""
        segments: List[str] = []
        index = 1
        while os.path.exists(f"{self.path}.{index}"):
            segments.append(f"{self.path}.{index}")
            index += 1
        segments.reverse()
        if os.path.exists(self.path):
            segments.append(self.path)
        return segments

    def points(
        self,
        workload: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """All points oldest-first across segments, optionally filtered to
        one workload and truncated to the most recent ``limit``."""
        out: List[Dict[str, Any]] = []
        for segment in self.segments():
            try:
                with open(segment) as fh:
                    lines = fh.readlines()
            except OSError as exc:
                LOG.warning("trend segment %s unreadable: %s", segment, exc)
                continue
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    point = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(point, dict):
                    continue
                if workload is not None and point.get("workload") != workload:
                    continue
                out.append(point)
        if limit is not None and limit >= 0:
            out = out[-limit:]
        return out
