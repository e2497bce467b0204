"""Replay-engine selection and skip-path telemetry.

Two engines replay trace segments through a device's cache hierarchy,
bit-identical on every counter:

* ``exact`` — the per-reference oracle loop
  (:class:`~repro.memsim.hierarchy.MemoryHierarchy`);
* ``fast`` — the runtime-compiled C core
  (:class:`~repro.memsim.native.NativeHierarchy`), the default.

Engine selection is by ``REPRO_ENGINE=exact|fast``, resolved by
:func:`resolve_engine` and threaded through ``simulate(engine=...)`` and
``DeviceSpec.build_hierarchies``.  ``fast`` builds exact hierarchies
when the native core cannot load (logged once per process) or when a
device uses a replacement policy outside :data:`FAST_POLICIES`
(tree-PLRU ablations); ``SimulationResult.engine`` names the engine
that actually replayed.  ``tests/test_fast_engine.py`` asserts
bit-identity between the two on every counter both engines expose.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional, Sequence

from repro.errors import SimulationError

#: Environment variable selecting the replay engine.
ENGINE_ENV = "REPRO_ENGINE"
ENGINE_EXACT = "exact"
ENGINE_FAST = "fast"
ENGINES = (ENGINE_EXACT, ENGINE_FAST)

#: Replacement policies the native engine replays.  A device with any
#: other policy (``plru`` ablations) builds exact hierarchies even under
#: ``REPRO_ENGINE=fast``.
FAST_POLICIES = frozenset(("lru", "random"))

#: Skip-path names reported by ``skip_counts()`` implementations:
#: ``resident``/``streaming`` name the certified closed-form skip
#: classes, ``replayed`` the ops replayed one by one.  The native core
#: replays every op, so it reports only ``replayed``; the other two stay
#: in the vocabulary ``repro perf``, ``/metrics`` and the benchmark read.
SKIP_PATHS = ("resident", "streaming", "replayed")

#: Process-wide skip-path accumulator (telemetry only — never part of
#: cache records or counter sets, which must stay engine-free and
#: bit-identical across engines).  ``simulate()`` folds each run's
#: per-hierarchy counts in; long-lived processes (serve workers) read
#: deltas around a job to attribute skips per run.
_PROCESS_SKIPS: Dict[str, int] = {path: 0 for path in SKIP_PATHS}
_PROCESS_SKIPS_LOCK = threading.Lock()


def account_skips(counts: Dict[str, int]) -> None:
    """Fold one run's skip counts into the process-wide accumulator."""
    with _PROCESS_SKIPS_LOCK:
        for path, value in counts.items():
            if path in _PROCESS_SKIPS and value:
                _PROCESS_SKIPS[path] += int(value)


def process_skip_totals() -> Dict[str, int]:
    """Cumulative skip counts for this process (copy)."""
    with _PROCESS_SKIPS_LOCK:
        return dict(_PROCESS_SKIPS)


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve the replay engine: explicit argument, else ``REPRO_ENGINE``,
    else the fast engine."""
    value = engine if engine is not None else os.environ.get(ENGINE_ENV, "")
    value = (value or "").strip().lower() or ENGINE_FAST
    if value not in ENGINES:
        raise SimulationError(
            f"unknown replay engine {value!r}; pick one of {', '.join(ENGINES)}"
        )
    return value


def supports_fast(policies: Sequence[str]) -> bool:
    """Can the fast engine replay a hierarchy with these policies?"""
    return all(policy in FAST_POLICIES for policy in policies)
