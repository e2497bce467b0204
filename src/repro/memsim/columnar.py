"""Replay-engine selection, and the drained line-op count perfbench reads.

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

:func:`process_skip_totals` is the one counter left here: the line ops
the fast engine has drained in this process.  No result, report or
exposition carries it; perfbench imports it (and :func:`resolve_engine`)
from this module, so both stay until the benchmark changes (ROADMAP
item 7).
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

#: Line ops every :class:`~repro.memsim.native.NativeHierarchy` in this
#: process has drained (a probe or writeback install at each level).
#: Kept only for perfbench until ROADMAP item 7's benchmark change.
_replayed_ops = 0
_replayed_lock = threading.Lock()


def add_replayed_ops(count: int) -> None:
    """Add one drain's line ops to the process total."""
    global _replayed_ops
    with _replayed_lock:
        _replayed_ops += count


def process_skip_totals() -> Dict[str, int]:
    """The process's drained line ops, in the ``resident``/``streaming``/
    ``replayed`` shape perfbench reads.  The native core replays every
    op, so the first two are always 0."""
    with _replayed_lock:
        return {"resident": 0, "streaming": 0, "replayed": _replayed_ops}


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
