"""Deterministic fault injection for the experiment runtime.

Every recovery path in :mod:`repro.runtime` — cache quarantine, retry
with backoff, deadline expiry — must be provable under test, so this
module gives the chaos suite (and the CI chaos job) a single hook point
to inject faults into the runner's execution path.

Faults are described by a comma-separated spec, either installed through
the API or read from the ``REPRO_FAULTS`` environment variable::

    REPRO_FAULTS=cache_corrupt,sim_flaky:0.3,sim_hang

Supported faults:

``cache_corrupt``
    After every cache write, overwrite the cache file with garbage so the
    next load exercises the quarantine-and-rebuild path.
``sim_flaky:<x>``
    Inject :class:`~repro.errors.TransientSimulationError` into simulate
    calls.  ``x >= 1`` fails the first ``int(x)`` attempts of each run
    key deterministically (retry-until-success); ``0 < x < 1`` fails each
    attempt with probability ``x`` using a seeded RNG.
``sim_hang[:<seconds>]``
    Sleep inside each simulate call (default 0.25 s) so a supervisor
    deadline shorter than that expires.
``tracegen_slow[:<seconds>]``
    Sleep at the top of every trace-generation stream (default 0.05 s).
    A pure, attributable slowdown of one pipeline phase — tests inject
    it to prove that ``SimulationResult.stage_s`` and ``repro profile``'s
    host-stage table attribute it to *tracegen* rather than a bare total.
``seed:<n>``
    Seed for the probabilistic faults (default 0), keeping chaos runs
    reproducible.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.errors import TransientSimulationError

ENV_VAR = "REPRO_FAULTS"
DEFAULT_HANG_SECONDS = 0.25
DEFAULT_TRACEGEN_SLOW_SECONDS = 0.05


@dataclass(frozen=True)
class FaultPlan:
    """Parsed fault spec; an all-defaults plan injects nothing."""

    cache_corrupt: bool = False
    sim_flaky: float = 0.0
    sim_hang: float = 0.0
    tracegen_slow: float = 0.0
    seed: int = 0

    @property
    def any_active(self) -> bool:
        return (
            self.cache_corrupt
            or self.sim_flaky > 0
            or self.sim_hang > 0
            or self.tracegen_slow > 0
        )

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``name[:value],...`` spec; raises ValueError on junk."""
        fields: Dict[str, Union[bool, float, int]] = {}
        for token in (spec or "").split(","):
            token = token.strip()
            if not token:
                continue
            name, _, value = token.partition(":")
            if name == "cache_corrupt":
                fields["cache_corrupt"] = True
            elif name == "sim_flaky":
                fields["sim_flaky"] = float(value) if value else 0.5
            elif name == "sim_hang":
                fields["sim_hang"] = float(value) if value else DEFAULT_HANG_SECONDS
            elif name == "tracegen_slow":
                fields["tracegen_slow"] = (
                    float(value) if value else DEFAULT_TRACEGEN_SLOW_SECONDS
                )
            elif name == "seed":
                fields["seed"] = int(value)
            else:
                raise ValueError(f"unknown fault {name!r} in spec {spec!r}")
        return cls(**fields)


class FaultInjector:
    """Holds the active plan plus the deterministic per-key state.

    The hooks are called from inside the runner's supervised execution
    (:meth:`before_simulate`) and after each cache write
    (:meth:`after_cache_write`).  With no plan installed and no
    ``REPRO_FAULTS`` in the environment, every hook is a no-op.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._installed: Optional[FaultPlan] = None
        self._env_spec: Optional[str] = None
        self._env_plan = FaultPlan()
        self._rng = random.Random(0)
        self._fail_counts: Dict[str, int] = {}

    # -- plan management ----------------------------------------------------

    def install(self, spec: Union[str, FaultPlan]) -> FaultPlan:
        plan = spec if isinstance(spec, FaultPlan) else FaultPlan.parse(spec)
        with self._lock:
            self._installed = plan
            self._reset_state(plan)
        return plan

    def clear(self) -> None:
        with self._lock:
            self._installed = None
            self._env_spec = None
            self._reset_state(FaultPlan())

    def plan(self) -> FaultPlan:
        """The installed plan, else the plan parsed from ``REPRO_FAULTS``."""
        with self._lock:
            if self._installed is not None:
                return self._installed
            spec = os.environ.get(ENV_VAR, "")
            if spec != self._env_spec:
                self._env_spec = spec
                try:
                    plan = FaultPlan.parse(spec)
                except ValueError:
                    plan = FaultPlan()
                self._reset_state(plan)
            return self._env_plan

    def _reset_state(self, plan: FaultPlan) -> None:
        self._rng = random.Random(plan.seed)
        self._fail_counts = {}
        self._env_plan = plan

    # -- hooks --------------------------------------------------------------

    def before_simulate(self, key: str) -> None:
        """Called at the top of every supervised simulate attempt."""
        plan = self.plan()
        if not plan.any_active:
            return
        if plan.sim_hang > 0:
            time.sleep(plan.sim_hang)
        if plan.sim_flaky >= 1.0:
            with self._lock:
                done = self._fail_counts.get(key, 0)
                if done < int(plan.sim_flaky):
                    self._fail_counts[key] = done + 1
                    raise TransientSimulationError(
                        f"injected transient fault ({done + 1}/{int(plan.sim_flaky)}) for {key}"
                    )
        elif plan.sim_flaky > 0.0:
            with self._lock:
                roll = self._rng.random()
            if roll < plan.sim_flaky:
                raise TransientSimulationError(
                    f"injected transient fault (p={plan.sim_flaky}) for {key}"
                )

    def before_tracegen(self) -> None:
        """Called at the top of every per-core trace-generation stream."""
        plan = self.plan()
        if plan.tracegen_slow > 0:
            time.sleep(plan.tracegen_slow)

    def after_cache_write(self, path: str) -> None:
        """Called after every successful cache write."""
        plan = self.plan()
        if plan.cache_corrupt and path and os.path.exists(path):
            try:
                with open(path, "w") as fh:
                    fh.write('{"schema": "corrupted-by-fault-injection"')
            except OSError:
                pass


_INJECTOR = FaultInjector()


def install_faults(spec: Union[str, FaultPlan]) -> FaultPlan:
    """Install a fault plan for this process (overrides ``REPRO_FAULTS``)."""
    return _INJECTOR.install(spec)


def clear_faults() -> None:
    """Remove any installed plan and forget cached env state."""
    _INJECTOR.clear()


def active_plan() -> FaultPlan:
    """The plan currently in force (installed, else from the environment)."""
    return _INJECTOR.plan()


def before_simulate(key: str) -> None:
    _INJECTOR.before_simulate(key)


def before_tracegen() -> None:
    _INJECTOR.before_tracegen()


def after_cache_write(path: str) -> None:
    _INJECTOR.after_cache_write(path)
