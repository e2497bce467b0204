"""Parallelization (the IR analogue of ``#pragma omp parallel for``).

The pass marks a loop parallel with a schedule.  Legality (no loop-carried
dependence) is certified by default through the symbolic dependence engine
(:func:`repro.analysis.dependence.certify_parallel`), which is size-generic
and cheap; concrete enumeration cross-checks the proof when the iteration
space fits the budget.  Over budget the cross-check is skipped, decided by
an exact access count whose cost scales with the loop structure, not with
the budget, so a skipped oracle stays cheap at figure sizes.  Opting out
with ``certify=False`` no longer skips silently: the skip is recorded in
``program.meta`` and surfaces as an ``RPR005`` lint diagnostic.
"""

from __future__ import annotations

import logging
from typing import Optional, Union

from repro.analysis.dependence import PASS_CERTIFY_POINTS
from repro.errors import AnalysisError, TransformError
from repro.ir.program import Program
from repro.ir.stmt import For, Stmt, map_loops
from repro.transforms.base import Pass

log = logging.getLogger(__name__)

CERTIFY_MODES = ("symbolic", "enumerate")


def record_meta(program: Program, key: str, entry: dict) -> None:
    """Append ``entry`` to a tuple-valued meta key without sharing state
    with ancestor programs (meta dicts are shallow-copied by passes)."""
    program.meta[key] = tuple(program.meta.get(key, ())) + (entry,)


class Parallelize(Pass):
    """Mark loop ``var`` parallel with the given OpenMP-style schedule."""

    def __init__(
        self,
        var: str,
        schedule: str = "static",
        chunk: Optional[int] = None,
        certify: Union[bool, str] = "symbolic",
        certify_budget: int = PASS_CERTIFY_POINTS,
    ):
        if certify is True:
            certify = "symbolic"
        if certify and certify not in CERTIFY_MODES:
            raise TransformError(
                f"unknown certify mode {certify!r} (use one of {CERTIFY_MODES} or False)"
            )
        self.var = var
        self.schedule = schedule
        self.chunk = chunk
        self.certify = certify
        self.certify_budget = certify_budget

    def describe(self) -> str:
        chunk = f",{self.chunk}" if self.chunk is not None else ""
        return f"parallelize({self.var}, {self.schedule}{chunk})"

    def run(self, program: Program) -> Program:
        state = {"applied": False}

        def rewrite(loop: For) -> Stmt:
            if loop.var != self.var:
                return loop
            state["applied"] = True
            return loop.with_(parallel=True, schedule=self.schedule, chunk=self.chunk)

        body = map_loops(program.body, rewrite)
        if not state["applied"]:
            raise TransformError(f"no loop {self.var!r} to parallelize")

        oracle_note: Optional[str] = None
        if self.certify == "symbolic":
            from repro.analysis.dependence import certify_parallel

            oracle_note = certify_parallel(program, self.var, self.certify_budget)
        elif self.certify == "enumerate":
            from repro.analysis.dependence import loop_conflicts

            conflicts = loop_conflicts(program, self.var, self.certify_budget)
            if conflicts:
                sample = "; ".join(str(c) for c in conflicts[:3])
                raise AnalysisError(
                    f"loop {self.var!r} of {program.name!r} carries dependences: {sample}"
                )

        out = program.with_body(body)
        if not self.certify:
            log.warning(
                "RPR005: %s applied to %r without a legality proof "
                "(certify=False); `repro lint` will flag this",
                self.describe(),
                program.name,
            )
            record_meta(
                out,
                "uncertified_transforms",
                {
                    "transform": "Parallelize",
                    "loops": (self.var,),
                    "reason": "certify=False",
                },
            )
        else:
            record_meta(
                out,
                "certified_transforms",
                {"transform": "Parallelize", "loops": (self.var,), "method": self.certify},
            )
            if oracle_note is not None:
                record_meta(out, "oracle_skipped", {"note": oracle_note})
        return out


class Serialize(Pass):
    """Remove the parallel marker from a loop (used to build the
    single-core Mango Pi variants, where the paper runs sequential code)."""

    def __init__(self, var: Optional[str] = None):
        self.var = var

    def describe(self) -> str:
        return f"serialize({self.var or '*'})"

    def run(self, program: Program) -> Program:
        def rewrite(loop: For) -> Stmt:
            if self.var is not None and loop.var != self.var:
                return loop
            if loop.parallel:
                return loop.with_(parallel=False, schedule="static", chunk=None)
            return loop

        return program.with_body(map_loops(program.body, rewrite))
