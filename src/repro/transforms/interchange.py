"""Loop interchange.

Swaps two directly nested loops of a perfect nest.  Interchange is the
mechanism behind the blur's "Unit-stride" optimization (moving the channel
loop inward turns strided filter accesses into unit-stride ones) and is a
building block of tiling.

Legality: the pass refuses structurally impossible interchanges (bounds of
the inner loop depending on the outer variable — a triangular nest needs
:func:`repro.transforms.tiling.tile_triangular` instead).  Semantic
legality — no dependence with a ``(<, >)`` direction at the swapped levels
— is proven symbolically by default
(:func:`repro.analysis.symbolic.certify_interchange_symbolic`), with
the access-multiset enumeration of
``repro.analysis.dependence.certify_interchange`` as a budget-limited
cross-check oracle.
"""

from __future__ import annotations

from typing import Union

from repro.analysis.dependence import PASS_CERTIFY_POINTS
from repro.errors import TransformError
from repro.ir.program import Program
from repro.ir.stmt import Block, For, Stmt, map_loops
from repro.transforms.base import Pass
from repro.transforms.parallelize import CERTIFY_MODES, record_meta


def _sole_inner_loop(body: Stmt):
    """The single For directly inside ``body``, or None."""
    node = body
    while isinstance(node, Block):
        if len(node.stmts) != 1:
            return None
        node = node.stmts[0]
    return node if isinstance(node, For) else None


class Interchange(Pass):
    """Swap loop ``outer_var`` with the loop immediately inside it."""

    def __init__(
        self,
        outer_var: str,
        inner_var: str,
        certify: Union[bool, str] = "symbolic",
        certify_budget: int = PASS_CERTIFY_POINTS,
    ):
        if certify is True:
            certify = "symbolic"
        if certify and certify not in CERTIFY_MODES:
            raise TransformError(
                f"unknown certify mode {certify!r} (use one of {CERTIFY_MODES} or False)"
            )
        self.outer_var = outer_var
        self.inner_var = inner_var
        self.certify = certify
        self.certify_budget = certify_budget

    def describe(self) -> str:
        return f"interchange({self.outer_var}<->{self.inner_var})"

    def run(self, program: Program) -> Program:
        if self.certify == "symbolic":
            from repro.analysis.symbolic import certify_interchange_symbolic

            certify_interchange_symbolic(program, self.outer_var, self.inner_var)

        state = {"applied": False}

        def rewrite(loop: For) -> Stmt:
            if loop.var != self.outer_var:
                return loop
            inner = _sole_inner_loop(loop.body)
            if inner is None or inner.var != self.inner_var:
                raise TransformError(
                    f"loop {self.outer_var!r} does not immediately enclose "
                    f"a single loop {self.inner_var!r}"
                )
            for bound in (inner.lo, inner.hi):
                if self.outer_var in bound.variables:
                    raise TransformError(
                        f"bounds of {self.inner_var!r} depend on "
                        f"{self.outer_var!r}; interchange would change the "
                        "iteration space (use triangular tiling instead)"
                    )
            for bound in (loop.lo, loop.hi):
                if self.inner_var in bound.variables:
                    raise TransformError("outer bounds reference the inner variable")
            state["applied"] = True
            new_inner = loop.with_(body=inner.body)
            return inner.with_(body=Block([new_inner]))

        body = map_loops(program.body, rewrite)
        if not state["applied"]:
            raise TransformError(
                f"no interchangeable pair ({self.outer_var!r}, {self.inner_var!r}) found"
            )
        out = program.with_body(body)
        loops = (self.outer_var, self.inner_var)
        if self.certify == "symbolic":
            from repro.analysis.dependence import certify_interchange

            note = certify_interchange(program, out, self.certify_budget)
            record_meta(
                out,
                "certified_transforms",
                {"transform": "Interchange", "loops": loops, "method": "symbolic"},
            )
            if note is not None:
                record_meta(out, "oracle_skipped", {"note": note})
        elif self.certify == "enumerate":
            from repro.analysis.dependence import certify_interchange

            note = certify_interchange(program, out, self.certify_budget)
            if note is not None:
                raise TransformError(
                    f"certify='enumerate' cannot prove {self.describe()}: {note}"
                )
            record_meta(
                out,
                "certified_transforms",
                {"transform": "Interchange", "loops": loops, "method": "enumerate"},
            )
        else:
            record_meta(
                out,
                "uncertified_transforms",
                {"transform": "Interchange", "loops": loops, "reason": "certify=False"},
            )
        return out
