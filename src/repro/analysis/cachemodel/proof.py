"""Machine-checkable certificates for cache-behavior claims.

A :class:`Proof` is an ordered chain of :class:`ProofStep`\\ s, each one
either

* an **arithmetic** step — a concrete integer relation (``85 >= 32``)
  derived from closed-form stride/extent/set arithmetic, re-evaluated on
  demand; or
* a **fourier-motzkin** step — an affine constraint system handed to the
  integer-tightened Fourier–Motzkin engine from
  :mod:`repro.analysis.symbolic`, expected to come back
  ``INFEASIBLE`` (the sound direction: the system encodes the *negation*
  of the claim, e.g. "two line runs share a cache line").

``Proof.check()`` re-runs every step, so a certificate can be audited
independently of the classifier that produced it; the differential
harness additionally replays the classified segments through the exact
simulator.  Steps that the engine could not discharge (FM blow-up,
non-affine walk) are recorded with ``verified=False`` and degrade the
verdict rather than silently over-claiming.

The line-sharing systems use the byte-level decomposition
``address = line_size * line + offset`` with ``0 <= offset < line_size``
— floors never appear, so drifting column walks (the transpose's
``stride = 8 * (n + 1)``) stay inside affine arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.ir.affine import Affine
from repro.analysis import symbolic
from repro.exec.trace import LineRun

_OPS = {
    "<=": operator.le,
    "<": operator.lt,
    ">=": operator.ge,
    ">": operator.gt,
    "==": operator.eq,
    "!=": operator.ne,
}

ARITHMETIC = "arithmetic"
FOURIER_MOTZKIN = "fourier-motzkin"


@dataclass(frozen=True)
class ProofStep:
    """One link in a certificate's inequality chain."""

    claim: str
    kind: str                          # ARITHMETIC | FOURIER_MOTZKIN
    verified: bool
    lhs: int = 0                       # arithmetic payload
    op: str = "=="
    rhs: int = 0
    ineqs: Tuple[Affine, ...] = ()     # FM payload: each ``e <= 0``
    equalities: Tuple[Affine, ...] = ()  # FM payload: each ``e == 0``

    def check(self) -> bool:
        """Re-derive the step's verdict from its payload."""
        if self.kind == ARITHMETIC:
            return bool(_OPS[self.op](self.lhs, self.rhs))
        status = symbolic.feasibility(self.ineqs, self.equalities)
        return status == symbolic.INFEASIBLE

    def render(self) -> str:
        mark = "✓" if self.verified else "?"
        if self.kind == ARITHMETIC:
            return f"[{mark}] {self.claim}: {self.lhs} {self.op} {self.rhs}"
        return f"[{mark}] {self.claim} (FM system, {len(self.ineqs)} ineqs)"


@dataclass
class Proof:
    """An ordered certificate; ``verified`` iff every step discharged."""

    steps: List[ProofStep] = field(default_factory=list)

    @property
    def verified(self) -> bool:
        return all(step.verified for step in self.steps)

    def check(self) -> bool:
        """Re-run every discharged step (the audit entry point)."""
        return all(step.check() for step in self.steps if step.verified)

    def arith(self, claim: str, lhs: int, op: str, rhs: int) -> bool:
        """Append an arithmetic step; returns whether the relation holds."""
        ok = bool(_OPS[op](lhs, rhs))
        self.steps.append(
            ProofStep(claim=claim, kind=ARITHMETIC, verified=ok, lhs=lhs, op=op, rhs=rhs)
        )
        return ok

    def fm_disjoint(
        self, claim: str, ineqs: Sequence[Affine], equalities: Sequence[Affine]
    ) -> bool:
        """Append an FM step asserting the system (a sharing scenario) is
        infeasible; returns whether FM discharged it."""
        status = symbolic.feasibility(ineqs, equalities)
        self.steps.append(
            ProofStep(
                claim=claim,
                kind=FOURIER_MOTZKIN,
                verified=status == symbolic.INFEASIBLE,
                ineqs=tuple(ineqs),
                equalities=tuple(equalities),
            )
        )
        return status == symbolic.INFEASIBLE

    def render(self) -> List[str]:
        return [step.render() for step in self.steps]


# -- system builders ----------------------------------------------------------


def _var(name: str, coeff: int = 1) -> Affine:
    return Affine(0, {name: coeff})


def _bounds(name: str, lo: int, hi: int) -> List[Affine]:
    """``lo <= name <= hi`` in the ``e <= 0`` convention."""
    return [Affine(lo) - _var(name), _var(name) - Affine(hi)]


def line_sharing_system(
    base_a: int,
    stride_a: int,
    count_a: int,
    base_b: int,
    stride_b: int,
    count_b: int,
    line_size: int = 64,
) -> Tuple[List[Affine], List[Affine]]:
    """The affine system "segment A and segment B touch a common line".

    Variables: ``x``/``y`` index the two segments' accesses, ``l`` the
    shared line, ``ra``/``rb`` the within-line byte offsets.  Returns
    ``(ineqs, equalities)``; :data:`symbolic.INFEASIBLE` proves the two
    byte walks are line-disjoint — over the integers, via GCD rejection
    and integer-tightened elimination, so congruence-class disjointness
    (two interleaved column walks that never share a line) is provable
    even when the byte hulls overlap.
    """
    eqs = [
        Affine(base_a) + _var("x", stride_a) - _var("l", line_size) - _var("ra"),
        Affine(base_b) + _var("y", stride_b) - _var("l", line_size) - _var("rb"),
    ]
    ineqs = (
        _bounds("x", 0, count_a - 1)
        + _bounds("y", 0, count_b - 1)
        + _bounds("ra", 0, line_size - 1)
        + _bounds("rb", 0, line_size - 1)
    )
    return ineqs, eqs


def run_sharing_system(
    a: LineRun, b: LineRun
) -> Tuple[List[Affine], List[Affine]]:
    """"Line runs A and B intersect" as an affine system over line space."""
    eqs = [
        Affine(a.start) + _var("x", a.step if a.step else 1)
        - Affine(b.start) - _var("y", b.step if b.step else 1)
    ]
    ineqs = _bounds("x", 0, a.count - 1) + _bounds("y", 0, b.count - 1)
    return ineqs, eqs


def offset_uniqueness_system(
    a: LineRun, b: LineRun, shift: int
) -> Tuple[List[Affine], List[Affine]]:
    """"A and B share a line at a positional offset other than ``shift``".

    Infeasibility proves the positional re-walk structure the classifier
    assumed: every shared line of the two equal-step runs sits at the
    unique alignment ``y = x + shift``, which is what makes the reuse
    distance ``d_prev - 1 - shift`` exact.  Encoded as the sharing
    system plus ``y - x != shift`` split into a disjunction-free pair is
    not affine, so we check the two half-systems separately and the
    caller conjoins them; this builder returns the ``y - x <= shift - 1``
    half (mirror it for the other side).
    """
    ineqs, eqs = run_sharing_system(a, b)
    ineqs = ineqs + [_var("y", 1) - _var("x", 1) - Affine(shift - 1)]
    return ineqs, eqs


def offset_uniqueness_system_high(
    a: LineRun, b: LineRun, shift: int
) -> Tuple[List[Affine], List[Affine]]:
    """The ``y - x >= shift + 1`` half of offset uniqueness."""
    ineqs, eqs = run_sharing_system(a, b)
    ineqs = ineqs + [Affine(shift + 1) - _var("y", 1) + _var("x", 1)]
    return ineqs, eqs


def prove_offset_unique(proof: Proof, prev: LineRun, cur: LineRun, shift: int) -> bool:
    """Discharge positional-re-walk uniqueness into ``proof`` (both halves)."""
    lo_ineqs, lo_eqs = offset_uniqueness_system(cur, prev, shift)
    hi_ineqs, hi_eqs = offset_uniqueness_system_high(cur, prev, shift)
    ok_lo = proof.fm_disjoint(
        f"no shared line below positional offset {shift}", lo_ineqs, lo_eqs
    )
    ok_hi = proof.fm_disjoint(
        f"no shared line above positional offset {shift}", hi_ineqs, hi_eqs
    )
    return ok_lo and ok_hi


def prove_segments_disjoint(
    proof: Proof,
    claim: str,
    base_a: int,
    stride_a: int,
    count_a: int,
    base_b: int,
    stride_b: int,
    count_b: int,
    line_size: int = 64,
) -> bool:
    """Discharge byte-walk line-disjointness of two segments into ``proof``."""
    ineqs, eqs = line_sharing_system(
        base_a, stride_a, count_a, base_b, stride_b, count_b, line_size
    )
    return proof.fm_disjoint(claim, ineqs, eqs)
