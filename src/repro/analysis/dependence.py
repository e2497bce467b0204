"""Data-dependence testing and transformation-legality certification.

Three complementary mechanisms:

* **Fast conservative tests** on affine subscript pairs (ZIV and GCD tests)
  that can *disprove* a dependence without enumerating iterations.
* **Symbolic certification** (primary): exact distance/direction vectors
  from :mod:`repro.analysis.lint.symbolic` — Banerjee bounds plus a small
  integer solver — giving size-generic proofs whose cost is independent of
  the iteration space.
* **Concrete enumeration** (cross-check oracle): exhaustively execute the
  iteration space, recording which iteration of a candidate parallel loop
  touches which elements.  Exact but budget-limited; when the space
  exceeds the budget the oracle is *skipped* (the symbolic proof stands on
  its own) rather than failing the certification.  "Over budget" is
  decided before enumerating, by an exact early-exit count of the accesses
  the walk would record (:func:`_count_accesses`), so a skip costs time
  proportional to the loop structure, not to the budget.

The transform passes call :func:`certify_parallel` /
:func:`certify_interchange`; see ``tests/test_dependence.py`` and the
symbolic-vs-enumeration property tests in ``tests/test_symbolic.py``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import AnalysisError
from repro.ir.affine import Affine
from repro.ir.expr import loads_in
from repro.ir.program import Program
from repro.ir.stmt import Block, For, LocalAssign, Stmt, Store, find_loop, loops_in

MAX_CERTIFY_POINTS = 2_000_000
#: Oracle budget of the certifying transform passes (``Parallelize``,
#: ``Interchange``): small enough that figure-size builds skip the
#: cross-check, which then costs only the access count.
PASS_CERTIFY_POINTS = 200_000


class EnumerationBudgetError(AnalysisError):
    """The concrete oracle's iteration space exceeded its access budget.

    Direct callers of :func:`loop_conflicts` still see an
    :class:`AnalysisError`; the certification entry points catch this
    subclass and downgrade the oracle to "skipped"."""


@dataclass(frozen=True)
class Access:
    """One dynamic array access: which element, read or write, and the
    value of the candidate loop variable when it happened.  ``outer``
    holds the values of the loops *enclosing* the candidate: iterations
    from different outer values run in different parallel regions, with
    an implicit barrier between them, so only accesses with equal
    ``outer`` can race."""

    array: str
    element: Tuple[int, ...]
    is_write: bool
    loop_value: int
    sequence: int  # program order
    outer: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Conflict:
    """A loop-carried dependence that forbids parallelization."""

    array: str
    element: Tuple[int, ...]
    first: Access
    second: Access

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.array}{list(self.element)} touched by iterations "
            f"{self.first.loop_value} and {self.second.loop_value} "
            f"(write involved)"
        )


# ---------------------------------------------------------------------------
# Conservative affine tests
# ---------------------------------------------------------------------------

def ziv_independent(a: Affine, b: Affine) -> bool:
    """Zero-Index-Variable test: constants that differ can never alias."""
    return a.is_constant and b.is_constant and a.const != b.const


def gcd_independent(a: Affine, b: Affine) -> bool:
    """GCD test on ``a(i...) == b(j...)`` over integer unknowns.

    If gcd of all coefficients does not divide the constant difference, the
    Diophantine equation has no solution and the references are independent.
    """
    coeffs: List[int] = []
    for var in a.variables | b.variables:
        # Treat the two iteration vectors as distinct unknowns.
        ca = a.coefficient(var)
        cb = b.coefficient(var)
        if ca:
            coeffs.append(ca)
        if cb:
            coeffs.append(cb)
    diff = b.const - a.const
    if not coeffs:
        return diff != 0
    divisor = 0
    for c in coeffs:
        divisor = math.gcd(divisor, abs(c))
    return divisor != 0 and diff % divisor != 0


def may_alias(a_indices, b_indices) -> bool:
    """Conservative may-alias over per-dimension subscripts."""
    for a, b in zip(a_indices, b_indices):
        if ziv_independent(a, b) or gcd_independent(a, b):
            return False
    return True


# ---------------------------------------------------------------------------
# Concrete certification
# ---------------------------------------------------------------------------

def _enclosing_vars(stmt: Stmt, var: str, path: Tuple[str, ...] = ()) -> Optional[Tuple[str, ...]]:
    """Variables of the loops enclosing the loop named ``var`` (outside-in),
    or ``None`` if no such loop exists."""
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            found = _enclosing_vars(child, var, path)
            if found is not None:
                return found
        return None
    if isinstance(stmt, For):
        if stmt.var == var:
            return path
        return _enclosing_vars(stmt.body, var, path + (stmt.var,))
    return None


def _budget_error(budget: int) -> EnumerationBudgetError:
    return EnumerationBudgetError(
        f"iteration space too large to certify (> {budget} accesses); "
        "certify at a smaller size of the same kernel family"
    )


def _leaf_weight(stmt: Stmt) -> int:
    """Accesses one execution of a ``Store``/``LocalAssign`` records."""
    weight = sum(1 for load in loads_in(stmt.value) if load.array.scope == "global")
    return weight + (isinstance(stmt, Store) and stmt.array.scope == "global")


def _count_accesses(
    stmt: Stmt, env: Dict[str, int], loop_var: Optional[str], limit: int
) -> int:
    """The final ``counter[0]`` that :func:`_accesses` reaches on ``stmt``,
    computed without recording a single access.

    Counts global loads plus one per global store, only inside the
    candidate loop ``loop_var`` (everywhere when ``None``).  An innermost
    loop collapses to trip count times body weight; any other loop walks
    its iterations and stops as soon as the running total exceeds
    ``limit``, returning that partial total (some value > ``limit``).
    """
    if isinstance(stmt, Block):
        total = 0
        for child in stmt.stmts:
            total += _count_accesses(child, env, loop_var, limit - total)
            if total > limit:
                break
        return total
    if isinstance(stmt, For):
        inside = loop_var is None or loop_var in env or stmt.var == loop_var
        if not inside and all(loop.var != loop_var for loop in loops_in(stmt.body)):
            return 0  # entirely outside the candidate loop
        body = stmt.body.stmts if isinstance(stmt.body, Block) else (stmt.body,)
        if all(isinstance(s, (Store, LocalAssign)) for s in body):
            return stmt.trip_count(env) * sum(_leaf_weight(s) for s in body)
        total = 0
        for value in stmt.iter_values(env):
            env[stmt.var] = value
            total += _count_accesses(stmt.body, env, loop_var, limit - total)
            if total > limit:
                break
        env.pop(stmt.var, None)
        return total
    if isinstance(stmt, (Store, LocalAssign)):
        if loop_var is not None and loop_var not in env:
            return 0
        return _leaf_weight(stmt)
    raise AnalysisError(f"unknown statement {stmt!r}")


def _accesses(
    stmt: Stmt,
    env: Dict[str, int],
    loop_var: str,
    out: List[Access],
    counter: List[int],
    budget: int,
    enclosing: Tuple[str, ...] = (),
) -> None:
    if isinstance(stmt, Block):
        for child in stmt.stmts:
            _accesses(child, env, loop_var, out, counter, budget, enclosing)
        return
    if isinstance(stmt, For):
        for value in stmt.iter_values(env):
            env[stmt.var] = value
            _accesses(stmt.body, env, loop_var, out, counter, budget, enclosing)
        env.pop(stmt.var, None)
        return
    if isinstance(stmt, (Store, LocalAssign)):
        if loop_var is not None and loop_var not in env:
            # Outside the candidate loop: separated from its iterations by
            # the parallel region's implicit barrier — cannot race.
            return
        loop_value = env.get(loop_var, 0) if loop_var is not None else 0
        outer = tuple(env[v] for v in enclosing)
        for load in loads_in(stmt.value):
            if load.array.scope != "global":
                # Thread-local scratch is privatized per OpenMP thread;
                # cross-iteration sharing is a scheduling artifact, not a
                # data dependence (see kernels.transpose.manual_blocking).
                continue
            counter[0] += 1
            if counter[0] > budget:
                raise _budget_error(budget)
            out.append(
                Access(
                    load.array.name,
                    tuple(ix.evaluate(env) for ix in load.indices),
                    False,
                    loop_value,
                    counter[0],
                    outer,
                )
            )
        if isinstance(stmt, Store) and stmt.array.scope == "global":
            counter[0] += 1
            if counter[0] > budget:
                raise _budget_error(budget)
            element = tuple(ix.evaluate(env) for ix in stmt.indices)
            if stmt.accumulate:
                out.append(Access(stmt.array.name, element, False, loop_value, counter[0], outer))
            out.append(Access(stmt.array.name, element, True, loop_value, counter[0], outer))
        return
    raise AnalysisError(f"unknown statement {stmt!r}")


def loop_conflicts(
    program: Program, var: str, budget: int = MAX_CERTIFY_POINTS
) -> List[Conflict]:
    """All cross-iteration conflicts that forbid parallelizing loop ``var``.

    A conflict is two accesses to the same element from different values of
    ``var`` — at the *same* values of every enclosing loop, since distinct
    outer iterations open distinct parallel regions separated by the
    implicit barrier — where at least one access is a write.
    """
    find_loop(program.body, var)  # raises if the loop does not exist
    if _count_accesses(program.body, {}, var, budget) > budget:
        raise _budget_error(budget)
    enclosing = _enclosing_vars(program.body, var) or ()
    accesses: List[Access] = []
    env: Dict[str, int] = {}
    # Walk the whole program so surrounding loops bind their variables too.
    _accesses(program.body, env, var, accesses, [0], budget, enclosing)

    conflicts: List[Conflict] = []
    by_element: Dict[Tuple[str, Tuple[int, ...]], List[Access]] = {}
    for access in accesses:
        by_element.setdefault((access.array, access.element), []).append(access)
    for (array, element), hits in by_element.items():
        if len(hits) < 2:
            continue
        for first, second in itertools.combinations(hits, 2):
            if first.loop_value == second.loop_value or first.outer != second.outer:
                continue
            if first.is_write or second.is_write:
                conflicts.append(Conflict(array, element, first, second))
                break  # one conflict per element is enough evidence
    return conflicts


def enumeration_oracle(
    program: Program, var: str, budget: int = MAX_CERTIFY_POINTS
) -> Optional[List[Conflict]]:
    """Concrete cross-check: the conflict list, or ``None`` when the
    iteration space exceeds ``budget`` (oracle skipped, not an error)."""
    try:
        return loop_conflicts(program, var, budget)
    except EnumerationBudgetError:
        return None


def certify_parallel(
    program: Program, var: str, budget: int = MAX_CERTIFY_POINTS
) -> Optional[str]:
    """Prove parallelizing ``var`` legal; raise :class:`AnalysisError` if not.

    The symbolic engine is the primary proof (size-generic).  Concrete
    enumeration then cross-checks it when the iteration space fits the
    budget; over budget it is skipped and the skip is reported in the
    return value (``None`` means fully cross-checked).
    """
    from repro.analysis.lint.symbolic import certify_parallel_symbolic

    certify_parallel_symbolic(program, var)
    oracle = enumeration_oracle(program, var, budget)
    if oracle is None:
        return (
            f"enumeration oracle skipped for loop {var!r}: iteration space "
            f"exceeds the {budget}-access budget (symbolic proof stands alone)"
        )
    if oracle:
        sample = "; ".join(str(c) for c in oracle[:3])
        raise AnalysisError(
            f"internal analysis disagreement on loop {var!r} of "
            f"{program.name!r}: the symbolic engine certified it parallel but "
            f"enumeration found conflicts: {sample}"
        )
    return None


def execution_order_signature(
    program: Program, budget: int = MAX_CERTIFY_POINTS
) -> List[Tuple[str, Tuple[int, ...], bool]]:
    """The sequence of (array, element, is_write) touches of a program.

    Interchange is legal iff the *set* of reads-before-writes relations per
    element is preserved; for certification we compare the per-element
    write sequences and final values instead (see certify_interchange).
    """
    if _count_accesses(program.body, {}, None, budget) > budget:
        raise _budget_error(budget)
    accesses: List[Access] = []
    _accesses(program.body, {}, None, accesses, [0], budget)
    return [(a.array, a.element, a.is_write) for a in accesses]


def certify_interchange(
    original: Program, transformed: Program, budget: int = MAX_CERTIFY_POINTS
) -> Optional[str]:
    """Certify an interchange/tiling by comparing per-element access
    multisets (same elements read and written the same number of times).

    This is a necessary condition; combined with the interpreter-equality
    tests in the kernel test-suites (bitwise equal outputs) it gives strong
    evidence of semantic preservation.  Over-budget iteration spaces skip
    the comparison and report it in the return value instead of raising —
    the symbolic direction-vector proof
    (:func:`repro.analysis.lint.symbolic.certify_interchange_symbolic`)
    is the primary legality argument.
    """
    from collections import Counter

    try:
        before = execution_order_signature(original, budget)
        after = execution_order_signature(transformed, budget)
    except EnumerationBudgetError:
        return (
            f"enumeration oracle skipped for {original.name!r}: iteration "
            f"space exceeds the {budget}-access budget"
        )
    if Counter(before) != Counter(after):
        missing = Counter(before) - Counter(after)
        extra = Counter(after) - Counter(before)
        raise AnalysisError(
            f"transformation changed the access multiset: missing={list(missing)[:3]} "
            f"extra={list(extra)[:3]}"
        )
    return None
