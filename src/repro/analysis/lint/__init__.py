"""Symbolic IR linter.

A small MLIR-style diagnostics framework over the affine loop-nest IR.
Its race and certification checkers read dependences from
:mod:`repro.analysis.symbolic` (exact distance/direction vectors via
Banerjee bounds, integer equality elimination and Fourier-Motzkin with
integer tightening), the engine that transform certification and the
cache-model proofs call too; the linter is one consumer of it.

* :mod:`repro.analysis.lint.diagnostics` — structured :class:`Diagnostic`
  records with stable ``RPR0xx`` codes and text / JSON / SARIF emitters.
* :mod:`repro.analysis.lint.checkers` — the checkers encoding the paper's
  Section 4/5 lessons: ``race``, ``false-sharing``, ``stride``,
  ``tile-fit``, ``uncertified-transform``.
* :mod:`repro.analysis.lint.engine` — checker registry, waiver handling
  and the strict-gate policy behind ``repro lint``.
"""

from repro.analysis.lint.diagnostics import (
    CODES,
    Diagnostic,
    Severity,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.lint.engine import (
    DEFAULT_CHECKERS,
    FIGURE_WAIVERS,
    LintReport,
    lint_program,
    strict_failures,
)
from repro.analysis.lint.evidence import CacheEvidence

__all__ = [
    "CODES",
    "CacheEvidence",
    "DEFAULT_CHECKERS",
    "Diagnostic",
    "FIGURE_WAIVERS",
    "LintReport",
    "Severity",
    "lint_program",
    "render_json",
    "render_sarif",
    "render_text",
    "strict_failures",
]
