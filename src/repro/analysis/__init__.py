"""Static analyses over the loop-nest IR.

* :mod:`repro.analysis.summation` — closed-form polynomial summation;
* :mod:`repro.analysis.opcount` — exact dynamic operation counts;
* :mod:`repro.analysis.dependence` — dependence tests and transformation
  legality certification;
* :mod:`repro.analysis.footprint` — footprint boxes, essential DRAM
  traffic, working-set sizes;
* :mod:`repro.analysis.reuse` — LRU stack-distance histograms;
* :mod:`repro.analysis.symbolic` — the symbolic dependence engine behind
  certification, the cache-model proofs and the linter;
* :mod:`repro.analysis.lint` — the ``repro lint`` diagnostics framework.
"""

from repro.analysis.dependence import (
    Conflict,
    EnumerationBudgetError,
    certify_interchange,
    certify_parallel,
    enumeration_oracle,
    gcd_independent,
    loop_conflicts,
    may_alias,
    ziv_independent,
)
from repro.analysis.footprint import (
    ArrayFootprint,
    essential_traffic_bytes,
    footprints,
    working_set_bytes,
)
from repro.analysis.opcount import OpCounts, count_expr, count_program, iteration_cost
from repro.analysis.reuse import LruStack, ReuseHistogram, lines_of_segments, reuse_histogram
from repro.analysis.summation import newton_sum, sum_over_range

__all__ = [
    "ArrayFootprint",
    "Conflict",
    "EnumerationBudgetError",
    "LruStack",
    "OpCounts",
    "ReuseHistogram",
    "certify_interchange",
    "certify_parallel",
    "count_expr",
    "count_program",
    "enumeration_oracle",
    "essential_traffic_bytes",
    "footprints",
    "gcd_independent",
    "iteration_cost",
    "lines_of_segments",
    "loop_conflicts",
    "may_alias",
    "newton_sum",
    "reuse_histogram",
    "sum_over_range",
    "working_set_bytes",
    "ziv_independent",
]
