"""Closed-form set-index arithmetic over line runs.

Everything here mirrors :class:`repro.memsim.cache.Cache` exactly: a
cache with ``S`` sets maps line address ``line`` to set ``line & (S-1)``
when ``S`` is a power of two and ``line % S`` otherwise — which for the
non-negative line addresses the tracer emits is ``line % S`` in both
cases.  The classifier never guesses at set indices: every occupancy
number it cites comes from the residue arithmetic below, and the
differential harness replays the same lines through the real
:class:`Cache` to check them.

The key closed form: an arithmetic progression of ``count`` lines with
line step ``g`` lands on ``p = S / gcd(g mod S, S)`` distinct sets
(``min(count, p)`` when the run is short), visiting them cyclically, so
per-set occupancy is ``count // p`` or ``ceil(count / p)`` — the
power-of-two transpose pathology is exactly the ``gcd`` blowing up.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Tuple, Union

from repro.exec.trace import LineRun

#: A segment's distinct lines: closed form or (for drifting walks) explicit.
LinesRep = Union[LineRun, Tuple[int, ...]]


def num_sets(size_bytes: int, ways: int, line_size: int = 64) -> int:
    """Set count of a cache level (same derivation as ``Cache.__init__``)."""
    return max(1, size_bytes // (ways * line_size))


def lines_set_counter(rep: LinesRep, sets: int) -> Dict[int, int]:
    """Exact per-set line counts for one run (``set index -> lines``)."""
    counter: Dict[int, int] = {}
    if isinstance(rep, LineRun):
        count = rep.count
        if count <= 0:
            return counter
        g = abs(rep.step) % sets
        if g == 0:
            counter[rep.start % sets] = count
            return counter
        period = sets // math.gcd(g, sets)
        # Residues repeat with this period, so class j (0 <= j < period)
        # holds ceil(count/period) lines for the first count % period
        # classes in visit order and floor(count/period) for the rest.
        step = rep.step % sets
        base = rep.start % sets
        whole, extra = divmod(count, period)
        for j in range(min(count, period)):
            counter[(base + j * step) % sets] = whole + (1 if j < extra else 0)
        return counter
    for line in rep:
        idx = line % sets
        counter[idx] = counter.get(idx, 0) + 1
    return counter


def merge_counters(
    counters: Iterable[Dict[int, int]]
) -> Dict[int, int]:
    """Sum per-set counters (sound only when the line sets are disjoint)."""
    out: Dict[int, int] = {}
    for counter in counters:
        for idx, n in counter.items():
            out[idx] = out.get(idx, 0) + n
    return out


def distinct_set_counter(lines: Iterable[int], sets: int) -> Dict[int, int]:
    """Per-set counts of a collection of *distinct* line addresses."""
    out: Dict[int, int] = {}
    for line in lines:
        idx = line % sets
        out[idx] = out.get(idx, 0) + 1
    return out


def rep_lines(rep: LinesRep) -> Iterable[int]:
    """Iterate the line addresses of a rep in access order."""
    if isinstance(rep, LineRun):
        start, step = rep.start, rep.step
        return (start + k * step for k in range(rep.count))
    return iter(rep)


def rep_count(rep: LinesRep) -> int:
    """Distinct-line count of a rep."""
    return rep.count if isinstance(rep, LineRun) else len(rep)


def rep_signature(rep: LinesRep, sets: int) -> Tuple[int, ...]:
    """Memoization key: the rep's shape modulo the set mapping.

    Two reps with equal signatures have identical per-set counters, so
    occupancy work can be shared across the (huge) translated families a
    steady-state loop nest emits.
    """
    if isinstance(rep, LineRun):
        return (0, rep.start % sets, rep.step % sets, rep.count)
    return (1,) + tuple(line % sets for line in rep)
