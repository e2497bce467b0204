"""Plain-text table rendering for experiment reports.

Every figure harness returns structured rows and prints them through
:func:`render_table`, so benchmark logs contain the same rows/series the
paper's figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

#: Placeholder for a figure cell whose run did not complete — the same
#: visual convention as the paper's absent 16384² Mango Pi bar.
DASH = "—"


@dataclass(frozen=True)
class CellFailure:
    """One figure cell that could not be produced (skipped/timed out/failed)."""

    device_key: str
    item: str       # variant, memory level, ablation name ...
    status: str     # an OutcomeStatus value
    reason: str

    def note(self) -> str:
        return f"{self.device_key}/{self.item} {self.status}: {self.reason}"


def with_footnotes(table: str, notes: Iterable[str]) -> str:
    """``table`` followed by its deduplicated '†' footnote lines."""
    seen = set()
    lines = [table]
    for note in notes:
        if note and note not in seen:
            seen.add(note)
            lines.append(f"† {note}")
    return "\n".join(lines)


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        if abs(value) >= 100:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def render_table(headers: Sequence[str], rows: Iterable[Sequence], title: str = "") -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def seconds_label(seconds: float) -> str:
    """Human-scale time label like the figure captions use."""
    if seconds >= 1:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.1f} us"
