"""CSV and JSON export of regenerated figures.

Downstream users plot the figures with their own tooling; this module
writes each figure's rows/series as plain CSV (one file per figure, named
and laid out by the figure module's ``CSV_FILE``, ``CSV_HEADER`` and
``csv_rows``), via ``python -m repro.cli --csv-dir out/ all``, and as
canonical JSON (``--json-dir``).  The JSON form is deterministic —
dataclasses are flattened with :func:`dataclasses.asdict` and dumped with
sorted keys — so two runs that produced the same figure write
byte-identical files.  CI uses exactly this to check that ``--jobs N``
does not change results.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, is_dataclass

from repro.experiments import FIGURES
from repro.experiments.runner import default_runner
from repro.runtime.journal import figure_of_key


def _open(path: str, **kwargs):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", encoding="utf-8", **kwargs)


def _write(path: str, header, rows) -> str:
    with _open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_json(path: str, value) -> str:
    with _open(path) as fh:
        json.dump(value, fh, sort_keys=True, indent=1, separators=(",", ": "))
        fh.write("\n")
    return path


def export_figure_csv(name: str, directory: str, result) -> str:
    """Write one figure's CSV; returns the file path."""
    module = FIGURES[name]
    return _write(os.path.join(directory, module.CSV_FILE), module.CSV_HEADER,
                  module.csv_rows(result))


def _jsonable(result):
    """Flatten a figure result (dataclass, or list of dataclasses) into
    plain JSON-serializable containers."""
    if is_dataclass(result) and not isinstance(result, type):
        return asdict(result)
    if isinstance(result, (list, tuple)):
        return [_jsonable(item) for item in result]
    return result


def export_figure_json(name: str, directory: str, result) -> str:
    """Write one figure's full result as canonical JSON; returns the path.

    Canonical means sorted keys, fixed separators and a trailing newline,
    so equal results are byte-equal files — the determinism contract the
    ``--jobs`` smoke check in CI diffs against.
    """
    return _write_json(os.path.join(directory, f"{name}.json"), _jsonable(result))


def export_figure_perf_json(name: str, directory: str) -> str:
    """Write one figure's PMU counter sets as canonical JSON.

    The runner records the flat perf-counter set of every cell it
    simulates with the PMU on; this collects the ones belonging to
    ``name`` (by journal figure key) into ``<name>.perf.json``.  The same
    canonical-JSON rules as :func:`export_figure_json` apply, and counter
    merging is associative, so serial and ``--jobs N`` runs write
    byte-identical files (CI diffs them).
    """
    cells = {
        disk_key: counters
        for disk_key, counters in default_runner().perf_counters().items()
        if figure_of_key(disk_key) == name
    }
    return _write_json(os.path.join(directory, f"{name}.perf.json"), cells)
