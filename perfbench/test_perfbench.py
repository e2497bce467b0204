"""The benchmark's own tests, on tiny inputs (about a minute in total).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402


#: Inputs small enough for a test, in the regime of each workload.
TINY = {
    "fig2_fresh": {"panel": [8192, 64]},
    "fig6_visionfive": {"width": 40, "height": 24},
    "naive_sweep": {"cells": [[n, key] for n in (64, 96) for key in workloads.DEVICES]},
}


@pytest.fixture(scope="module")
def session():
    session = run.Session()
    yield session
    session.close()


def _iteration(session, workload: str, trace: int):
    request = {"workload": workload, "inputs": TINY[workload]}
    return session.spawn("run", dict(request, trace=trace))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_and_layers_sum_to_wall(session, workload):
    plain = [_iteration(session, workload, 0) for _ in range(2)]
    traced = [_iteration(session, workload, 1) for _ in range(2)]

    assert run.consistent_counts(plain) == []
    assert run.consistent_counts(traced) == []
    assert plain[0]["cells"] > 0 and plain[0]["cells_failed"] == 0
    # Tracing is passive: the traced run computes the same outputs.
    assert traced[0]["digest"] == plain[0]["digest"]
    assert traced[0]["refs"] == plain[0]["refs"] == traced[0]["sink"]["memsim.refs"]

    for result in traced:
        layers = result["layers"]
        assert all(value >= 0 for value in layers.values())
        # Self times partition the root span, which sits just inside the
        # measured wall (the difference is one wrapper call).
        assert sum(layers.values()) == pytest.approx(result["wall_s"], abs=5e-3)
        assert result["oracle_s"] <= layers["analysis.certify"] + 1e-9
        assert result["ref_s"] > 0


def test_seed_changes_inputs_not_regime():
    for workload in run.WORKLOADS:
        assert workloads.inputs(workload, 7) == workloads.inputs(workload, 7)
    cells = [workloads.inputs("naive_sweep", seed)["cells"] for seed in range(3)]
    assert cells[0][0] == [1024, "xeon_4310t"] and cells[1] != cells[0]
    assert all(sorted(c) == sorted(cells[0]) for c in cells)
    widths = {workloads.inputs("fig6_visionfive", seed)["width"] for seed in range(5)}
    assert widths == {190, 191, 192, 193, 194}


def test_cross_check_cell_is_bit_identical(session):
    for workload in run.WORKLOADS:
        result = session.spawn("check", {"workload": workload, "seed": 1})
        assert result["ok"], result["cell"]


def test_consistent_counts_flags_drift():
    a = {"cells": 5, "refs": 10, "digest": "x"}
    assert run.consistent_counts([a, dict(a)]) == []
    assert run.consistent_counts([a, dict(a, refs=11)]) == ["refs"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "naive_sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def tiny_fig2_outputs(session):
    return _iteration(session, "fig2_fresh", 0)["outputs"]


def _main(monkeypatch, capsys, trace: int, expected):
    monkeypatch.setattr(run.workloads, "inputs", lambda workload, seed: TINY[workload])
    monkeypatch.setattr(run, "expected_outputs", lambda workload: expected)
    code = run.main(["--workload", "fig2_fresh", "--seed", "2", "--seconds", "1",
                     "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_declares_every_metric(monkeypatch, capsys, tiny_fig2_outputs,
                                           trace, section):
    code, line = _main(monkeypatch, capsys, trace, tiny_fig2_outputs)
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == declared
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_outputs_unlike_the_stored_digests_fail_the_run(monkeypatch, capsys, tiny_fig2_outputs):
    wrong = dict(tiny_fig2_outputs, **{"fig2.json": "0" * 64})
    code, line = _main(monkeypatch, capsys, 0, wrong)
    assert code == 1
    assert line["correct"] is False and line["failed"] == 1


def test_times_are_scaled_to_the_reference_speed():
    ref = run.REFERENCE_S
    fast = run.end_to_end(
        [{"wall_s": 4.0, "peak_rss_mb": 50.0, "refs": 8_000_000, "ref_s": ref}],
        [{"setup_s": 0.3, "ref_s": ref}],
    )
    # Half speed: every time and the reference double.
    slow = run.end_to_end(
        [{"wall_s": 8.0, "peak_rss_mb": 50.0, "refs": 8_000_000, "ref_s": 2 * ref}],
        [{"setup_s": 0.6, "ref_s": 2 * ref}],
    )
    for name in ("wall_s", "setup_s", "sim_mrefs_per_s"):
        assert slow[name]["value"] == pytest.approx(fast[name]["value"])
    assert fast["sim_mrefs_per_s"]["value"] == pytest.approx(2.0)
