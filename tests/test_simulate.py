"""End-to-end simulation tests (program + device -> time)."""

import time

import pytest

from repro.devices import get_device, mango_pi_d1, visionfive_jh7100, xeon_4310t
from repro.errors import OutOfMemoryError, SimulationError
from repro.kernels import stream, transpose
from repro.runtime.faults import clear_faults, install_faults
from repro.simulate import STAGES, has_parallel_loop, simulate
from repro.transforms import AutoVectorize, Parallelize, apply_passes

from tests.conftest import require_native, triad_program


class TestBasics:
    def test_result_fields(self):
        result = simulate(triad_program(1024), mango_pi_d1())
        assert result.seconds > 0
        assert result.dram_bytes > 0
        assert result.active_cores == 1
        assert result.total_ops.flops == 2 * 1024
        assert result.level_misses("L1") > 0
        assert 0 < result.achieved_dram_gbs < 10

    def test_active_cores_default(self):
        serial = simulate(triad_program(256), visionfive_jh7100())
        parallel = simulate(
            apply_passes(triad_program(256), [Parallelize("i")]), visionfive_jh7100()
        )
        assert serial.active_cores == 1
        assert parallel.active_cores == 2

    def test_explicit_core_count(self):
        program = apply_passes(triad_program(256), [Parallelize("i")])
        result = simulate(program, xeon_4310t(), active_cores=4)
        assert result.active_cores == 4

    def test_capacity_enforced(self):
        with pytest.raises(OutOfMemoryError):
            simulate(transpose.naive(16384), mango_pi_d1())

    def test_capacity_check_can_be_disabled(self):
        # Don't actually run a 2 GiB kernel; just check a mid-size one that
        # fails the 80%-headroom rule but simulates fine.
        program = triad_program(40_000_000)  # ~0.96 GB of arrays
        with pytest.raises(OutOfMemoryError):
            simulate(program, mango_pi_d1())

    def test_bad_repetitions(self):
        with pytest.raises(SimulationError):
            simulate(triad_program(64), mango_pi_d1(), repetitions=0)
        with pytest.raises(SimulationError):
            simulate(triad_program(64), mango_pi_d1(), steady_state=True, repetitions=1)


class TestSteadyState:
    def test_warm_cache_faster(self):
        n = 512  # 12 KiB of arrays: fits L1
        device = mango_pi_d1()
        cold = simulate(stream.build("copy", n, parallel=False), device)
        warm = simulate(
            stream.build("copy", n, parallel=False),
            device,
            repetitions=3,
            steady_state=True,
        )
        assert warm.seconds < cold.seconds
        assert warm.dram_bytes < cold.dram_bytes

    def test_dram_resident_not_helped_by_repetition(self):
        n = 400_000  # ~9.6 MB: far beyond the D1's 32 KiB L1
        device = mango_pi_d1()
        cold = simulate(stream.build("copy", n, parallel=False), device)
        warm = simulate(
            stream.build("copy", n, parallel=False), device, repetitions=2, steady_state=True
        )
        assert warm.seconds == pytest.approx(cold.seconds, rel=0.15)


class TestColdRepetitions:
    """Regression: cold (``steady_state=False``) multi-repetition runs must
    account *every* repetition's traffic and work, not just the last one."""

    def test_dram_resident_reps_accumulate(self):
        n = 400_000  # ~9.6 MB of arrays: DRAM-resident on the D1
        device = mango_pi_d1()
        one = simulate(triad_program(n), device)
        three = simulate(triad_program(n), device, repetitions=3, steady_state=False)
        assert three.dram_bytes == pytest.approx(3 * one.dram_bytes, rel=0.01)
        assert three.total_ops.flops == 3 * one.total_ops.flops
        assert three.seconds == pytest.approx(3 * one.seconds, rel=0.05)

    def test_cache_resident_work_still_counts_every_rep(self):
        # Later reps hit in cache, so time grows by less than 3x — but the
        # executed operations (time_run's CoreWork input) triple exactly.
        n = 512
        device = mango_pi_d1()
        one = simulate(triad_program(n), device)
        three = simulate(triad_program(n), device, repetitions=3, steady_state=False)
        assert three.total_ops.flops == 3 * one.total_ops.flops
        assert one.seconds < three.seconds < 3 * one.seconds

    def test_steady_state_measures_last_rep_only(self):
        # Warm measurement is unaffected by the cold-rep fix: any number of
        # warm-up reps converges to the same steady-state measurement.
        n = 512
        device = mango_pi_d1()
        warm2 = simulate(triad_program(n), device, repetitions=2, steady_state=True)
        warm4 = simulate(triad_program(n), device, repetitions=4, steady_state=True)
        assert warm4.seconds == pytest.approx(warm2.seconds, rel=1e-12)
        assert warm4.dram_bytes == warm2.dram_bytes
        assert warm4.total_ops.flops == warm2.total_ops.flops


class TestCrossDeviceShape:
    def test_xeon_fastest_on_triad(self):
        n = 100_000
        times = {}
        for key in ("xeon_4310t", "raspberry_pi_4", "mango_pi_d1", "visionfive_jh7100"):
            device = get_device(key)
            program = stream.build("triad", n, parallel=device.cores > 1)
            if device.cpu.vector_bits:
                program = AutoVectorize().run(program)
            times[key] = simulate(program, device).seconds
        assert times["xeon_4310t"] < times["raspberry_pi_4"]
        assert times["raspberry_pi_4"] < times["mango_pi_d1"]
        assert times["raspberry_pi_4"] < times["visionfive_jh7100"]

    def test_flush_increases_traffic(self):
        result = simulate(triad_program(512), mango_pi_d1())
        flushed = simulate(triad_program(512), mango_pi_d1(), flush_writebacks=True)
        assert flushed.dram_bytes > result.dram_bytes

    def test_has_parallel_loop(self):
        assert not has_parallel_loop(triad_program(8))
        assert has_parallel_loop(apply_passes(triad_program(8), [Parallelize("i")]))


class TestStageTimes:
    """``SimulationResult.stage_s``: the call's own per-stage host seconds."""

    @pytest.mark.parametrize("engine", ["exact", "fast"])
    def test_stages_tile_the_call(self, engine):
        device = visionfive_jh7100().scaled(16)
        program = transpose.blocking(128, block=16)
        start = time.perf_counter()
        result = simulate(program, device, pmu=True, engine=engine, flush_writebacks=True)
        wall = time.perf_counter() - start
        assert tuple(result.stage_s) == STAGES
        assert set(STAGES) == {"build", "plan", "tracegen", "replay", "timing"}
        assert all(seconds >= 0 for seconds in result.stage_s.values())
        assert result.stage_s["replay"] > 0 and result.stage_s["tracegen"] > 0
        assert sum(result.stage_s.values()) <= wall

    def test_stage_work_covers_every_repetition(self):
        """The work beside the stage seconds counts every repetition the
        seconds cover, where ``works`` and ``snapshots`` count the
        measured one."""
        device = visionfive_jh7100().scaled(16)
        program = transpose.blocking(64, block=16)
        once = simulate(program, device)
        warm = simulate(program, device, repetitions=2, steady_state=True)
        segments = sum(work.segments for work in once.works)
        assert once.trace_segments == segments == sum(work.segments for work in warm.works)
        assert warm.trace_segments == 2 * segments
        assert warm.trace_rows == 2 * once.trace_rows > 0
        l1 = [snap.levels[0] for snap in once.snapshots]  # every core's L1
        assert once.line_ops["L1"] == [
            sum(getattr(level, name) for level in l1) for name in ("accesses", "misses", "writebacks")
        ]
        assert warm.line_ops["L1"][0] == 2 * once.line_ops["L1"][0]
        assert once.tlb_walks == sum(snap.tlb_walks for snap in once.snapshots)
        assert warm.tlb_pages == 2 * once.tlb_pages > 0
        assert warm.prefetch_covered == 2 * once.prefetch_covered > 0

    def test_injected_tracegen_delay_lands_in_tracegen(self):
        program = transpose.naive(64)
        install_faults("tracegen_slow:0.05")
        try:
            result = simulate(program, visionfive_jh7100().scaled(16))
        finally:
            clear_faults()
        stages = result.stage_s
        assert stages["tracegen"] >= 0.05
        assert max(stages, key=stages.get) == "tracegen"


# -- engine skip telemetry -----------------------------------------------------


def test_simulate_reports_engine_skips_and_process_totals():
    from repro.memsim.columnar import process_skip_totals

    require_native()
    before = process_skip_totals()
    result = simulate(
        transpose.build("Naive", 64), get_device("mango_pi_d1").scaled(16), engine="fast"
    )
    after = process_skip_totals()
    assert result.engine == "fast"
    assert sum(result.engine_skips.values()) > 0
    grown = {
        path: after[path] - before.get(path, 0) for path in after
    }
    for path, count in result.engine_skips.items():
        assert grown.get(path, 0) >= count

    exact = simulate(
        transpose.build("Naive", 64), get_device("mango_pi_d1").scaled(16), engine="exact"
    )
    assert exact.engine == "exact" and exact.engine_skips == {}


# -- the PMU's counters mode -----------------------------------------------------


class TestCountersMode:
    """``simulate(..., pmu="counters")``: the ``pmu.*`` counters of a
    ``pmu=True`` run without its per-reference attribution."""

    @pytest.mark.parametrize("engine", ["exact", "fast"])
    def test_same_counters_and_no_attribution(self, engine):
        from repro.profiling.counters import counter_set

        if engine == "fast":
            require_native()
        device = visionfive_jh7100().scaled(16)
        program = transpose.blocking(128, block=16)
        full = simulate(program, device, pmu=True, engine=engine)
        counters = simulate(program, device, pmu="counters", engine=engine)
        assert full.pmus and full.ref_table
        assert counters.pmus == [] and counters.ref_table == {}
        assert counters.snapshots == full.snapshots
        assert counters.seconds == full.seconds
        assert counter_set(counters) == counter_set(full)
        assert any(name.startswith("pmu.") for name in counter_set(counters))

    def test_unknown_value_is_refused(self):
        with pytest.raises(SimulationError, match="pmu must be"):
            simulate(triad_program(64), mango_pi_d1(), pmu="attribution")

    def test_runner_record_counters_match_a_full_pmu_simulation(self, tmp_path, monkeypatch):
        """A figure cell's record carries the counter set of a ``pmu=True``
        simulation of the same program."""
        from repro.experiments.config import CACHE_SCALE, TRANSPOSE_BLOCK, scaled_device
        from repro.experiments.runner import Runner
        from repro.profiling.counters import counter_set
        from repro.transforms import for_device

        monkeypatch.delenv("REPRO_PMU", raising=False)
        device = scaled_device("visionfive_jh7100", CACHE_SCALE)

        def build():
            return transpose.build("Blocking", 64, block=TRANSPOSE_BLOCK)

        record = Runner(str(tmp_path / "cache.json")).run(("cell",), build, device)
        full = simulate(for_device(build(), device), device, pmu=True)
        assert record.counters == dict(counter_set(full))
        assert any(name.startswith("pmu.") for name in record.counters)
