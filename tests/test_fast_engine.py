"""Differential tests for the fast replay engine.

The fast engine's contract is *bit-identity* with the exact simulator —
not approximate agreement.  These tests run the same segment streams
through the exact :class:`~repro.memsim.hierarchy.MemoryHierarchy` and
the native :class:`~repro.memsim.native.NativeHierarchy`, and assert that
every observable — hits, misses, prefetch hits, writebacks, DRAM line
traffic, TLB walks, and the full per-reference PMU attribution state —
is exactly equal.  A comparison needs both engines, so every test that
builds the native one skips (naming :func:`native_status`) when the C
core cannot load instead of comparing the exact engine with itself.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec.trace import Segment, SegmentBatch
from repro.memsim import (
    C906_PREFETCH,
    Cache,
    MemoryHierarchy,
    NO_PREFETCH,
    TlbSpec,
    snapshot,
)
from repro.memsim import native
from repro.memsim.cache import set_mask
from repro.memsim.native import (
    _BUF_OPS,
    NativeHierarchy,
    native_available,
    native_cache,
    native_status,
)

TLB = TlbSpec(l1_entries=4, l1_ways=0, l2_entries=16, l2_ways=2, walk_cycles=40)

#: (name, size_bytes, ways, policy) rows for a small two-level hierarchy.
SMALL_LEVELS = [("L1", 4096, 4, "lru"), ("L2", 16384, 8, "lru")]


def seg(base, stride, count, write=False, esize=8, ref=0):
    return Segment(ref, base, stride, count, write, esize)


def require_native():
    if not native_available():
        pytest.skip(f"native engine {native_status()}")


def build_engines(levels=SMALL_LEVELS, prefetch=C906_PREFETCH, tlb=TLB):
    """An exact and a native hierarchy over identical cache geometry."""
    require_native()
    return {
        "exact": MemoryHierarchy(
            [Cache(row[0], row[1], row[2], 64, row[3]) for row in levels],
            prefetch=prefetch,
            tlb=tlb,
        ),
        "native": NativeHierarchy(
            [native_cache(row[0], row[1], row[2], 64, row[3]) for row in levels],
            prefetch=prefetch,
            tlb=tlb,
        ),
    }


def pmu_state(pmu):
    """Every observable of a PMU, as comparable plain data."""
    state = {
        "counters": dict(pmu.counters()),
        "useful": pmu.prefetch_useful,
        "polluting": pmu.prefetch_polluting,
        "accesses": dict(pmu.ref_accesses),
        "bytes": dict(pmu.ref_bytes),
        "dram_read": dict(pmu.ref_dram_read_lines),
        "dram_written": dict(pmu.ref_dram_written_lines),
        "tlb": dict(pmu.ref_tlb_walks),
    }
    for level in pmu.levels:
        state[level.name] = (
            level.compulsory,
            level.capacity,
            level.conflict,
            dict(level.set_conflicts),
            {k: tuple(v) for k, v in level.per_ref.items()},
        )
    return state


def run_all(segments, levels=SMALL_LEVELS, prefetch=C906_PREFETCH, tlb=TLB,
            pmu=True, flush=False):
    """Run ``segments`` through every engine; return {engine: observables}."""
    out = {}
    for name, hier in build_engines(levels, prefetch, tlb).items():
        p = hier.attach_pmu() if pmu else None
        hier.run(segments)
        if flush:
            hier.flush()
        out[name] = {
            "snapshot": snapshot(hier),
            "dirty": sum(c.flush_dirty_count() for c in hier.caches),
            "pmu": pmu_state(p) if p else None,
        }
    return out


def assert_engines_agree(results):
    exact, got = results["exact"], results["native"]
    assert got["snapshot"] == exact["snapshot"]
    assert got["dirty"] == exact["dirty"]
    assert got["pmu"] == exact["pmu"]


# ---------------------------------------------------------------------------
# Random affine traces (satellite: hypothesis differential property)
# ---------------------------------------------------------------------------

segments_strategy = st.lists(
    st.builds(
        seg,
        base=st.integers(min_value=0, max_value=1 << 16),
        stride=st.sampled_from([-512, -64, -8, 0, 4, 8, 24, 64, 80, 512, 4096]),
        count=st.integers(min_value=1, max_value=200),
        write=st.booleans(),
        esize=st.sampled_from([4, 8]),
        ref=st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=20,
)


class TestRandomTraceDifferential:
    @settings(max_examples=60, deadline=None)
    @given(segments_strategy)
    def test_lru_engines_bit_identical(self, segments):
        assert_engines_agree(run_all(segments))

    @settings(max_examples=30, deadline=None)
    @given(segments_strategy)
    def test_random_policy_engines_bit_identical(self, segments):
        levels = [("L1", 4096, 4, "lru"), ("L2", 16384, 8, "random")]
        assert_engines_agree(run_all(segments, levels=levels))

    @settings(max_examples=30, deadline=None)
    @given(segments_strategy)
    def test_flush_writebacks_bit_identical(self, segments):
        assert_engines_agree(run_all(segments, flush=True))


# ---------------------------------------------------------------------------
# Batch intake: process_segments(batch) == process_segment per segment
# ---------------------------------------------------------------------------

def _program_stream():
    """A real trace (two programs back to back, with an empty segment
    between them) long enough to cross the native drain threshold."""
    from repro.exec.tracegen import TraceGenerator
    from repro.kernels import transpose

    stream = []
    for program in (transpose.naive(160), transpose.manual_blocking(128, block=16)):
        for batch in TraceGenerator(program).core_stream(0):
            stream.extend(batch.segments())
        stream.append(seg(4096, 8, 0, ref=9))
    return stream


def _as_batch(segments):
    columns = list(zip(*segments))
    return SegmentBatch(
        *(np.array(col, dtype=np.bool_ if k == 4 else np.int64) for k, col in enumerate(columns))
    )


def _intake_state(hier, p):
    hier.drain()
    prefetcher = hier.prefetcher
    return {
        "snapshot": snapshot(hier),
        "pmu": pmu_state(p),
        "prefetch": (prefetcher.covered_lines, prefetcher.uncovered_lines, prefetcher.late_lines),
    }


class TestBatchIntake:
    def test_batch_sizes_do_not_change_any_counter(self):
        stream = _program_stream()
        assert sum(s.count for s in stream) > 2 * _BUF_OPS
        whole = _as_batch(stream)
        reference = None
        for name in build_engines():
            hier = build_engines()[name]
            p = hier.attach_pmu()
            for s in stream:
                hier.process_segment(s)
            per_segment = _intake_state(hier, p)
            if reference is None:
                reference = per_segment
            assert per_segment == reference, name
            for size in (1, 7, len(stream)):
                hier = build_engines()[name]
                p = hier.attach_pmu()
                for a in range(0, len(stream), size):
                    hier.process_segments(SegmentBatch(*(col[a : a + size] for col in whole)))
                assert _intake_state(hier, p) == reference, (name, size)

    def test_native_drains_where_per_segment_intake_drains(self, monkeypatch):
        stream = _program_stream()
        drained = {}
        for mode in ("segments", "batch"):
            hier = build_engines()["native"]
            sizes = drained[mode] = []
            original = hier._drain_buffer

            def spy(original=original, sizes=sizes, hier=hier):
                hier._stage_segments()
                sizes.append(sum(len(cols.ref) for cols in hier._buf_cols))
                original()

            monkeypatch.setattr(hier, "_drain_buffer", spy)
            if mode == "segments":
                for s in stream:
                    hier.process_segment(s)
            else:
                hier.process_segments(_as_batch(stream))
            hier.drain()
        assert drained["segments"] == drained["batch"]
        assert len([n for n in drained["batch"] if n]) > 2


# ---------------------------------------------------------------------------
# Certified-skip / replay boundary (satellite: mid-run engine transitions)
# ---------------------------------------------------------------------------

class TestSkipReplayBoundary:
    def phased_segments(self):
        """A stream whose cache regime flips mid-run:

        * a streaming sweep much larger than L2 (every op misses),
        * repeated passes over a tiny footprint (every op hits),
        * a same-set conflict ping-pong (hits and misses interleave).
        """
        tiny = [seg(0, 64, 8) for _ in range(6)]             # resident reuse
        sweep = [seg(1 << 20, 64, 2048, write=True)]          # streams thru L2
        # 4-way L1 set 0: five lines mapping to the same set, cycled.
        conflict = [seg(w * 64 * 1024, 0, 1) for w in range(5)] * 4
        return tiny + sweep + conflict + tiny + sweep + list(reversed(conflict))

    def test_boundary_crossing_bit_identical(self):
        assert_engines_agree(run_all(self.phased_segments()))

    def test_native_counts_everything_as_replayed(self):
        hier = build_engines()["native"]
        hier.run(self.phased_segments())
        counts = hier.skip_counts()
        assert counts["resident"] == 0 and counts["streaming"] == 0
        assert counts["replayed"] > 0


# ---------------------------------------------------------------------------
# Writeback accounting unification (satellite: dirty-line accounting)
# ---------------------------------------------------------------------------

class TestWritebackUnification:
    def test_flush_dirty_count_matches_flush_charge(self):
        """``Cache.dirty_lines`` is the one definition of end-of-run
        writeback traffic: ``flush_dirty_count`` counts it per level,
        ``flush()`` charges its across-level dedup to DRAM — and every
        engine must agree line for line."""
        segments = [seg(i * 4096, 64, 32, write=True, ref=i % 3)
                    for i in range(24)]
        per_level = {}
        charged = {}
        for name, hier in build_engines().items():
            hier.run(segments)
            hier.drain()
            per_level[name] = [
                (c.flush_dirty_count(), sorted(c.dirty_lines()))
                for c in hier.caches
            ]
            union = set()
            for cache in hier.caches:
                union.update(cache.dirty_lines())
            before = hier.dram.written_lines
            hier.flush()
            charged[name] = hier.dram.written_lines - before
            assert charged[name] == len(union), name
            assert per_level[name][0][0] > 0, name   # workload really dirtied
        assert per_level["native"] == per_level["exact"]
        assert charged["native"] == charged["exact"]

    def test_pmu_and_engines_agree_on_writeback_bytes(self):
        """Total DRAM writeback bytes: identical across engines, and the
        PMU's per-reference attribution sums to the DRAM model's count."""
        segments = [seg(i * 2048, 64, 64, write=(i % 2 == 0), ref=i % 4)
                    for i in range(32)]
        written = {}
        for name, hier in build_engines().items():
            pmu = hier.attach_pmu()
            hier.run(segments)
            hier.flush()
            written[name] = hier.dram.written_lines * 64
            attributed = sum(pmu.ref_dram_written_lines.values())
            assert attributed == hier.dram.written_lines, name
        assert len(set(written.values())) == 1, written
        assert written["exact"] > 0


# ---------------------------------------------------------------------------
# Set-index helper (satellite: non-power-of-two set counts)
# ---------------------------------------------------------------------------

class TestSetIndexHelper:
    def test_set_mask_power_of_two(self):
        assert set_mask(128) == 127
        assert set_mask(1) == 0

    def test_set_mask_non_power_of_two(self):
        assert set_mask(20480) is None   # the Xeon 4310T's 15 MiB/12-way L3
        assert set_mask(3) is None

    def test_non_power_of_two_sets_all_engines(self):
        """A 20480-set cache exercises the modulo path of the shared
        helper in the exact scalar loop and the native batch loop."""
        levels = [("L1", 4096, 4, "lru"), ("L3", 15 * 2**20, 12, "lru")]
        # Strides straddling many sets, including multiples of 20480*64
        # that alias to the same set only under the modulo rule.
        segments = [
            seg(0, 64, 4096),
            seg(20480 * 64, 64, 4096, write=True),
            seg(7, 20480 * 64, 30, ref=1),
            seg(12345, -64, 2000, write=True, ref=2),
        ]
        assert_engines_agree(run_all(segments, levels=levels))


# ---------------------------------------------------------------------------
# Figure-grid slice (satellite: end-to-end differential through simulate())
# ---------------------------------------------------------------------------

def _fig2_cell(variant):
    from repro.experiments.config import CACHE_SCALE, TRANSPOSE_BLOCK, scaled_device
    from repro.kernels import transpose

    device = scaled_device("mango_pi_d1", CACHE_SCALE)
    return transpose.build(variant, 256, block=TRANSPOSE_BLOCK), device


class TestFigureSliceDifferential:
    @pytest.mark.parametrize("variant", ["Naive", "Blocking"])
    def test_fig2_cell_engines_identical(self, variant):
        from repro.simulate import simulate

        require_native()
        program, device = _fig2_cell(variant)
        exact = simulate(program, device, pmu=True, engine="exact")
        fast = simulate(program, device, pmu=True, engine="fast")
        assert (exact.engine, fast.engine) == ("exact", "fast")
        assert exact.seconds == fast.seconds
        assert exact.snapshots == fast.snapshots
        assert len(exact.pmus) == len(fast.pmus)
        for a, b in zip(exact.pmus, fast.pmus):
            assert pmu_state(a) == pmu_state(b)


# ---------------------------------------------------------------------------
# Fallback: no native core -> exact replay, said out loud
# ---------------------------------------------------------------------------

class TestExactFallback:
    def test_failed_native_load_replays_exact_and_warns_once(
        self, monkeypatch, tmp_path, caplog
    ):
        from repro.simulate import simulate

        def no_compiler(*_args):
            raise RuntimeError("no C compiler on PATH")

        # A fresh process's first load, against an empty build cache.
        monkeypatch.setenv(native.NATIVE_CACHE_ENV, str(tmp_path))
        monkeypatch.setattr(native, "_compile", no_compiler)
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_ffi", None)
        for key, value in (("tried", False), ("error", None), ("warned", False)):
            monkeypatch.setitem(native._STATE, key, value)

        program, device = _fig2_cell("Naive")
        with caplog.at_level(logging.WARNING, logger="repro.memsim.native"):
            hierarchies = device.build_hierarchies(1, engine="fast")
            fast = simulate(program, device, engine="fast")
        assert [type(h) for h in hierarchies] == [MemoryHierarchy]
        warnings = [r for r in caplog.records if r.name == "repro.memsim.native"]
        assert len(warnings) == 1
        assert warnings[0].levelno == logging.WARNING
        assert native_status() in warnings[0].getMessage()
        assert "no C compiler" in native_status()
        assert fast.engine == "exact"
        exact = simulate(program, device, engine="exact")
        assert fast.snapshots == exact.snapshots
        assert fast.seconds == exact.seconds
