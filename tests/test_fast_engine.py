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

import functools
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
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
    native_cache,
    native_status,
)

from tests.conftest import require_native

TLB = TlbSpec(l1_entries=4, l1_ways=0, l2_entries=16, l2_ways=2, walk_cycles=40)

#: (name, size_bytes, ways, policy) rows for a small two-level hierarchy.
SMALL_LEVELS = [("L1", 4096, 4, "lru"), ("L2", 16384, 8, "lru")]


def seg(base, stride, count, write=False, esize=8, ref=0):
    return Segment(ref, base, stride, count, write, esize)


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
# Edge cases of the compiled structures: fully-associative LRUs, negative
# ids, modulo set indexing, a PMU attached to a warm hierarchy
# ---------------------------------------------------------------------------

def _random_stream(seed, n, span_lines, max_count=48):
    """``n`` random segments over ``[-span_lines, span_lines)`` lines:
    negative line and page ids, strides from sub-line to multi-page."""
    rng = np.random.default_rng(seed)
    strides = [-3 * 4096, -4096 - 64, -64, -8, 0, 8, 24, 64, 4096, 8192 + 64]
    return [
        seg(
            int(rng.integers(-span_lines, span_lines)) * 64 + int(rng.integers(0, 8)) * 8,
            int(rng.choice(strides)),
            int(rng.integers(1, max_count)),
            write=bool(rng.integers(0, 2)),
            ref=int(rng.integers(-1, 4)),
        )
        for _ in range(n)
    ]


def _replay_observables(hier, stream, warm, mode, warm_pmu=False):
    """Feed ``warm`` (under a PMU of its own if ``warm_pmu``), attach a
    fresh PMU, feed ``stream`` (one batch or segment by segment); return
    every observable."""
    if warm_pmu:
        hier.attach_pmu()
    for s in warm:
        hier.process_segment(s)
    p = hier.attach_pmu()
    if mode == "batch":
        hier.process_segments(_as_batch(stream))
    else:
        for s in stream:
            hier.process_segment(s)
    hier.drain()
    return {
        "snapshot": snapshot(hier),
        "pmu": pmu_state(p),
        "dirty": [sorted(c.dirty_lines()) for c in hier.caches],
    }


def _assert_stream_identical(stream, levels, tlb, warm=(), warm_pmu=False):
    exact = _replay_observables(
        build_engines(levels, C906_PREFETCH, tlb)["exact"], stream, warm, "segments", warm_pmu
    )
    for mode in ("batch", "segments"):
        got = _replay_observables(
            build_engines(levels, C906_PREFETCH, tlb)["native"], stream, warm, mode, warm_pmu
        )
        assert got == exact, mode


#: 1280 sets, as in the Xeon L3 at the figures' 1/16 cache scale (not a power of two).
MODULO_LEVELS = [("L1", 4096, 4, "lru"), ("L2", 1280 * 2 * 64, 2, "lru")]
RANDOM_MODULO_LEVELS = [("L1", 4096, 4, "lru"), ("L2", 1280 * 2 * 64, 2, "random")]


class TestCompiledStructureEdges:
    @pytest.mark.parametrize(
        "l1_entries,l2", [(20, (128, 2)), (40, (512, 1)), (48, (96, 2)), (48, None)]
    )
    def test_single_set_tlb_levels(self, l1_entries, l2):
        """One-set dTLB levels of the paper's sizes over far more distinct
        pages than entries (negative pages included); a 48-set L2 TLB
        takes the modulo path."""
        tlb = TlbSpec(
            l1_entries=l1_entries, l1_ways=0,
            l2_entries=l2[0] if l2 else 0, l2_ways=l2[1] if l2 else 0,
        )
        stream = _random_stream(seed=l1_entries, n=300, span_lines=64 * 200)
        _assert_stream_identical(stream, SMALL_LEVELS, tlb)

    @pytest.mark.parametrize("levels", [MODULO_LEVELS, RANDOM_MODULO_LEVELS], ids=["lru", "random"])
    def test_modulo_sets_and_shadow_overflow(self, levels):
        """More distinct lines than the 2560-line L2 holds, so its PMU
        shadow evicts; conflict sets come from the modulo rule."""
        stream = _random_stream(seed=7, n=400, span_lines=6000, max_count=120)
        _assert_stream_identical(stream, levels, TLB)

    @pytest.mark.parametrize("warm_pmu", [False, True])
    def test_pmu_attached_to_warm_hierarchy(self, warm_pmu):
        """Hits on lines the new PMU never saw stay unclassified and do
        not mark them seen; a later miss on such a line is compulsory.
        With ``warm_pmu`` the warm-up ran under another PMU, whose seen
        lines and shadow the new one must not inherit."""
        warm = _random_stream(seed=11, n=150, span_lines=300)
        stream = warm[::2] + _random_stream(seed=12, n=150, span_lines=600) + warm
        _assert_stream_identical(stream, RANDOM_MODULO_LEVELS, TLB, warm=warm, warm_pmu=warm_pmu)

    def test_reset_clears_compiled_state(self):
        """After ``reset`` a replay matches a fresh hierarchy's."""
        stream = _random_stream(seed=5, n=120, span_lines=2000)
        engines = build_engines(RANDOM_MODULO_LEVELS)
        used = engines["native"]
        used.attach_pmu()
        used.run(stream)
        used.reset()
        fresh = build_engines(RANDOM_MODULO_LEVELS)["native"]
        assert _replay_observables(used, stream, (), "batch") == _replay_observables(
            fresh, stream, (), "batch"
        )


class TestScalarShims:
    def test_access_reports_negative_evicted_lines(self):
        """``access`` returns the evicted dirty line even when its id is
        negative (the core marks "none" with INT64_MIN, not -1)."""
        require_native()
        for policy in ("lru", "random"):
            exact = Cache("L1", 128, 1, 64, policy)        # 2 sets, direct mapped
            fast = native_cache("L1", 128, 1, 64, policy)
            ops = [(-4, True), (-2, False), (-1, True), (1, False), (-6, True), (-4, False)]
            got = [fast.access(line, write) for line, write in ops]
            assert got == [exact.access(line, write) for line, write in ops]
            assert got[1] == (False, -4)
            assert fast.stats == exact.stats

    def test_process_batch_marks_no_eviction_with_sentinel(self):
        require_native()
        cache = native_cache("L1", 128, 1, 64, "lru")
        _hits, _missed, evict = cache.process_batch([-4, -2], None, True)
        assert evict.tolist() == [native.EVICT_NONE, -4]

    def test_tlb_pages_match_exact(self):
        require_native()
        spec = TlbSpec(l1_entries=20, l1_ways=0, l2_entries=96, l2_ways=2)
        pages = np.random.default_rng(3).integers(-300, 300, size=4000).tolist()
        exact, fast = spec.build(), native.NativeTlb(spec)
        for page in pages:
            exact.access_page(page)
        fast.access_pages(pages[:-1])
        fast.access_page(pages[-1])
        for level in ("l1", "l2"):
            assert getattr(fast, level).stats == getattr(exact, level).stats
        assert fast.walks == exact.walks > 0


class TestOneCallPerDrain:
    def test_drain_is_one_compiled_call(self, monkeypatch):
        hier = build_engines()["native"]
        hier.attach_pmu()
        calls = []

        class Counting:
            def __getattr__(self, name, lib=native._lib):
                calls.append(name)
                return getattr(lib, name)

        monkeypatch.setattr(native, "_lib", Counting())
        for s in _random_stream(seed=1, n=50, span_lines=500):
            hier.process_segment(s)
        hier._drain_buffer()
        assert calls == ["hier_drain"]


class TestDrainOutOfMemory:
    @pytest.mark.parametrize("pmu", [False, True])
    def test_unallocatable_segment_fails_the_drain_not_the_process(self, pmu):
        """2**50 lines of 8 bytes cannot be allocated: the drain raises
        ``SimulationError`` (a failed cell) instead of aborting, before
        the TLB walks a page or a cache sees a line of the segment."""
        hier = build_engines()["native"]
        if pmu:
            hier.attach_pmu()
        hier.process_segment(seg(0, 64, 40))
        hier.drain()
        before = snapshot(hier)
        with pytest.raises(SimulationError, match="ran out of memory"):
            hier.process_segment(seg(4096, 64, 2**50))
            hier.drain()
        assert snapshot(hier) == before


# ---------------------------------------------------------------------------
# Figure-grid slice (satellite: end-to-end differential through simulate())
# ---------------------------------------------------------------------------

def _fig2_cell(variant):
    from repro.experiments.config import CACHE_SCALE, TRANSPOSE_BLOCK, scaled_device
    from repro.kernels import transpose

    device = scaled_device("mango_pi_d1", CACHE_SCALE)
    return transpose.build(variant, 256, block=TRANSPOSE_BLOCK), device


def _assert_simulations_identical(program, device):
    from repro.simulate import simulate

    require_native()
    exact = simulate(program, device, pmu=True, engine="exact")
    fast = simulate(program, device, pmu=True, engine="fast")
    assert (exact.engine, fast.engine) == ("exact", "fast")
    assert exact.seconds == fast.seconds
    assert exact.snapshots == fast.snapshots
    assert len(exact.pmus) == len(fast.pmus)
    for a, b in zip(exact.pmus, fast.pmus):
        assert pmu_state(a) == pmu_state(b)


@functools.lru_cache(maxsize=None)
def _small_blur(variant):
    from repro.kernels import blur

    assert variant in blur.VARIANT_ORDER
    return blur.build(variant, 24, 32, 7)


class TestFigureSliceDifferential:
    @pytest.mark.parametrize("variant", ["Naive", "Blocking"])
    def test_fig2_cell_engines_identical(self, variant):
        _assert_simulations_identical(*_fig2_cell(variant))

    @pytest.mark.parametrize("device_key", ["visionfive_jh7100", "raspberry_pi_4"])
    @pytest.mark.parametrize(
        "variant", ["Naive", "Unit-stride", "1D_kernels", "Memory", "Parallel"]
    )
    def test_fig6_cell_engines_identical(self, variant, device_key):
        """Every Fig. 6 blur variant on the devices with random-policy
        levels and fully-associative dTLBs, on a 32x24 image with a 7-tap
        filter (several drains; conflict and capacity misses at L1)."""
        from repro.experiments.config import CACHE_SCALE, scaled_device

        device = scaled_device(device_key, CACHE_SCALE)
        _assert_simulations_identical(_small_blur(variant), device)


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
