"""Differential tests for the fast replay engine.

The fast engine's contract is *bit-identity* with the exact simulator —
not approximate agreement.  These tests run the same segment streams
through the exact :class:`~repro.memsim.hierarchy.MemoryHierarchy` and
the native :class:`~repro.memsim.native.NativeHierarchy`, and assert that
every observable — hits, misses, prefetch hits, writebacks, DRAM line
traffic, TLB walks, and the full per-reference PMU attribution state —
is exactly equal.  A comparison needs both engines, so every test that
builds the native one goes through ``require_native``: it skips where no
C compiler is on ``PATH`` and fails, naming :func:`native_status`, where
one is but the core does not load (a compile error or a failed
self-test), instead of comparing the exact engine with itself.
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
    Tlb,
    TlbSpec,
    snapshot,
)
from repro.memsim import native
from repro.memsim.cache import set_mask
from repro.memsim.native import _BUF_OPS, NativeCache, NativeHierarchy, native_status

from tests.conftest import fresh_modules, require_native

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
            [NativeCache(row[0], row[1], row[2], 64, row[3]) for row in levels],
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
        base=st.integers(min_value=-(1 << 16), max_value=1 << 16),
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


def _replay_observables(hier, stream, warm, mode, warm_pmu=False, pmu_mode="attribution"):
    """Feed ``warm`` (under a PMU of its own if ``warm_pmu``: an
    attributing one, or one in the mode it names), attach a fresh PMU in
    ``pmu_mode``, feed ``stream`` (one batch or segment by segment);
    return every observable."""
    if warm_pmu:
        hier.attach_pmu("attribution" if warm_pmu is True else warm_pmu)
    for s in warm:
        hier.process_segment(s)
    p = hier.attach_pmu(pmu_mode)
    if mode == "batch":
        hier.process_segments(_as_batch(stream))
    else:
        for s in stream:
            hier.process_segment(s)
    hier.drain()
    return {
        "snapshot": snapshot(hier),
        "tlb": _tlb_stats(hier),
        "pmu": pmu_state(p),
        "dirty": [sorted(c.dirty_lines()) for c in hier.caches],
    }


def _tlb_stats(hier):
    """Per-level TLB hits and misses (a snapshot holds only the walks)."""
    tlb = hier.tlb
    if tlb is None:
        return None
    return [(lvl.stats.hits, lvl.stats.misses) for lvl in (tlb.l1, tlb.l2) if lvl is not None]


def _assert_stream_identical(stream, levels, tlb, warm=(), warm_pmu=False):
    exact = _replay_observables(
        build_engines(levels, C906_PREFETCH, tlb)["exact"], stream, warm, "segments", warm_pmu
    )
    for mode in ("batch", "segments"):
        got = _replay_observables(
            build_engines(levels, C906_PREFETCH, tlb)["native"], stream, warm, mode, warm_pmu
        )
        assert got == exact, mode
    _assert_counters_mode_identical(exact, stream, levels, tlb, warm, warm_pmu)
    return exact


def _attribution_tables(pmu):
    """The per-reference and per-set tables of ``pmu``, as plain data."""
    tables = [pmu.ref_accesses, pmu.ref_bytes, pmu.ref_dram_read_lines,
              pmu.ref_dram_written_lines, pmu.ref_tlb_walks]
    for level in pmu.levels:
        tables += [level.per_ref, level.set_conflicts]
    return [dict(t) for t in tables]


def _assert_counters_mode_identical(want, stream, levels, tlb, warm=(), warm_pmu=False):
    """Under a counters-mode PMU, both engines through both intakes count
    what ``want`` (the exact engine under an attributing PMU) counts:
    every snapshot counter (``pmu.*`` included), every TLB level and every
    dirty line.  The fast engine fills no per-reference or per-set table;
    the exact engine, the oracle, attributes anyway."""
    assert want["snapshot"].pmu
    for name in ("exact", "native"):
        for mode in ("batch", "segments"):
            hier = build_engines(levels, C906_PREFETCH, tlb)[name]
            got = _replay_observables(hier, stream, warm, mode, warm_pmu, "counters")
            assert got["pmu"]["counters"] == want["pmu"]["counters"], (name, mode)
            for key in ("snapshot", "tlb", "dirty"):
                assert got[key] == want[key], (name, mode, key)
            if name == "native":
                assert not any(_attribution_tables(hier.pmu)), mode


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

    @pytest.mark.parametrize("warm_pmu", [False, True, "counters"])
    def test_pmu_attached_to_warm_hierarchy(self, warm_pmu):
        """Hits on lines the new PMU never saw stay unclassified and do
        not mark them seen; a later miss on such a line is compulsory.
        With ``warm_pmu`` the warm-up ran under another PMU (an
        attributing or a counters-mode one), whose seen lines and shadow
        the new one must not inherit."""
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


class TestCountersMode:
    """A counters-mode PMU (``attach_pmu("counters")``) counts what an
    attributing one counts; every stream of the other differentials also
    runs under it (``_assert_stream_identical``, ``_phase_runs``)."""

    def test_reset_keeps_the_mode(self):
        """``reset`` restarts an attached PMU in its own mode.  Only an
        attributing PMU needs reference ids of -1 or more, so after a reset
        a counters-mode hierarchy still takes id -5 and counts it like the
        exact engine, and an attributing one still refuses it."""
        first = _window_stream(seed=8, n=300, unit=64, windows=[72, 1920])
        second = _random_stream(seed=9, n=200, span_lines=2000)
        second += [seg(64 * 7, 64, 30, write=True, ref=-5)] + second[:20]
        want = _replay_observables(
            build_engines(RING_LEVELS)["exact"], second, (), "segments"
        )
        used = build_engines(RING_LEVELS)["native"]
        used.attach_pmu("counters")
        used.run(first)
        used.reset()
        for s in second:
            used.process_segment(s)
        used.drain()
        assert snapshot(used) == want["snapshot"]
        assert dict(used.pmu.counters()) == want["pmu"]["counters"]
        assert not any(_attribution_tables(used.pmu))
        used.attach_pmu()
        used.run(first)
        used.reset()
        with pytest.raises(SimulationError, match="cannot be attributed"):
            used.run(second)

    def test_unknown_mode_is_refused(self):
        for hier in build_engines().values():
            with pytest.raises(SimulationError, match="unknown PMU mode"):
                hier.attach_pmu("totals")
            assert hier.pmu is None


#: Keys (lines or pages) per block of the compiled fully-associative
#: LRU's slots; a new block also grows its directory past 11 blocks.
BLOCK = 1 << 16

#: The paper's one-set dTLB-L1 sizes (D1, JH7100, RPi), without an L2.
FA_TLBS = [TlbSpec(l1_entries=n, l1_ways=0) for n in (20, 40, 48)]


def _block_stream(seed, n, blocks, unit, max_count=24):
    """``n`` random segments over ``blocks`` distinct 2**16-key blocks of
    ``unit``-byte keys (64: lines, 4096: pages), half of them at negative
    block numbers.  Every segment starts within a few keys of a block
    edge and may run across it."""
    rng = np.random.default_rng(seed)
    first = -(blocks // 2)
    stream = []
    for _ in range(n):
        block = int(rng.integers(first, first + blocks))
        edge = int(rng.choice([0, BLOCK])) + int(rng.integers(-4, 4))
        stream.append(seg(
            (block * BLOCK + edge) * unit + int(rng.integers(0, 8)) * 8,
            int(rng.choice([-unit, -64, 8, 64, unit, 3 * unit])),
            int(rng.integers(1, max_count)),
            write=bool(rng.integers(0, 2)),
            ref=int(rng.integers(-1, 4)),
        ))
    return stream


class TestPagedSlots:
    """The fully-associative LRU keeps one slot per key in blocks of 2**16
    keys behind a one-block memo and a directory: streams spread over
    many blocks, keys at block edges (block -1 next to block 0), LRU
    victims outside the memo's block, and a reset before reuse."""

    @pytest.mark.parametrize("unit", [64, 4096], ids=["lines", "pages"])
    @pytest.mark.parametrize("tlb", FA_TLBS, ids=lambda t: f"dtlb{t.l1_entries}")
    def test_streams_over_many_blocks(self, unit, tlb):
        stream = _block_stream(seed=unit + tlb.l1_entries, n=400, blocks=40, unit=unit)
        assert len({(s.base // unit) // BLOCK for s in stream}) > 16
        _assert_stream_identical(stream, SMALL_LEVELS, tlb)

    def test_keys_across_block_edges(self):
        """Sweeps, up and down, across the edges at keys -2**16, 0 and
        2**16 (lines and pages), single keys on either side, and keys
        2**j apart (j < 16), which share a block but never a slot."""
        stream = []
        for unit in (64, 4096):
            for edge in (-BLOCK, 0, BLOCK):
                stream += [
                    seg((edge - 5) * unit, unit, 10),
                    seg((edge + 4) * unit, -unit, 10, write=True, ref=1),
                    seg((edge - 1) * unit, 0, 1, ref=2),
                    seg(edge * unit, 0, 1, write=True, ref=3),
                ]
            stream += [seg(3 * unit, (1 << j) * unit, 2, ref=j % 4) for j in range(1, 16)]
        _assert_stream_identical(stream * 3, SMALL_LEVELS, FA_TLBS[0])

    def test_lru_victims_outside_the_memo_block(self):
        """Fill the L1 shadow (64 lines) and the 4-entry dTLB-L1 from
        block 0, sweep block 3 (lines) and block -1 (pages), so each
        install evicts a key of another block than the memo's, then sweep
        block 0 again: every L1 miss is a capacity miss."""
        def phase(line_block, page_block):
            return [seg(line_block * BLOCK * 64, 64, 64),
                    seg(page_block * BLOCK * 4096, 4096, 4, ref=1)]

        seen = {}

        def check(exact, k, before):
            l1 = exact.pmu.levels[0]
            if k == 2:
                assert l1.capacity - seen["capacity"] >= 64
                assert exact.tlb.l1.stats.misses - seen["tlb_misses"] >= 4
            seen["capacity"], seen["tlb_misses"] = l1.capacity, exact.tlb.l1.stats.misses

        _phase_runs(SMALL_LEVELS, [phase(0, 0), phase(3, -1), phase(0, 0)], check)

    def test_reset_then_reuse_over_many_blocks(self):
        """``reset`` (caches, dTLB and PMU) after a stream over many
        blocks, then a replay of another: the same as a fresh hierarchy."""
        first = _block_stream(seed=31, n=300, blocks=40, unit=64)
        second = _block_stream(seed=32, n=300, blocks=40, unit=4096)
        used = build_engines(SMALL_LEVELS, C906_PREFETCH, FA_TLBS[1])["native"]
        used.attach_pmu()
        used.run(first)
        used.reset()
        fresh = build_engines(SMALL_LEVELS, C906_PREFETCH, FA_TLBS[1])["native"]
        assert _replay_observables(used, second, (), "batch") == _replay_observables(
            fresh, second, (), "batch"
        )


def _phase_runs(levels, phases, check):
    """Run ``phases`` (one drain each) through both engines under a PMU;
    ``check(exact, k, before)`` asserts on the exact engine after phase
    ``k`` (``before``: its snapshot before that phase) that the phase
    reached the case it is there for.  Every observable must agree, and
    under a counters-mode PMU both engines must count the same."""
    results = {}
    for pmu_mode in ("attribution", "counters"):
        for name, hier in build_engines(levels).items():
            p = hier.attach_pmu(pmu_mode)
            for k, phase in enumerate(phases):
                before = snapshot(hier)
                hier.run(phase)
                if name == "exact" and pmu_mode == "attribution":
                    check(hier, k, before)
            results[name, pmu_mode] = {
                "snapshot": snapshot(hier),
                "tlb": _tlb_stats(hier),
                "dirty": [sorted(c.dirty_lines()) for c in hier.caches],
                "pmu": pmu_state(p) if pmu_mode == "attribution" else dict(p.counters()),
            }
            if name == "native" and pmu_mode == "counters":
                assert not any(_attribution_tables(p))
    assert results["native", "attribution"] == results["exact", "attribution"]
    want = dict(results["exact", "attribution"], pmu=results["exact", "attribution"]["pmu"]["counters"])
    assert results["exact", "counters"] == want
    assert results["native", "counters"] == want


def _level_delta(hier, before, k):
    now, then = snapshot(hier).levels[k], before.levels[k]
    return now.hits - then.hits, now.misses - then.misses, now.writebacks - then.writebacks


class TestLevelPassEdges:
    """Drains at the edges of the per-level pass: a level where every op
    hits (nothing flows down), a level where none hits and nothing is
    written back (its stream passes on unchanged), writeback installs
    that hit and that allocate, random levels over several drains, and a
    modulo-indexed 1280-set L3."""

    def test_every_op_hits_and_nothing_flows_down(self):
        footprint = [seg(0, 64, 16, write=True), seg(4096, 8, 64, ref=1)]

        def check(exact, k, before):
            if k == 1:
                hits, misses, _wb = _level_delta(exact, before, 0)
                assert hits > 0 and misses == 0
                assert _level_delta(exact, before, 1) == (0, 0, 0)

        _phase_runs(SMALL_LEVELS, [footprint, footprint * 3], check)

    def test_no_hit_no_writeback_stream_passes_unchanged(self):
        # Read-only sweeps over fresh lines: L1 evicts clean lines only.
        sweeps = [[seg(b << 16, 64, 200, ref=b)] for b in range(1, 4)]

        def check(exact, k, before):
            hits, misses, wb = _level_delta(exact, before, 0)
            assert hits == 0 and wb == 0 and misses == 200
            assert _level_delta(exact, before, 1)[0] == 0

        _phase_runs(SMALL_LEVELS, sweeps, check)

    def test_writeback_installs_that_allocate_and_that_hit(self):
        """64-set L1 over a 16-set L2: line 0 leaves L2 while it stays
        dirty in L1, so its writeback allocates; line 1 is still in L2
        when it is written back, so that install hits."""
        levels = [("L1", 8192, 2, "lru"), ("L2", 16384, 16, "lru")]
        others = [k for k in range(1, 22) if k % 4][:16]   # L2 set 0, never L1 set 0
        phases = [
            [seg(0, 8, 1, write=True)],
            [seg(16 * 64 * k, 8, 1) for k in others],
            [seg(64 * 64, 8, 1), seg(128 * 64, 8, 1)],
            [seg(64, 8, 1, write=True, ref=1)],
            [seg(65 * 64, 8, 1, ref=1), seg(129 * 64, 8, 1, ref=1)],
        ]

        def check(exact, k, before):
            l1, l2 = exact.caches
            if k == 1:
                assert 0 in l1.dirty_lines() and not l2.contains(0)
            if k == 2:
                assert 0 in l2.dirty_lines() and not l1.contains(0)
            if k == 3:
                assert l2.contains(1) and 1 not in l2.dirty_lines()
            if k == 4:
                assert 1 in l2.dirty_lines() and not l1.contains(1)

        _phase_runs(levels, phases, check)

    def test_random_levels_across_several_drains(self):
        levels = [("L1", 4096, 4, "random"), ("L2", 16384, 8, "random")]
        stream = _random_stream(seed=21, n=1500, span_lines=3000, max_count=120)
        assert sum(s.count for s in stream) > 2 * _BUF_OPS
        _assert_stream_identical(stream, levels, TLB)

    @pytest.mark.parametrize("policy", ["lru", "random"])
    def test_modulo_indexed_1280_set_l3(self, policy):
        levels = SMALL_LEVELS + [("L3", 1280 * 4 * 64, 4, policy)]
        assert set_mask(1280) is None
        stream = _random_stream(seed=17, n=800, span_lines=12000, max_count=120)
        _assert_stream_identical(stream, levels, TLB)


#: The set-associative dTLBs of the device catalog: (L1 entries, ways,
#: L2 entries, ways).  Their set levels are 16x4, 256x8, 64x2, 512x1 and
#: 256x4 (sets x ways); the one-set L1s are fully associative.
SET_TLBS = [
    TlbSpec(l1_entries=64, l1_ways=4, l2_entries=2048, l2_ways=8),
    TlbSpec(l1_entries=20, l1_ways=0, l2_entries=128, l2_ways=2),
    TlbSpec(l1_entries=40, l1_ways=0, l2_entries=512, l2_ways=1),
    TlbSpec(l1_entries=48, l1_ways=0, l2_entries=1024, l2_ways=4),
]

#: A 4-set 12-way L1, a 64-set 20-way L2 and a modulo-indexed 1280-set
#: 12-way L3 (the Xeon's at the figures' 1/16 cache scale).
RING_LEVELS = [
    ("L1", 4 * 12 * 64, 12, "lru"),
    ("L2", 64 * 20 * 64, 20, "lru"),
    ("L3", 1280 * 12 * 64, 12, "lru"),
]


def _window_stream(seed, n, unit, windows, max_count=48):
    """``n`` random segments of ``unit``-byte keys (64: lines, 4096:
    pages), each inside one of ``windows`` key ranges that slide forward
    over the stream by an eighth of their width per ``n / 64`` segments:
    keys come back after a varying number of others (hits at every depth
    of the LRU order) while new ones keep arriving (misses in full
    sets)."""
    rng = np.random.default_rng(seed)
    stream = []
    for i in range(n):
        width = int(rng.choice(windows))
        start = (i * 64 // n) * (width // 8)
        stream.append(seg(
            (start + int(rng.integers(0, width))) * unit + int(rng.integers(0, 8)) * 8,
            int(rng.choice([unit, -unit, 2 * unit, 64])),
            int(rng.integers(1, max_count)),
            write=bool(rng.integers(0, 2)),
            ref=int(rng.integers(-1, 4)),
        ))
    return stream


def _set_of(cache, line):
    """The set of the native ``cache`` that ``line`` maps to."""
    return line & cache._cmask if cache._cmask >= 0 else line % cache.num_sets


def _ring_kind(cache, line):
    """Where ``line`` sits in its rotating set of the native ``cache``,
    and its dirty bit: the MRU way, a way before the rotation offset, a
    way at or after it (the shift wraps around the ring), or a way of a
    set whose offset is 0 (a plain shift).  An absent line is
    ``("allocate", whether its set is full)``."""
    s = _set_of(cache, line)
    ways = cache.ways
    used, rot = int(cache._occ[s]), int(cache._rot[s])
    held = cache._ln[s * ways : s * ways + used].tolist()
    if line not in held:
        return "allocate", used == ways
    j = held.index(line)
    dirty = bool(cache._dy[s * ways + j])
    if j == (rot + used - 1) % ways:
        return "mru", dirty
    if rot == 0:
        return "plain", dirty
    return "before" if j < rot else "wrap", dirty


def _ring_kinds(l1, l2, line, write):
    """The ring positions an access to ``line`` meets in the native
    two-level LRU ``l1``/``l2``, as ``(level, kind, dirty, mode)`` tuples:
    at L1 the access itself (mode ``"read"``/``"write"``); at L2 the
    writeback install of L1's dirty victim (``"install"``), then the
    clean-filling probe of an L1 miss (``"probe"``), which is left out
    when the install went to the same L2 set and may have moved it."""
    kind = _ring_kind(l1, line)
    kinds = {(0, *kind, "write" if write else "read")}
    if kind[0] != "allocate":
        return kinds
    s = _set_of(l1, line)
    victim = None
    if l1._occ[s] == l1.ways:
        way = s * l1.ways + int(l1._rot[s])
        victim = int(l1._ln[way]) if l1._dy[way] else None
    if victim is not None:
        kinds.add((1, *_ring_kind(l2, victim), "install"))
    if victim is None or _set_of(l2, victim) != _set_of(l2, line):
        kinds.add((1, *_ring_kind(l2, line), "probe"))
    return kinds


def _drain_one_by_one(levels, ops):
    """Replay ``ops`` ((line, write) pairs, one 8-byte access each) through
    a two-level exact and native hierarchy, one segment per drain, and
    after each drain require the same snapshot and dirty lines.  Returns
    the exact hierarchy and, for LRU levels, the ring positions the ops
    met (:func:`_ring_kinds`)."""
    engines = build_engines(levels, NO_PREFETCH, None)
    exact, fast = engines["exact"], engines["native"]
    l1, l2 = fast.caches
    lru = l1._rot is not None and l2._rot is not None
    seen = set()
    for i, (line, write) in enumerate(ops):
        if lru:
            seen |= _ring_kinds(l1, l2, line, write)
        s = seg(line * 64 + (i % 8) * 8, 0, 1, write=write, ref=i % 3)
        for hier in (exact, fast):
            hier.process_segment(s)
            hier.drain()
        assert snapshot(fast) == snapshot(exact), i
        for got, want in zip(fast.caches, exact.caches):
            assert sorted(got.dirty_lines()) == sorted(want.dirty_lines()), i
    return exact, seen


class TestRotatingSets:
    """The compiled LRU keeps each full set's ways as a ring with a
    rotation offset at its LRU way: a miss overwrites that way and moves
    the offset, a hit shifts only the ways between its line and the MRU
    way, around the ring.  The LRU order, and so every counter, must stay
    the exact engine's."""

    @pytest.mark.parametrize(
        "geometry", [((1, 4), (2, 6)), ((4, 12), (32, 4))], ids=["1x4", "4x12"]
    )
    def test_hits_at_every_ring_position_carry_the_dirty_bit(self, geometry):
        """Op by op, one drain each, through a two-level hierarchy (line
        ids from negative to positive): reads and writes at L1, and at L2
        the clean fills of L1's misses and the writeback installs of its
        dirty victims.  Each lands on the MRU way, before the offset and
        at or after it, with the dirty bit set and clear; misses and
        installs allocate into full sets, whose offsets then move."""
        (sets1, ways1), (sets2, ways2) = geometry
        levels = [("L1", sets1 * ways1 * 64, ways1, "lru"), ("L2", sets2 * ways2 * 64, ways2, "lru")]
        rng = np.random.default_rng(sets1)
        windows = (sets1 * ways1 * 3 // 2, sets2 * ways2 * 3 // 2)
        ops = [
            (i // 40 - 60 + int(rng.integers(0, windows[i % 3 == 0])), bool(rng.integers(0, 2)))
            for i in range(4000)
        ]
        _exact, seen = _drain_one_by_one(levels, ops)
        for level, sets, modes in ((0, sets1, ("read", "write")), (1, sets2, ("probe", "install"))):
            kinds = ("mru", "before", "wrap") + (("plain",) if sets > 1 else ())
            for mode in modes:
                assert (level, "allocate", True, mode) in seen, (level, mode)
                for kind in kinds:
                    for dirty in (True, False):
                        assert (level, kind, dirty, mode) in seen, (level, kind, dirty, mode)

    def test_streams_wrap_every_set_many_times(self):
        """Every set of every level fills and wraps its ring many times
        over, with hits at every depth: each observable is the exact
        engine's, through both intakes."""
        stream = _window_stream(
            seed=3, n=6000, unit=64, windows=[72, 1920, 23040], max_count=64
        )
        _assert_stream_identical(stream, RING_LEVELS, TLB)
        hier = build_engines(RING_LEVELS)["native"]
        hier.run(stream)
        hier.drain()
        for cache in hier.caches:
            assert (cache._occ == cache.ways).all(), cache.name
            assert cache.stats.misses > 4 * cache.num_sets * cache.ways, cache.name

    def test_reset_in_the_middle_of_a_rotation(self):
        """``NativeHierarchy.reset`` while cache sets sit at non-zero
        offsets and a set-associative dTLB has wrapped its sets, then a
        replay: the same as a fresh hierarchy's."""
        tlb = SET_TLBS[0]
        first = _window_stream(seed=8, n=600, unit=64, windows=[72, 1920])
        first += _window_stream(seed=10, n=600, unit=4096, windows=[96, 3072])
        second = _window_stream(seed=9, n=600, unit=64, windows=[72, 1920])
        second += _window_stream(seed=11, n=600, unit=4096, windows=[96, 3072])
        fresh = build_engines(RING_LEVELS[:2], C906_PREFETCH, tlb)["native"]
        used = build_engines(RING_LEVELS[:2], C906_PREFETCH, tlb)["native"]
        used.attach_pmu()
        used.run(first)
        assert all((c._rot > 0).any() for c in used.caches)
        assert used.tlb.l1.stats.misses > 4 * tlb.l1_entries
        assert used.tlb.l2.stats.misses > 2 * tlb.l2_entries
        used.reset()
        assert _replay_observables(used, second, (), "batch") == _replay_observables(
            fresh, second, (), "batch"
        )

    @pytest.mark.parametrize("tlb", SET_TLBS, ids=lambda t: f"dtlb{t.l1_entries}-{t.l2_entries}")
    def test_set_associative_dtlbs(self, tlb):
        """Page streams that wrap every set of the dTLB's set levels
        many times, through both intakes."""
        width = 3 * tlb.l2_entries // 2
        stream = _window_stream(seed=tlb.l2_entries, n=3000, unit=4096,
                                windows=[tlb.l1_entries * 3 // 2, width])
        (l1_hits, l1_misses), (_hits, l2_misses) = _assert_stream_identical(
            stream, SMALL_LEVELS, tlb
        )["tlb"]
        assert l2_misses > 4 * tlb.l2_entries
        assert l1_hits > 0 and l1_misses > 4 * tlb.l1_entries


class TestNegativeLines:
    @pytest.mark.parametrize("policy", ["lru", "random"])
    def test_dirty_evictions_of_negative_lines(self, policy):
        """Dirty lines with negative ids (-1 among them) are evicted and
        written back like any other: the core marks "no victim" with
        INT64_MIN, not -1.  One drain per op, against the exact engine."""
        levels = [("L1", 128, 1, policy), ("L2", 256, 2, policy)]   # 2 sets each
        ops = [(-4, True), (-2, False), (-1, True), (1, False), (-6, True), (-4, False),
               (-3, True), (-5, False), (-1, False), (-8, True), (-2, True), (0, False)]
        exact, _seen = _drain_one_by_one(levels, ops)
        assert exact.caches[0].stats.writebacks >= 3


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


#: Run in a child whose address space is then capped a little above what
#: it uses: 256 one-key segments, each in a new block of slots of the PMU
#: shadow or of the fully-associative dTLB (argv[1]), once before the cap
#: and once after it.
_UNMAPPABLE_BLOCKS = """
import resource, sys
from repro.errors import SimulationError
from repro.exec.trace import Segment
from repro.memsim import TlbSpec
from repro.memsim.native import NativeCache, NativeHierarchy, native_available

assert native_available()
unit = 64 if sys.argv[1] == "shadow" else 4096
tlb = TlbSpec(l1_entries=20, l1_ways=0) if sys.argv[1] == "dtlb" else None
hier = NativeHierarchy([NativeCache("L1", 4096, 4, 64, "lru")], tlb=tlb)
if tlb is None:
    hier.attach_pmu()


def blocks(first):
    return [Segment(0, (first + b) * (1 << 16) * unit, 8, 1, False, 8) for b in range(256)]


hier.run(blocks(0))
used = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize()
resource.setrlimit(resource.RLIMIT_AS, (used + (4 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
try:
    hier.run(blocks(1000))
except SimulationError as exc:
    print("raised:", exc)
else:
    print("replayed")
"""


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

    @pytest.mark.parametrize("where", ["shadow", "dtlb"])
    def test_unmappable_block_fails_the_drain_not_the_process(self, where):
        """A block of slots that cannot be mapped (the child's address
        space is capped) makes the drain raise ``SimulationError``."""
        import os
        import subprocess
        import sys

        require_native()
        if not os.path.exists("/proc/self/statm"):
            pytest.skip("needs /proc/self/statm to cap the address space")
        src = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(native.__file__))))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _UNMAPPABLE_BLOCKS, where],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("raised: the compiled replay ran out of memory")


class TestConstructionChecks:
    def test_native_cache_refuses_other_policies(self):
        """Tree-PLRU is refused, not replayed as if it were random."""
        require_native()
        with pytest.raises(SimulationError, match="'plru'"):
            NativeCache("L1", 4096, 4, 64, "plru")

    @pytest.mark.parametrize("spec,match", [
        (TlbSpec(l1_entries=0, l1_ways=0), "at least one entry"),
        (TlbSpec(l1_entries=20, l1_ways=0, l2_entries=96, l2_ways=5), "not divisible"),
    ], ids=["empty", "ways"])
    def test_both_engines_refuse_a_bad_geometry(self, spec, match):
        """The exact and the compiled TLB check their geometry in one
        place, before the compiled one allocates anything."""
        require_native()
        for build in (Tlb, native.NativeTlb):
            with pytest.raises(SimulationError, match=match):
                build(spec)


class TestConstructionOutOfMemory:
    def test_unallocatable_tlb_fails_the_cell_not_the_process(self):
        """A 2**60-entry direct-mapped dTLB-L2 cannot be allocated: its
        construction raises ``SimulationError`` at once (the allocation
        fails outright, so nothing large is ever mapped)."""
        require_native()
        spec = TlbSpec(l1_entries=20, l1_ways=0, l2_entries=2**60, l2_ways=1)
        with pytest.raises(SimulationError, match="could not be allocated"):
            native.NativeTlb(spec)
        # A hierarchy over that TLB builds only the compiled one, and fails
        # the same way.
        with pytest.raises(SimulationError, match="could not be allocated"):
            NativeHierarchy([NativeCache("L1", 4096, 4, 64, "lru")], tlb=spec)


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
    _assert_counters_mode_simulations(program, device, exact)


def _assert_counters_mode_simulations(program, device, full):
    """``simulate(..., pmu="counters")`` on both engines: the same time,
    snapshots and counter set as ``full`` (an exact ``pmu=True`` run),
    ``pmu.*`` counters included, with no PMU or reference table."""
    from repro.profiling.counters import counter_set
    from repro.simulate import simulate

    want = counter_set(full)
    assert any(name.startswith("pmu.") for name in want)
    for engine in ("exact", "fast"):
        got = simulate(program, device, pmu="counters", engine=engine)
        assert got.engine == engine
        assert got.seconds == full.seconds, engine
        assert got.snapshots == full.snapshots, engine
        assert counter_set(got) == want, engine
        assert (got.pmus, got.ref_table) == ([], {}), engine


@functools.lru_cache(maxsize=None)
def _small_blur(variant):
    from repro.kernels import blur

    assert variant in blur.VARIANT_ORDER
    return blur.build(variant, 24, 32, 7)


class TestFigureSliceDifferential:
    @pytest.mark.parametrize("variant", ["Naive", "Blocking"])
    def test_fig2_cell_engines_identical(self, variant):
        _assert_simulations_identical(*_fig2_cell(variant))

    @pytest.mark.parametrize(
        "device_key", ["xeon_4310t", "raspberry_pi_4", "mango_pi_d1", "visionfive_jh7100"]
    )
    def test_fig2_panel_counters_mode(self, device_key):
        """Every Fig. 2 variant on every device at n = 64, vectorized
        where the figure vectorizes it: counters mode against ``pmu=True``
        on both engines."""
        from repro.experiments.config import CACHE_SCALE, TRANSPOSE_BLOCK, scaled_device
        from repro.kernels import transpose
        from repro.simulate import simulate
        from repro.transforms import for_device

        require_native()
        device = scaled_device(device_key, CACHE_SCALE)
        for variant in transpose.VARIANT_ORDER:
            program = for_device(transpose.build(variant, 64, block=TRANSPOSE_BLOCK), device)
            full = simulate(program, device, pmu=True, engine="exact")
            _assert_counters_mode_simulations(program, device, full)

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


class TestFreshLoad:
    def test_loading_the_core_imports_no_ffi_package(self):
        """A fresh process loads the core through ctypes: neither cffi
        nor its C parser is imported."""
        require_native()
        code = (
            "from repro.memsim import native\n"
            "assert native.native_available(), native.native_status()"
        )
        assert fresh_modules(code, ("cffi", "_cffi_backend", "pycparser")) == []


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
