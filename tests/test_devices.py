"""Tests for the device catalog and device-spec machinery."""

import pytest

from repro.devices import (
    DEVICE_KEYS,
    all_devices,
    get_device,
    mango_pi_d1,
    raspberry_pi_4,
    riscv_devices,
    visionfive_jh7100,
    xeon_4310t,
)
from repro.errors import DeviceError, OutOfMemoryError

KIB = 1024
MIB = 2**20
GIB = 2**30


class TestCatalogMatchesPaper:
    """Section 3.1's microarchitecture descriptions, as code."""

    def test_mango_pi(self):
        d = mango_pi_d1()
        assert d.cores == 1
        assert d.cpu.freq_ghz == 1.0
        assert d.cpu.issue_width == 1          # 5-stage single-issue in-order
        assert not d.cpu.out_of_order
        assert [c.name for c in d.caches] == ["L1"]  # no L2!
        l1 = d.cache_level("L1")
        assert l1.size_bytes == 32 * KIB and l1.ways == 4
        assert d.tlb.l1_entries == 20 and d.tlb.l2_entries == 128 and d.tlb.l2_ways == 2
        assert d.prefetch.max_stride_lines == 16  # stride <= 16 cache lines
        assert d.dram.capacity_bytes == 1 * GIB

    def test_visionfive(self):
        d = visionfive_jh7100()
        assert d.cores == 2
        assert d.cpu.issue_width == 2          # 8-stage dual-issue in-order
        assert not d.cpu.out_of_order
        l1 = d.cache_level("L1")
        l2 = d.cache_level("L2")
        assert l1.size_bytes == 32 * KIB and l1.ways == 4 and l1.policy == "random"
        assert l2.size_bytes == 128 * KIB and l2.ways == 8 and l2.policy == "random"
        assert l2.shared
        assert d.tlb.l1_entries == 40 and d.tlb.l2_entries == 512 and d.tlb.l2_ways == 1
        assert d.cpu.vector_bits == 0          # RV64IMAFDCB: no V extension

    def test_raspberry_pi(self):
        d = raspberry_pi_4()
        assert d.cores == 4
        assert d.cpu.out_of_order
        assert d.cpu.vector_bits == 128        # NEON
        assert d.dram.capacity_bytes == 4 * GIB

    def test_xeon(self):
        d = xeon_4310t()
        assert d.cores == 10                   # one socket used (NUMA avoidance)
        assert d.cpu.vector_bits == 512        # AVX-512
        assert [c.name for c in d.caches] == ["L1", "L2", "L3"]
        assert d.cache_level("L3").size_bytes == 15 * MIB
        assert not d.cache_level("L2").shared
        assert d.cache_level("L3").shared

    def test_ordering_and_lookup(self):
        assert len(DEVICE_KEYS) == 4
        assert [d.key for d in all_devices()] == DEVICE_KEYS
        assert {d.key for d in riscv_devices()} == {"mango_pi_d1", "visionfive_jh7100"}
        with pytest.raises(DeviceError):
            get_device("cray_1")

    def test_bandwidth_hierarchy_shape(self):
        """The calibrated DRAM bandwidths follow the paper's ordering."""
        xeon = xeon_4310t().dram.bandwidth_gbs
        rpi = raspberry_pi_4().dram.bandwidth_gbs
        d1 = mango_pi_d1().dram.bandwidth_gbs
        jh = visionfive_jh7100().dram.bandwidth_gbs
        assert xeon > 5 * rpi > rpi > d1 > jh  # VisionFive slowest DRAM


class TestHierarchyBuilding:
    def test_per_core_hierarchies(self):
        device = visionfive_jh7100()
        hierarchies = device.build_hierarchies(2, engine="exact")
        assert len(hierarchies) == 2
        # Shared 128 KiB L2 partitioned two ways.
        assert hierarchies[0].caches[1].size_bytes == 64 * KIB

    def test_private_levels_not_partitioned(self):
        device = xeon_4310t()
        hierarchies = device.build_hierarchies(10, engine="exact")
        assert hierarchies[0].caches[0].size_bytes == 48 * KIB
        assert hierarchies[0].caches[1].size_bytes == 1280 * KIB
        assert hierarchies[0].caches[2].size_bytes < 15 * MIB

    def test_active_core_bounds(self):
        with pytest.raises(DeviceError):
            mango_pi_d1().build_hierarchies(2, engine="exact")
        with pytest.raises(DeviceError):
            xeon_4310t().build_hierarchies(0, engine="exact")


class TestScaling:
    def test_scaled_divides_caches(self):
        device = xeon_4310t().scaled(16)
        assert device.cache_level("L1").size_bytes == 3 * KIB
        assert device.cache_level("L3").size_bytes <= 15 * MIB // 16

    def test_scaled_keeps_everything_else(self):
        device = raspberry_pi_4().scaled(16)
        original = raspberry_pi_4()
        assert device.cpu == original.cpu
        assert device.dram == original.dram
        assert device.tlb == original.tlb

    def test_scale_clamps_to_one_set(self):
        device = mango_pi_d1().scaled(10_000)
        l1 = device.cache_level("L1")
        assert l1.size_bytes == l1.ways * 64

    def test_scale_one_is_identity(self):
        device = mango_pi_d1()
        assert device.scaled(1) is device

    def test_bad_scale(self):
        with pytest.raises(DeviceError):
            mango_pi_d1().scaled(0)


class TestCapacity:
    def test_paper_exclusion_rule(self):
        """16384^2 f64 (2 GiB) exceeds the Mango Pi's 1 GB — Fig. 2's
        missing bars."""
        d1 = mango_pi_d1()
        big = 16384 * 16384 * 8
        small = 8192 * 8192 * 8
        assert not d1.fits_in_dram(big)
        assert d1.fits_in_dram(small)
        with pytest.raises(OutOfMemoryError):
            d1.check_capacity(big)

    def test_other_devices_fit_both(self):
        big = 16384 * 16384 * 8
        for key in ("xeon_4310t", "raspberry_pi_4", "visionfive_jh7100"):
            assert get_device(key).fits_in_dram(big)
