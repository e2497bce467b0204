"""Device specifications.

A :class:`DeviceSpec` carries everything the simulator needs to model one
of the paper's four machines: core microarchitecture parameters, the cache
hierarchy, prefetcher, TLB, and DRAM.  ``build_hierarchies`` instantiates
the per-core memory models with shared-level capacity partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.errors import DeviceError
from repro.memsim.cache import Cache
from repro.memsim.columnar import supports_fast
from repro.memsim.hierarchy import MemoryHierarchy
from repro.memsim.prefetch import NO_PREFETCH, PrefetcherSpec
from repro.memsim.tlb import TlbSpec

LINE_SIZE = 64


@dataclass(frozen=True)
class CacheLevelSpec:
    """Geometry and performance of one cache level."""

    name: str
    size_bytes: int
    ways: int
    policy: str = "lru"            # lru | random | plru
    shared: bool = False           # shared among all cores?
    latency_cycles: int = 3        # load-to-use on a hit at this level
    fill_bw_bytes_per_cycle: float = 16.0  # refill bandwidth from below

    def per_core_size(self, active_cores: int) -> int:
        """Capacity one core effectively owns (shared levels partitioned)."""
        if not self.shared or active_cores <= 1:
            return self.size_bytes
        share = self.size_bytes // active_cores
        minimum = self.ways * LINE_SIZE
        return max(minimum, share // minimum * minimum)


@dataclass(frozen=True)
class DramSpec:
    """DRAM performance of the whole board."""

    bandwidth_gbs: float          # total sustainable bandwidth
    core_bandwidth_gbs: float     # max one core can pull alone
    latency_ns: float             # idle load-to-use latency
    capacity_bytes: int
    channels: int = 1


@dataclass(frozen=True)
class CpuSpec:
    """Per-core pipeline parameters."""

    freq_ghz: float
    issue_width: int              # instructions sustained per cycle
    mem_ports: int                # load/store instructions per cycle
    flop_pipes: int               # FP (or FMA) instructions per cycle
    out_of_order: bool
    mlp: int                      # outstanding demand misses overlapped
    vector_bits: int = 0          # 0 = compiler cannot auto-vectorize here
    loop_overhead_ops: float = 1.0  # extra int ops per iteration (branch)


@dataclass(frozen=True)
class DeviceSpec:
    """One benchmarked machine."""

    key: str                      # short identifier, e.g. "mango_pi_d1"
    name: str                     # display name used in figures
    isa: str                      # "riscv64" | "aarch64" | "x86_64"
    cores: int
    cpu: CpuSpec
    caches: List[CacheLevelSpec] = field(default_factory=list)
    dram: DramSpec = None
    tlb: Optional[TlbSpec] = None
    prefetch: PrefetcherSpec = NO_PREFETCH

    # -- derived -------------------------------------------------------------

    @property
    def memory_levels(self) -> List[str]:
        """Names of all memory levels, nearest first, ending with DRAM."""
        return [c.name for c in self.caches] + ["DRAM"]

    def cache_level(self, name: str) -> CacheLevelSpec:
        for level in self.caches:
            if level.name == name:
                return level
        raise DeviceError(f"{self.key} has no cache level {name!r}")

    def fits_in_dram(self, bytes_needed: int) -> bool:
        # Leave ~20% headroom for the OS, as a 1 GB board realistically has
        # far less than 1 GB available to a benchmark process.
        return bytes_needed <= 0.8 * self.dram.capacity_bytes

    def check_capacity(self, bytes_needed: int, what: str = "workload") -> None:
        if not self.fits_in_dram(bytes_needed):
            from repro.errors import OutOfMemoryError

            raise OutOfMemoryError(
                f"{what} needs {bytes_needed / 2**20:.0f} MiB but {self.name} "
                f"has only {self.dram.capacity_bytes / 2**20:.0f} MiB of DRAM"
            )

    def build_hierarchies(
        self, active_cores: int = 1, engine: str = "exact"
    ) -> List[MemoryHierarchy]:
        """One :class:`MemoryHierarchy` per active core.

        Shared levels are modelled by capacity partitioning (each core sees
        ``size / active_cores`` of a shared level); see DESIGN.md §5.3.

        ``engine`` selects the replay implementation: ``"exact"`` builds
        the per-reference :class:`~repro.memsim.hierarchy.MemoryHierarchy`;
        ``"fast"`` the bit-identical runtime-compiled C core
        (:class:`~repro.memsim.native.NativeHierarchy`).  ``"fast"``
        builds exact hierarchies instead when the device uses a
        replacement policy the native engine does not model (``plru``
        ablations) or when the native core cannot load; the latter logs
        one warning per process.  Each hierarchy's ``engine`` attribute
        names the engine that replays it.
        """
        if not 1 <= active_cores <= self.cores:
            raise DeviceError(
                f"{self.key}: active_cores={active_cores} outside 1..{self.cores}"
            )
        if engine not in ("exact", "fast"):
            raise DeviceError(
                f"{self.key}: unknown engine {engine!r}; pick 'exact' or 'fast'"
            )
        make_cache, hierarchy_cls = Cache, MemoryHierarchy
        if engine == "fast" and supports_fast([spec.policy for spec in self.caches]):
            from repro.memsim import native

            if native.native_available():
                make_cache, hierarchy_cls = native.NativeCache, native.NativeHierarchy
            else:
                native.warn_exact_fallback()
        return [
            hierarchy_cls(
                [
                    make_cache(
                        spec.name,
                        spec.per_core_size(active_cores),
                        spec.ways,
                        LINE_SIZE,
                        spec.policy,
                    )
                    for spec in self.caches
                ],
                prefetch=self.prefetch,
                tlb=self.tlb,
                line_size=LINE_SIZE,
            )
            for _core in range(active_cores)
        ]

    def scaled(self, factor: int) -> "DeviceSpec":
        """A geometrically scaled copy: cache capacities divided by
        ``factor`` (clamped to one full set), everything else unchanged.

        Scaling lets multi-hundred-megabyte paper workloads be simulated at
        tractable sizes while preserving the working-set/capacity ratios
        that the paper's phenomena depend on; see DESIGN.md §2.
        """
        if factor < 1:
            raise DeviceError(f"scale factor must be >= 1, got {factor}")
        if factor == 1:
            return self
        caches = []
        for spec in self.caches:
            minimum = spec.ways * LINE_SIZE
            size = max(minimum, spec.size_bytes // factor // minimum * minimum)
            caches.append(replace(spec, size_bytes=size))
        return replace(self, key=f"{self.key}@1/{factor}", caches=caches)
