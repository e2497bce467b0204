"""Cache replacement policies.

Three policies cover the devices in the paper (Section 3.1):

* ``lru``  — classic least-recently-used (Xeon and A72 L1 behave ~LRU);
* ``random`` — the U74's documented "random re-placement policy" for its
  L1 and L2 caches (deterministic xorshift PRNG so runs are reproducible);
* ``plru`` — tree pseudo-LRU, the usual hardware approximation, provided
  for ablations.

A policy manages *all* sets of one cache; the cache calls ``on_hit`` /
``victim`` / ``on_fill`` with (set index, way).
"""

from __future__ import annotations

from typing import List

from repro.errors import SimulationError

#: Initial xorshift64 state of the random policy; the native engine's
#: random-replacement loop starts from the same seed.
RANDOM_SEED = 0x9E3779B97F4A7C15


class ReplacementPolicy:
    """Interface: way-level bookkeeping for one cache."""

    def __init__(self, num_sets: int, ways: int):
        self.num_sets = num_sets
        self.ways = ways

    def on_hit(self, set_idx: int, way: int) -> None:
        raise NotImplementedError

    def victim(self, set_idx: int) -> int:
        """Way to evict; only called when the set is full."""
        raise NotImplementedError

    def on_fill(self, set_idx: int, way: int) -> None:
        raise NotImplementedError


class LruPolicy(ReplacementPolicy):
    """True LRU via a per-set recency list (MRU at the back)."""

    def __init__(self, num_sets: int, ways: int):
        super().__init__(num_sets, ways)
        self._order: List[List[int]] = [[] for _ in range(num_sets)]

    def on_hit(self, set_idx: int, way: int) -> None:
        order = self._order[set_idx]
        order.remove(way)
        order.append(way)

    def victim(self, set_idx: int) -> int:
        return self._order[set_idx][0]

    def on_fill(self, set_idx: int, way: int) -> None:
        order = self._order[set_idx]
        if way in order:
            order.remove(way)
        order.append(way)


class RandomPolicy(ReplacementPolicy):
    """Uniform-random victim selection with a deterministic xorshift64 PRNG."""

    def __init__(self, num_sets: int, ways: int, seed: int = RANDOM_SEED):
        super().__init__(num_sets, ways)
        self._state = seed or 1

    def _next(self) -> int:
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFFFFFFFFFF
        x ^= x >> 7
        x ^= (x << 17) & 0xFFFFFFFFFFFFFFFF
        self._state = x
        return x

    def on_hit(self, set_idx: int, way: int) -> None:
        pass

    def victim(self, set_idx: int) -> int:
        return self._next() % self.ways

    def on_fill(self, set_idx: int, way: int) -> None:
        pass


class TreePlruPolicy(ReplacementPolicy):
    """Tree pseudo-LRU (requires a power-of-two way count)."""

    def __init__(self, num_sets: int, ways: int):
        if ways & (ways - 1):
            raise SimulationError(f"tree-PLRU needs power-of-two ways, got {ways}")
        super().__init__(num_sets, ways)
        self._bits: List[List[bool]] = [[False] * max(1, ways - 1) for _ in range(num_sets)]

    def _touch(self, set_idx: int, way: int) -> None:
        """Flip tree bits to point away from ``way``."""
        if self.ways == 1:
            return
        bits = self._bits[set_idx]
        node = 0
        span = self.ways
        offset = 0
        while span > 1:
            half = span // 2
            go_right = (way - offset) >= half
            bits[node] = not go_right  # point away from the accessed half
            if go_right:
                offset += half
                node = 2 * node + 2
            else:
                node = 2 * node + 1
            span = half

    def on_hit(self, set_idx: int, way: int) -> None:
        self._touch(set_idx, way)

    def victim(self, set_idx: int) -> int:
        if self.ways == 1:
            return 0
        bits = self._bits[set_idx]
        node = 0
        span = self.ways
        offset = 0
        while span > 1:
            half = span // 2
            if bits[node]:  # bit points right -> victim on the right
                offset += half
                node = 2 * node + 2
            else:
                node = 2 * node + 1
            span = half
        return offset

    def on_fill(self, set_idx: int, way: int) -> None:
        self._touch(set_idx, way)


POLICIES = {
    "lru": LruPolicy,
    "random": RandomPolicy,
    "plru": TreePlruPolicy,
}


def make_policy(name: str, num_sets: int, ways: int) -> ReplacementPolicy:
    try:
        factory = POLICIES[name]
    except KeyError:
        raise SimulationError(
            f"unknown replacement policy {name!r}; pick from {sorted(POLICIES)}"
        )
    return factory(num_sets, ways)
