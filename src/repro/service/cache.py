"""LRU caches of the multiplication service.

Two cache layers sit in front of the simulated datapath:

* :class:`ProgramCache` — keyed by ``(n_bits, variant)``, holds *warm
  pipelines*: a built datapath whose stages hold their (process-wide
  shared, compiled) MAGIC programs.  Building a pipeline for a new
  width costs stage construction and program synthesis; recycling a
  retired-then-revived width pool is a cache hit that skips all of it.
* :class:`OperandCache` — keyed by the (commutatively normalised)
  operand pair and width, memoises finished products so repeated
  requests never re-enter the scheduler at all.

Both are thin wrappers over one generic :class:`LRUCache` that counts
hits/misses/evictions (:class:`~repro.sim.stats.CacheStats`); the
service surfaces those counters in its metrics snapshot.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, Optional, Tuple, TypeVar

from repro.sim.stats import CacheStats

V = TypeVar("V")


class LRUCache:
    """A bounded mapping with least-recently-used eviction and stats."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[object]:
        """Value for *key* (refreshing recency), or None on a miss."""
        if key in self._entries:
            self.stats.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        self.stats.misses += 1
        return None

    def put(self, key: Hashable, value: object) -> None:
        """Insert/replace *key*, evicting the LRU entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def get_or_create(self, key: Hashable, factory: Callable[[], V]) -> V:
        """Cached value for *key*, creating it via *factory* on a miss."""
        value = self.get(key)
        if value is None:
            value = factory()
            self.put(key, value)
        return value  # type: ignore[return-value]


#: Cache key of one compiled datapath configuration.
ProgramKey = Tuple[int, str]


class ProgramCache:
    """Warm-pipeline cache keyed by ``(n_bits, variant)``.

    The cached value is whatever the dispatcher considers a compiled
    way; the *variant* names the way and its full design point
    (algorithm, unroll depth, optimizer flag, backend), so two designs
    at one width never share an entry.
    """

    def __init__(self, capacity: int = 16):
        self._cache = LRUCache(capacity)

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def __len__(self) -> int:
        return len(self._cache)

    @staticmethod
    def key(n_bits: int, variant: str = "pipeline") -> ProgramKey:
        return (n_bits, variant)

    def get_or_build(
        self,
        n_bits: int,
        factory: Callable[[], V],
        variant: str = "pipeline",
    ) -> V:
        return self._cache.get_or_create(self.key(n_bits, variant), factory)

    def discard(self, n_bits: int, variant: str = "pipeline") -> None:
        """Drop an entry (e.g. a pipeline quarantined by fault handling)."""
        self._cache._entries.pop(self.key(n_bits, variant), None)


class OperandCache:
    """Product memo keyed by operand pair and width.

    Multiplication is commutative, so the key orders the operands;
    ``(a, b)`` and ``(b, a)`` share one entry.  Cryptographic traffic
    is repetitive enough (fixed moduli, repeated points, window tables)
    that this is a genuine service-level win, not just a test artifact.
    """

    def __init__(self, capacity: int = 4096):
        self._cache = LRUCache(capacity)

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    def __len__(self) -> int:
        return len(self._cache)

    @staticmethod
    def key(a: int, b: int, n_bits: int) -> Tuple[int, int, int]:
        low, high = (a, b) if a <= b else (b, a)
        return (low, high, n_bits)

    def lookup(self, a: int, b: int, n_bits: int) -> Optional[int]:
        return self._cache.get(self.key(a, b, n_bits))  # type: ignore[return-value]

    def store(self, a: int, b: int, n_bits: int, product: int) -> None:
        self._cache.put(self.key(a, b, n_bits), product)
