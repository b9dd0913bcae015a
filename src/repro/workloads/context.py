"""Modulus-keyed contexts: precomputed reduction constants + plans.

A :class:`ModulusContext` is everything the workload layer needs to
serve one modulus, computed once and cached:

* the reduction strategy (:func:`repro.crypto.modmul.choose_strategy`
  unless the request pins one);
* the datapath width the inner products run at — chosen exactly as the
  reference engines choose it, so served results are bit-identical to
  :class:`~repro.crypto.montgomery.MontgomeryMultiplier` /
  :class:`~repro.crypto.barrett.BarrettReducer` /
  :class:`~repro.crypto.sparse.SparseModMultiplier`;
* the precomputed constants (Montgomery ``m' = -m^-1 mod R`` and
  ``R^2 mod m``, Barrett ``mu = floor(2^2k / m)``, the sparse
  fold-reducer's signed-power terms) — recomputing these per request
  is exactly the waste the cache exists to kill;
* *reduction plans*: generators that decompose one modular operation
  into the sequence of plain CIM multiplications the reference engine
  would issue, yielding ``(a, b)`` operand pairs and receiving each
  product back via ``send``.  Host-side work between yields is the
  adder/shift arithmetic the paper assigns to the Kogge-Stone
  periphery, never a multiplication.

The :class:`ModulusContextCache` LRU-memoises contexts per
``(modulus, strategy)``.  Because a context fixes the width, repeated
moduli also reuse the service's warm-pipeline/compiled-program caches
(keyed by width and backend variant) without recompiling stages.
"""

from __future__ import annotations

from typing import Generator, Iterator, Optional, Tuple

from repro.crypto.modmul import (
    STRATEGY_BARRETT,
    STRATEGY_MONTGOMERY,
    STRATEGY_SPARSE,
    choose_strategy,
)
from repro.crypto.montgomery import _invert_mod_power_of_two
from repro.crypto.sparse import SparseReducer
from repro.service.cache import CacheStats, LRUCache
from repro.service.requests import AdmissionError

#: A reduction plan: yields ``(a, b)`` multiplier jobs, receives each
#: product via ``send``, and returns the reduced value.
Plan = Generator[Tuple[int, int], int, int]

#: Multiplier passes per plain-domain modmul, by strategy.
MODMUL_PASSES = {
    STRATEGY_SPARSE: 1,      # one product; folding is shift-adds
    STRATEGY_BARRETT: 3,     # product + two reciprocal multiplies
    STRATEGY_MONTGOMERY: 6,  # product + REDC + domain fix + REDC
}

#: Multiplier passes per Montgomery-domain multiply (product + REDC).
MONT_MUL_PASSES = 3


class ModulusContext:
    """Reduction strategy, width, constants and plans for one modulus."""

    def __init__(self, modulus: int, strategy: Optional[str] = None):
        if modulus < 3:
            raise AdmissionError("modulus must be >= 3")
        self.modulus = modulus
        self.modulus_bits = modulus.bit_length()
        self.strategy = strategy or choose_strategy(modulus)
        if self.strategy == STRATEGY_MONTGOMERY and modulus % 2 == 0:
            raise AdmissionError("Montgomery needs an odd modulus")
        bl = self.modulus_bits
        if self.strategy == STRATEGY_SPARSE:
            # Mirrors SparseModMultiplier: product width = modulus width.
            self.reducer = SparseReducer(modulus)
            self.width = max(16, bl + (-bl) % 4)
        elif self.strategy == STRATEGY_MONTGOMERY:
            # Mirrors MontgomeryMultiplier with a fresh multiplier:
            # R = 2^width, so REDC operands stay in-width.
            width = max(16, bl)
            self.width = width + (-width) % 4
            self.r_bits = self.width
            self.r_mask = (1 << self.r_bits) - 1
            self.m_prime = (
                -_invert_mod_power_of_two(modulus, self.r_bits)
            ) & self.r_mask
            self.r2_mod_m = (1 << (2 * self.r_bits)) % modulus
        elif self.strategy == STRATEGY_BARRETT:
            # Mirrors BarrettReducer: a nibble wider than the modulus so
            # the (k+1)-bit quotient estimate and mu fit the datapath.
            width = bl + 4
            width += (-width) % 4
            self.width = max(16, width)
            self.mu = (1 << (2 * bl)) // modulus
        else:
            raise AdmissionError(f"unknown strategy {self.strategy!r}")

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    @property
    def modmul_passes(self) -> int:
        """CIM multiplier passes per plain-domain modmul."""
        return MODMUL_PASSES[self.strategy]

    def modexp_passes(self, exponent: int) -> int:
        """Exact multiplier-pass count of :meth:`modexp_plan`."""
        if exponent < 0:
            raise AdmissionError("exponent must be non-negative")
        bits = exponent.bit_length()
        ones = exponent.bit_count()
        if self.strategy == STRATEGY_MONTGOMERY:
            # Two domain entries (3 passes each), one mont_mul per loop
            # square plus one per set bit, one final REDC (2 passes).
            return 6 + MONT_MUL_PASSES * (bits + ones) + 2
        return self.modmul_passes * (bits + ones)

    # ------------------------------------------------------------------
    # Reduction plans
    # ------------------------------------------------------------------
    def modmul_plan(self, x: int, y: int) -> Plan:
        """Plan for ``x * y mod m`` (operands must be residues)."""
        if not (0 <= x < self.modulus and 0 <= y < self.modulus):
            raise AdmissionError("operands must be residues modulo m")
        if self.strategy == STRATEGY_SPARSE:
            product = yield (x, y)
            return self.reducer.reduce(product)
        if self.strategy == STRATEGY_MONTGOMERY:
            t = yield (x, y)
            reduced = yield from self._redc_plan(t)     # x*y*R^-1 mod m
            t2 = yield (reduced, self.r2_mod_m)
            return (yield from self._redc_plan(t2))
        t = yield (x, y)
        return (yield from self._barrett_reduce_plan(t))

    def modexp_plan(self, base: int, exponent: int) -> Plan:
        """Plan for ``base ^ exponent mod m`` by square-and-multiply.

        Montgomery contexts run the whole chain in the Montgomery
        domain (one REDC per step, as the reference multiplier does);
        the other strategies square-and-multiply over
        :meth:`modmul_plan`.
        """
        if exponent < 0:
            raise AdmissionError("exponent must be non-negative")
        if self.strategy == STRATEGY_MONTGOMERY:
            result = yield from self._to_montgomery_plan(1)
            acc = yield from self._to_montgomery_plan(base % self.modulus)
            e = exponent
            while e:
                if e & 1:
                    result = yield from self._mont_mul_plan(result, acc)
                acc = yield from self._mont_mul_plan(acc, acc)
                e >>= 1
            return (yield from self._redc_plan(result))
        result = 1 % self.modulus
        acc = base % self.modulus
        e = exponent
        while e:
            if e & 1:
                result = yield from self.modmul_plan(result, acc)
            acc = yield from self.modmul_plan(acc, acc)
            e >>= 1
        return result

    # -- Montgomery internals ------------------------------------------
    def _redc_plan(self, t: int) -> Plan:
        """REDC(t) = t * R^-1 mod m; t must be below m * R."""
        low = t & self.r_mask
        m_factor = (yield (low, self.m_prime)) & self.r_mask
        u = (t + (yield (m_factor, self.modulus))) >> self.r_bits
        if u >= self.modulus:
            u -= self.modulus
        return u

    def _to_montgomery_plan(self, value: int) -> Plan:
        t = yield (value, self.r2_mod_m)
        return (yield from self._redc_plan(t))

    def _mont_mul_plan(self, x_mont: int, y_mont: int) -> Plan:
        t = yield (x_mont, y_mont)
        return (yield from self._redc_plan(t))

    # -- Barrett internals ---------------------------------------------
    def _barrett_reduce_plan(self, x: int) -> Plan:
        k = self.modulus_bits
        q = (yield (x >> (k - 1), self.mu)) >> (k + 1)
        r = x - (yield (q, self.modulus))
        while r >= self.modulus:
            r -= self.modulus
        return r


class ModulusContextCache:
    """LRU cache of :class:`ModulusContext` keyed by (modulus, strategy).

    Crypto traffic is modulus-skewed — a handful of field primes serve
    nearly all requests — so the Montgomery/Barrett precomputation and
    the strategy decision amortise to zero.  ``auto`` and an explicit
    strategy are distinct keys: pinning Barrett on an odd modulus must
    not shadow the auto-selected Montgomery context.
    """

    def __init__(self, capacity: int = 64):
        self._cache = LRUCache(capacity)

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats

    @staticmethod
    def key(modulus: int, strategy: Optional[str]) -> Tuple[int, str]:
        return (modulus, strategy or "auto")

    def get(
        self, modulus: int, strategy: Optional[str] = None
    ) -> ModulusContext:
        return self._cache.get_or_create(
            self.key(modulus, strategy),
            lambda: ModulusContext(modulus, strategy=strategy),
        )

    def contexts(self) -> Iterator[ModulusContext]:
        return iter(self._cache._entries.values())  # noqa: SLF001
