"""Mod-(2^r − 1) residue codes: the ABFT layer of the Karatsuba stages.

Algorithm-based fault tolerance for integer arithmetic uses a *residue
code*: alongside each value ``x`` the checker tracks ``res(x) = x mod
(2^r − 1)``.  Residues are homomorphic over the operations the pipeline
performs —

* ``res(x + y) = (res(x) + res(y)) mod M``
* ``res(x − y) = (res(x) − res(y)) mod M``
* ``res(x · y) = (res(x) · res(y)) mod M``
* ``res(x · 2^k) = (res(x) · 2^k) mod M``

with ``M = 2^r − 1`` — so each stage can predict the residue of its
output from the residues of its *inputs* in O(r)-bit arithmetic, then
compare against the residue of the word actually sensed from the
crossbar.  A mismatch proves the sensed word is corrupt without ever
recomputing the full-width result.

The Mersenne modulus is chosen deliberately: ``2^i mod (2^r − 1)`` is
never zero, so *any* single-bit error in a sensed word changes its
residue — single-fault detection coverage is 100% by construction.
Multi-bit errors escape only when their weighted sum is divisible by
``M`` (probability ≈ 1/M for random corruption; r = 8 gives ≈ 0.4%
escape, and the differential self-check behind it catches the rest in
audit-grade configurations).

In hardware the residue would be folded from the sensed bits by an
r-bit end-around-carry adder tree in the periphery — cost is modelled
by :func:`repro.karatsuba.cost.residue_overhead`, not charged to the
crossbar itself.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.magic.executor import unpack_ints
from repro.sim.exceptions import StageSelfCheckError

#: Default residue width r; M = 2^8 − 1 = 255.
DEFAULT_RESIDUE_BITS = 8

#: Widest residue code whose residues fold as floats and multiply as
#: ``int64`` (a product of two residues stays under 2^62); wider codes
#: fold and multiply exactly on Python integers.
_WORD_RESIDUE_BITS = 31


def modulus(residue_bits: int = DEFAULT_RESIDUE_BITS) -> int:
    """The check modulus ``M = 2^r − 1``."""
    if residue_bits < 2:
        raise ValueError(f"residue code needs r >= 2 bits, got {residue_bits}")
    return (1 << residue_bits) - 1


def residue(value: int, residue_bits: int = DEFAULT_RESIDUE_BITS) -> int:
    """``value mod (2^r − 1)``.

    Python's big-int ``%`` stands in for the periphery's end-around-
    carry folding tree; the cost model accounts the folding cycles.
    """
    return value % modulus(residue_bits)


def fold_add(ra: int, rb: int, residue_bits: int = DEFAULT_RESIDUE_BITS) -> int:
    """Residue of a sum from operand residues."""
    return (ra + rb) % modulus(residue_bits)


def fold_sub(ra: int, rb: int, residue_bits: int = DEFAULT_RESIDUE_BITS) -> int:
    """Residue of a difference from operand residues."""
    return (ra - rb) % modulus(residue_bits)


def fold_mul(ra: int, rb: int, residue_bits: int = DEFAULT_RESIDUE_BITS) -> int:
    """Residue of a product from operand residues."""
    return (ra * rb) % modulus(residue_bits)


def fold_shift(
    ra: int, shift: int, residue_bits: int = DEFAULT_RESIDUE_BITS
) -> int:
    """Residue of ``x · 2^shift`` from ``res(x)``.

    With a Mersenne modulus the power of two reduces to a rotation:
    ``2^shift mod (2^r − 1) = 2^(shift mod r)``.
    """
    return (ra << (shift % residue_bits)) % modulus(residue_bits)


class ResidueChecker:
    """Stage-boundary residue verification with localisation context.

    One checker instance lives per stage (or per batch run); every
    ``check_*`` call predicts the output residue from input residues,
    compares it against the sensed value's residue, counts the check,
    and raises :class:`StageSelfCheckError` (``check="residue"``) on
    mismatch.  The error's ``location`` pinpoints the failing
    operation, so recovery can diagnose just the rows involved.
    """

    def __init__(
        self,
        stage: str,
        residue_bits: int = DEFAULT_RESIDUE_BITS,
    ):
        self.stage = stage
        self.residue_bits = residue_bits
        self.modulus = modulus(residue_bits)
        self.checks = 0
        self.mismatches = 0
        self._weights = np.zeros(0)

    # ------------------------------------------------------------------
    def res(self, value: int) -> int:
        """Residue of a full-width value (input digestion)."""
        return value % self.modulus

    def residues(self, bits: np.ndarray) -> np.ndarray:
        """Residue of every value of a position-major bit matrix: row
        *i* of the ``(width, ...)`` *bits* is bit *i* of every value.

        Bit *i* weighs ``2^(i mod r)``, as in the periphery's folding
        tree over a sensed row.  Returns the residues shaped
        ``bits.shape[1:]``: ``int64`` up to :data:`_WORD_RESIDUE_BITS`,
        Python integers (``object``) above.
        """
        width, r = bits.shape[0], self.residue_bits
        flat = bits.reshape(width, -1)
        if r > _WORD_RESIDUE_BITS or width << (r - 1) >= 1 << 53:
            values = [value % self.modulus for value in unpack_ints(flat.T)]
            return np.array(values, dtype=object).reshape(bits.shape[1:])
        weights = self._weights
        if len(weights) < width:
            # Float weights fold with one BLAS product, exact while every
            # sum (at most width * 2^(r-1)) fits the float's mantissa.
            exact32 = width << (r - 1) < 1 << 24
            weights = self._weights = (2.0 ** (np.arange(width) % r)).astype(
                np.float32 if exact32 else np.float64
            )
        folded = weights[:width] @ flat
        return (folded.astype(np.int64) % self.modulus).reshape(bits.shape[1:])

    def _verify(
        self, sensed: int, predicted: int, location: str, lane=None
    ) -> None:
        self.checks += 1
        if sensed % self.modulus != predicted:
            if lane is not None:
                location = f"{location}[{lane}]"
            raise self._mismatch(sensed % self.modulus, predicted, location)

    def _mismatch(
        self, sensed_residue: int, predicted: int, location: str
    ) -> StageSelfCheckError:
        """Count a mismatch; the error that reports it."""
        self.mismatches += 1
        return StageSelfCheckError(
            f"{self.stage}: residue mismatch at {location}: "
            f"res(sensed)={sensed_residue} != predicted "
            f"{predicted} (mod {self.modulus})",
            stage=self.stage,
            check="residue",
            location=location,
        )

    def check_adder(
        self, sensed: int, op: str, x: int, y: int, location: str, lane=None
    ) -> int:
        """Verify a sensed adder result, ``x + y`` for ``op == "add"``
        and ``x - y`` otherwise, against the operands' residues, and
        return its (verified) residue.  A mismatch on SIMD *lane* is
        located at ``location[lane]`` (the string is only built on a
        mismatch)."""
        modulus = self.modulus
        if op == "add":
            predicted = (x % modulus + y % modulus) % modulus
        else:
            predicted = (x % modulus - y % modulus) % modulus
        self._verify(sensed, predicted, location, lane)
        return predicted

    def check_product(
        self, sensed: int, ra: int, rb: int, location: str
    ) -> int:
        """Verify a sensed sub-product: ``res(z) == res(x)·res(y)``."""
        predicted = (ra * rb) % self.modulus
        self._verify(sensed, predicted, location)
        return predicted

    def check_products(
        self,
        sensed: np.ndarray,
        ra: np.ndarray,
        rb: np.ndarray,
        locations: Sequence[str],
    ) -> None:
        """Verify many sensed sub-products at once from their residues:
        ``sensed == ra·rb`` element-wise over ``(k, jobs)`` arrays, row
        *s* located at ``locations[s]``.  Counts and raises exactly as
        one :meth:`check_product` per product would, job by job and
        row by row within a job: a mismatch raises at the first failing
        product, every check before it counted."""
        if self.residue_bits > _WORD_RESIDUE_BITS:
            # Products of residues this wide overflow int64.
            ra, rb = ra.astype(object), rb.astype(object)
        predicted = ra * rb % self.modulus
        failed = sensed != predicted
        if failed.any():
            first = int(np.flatnonzero(failed.T)[0])
            row, job = first % len(sensed), first // len(sensed)
            self.checks += first + 1
            raise self._mismatch(
                int(sensed[row, job]), int(predicted[row, job]), locations[row]
            )
        self.checks += sensed.size

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "residue_bits": self.residue_bits,
            "checks": self.checks,
            "mismatches": self.mismatches,
        }
