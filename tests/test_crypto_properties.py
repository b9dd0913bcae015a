"""Seeded equivalence properties of the modular-reduction engines.

Every reduction strategy, driven end to end on the CIM datapath, must
agree with Python's ``pow``/``%`` for randomly drawn moduli and
operands — across odd, even and sparse moduli, several widths, and
both executor backends.  CI installs no property-testing
framework, so the sweeps are seeded ``random`` draws (deterministic
across runs) rather than hypothesis strategies.
"""

from __future__ import annotations

import random

import pytest

from repro.crypto import ModularMultiplier
from repro.crypto.modmul import choose_strategy
from repro.karatsuba.design import KaratsubaCimMultiplier
from repro.magic import BACKEND_NAMES
from repro.workloads import ModulusContext

SEED = 0x9E1D

#: (label, modulus) — odd, even and sparse shapes at several widths.
MODULI = (
    ("sparse-16", 65521),          # 2^16 - 15, NAF-sparse
    ("odd-16", 65195),             # odd, non-sparse -> montgomery
    ("even-16", 64854),            # even -> barrett
    ("odd-12", 4093),              # prime near 2^12
    ("even-10", 1022),
)


def _random_moduli(rng, count=4):
    """Random moduli in [3, 2^14): odd, even and near-power shapes."""
    draws = []
    while len(draws) < count:
        modulus = rng.randrange(3, 1 << 14)
        draws.append(modulus)
    return draws


@pytest.mark.parametrize("backend", BACKEND_NAMES)
class TestStrategyEquivalence:
    def _multiplier_for(self, ctx, backend):
        return KaratsubaCimMultiplier(ctx.width, backend=backend)

    @pytest.mark.parametrize("label,modulus", MODULI)
    def test_modmul_matches_python(self, backend, label, modulus):
        rng = random.Random(SEED ^ modulus)
        ctx = ModulusContext(modulus)
        mm = ModularMultiplier(
            modulus,
            strategy=ctx.strategy,
            multiplier=self._multiplier_for(ctx, backend),
        )
        for _ in range(3):
            x = rng.randrange(modulus)
            y = rng.randrange(modulus)
            assert mm.modmul(x, y) == (x * y) % modulus, (
                f"{label}/{ctx.strategy}/{backend}: {x}*{y} mod {modulus}"
            )

    def test_random_moduli_roundtrip(self, backend):
        rng = random.Random(SEED)
        for modulus in _random_moduli(rng):
            ctx = ModulusContext(modulus)
            assert ctx.strategy == choose_strategy(modulus)
            mm = ModularMultiplier(
                modulus,
                strategy=ctx.strategy,
                multiplier=self._multiplier_for(ctx, backend),
            )
            x = rng.randrange(modulus)
            y = rng.randrange(modulus)
            assert mm.modmul(x, y) == (x * y) % modulus

    def test_modexp_matches_pow(self, backend):
        rng = random.Random(SEED ^ 0xE)
        for _, modulus in MODULI[:3]:
            ctx = ModulusContext(modulus)
            mm = ModularMultiplier(
                modulus,
                strategy=ctx.strategy,
                multiplier=self._multiplier_for(ctx, backend),
            )
            base = rng.randrange(2, modulus)
            exponent = rng.randrange(1, 64)
            assert mm.modexp(base, exponent) == pow(
                base, exponent, modulus
            ), f"{ctx.strategy}/{backend}"


class TestPlanEquivalence:
    """Context reduction plans mirror the reference engines exactly."""

    @pytest.mark.parametrize("label,modulus", MODULI)
    def test_plan_matches_python_host_driven(self, label, modulus):
        rng = random.Random(SEED ^ (modulus << 1))
        ctx = ModulusContext(modulus)
        for _ in range(4):
            x = rng.randrange(modulus)
            y = rng.randrange(modulus)
            plan = ctx.modmul_plan(x, y)
            job = next(plan)
            passes = 0
            while True:
                passes += 1
                try:
                    job = plan.send(job[0] * job[1])
                except StopIteration as stop:
                    assert stop.value == (x * y) % modulus, label
                    break
            assert passes == ctx.modmul_passes

    def test_modexp_plan_matches_pow(self):
        rng = random.Random(SEED ^ 0xEE)
        for _, modulus in MODULI:
            ctx = ModulusContext(modulus)
            base = rng.randrange(2, modulus)
            exponent = rng.randrange(1, 200)
            plan = ctx.modexp_plan(base, exponent)
            try:
                job = next(plan)
            except StopIteration as stop:  # exponent edge cases
                assert stop.value == pow(base, exponent, modulus)
                continue
            while True:
                try:
                    job = plan.send(job[0] * job[1])
                except StopIteration as stop:
                    assert stop.value == pow(base, exponent, modulus)
                    break
