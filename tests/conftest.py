"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random

import pytest


@pytest.fixture
def rng() -> random.Random:
    """Deterministic RNG so failures reproduce."""
    return random.Random(0xC1A0)


@pytest.fixture
def fresh_programs():
    """Empty the process-wide program memos before and after the test,
    so build and compile counts do not depend on which tests ran first."""
    from repro.arith.koggestone import adder_program, mega_program
    from repro.arith.ripple import ripple_program, unit_program

    memos = (adder_program, mega_program, ripple_program, unit_program)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def random_operand(rng: random.Random, n_bits: int) -> int:
    """A random n-bit operand, biased to sometimes hit edge patterns."""
    choice = rng.random()
    if choice < 0.1:
        return 0
    if choice < 0.2:
        return (1 << n_bits) - 1
    if choice < 0.3:
        return 1 << (n_bits - 1)
    return rng.getrandbits(n_bits)
