"""A fixed calibration kernel that measures how fast the host is right now.

A shared virtual machine's speed swings by up to 2x within seconds,
which swamps a 10% bound on raw host timings.
Host-clock metrics are therefore normalised: every ~0.1 s of timed work
is scaled by ``REFERENCE_S / calibration_s()``, measured on either side
of it, which converts its seconds into seconds of a reference machine
on which the kernels take ``REFERENCE_S``.  The kernels mirror the
simulator's host work mix — NOR replay over wide integers, dict and
tuple churn, numpy bit packing — and never change, so a change to the
program cannot move them.  They take ~7 ms together, so probing that
often costs ~7% of the run.
"""

from __future__ import annotations

import random
import time

import numpy as np

#: Calibration time of the reference machine, in seconds.
REFERENCE_S = 0.0065

_RNG = random.Random(0x5EED)
_WIDTH = 64 * 512
_MASK = (1 << _WIDTH) - 1
_ROWS = [_RNG.getrandbits(_WIDTH) for _ in range(64)]
_PROGRAM = [(_RNG.randrange(64), _RNG.randrange(64), _RNG.randrange(64)) for _ in range(1000)]
_BITS = np.random.default_rng(5).integers(0, 2, size=(64, 512), dtype=np.uint8)


def _nor_replay() -> int:
    rows = list(_ROWS)
    for a, b, out in _PROGRAM:
        rows[out] = ~(rows[a] | rows[b]) & _MASK
    return rows[0] & 1


def _objects() -> int:
    table = {}
    for i in range(7000):
        key = (i & 1023, i % 7)
        table[key] = table.get(key, 0) + (i * 2654435761 & 0xFFFF)
    return len(table)


def _bit_packing() -> int:
    total = 0
    for _ in range(100):
        packed = np.packbits(_BITS, axis=1, bitorder="little")
        total += int(np.unpackbits(packed, axis=1, bitorder="little").sum())
    return total


def calibration_s() -> float:
    """Seconds the kernels take now."""
    start = time.perf_counter()
    for kernel in (_nor_replay, _objects, _bit_packing):
        kernel()
    return time.perf_counter() - start
