"""Lane-boundary conformance of the word backend against the scalar oracle.

A word row is lane-major: lane *lane*'s column *col* is bit
``lane * cols + col``, so column 0 of one lane sits right above column
``cols - 1`` of the lane below.  Every whole-row operation must keep
each lane inside its own field: SHIFTs by ±1 and ±(width - 1) with and
without fill, windows that touch column 0 or column ``cols - 1``,
masked and multi-input gates, and WRITE / READ fields at either edge.

Each case replays one such program at lane counts on either side of
powers of two (1 to 130 lanes, over an odd column count so lanes
straddle bytes) and checks every lane's results, cycles and state, the
write counters, and the batch's energy total against the oracle's lane
sum.  The variants add a non-strict array, a spare-row remap and pinned
stuck-at faults at both edge columns.  A Karatsuba pipeline at the same
lane counts checks the products end to end.

Default device energies are integer femtojoules, so float sums are
exact and the energy comparisons use ``==``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.crossbar import CrossbarArray
from repro.karatsuba.pipeline import KaratsubaPipeline
from repro.magic import ProgramBuilder, get_backend

ROWS, COLS = 8, 13

#: Lane counts on and around powers of two.
LANE_COUNTS = [1, 2, 3, 5, 8, 9, 64, 65, 130]

#: Rows only ever written, read and used as inputs: pinned faults sit
#: here, so a strict array's NOR outputs stay initialisable.
INPUT_ROWS = (0, 1)
OUTPUT_ROWS = tuple(range(2, ROWS))

#: Column windows touching column 0, column ``COLS - 1``, or both.
EDGE_WINDOWS = [(0, COLS), (0, 5), (COLS - 5, COLS), (0, COLS - 1), (1, COLS)]

VARIANTS = ["strict", "lax", "remap", "faults"]


def _edge_program(rng: random.Random, strict: bool):
    """A program hitting every lane edge, plus its WRITE (name, width)s.

    Every window of :data:`EDGE_WINDOWS` meets every offset in
    ``{1, -1, width - 1, -(width - 1)}`` with fill off and on; between
    the shifts sit masked and full-width NOR / NOT gates of one to three
    inputs, and edge-field WRITEs and READs.
    """
    builder = ProgramBuilder(label="lane-edges")
    writes = []
    fields = [(0, COLS), (0, 4), (COLS - 4, 4), (COLS - 1, 1)]
    for index, (offset, width) in enumerate(fields):
        name = f"w{index}"
        writes.append((name, width))
        builder.write(INPUT_ROWS[index % 2], name, col_offset=offset, width=width)
    reads = 0

    def gate():
        window = rng.choice([None, *EDGE_WINDOWS])
        out = rng.choice(OUTPUT_ROWS)
        if strict or rng.random() < 0.5:
            builder.init([out], window)
        candidates = [row for row in range(ROWS) if row != out]
        builder.nor(rng.sample(candidates, rng.randrange(1, 4)), out, window)

    for window in EDGE_WINDOWS:
        span = window[1] - window[0]
        for offset in sorted({1, -1, span - 1, -(span - 1)}):
            for fill in (0, 1):
                gate()
                builder.shift(
                    rng.randrange(ROWS),
                    rng.choice(OUTPUT_ROWS),
                    offset,
                    fill=fill,
                    cols=window,
                    also_init=tuple(rng.sample(OUTPUT_ROWS, rng.randrange(3))),
                )
        offset, width = rng.choice(fields)
        builder.read(rng.randrange(ROWS), f"r{reads}", col_offset=offset, width=width)
        reads += 1
    for row in range(ROWS):
        builder.read(row, f"row{row}", width=COLS)
    return builder.build(), writes


def _template(rng: random.Random, variant: str) -> CrossbarArray:
    """A non-uniform template (each lane starts from its rows spread),
    remapped and fault-pinned as *variant* asks."""
    template = CrossbarArray(
        ROWS, COLS, strict_magic=variant != "lax", spare_rows=2
    )
    state = np.random.default_rng(rng.randrange(1 << 30))
    template.state[:] = state.random(template.state.shape) < 0.5
    if variant == "remap":
        template.remap_row(OUTPUT_ROWS[2])
        template.remap_row(INPUT_ROWS[1])
    if variant == "faults":
        template.inject_fault(INPUT_ROWS[0], 0, "sa1")
        template.inject_fault(INPUT_ROWS[1], COLS - 1, "sa0")
        template.inject_fault(INPUT_ROWS[1], 0, "sa1")
    return template


def _replay(backend: str, template: CrossbarArray, program, bindings):
    resolved = get_backend(backend)
    lanes = resolved.make_array(template, len(bindings))
    stats = resolved.make_executor(lanes).execute(program, bindings)
    return lanes, stats


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("lanes", LANE_COUNTS)
def test_edge_programs_match_oracle(lanes, variant):
    rng = random.Random(f"{lanes}-{variant}")
    program, writes = _edge_program(rng, strict=variant != "lax")
    template = _template(rng, variant)
    bindings = [
        {name: rng.getrandbits(width) for name, width in writes}
        for _ in range(lanes)
    ]
    oracle, oracle_stats = _replay("scalar", template, program, bindings)
    word, word_stats = _replay("word", template, program, bindings)

    assert word.row_bits == lanes * COLS
    for lane in range(lanes):
        assert word_stats[lane].results == oracle_stats[lane].results
        assert word_stats[lane].cycles == oracle_stats[lane].cycles
        assert np.array_equal(word.snapshot(lane), oracle.snapshot(lane))
    assert np.array_equal(word.writes, oracle.writes)
    assert word.total_energy_fj() == oracle.total_energy_fj()
    assert word.faults == oracle.faults


#: Pipeline batch sizes: the lane counts above up to one past 64 (the
#: scalar oracle's pipeline costs seconds per hundred jobs).
PIPELINE_LANES = [1, 2, 3, 5, 8, 9, 65]


@pytest.mark.parametrize("lanes", PIPELINE_LANES)
def test_pipeline_products_match_oracle(lanes):
    """A Karatsuba batch of *lanes* jobs: products, makespan, energy and
    wear equal the scalar oracle's."""
    rng = random.Random(lanes)
    pairs = [(rng.getrandbits(16), rng.getrandbits(16)) for _ in range(lanes)]
    word = KaratsubaPipeline(16)
    oracle = KaratsubaPipeline(16, backend="scalar")
    got = word.run_stream(pairs, batch_size=lanes)
    ref = oracle.run_stream(pairs, batch_size=lanes)
    assert got.products == ref.products == [a * b for a, b in pairs]
    assert got.makespan_cc == ref.makespan_cc
    assert word.controller.total_energy_fj() == oracle.controller.total_energy_fj()
    assert word.controller.max_writes() == oracle.controller.max_writes()
