"""Fault models for crossbar arrays: permanent stuck-at and transient.

ReRAM arrays ship with defective cells and develop more as endurance
wears out (paper Sec. II-A).  :class:`CrossbarArray` already knows how
to *pin* a cell (:meth:`~repro.crossbar.array.CrossbarArray.inject_fault`);
this module is the model layer on top of that primitive:

* :class:`StuckAtFault` — one pinned cell as a value object;
* :func:`inject` / :func:`clear` — apply or remove a fault set;
* :func:`random_faults` — sample a defect population for an array;
* :func:`fault_map` — read back the faults an array currently carries;
* :class:`TransientFaultModel` / :class:`TransientFaultInjector` — the
  *parametric* fault layer: per-NOR output bit-flip probability, write
  failure probability, and read disturb, delivered through the MAGIC
  executors' ``fault_hook`` so faults strike mid-program rather than
  only as statically pinned cells.

The Monte Carlo *yield* analysis built on this model lives in
:mod:`repro.crossbar.yieldsim`; the service layer's fault-recovery path
(:mod:`repro.service.degrade`) uses :func:`inject` to corrupt one bank
way and prove that retry-on-healthy-bank restores bit-exact products.

Behaviour under the two kinds differs in a way that matters to fault
handling above:

* ``sa1`` cells silently corrupt MAGIC NOR outputs (the cell reads
  logic one no matter what was computed) — detectable only by checking
  results against an oracle;
* ``sa0`` cells in a NOR output row violate the MAGIC init
  precondition, so a strict array raises
  :class:`~repro.sim.exceptions.MagicProtocolError` mid-program —
  detectable as an exception.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crossbar.array import (
    FAULT_STUCK_AT_0,
    FAULT_STUCK_AT_1,
    CrossbarArray,
)
from repro.sim.exceptions import FaultInjectionError

#: The two supported stuck-at kinds, re-exported for callers that only
#: import the model layer.
KINDS = (FAULT_STUCK_AT_0, FAULT_STUCK_AT_1)


@dataclass(frozen=True)
class StuckAtFault:
    """One cell pinned to a constant value."""

    row: int
    col: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FaultInjectionError(f"unknown fault kind {self.kind!r}")

    @property
    def stuck_value(self) -> int:
        """The logic value the cell is pinned to (0 or 1)."""
        return 1 if self.kind == FAULT_STUCK_AT_1 else 0

    def apply(self, array: CrossbarArray) -> None:
        """Pin this fault's cell on *array*."""
        array.inject_fault(self.row, self.col, self.kind)


def inject(array: CrossbarArray, faults: Sequence[StuckAtFault]) -> None:
    """Pin every fault in *faults* on *array*.

    Later faults overwrite earlier ones at the same cell, matching the
    array's own semantics (a cell holds exactly one defect).
    """
    for fault in faults:
        fault.apply(array)


def clear(array: CrossbarArray) -> None:
    """Remove every injected fault from *array*.

    Cell values keep their last (possibly corrupted) state — healing a
    device does not rewind the data it damaged.
    """
    array.clear_faults()


def fault_map(array: CrossbarArray) -> Dict[Tuple[int, int], str]:
    """The faults *array* currently carries, as ``(row, col) -> kind``."""
    return array.faults


def random_faults(
    rows: int,
    cols: int,
    count: int,
    rng: random.Random,
    kind: Optional[str] = None,
) -> List[StuckAtFault]:
    """Sample *count* distinct-cell stuck-at faults for a rows x cols grid.

    When *kind* is ``None`` each fault flips a fair coin between
    ``sa0`` and ``sa1`` (manufacturing defects show both polarities).
    The returned list is not yet applied; pass it to :func:`inject`.
    """
    if count < 0:
        raise FaultInjectionError("fault count must be non-negative")
    if count > rows * cols:
        raise FaultInjectionError(
            f"cannot place {count} faults in {rows * cols} cells"
        )
    if kind is not None and kind not in KINDS:
        raise FaultInjectionError(f"unknown fault kind {kind!r}")
    # rng.sample draws distinct flat indices without materialising the
    # rows*cols cell list (campaign trials run this per trial on
    # arrays of thousands of cells).
    return [
        StuckAtFault(
            row=index // cols,
            col=index % cols,
            kind=kind
            if kind is not None
            else (FAULT_STUCK_AT_1 if rng.random() < 0.5 else FAULT_STUCK_AT_0),
        )
        for index in rng.sample(range(rows * cols), count)
    ]


# ----------------------------------------------------------------------
# Transient / parametric fault layer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TransientFaultModel:
    """Per-operation upset probabilities of the parametric fault layer.

    All three mechanisms are memoryless per-cell Bernoulli events:

    ``nor_flip_prob``
        Probability that each cell written by a MAGIC NOR/NOT settles
        to the wrong level (half-selected disturb, insufficient
        switching margin).
    ``write_fail_prob``
        Probability that each cell driven by a WRITE/SHIFT pulse fails
        to switch, silently keeping its previous value.
    ``read_disturb_prob``
        Probability that each sensed cell's *stored* value flips after
        a READ (the sensed data itself is returned intact — disturb
        corrupts state, not the sense amplifier).
    """

    nor_flip_prob: float = 0.0
    write_fail_prob: float = 0.0
    read_disturb_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("nor_flip_prob", "write_fail_prob", "read_disturb_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultInjectionError(
                    f"{name} must be a probability, got {value}"
                )

    @property
    def active(self) -> bool:
        return (
            self.nor_flip_prob > 0
            or self.write_fail_prob > 0
            or self.read_disturb_prob > 0
        )


def row_view(array, row: int):
    """Mutable bit view of logical *row* plus its write-back.

    Returns ``(bits, commit)``: a ``(cols,)`` view aliasing a scalar
    array's state (``commit`` is ``None``), or, for the word-packed
    batch array, an ``unpack_row`` copy of shape ``(batch, cols)``
    whose ``commit()`` stores it back through ``store_row``.  A
    ``(batch, cols)`` draw consumes the generator exactly as *batch*
    successive ``(cols,)`` draws do, so the scalar oracle replayed one
    micro-op at a time across all lanes strikes the same cells as the
    word backend under a fixed seed.
    """
    if hasattr(array, "unpack_row"):
        bits = array.unpack_row(row)
        return bits, (lambda: array.store_row(row, bits))
    return array.state[array.physical_row(row)], None


class TransientFaultInjector:
    """Seeded executor hook that strikes cells mid-program.

    Install as ``executor.fault_hook`` (scalar or batched path — the
    scalar executor forwards it to the batched one it spawns).  Each
    callback draws per-cell Bernoulli upsets from a private
    ``numpy`` generator, mutates the array *state* through the public
    :meth:`~repro.crossbar.array.CrossbarArray.physical_row`
    translation, then re-pins any permanent faults so the two fault
    layers compose.

    The injector counts the upsets it delivers (``flips_injected`` etc.)
    so campaigns can report how many trials were actually struck.
    """

    def __init__(self, model: TransientFaultModel, seed: int = 0):
        import numpy as np

        self._np = np
        self.model = model
        self.rng = np.random.default_rng(seed)
        self.nor_flips = 0
        self.write_failures = 0
        self.read_disturbs = 0

    @property
    def upsets(self) -> int:
        """Total cell upsets delivered so far."""
        return self.nor_flips + self.write_failures + self.read_disturbs

    # -- hook callbacks -------------------------------------------------
    def on_nor(self, array, out_row: int, mask) -> None:
        prob = self.model.nor_flip_prob
        if prob <= 0.0:
            return
        view, commit = row_view(array, out_row)
        hits = self.rng.random(view.shape) < prob
        if mask is not None:
            hits &= self._np.asarray(mask, dtype=bool)
        count = int(hits.sum())
        if count:
            view[hits] = ~view[hits]
            if commit is not None:
                commit()
            self.nor_flips += count
            array.repin_faults()

    def on_write(self, array, row: int, mask, pre) -> None:
        prob = self.model.write_fail_prob
        if prob <= 0.0 or pre is None:
            return
        view, commit = row_view(array, row)
        hits = self.rng.random(view.shape) < prob
        hits &= self._np.asarray(mask, dtype=bool)
        # A failed pulse leaves the cell at its pre-write value.
        hits &= view != pre
        count = int(hits.sum())
        if count:
            view[hits] = pre[hits]
            if commit is not None:
                commit()
            self.write_failures += count
            array.repin_faults()

    def on_read(self, array, row: int) -> None:
        prob = self.model.read_disturb_prob
        if prob <= 0.0:
            return
        view, commit = row_view(array, row)
        hits = self.rng.random(view.shape) < prob
        count = int(hits.sum())
        if count:
            view[hits] = ~view[hits]
            if commit is not None:
                commit()
            self.read_disturbs += count
            array.repin_faults()
