"""In-memory arithmetic blocks: adders and row multipliers."""

from repro.arith.bitops import (
    ceil_div,
    ceil_log2,
    from_bits,
    join_chunks,
    mask,
    split_chunks,
    to_bits,
)
from repro.arith.condsub import ConditionalSubtractor, CondSubResult
from repro.arith.koggestone import AdderUnit, KoggeStoneAdder, KoggeStoneLayout
from repro.arith.ripple import RippleAdder, RippleLayout, RippleUnit
from repro.arith.rowmul import RowMultiplier, RowMultiplierSpec

__all__ = [
    "AdderUnit",
    "CondSubResult",
    "ConditionalSubtractor",
    "KoggeStoneAdder",
    "KoggeStoneLayout",
    "RippleAdder",
    "RippleLayout",
    "RippleUnit",
    "RowMultiplier",
    "RowMultiplierSpec",
    "ceil_div",
    "ceil_log2",
    "from_bits",
    "join_chunks",
    "mask",
    "split_chunks",
    "to_bits",
]
