"""Unrolled Karatsuba plan generation (paper Sec. III-C.2, Fig. 3).

For unroll depth ``L`` the operands are split into ``2**L`` chunks up
front and *all* precomputation additions of every recursion level are
merged into one uniform stage.  The key trick making this possible is
the **redundant chunk representation** of mid operands: the level-1 mid
operand ``a_m = a_h + a_l`` is never carry-normalised; instead its
chunks are the pairwise sums of the corresponding ``a_h``/``a_l``
chunks (e.g. ``a20 = a0 + a2``).  Chunk values may then exceed the
chunk width by a few bits, which is exactly why the paper's widest
precompute addition has ``n/2^L + L - 1``-bit inputs and its widest
partial multiplication has ``n/2^L + L``-bit operands.

The generated :class:`UnrolledPlan` is fully symbolic *and* executable:

* ``precompute_adds`` — every chunk addition, with exact input widths
  (10 / 38 / 130 additions for L = 2 / 3 / 4);
* ``multiplications`` — the ``3**L`` partial products with exact
  operand widths (the paper's 9 / 27 / 81);
* ``combine_nodes`` — the postcomputation tree, bottom-up, with shift
  amounts and appendability of each low product;
* :meth:`UnrolledPlan.postcompute_schedule` — the batched adder
  passes that walk the combine tree (the postcompute stage replays
  them and the cost model counts them);
* :meth:`UnrolledPlan.evaluate` — executes the plan on concrete
  integers, giving a bit-exact reference for any depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.arith.bitops import mask, split_chunks
from repro.sim.exceptions import DesignError


@dataclass(frozen=True)
class Operand:
    """A symbolic chunk value: a leaf chunk or a sum of leaf chunks.

    ``max_value`` bounds the chunk in redundant representation; the
    width follows from it (sums exceed the leaf chunk width).
    """

    name: str
    indices: Tuple[int, ...]
    max_value: int

    @property
    def width(self) -> int:
        return self.max_value.bit_length()


@dataclass(frozen=True)
class AddStep:
    """One precomputation addition ``out = lhs + rhs``."""

    out: str
    lhs: str
    rhs: str
    input_width: int
    output_width: int


@dataclass(frozen=True)
class MultStep:
    """One partial multiplication ``out = lhs * rhs``."""

    out: str
    lhs: str
    rhs: str
    operand_width: int
    product_width: int


@dataclass(frozen=True)
class CombineNode:
    """One postcomputation node combining three child products.

    ``result = low + (high << 2*shift_bits)
             + ((mid - low - high) << shift_bits)``

    ``appendable`` records whether ``low`` fits in ``2*shift_bits`` so
    that ``low`` and ``high`` concatenate without an addition — true
    for non-redundant (carry-free) children, false on 'm' paths where
    products are a few bits wider (the paper's c_ml case).
    """

    path: str
    low: str
    high: str
    mid: str
    out: str
    shift_bits: int
    result_width: int
    appendable: bool
    level: int


#: ``(op, phase)`` of every inner tree level, in pass order.
LEVEL_PHASES = (("add", "t"), ("sub", "tilde"), ("add", "u"), ("add", "combine"))
#: ``(op, phase)`` of the top node, in pass order.
TOP_PHASES = (("add", "t"), ("sub", "tilde"), ("add", "top"))


@dataclass(frozen=True)
class CombinePass:
    """One postcompute adder pass: *op* over side-by-side operand blocks.

    ``blocks`` holds ``(node, first column, span)`` per combine node
    the pass serves; zeroed gap columns keep the blocks independent
    (a killed carry for additions, a zero borrow for subtractions).
    """

    op: str
    phase: str
    blocks: Tuple[Tuple[CombineNode, int, int], ...]


@dataclass
class UnrolledPlan:
    """Complete symbolic schedule of one depth-L unrolled multiplication."""

    n_bits: int
    depth: int
    chunk_bits: int
    operands: Dict[str, Operand] = field(default_factory=dict)
    precompute_adds: List[AddStep] = field(default_factory=list)
    multiplications: List[MultStep] = field(default_factory=list)
    combine_nodes: List[CombineNode] = field(default_factory=list)
    product_widths: Dict[str, int] = field(default_factory=dict)

    # -- aggregate properties the paper quotes ------------------------
    @property
    def num_chunks(self) -> int:
        return 1 << self.depth

    @property
    def max_precompute_input_width(self) -> int:
        """Widest precompute addition input: ``n/2^L + L - 1`` bits."""
        return max(step.input_width for step in self.precompute_adds)

    @property
    def min_precompute_input_width(self) -> int:
        return min(step.input_width for step in self.precompute_adds)

    @property
    def max_mult_width(self) -> int:
        """Widest partial multiplication operand: ``n/2^L + L`` bits."""
        return max(step.operand_width for step in self.multiplications)

    @property
    def max_product_width(self) -> int:
        return max(step.product_width for step in self.multiplications)

    # -- execution -----------------------------------------------------
    def evaluate(self, a: int, b: int) -> int:
        """Execute the plan on concrete operands (bit-exact reference)."""
        return self.intermediate_values(a, b)[self.combine_nodes[-1].out]

    def intermediate_values(self, a: int, b: int) -> Dict[str, int]:
        """Every named value of the plan on concrete operands (the
        stage tests cross-check their layouts against it)."""
        if a >> self.n_bits or b >> self.n_bits or a < 0 or b < 0:
            raise DesignError(f"operands must fit in {self.n_bits} bits")
        values: Dict[str, int] = {}
        for prefix, operand in (("a", a), ("b", b)):
            for i, chunk in enumerate(
                split_chunks(operand, self.chunk_bits, self.num_chunks)
            ):
                values[f"{prefix}{i}"] = chunk
        for step in self.precompute_adds:
            values[step.out] = values[step.lhs] + values[step.rhs]
        for step in self.multiplications:
            values[step.out] = values[step.lhs] * values[step.rhs]
        for node in self.combine_nodes:  # already bottom-up
            low, high, mid = values[node.low], values[node.high], values[node.mid]
            values[node.out] = (
                low + (high << (2 * node.shift_bits))
                + ((mid - low - high) << node.shift_bits)
            )
        return values

    # -- postcompute schedule -----------------------------------------
    def postcompute_schedule(self, window_bits: int) -> List[CombinePass]:
        """The batched postcompute adder passes (Sec. IV-E), in order.

        Per tree level, deepest first, four phases run in turn: the
        ``t = low + high`` additions, the ``~c = mid - t``
        subtractions, the ``u = low + (high << 2s)`` additions of the
        nodes whose low product cannot append, and the combine
        additions ``c = u + (~c << s)``.  Each phase packs its nodes'
        operand blocks side by side, first-fit, into passes of
        *window_bits* columns: in node order, or widest block first
        when that needs fewer passes.  A block spans its operand
        width plus a carry and a gap column, and a lone block always
        fits.  The top node then runs its t-addition, its subtraction
        and the final addition on the top ``window_bits`` bits (the
        low half of ``c_l`` passes straight through).  At L = 2 this
        is the paper's 11 passes at every operand width.
        """
        widths = self.product_widths
        span_of = {
            "t": lambda node: widths[node.high] + 2,
            "tilde": lambda node: widths[node.mid] + 2,
            "u": lambda node: node.result_width + 2,
            "combine": lambda node: node.result_width + 2,
        }
        *inner, top = self.combine_nodes
        passes: List[CombinePass] = []
        for level in sorted({node.level for node in inner}, reverse=True):
            nodes = [node for node in inner if node.level == level]
            for op, phase in LEVEL_PHASES:
                spans = [
                    (node, min(span_of[phase](node), window_bits))
                    for node in nodes
                    if phase != "u" or not node.appendable
                ]
                # Node order keeps the paper's L = 2 layout ({l, h},
                # then {m}); widest-first (first-fit decreasing) packs
                # some deep levels of narrow operands tighter (L = 3,
                # n = 16).
                bins = _first_fit(spans, window_bits)
                widest_first = _first_fit(
                    sorted(spans, key=lambda entry: -entry[1]), window_bits
                )
                if len(widest_first) < len(bins):
                    bins = widest_first
                passes += [CombinePass(op, phase, blocks) for blocks in bins]
        passes += [
            CombinePass(op, phase, ((top, 0, window_bits),))
            for op, phase in TOP_PHASES
        ]
        return passes


def _first_fit(
    spans: List[Tuple[CombineNode, int]], window_bits: int
) -> List[Tuple[Tuple[CombineNode, int, int], ...]]:
    """Pack ``(node, span)`` blocks first-fit, in the given order, into
    passes of *window_bits* columns: ``(node, first column, span)``
    per block, per pass."""
    free: List[int] = []
    bins: List[list] = []
    for node, span in spans:
        for index, left in enumerate(free):
            if span <= left:
                break
        else:
            index = len(free)
            free.append(window_bits)
            bins.append([])
        bins[index].append((node, window_bits - free[index], span))
        free[index] -= span
    return [tuple(blocks) for blocks in bins]


def _merge_name(prefix: str, indices: Tuple[int, ...], compact: bool) -> str:
    """Symbolic operand name, e.g. ``a10`` for a0+a1 (paper style).

    Compact (separator-free) names are only unambiguous while chunk
    indices are single digits; deeper plans join with underscores
    (``a1_0``) to avoid collisions such as leaf ``a10`` vs sum a1+a0.
    """
    parts = [str(i) for i in sorted(indices, reverse=True)]
    return prefix + ("".join(parts) if compact else "_".join(parts))


def build_plan(n_bits: int, depth: int) -> UnrolledPlan:
    """Construct the depth-*depth* unrolled plan for *n_bits* operands.

    *n_bits* must be divisible by ``2**depth`` (the paper evaluates
    n = 64..384 with L = 2, all divisible).
    """
    if depth < 1:
        raise DesignError("unroll depth must be at least 1")
    if n_bits <= 0 or n_bits % (1 << depth):
        raise DesignError(
            f"n_bits must be a positive multiple of 2**{depth}, got {n_bits}"
        )
    chunk_bits = n_bits >> depth
    plan = UnrolledPlan(n_bits=n_bits, depth=depth, chunk_bits=chunk_bits)
    leaf_max = mask(chunk_bits)

    compact_names = plan.num_chunks <= 10

    def get_or_add(prefix: str, indices: Tuple[int, ...], max_value: int) -> str:
        name = _merge_name(prefix, indices, compact_names)
        if name not in plan.operands:
            plan.operands[name] = Operand(
                name=name, indices=indices, max_value=max_value
            )
        return name

    def make_mid(prefix: str, low: List[str], high: List[str]) -> List[str]:
        """Pairwise chunk sums, emitting one AddStep per pair."""
        mid: List[str] = []
        for lo_name, hi_name in zip(low, high):
            lo, hi = plan.operands[lo_name], plan.operands[hi_name]
            indices = tuple(sorted(set(lo.indices) | set(hi.indices)))
            out = get_or_add(prefix, indices, lo.max_value + hi.max_value)
            plan.precompute_adds.append(
                AddStep(
                    out=out,
                    lhs=lo_name,
                    rhs=hi_name,
                    input_width=max(lo.width, hi.width),
                    output_width=plan.operands[out].width,
                )
            )
            mid.append(out)
        return mid

    def descend(vec_a: List[str], vec_b: List[str], path: str, level: int) -> str:
        if len(vec_a) == 1:
            lhs, rhs = vec_a[0], vec_b[0]
            out = f"c_{path}" if path else "c"
            op_width = max(plan.operands[lhs].width, plan.operands[rhs].width)
            prod_max = plan.operands[lhs].max_value * plan.operands[rhs].max_value
            plan.multiplications.append(
                MultStep(
                    out=out,
                    lhs=lhs,
                    rhs=rhs,
                    operand_width=op_width,
                    product_width=prod_max.bit_length(),
                )
            )
            plan.product_widths[out] = prod_max.bit_length()
            return out
        half = len(vec_a) // 2
        a_low, a_high = vec_a[:half], vec_a[half:]
        b_low, b_high = vec_b[:half], vec_b[half:]
        a_mid = make_mid("a", a_low, a_high)
        b_mid = make_mid("b", b_low, b_high)
        low = descend(a_low, b_low, path + "l", level + 1)
        high = descend(a_high, b_high, path + "h", level + 1)
        mid = descend(a_mid, b_mid, path + "m", level + 1)
        shift_bits = half * chunk_bits
        low_width = plan.product_widths[low]
        out = f"c_{path}" if path else "c"
        node = CombineNode(
            path=path or "top",
            low=low,
            high=high,
            mid=mid,
            out=out,
            shift_bits=shift_bits,
            # value < (2^high_width) * 2^(2*shift), so this bounds it.
            result_width=2 * shift_bits + plan.product_widths[high],
            appendable=low_width <= 2 * shift_bits,
            level=level,
        )
        plan.combine_nodes.append(node)
        plan.product_widths[out] = node.result_width
        return out

    a_leaves = [
        get_or_add("a", (i,), leaf_max) for i in range(plan.num_chunks)
    ]
    b_leaves = [
        get_or_add("b", (i,), leaf_max) for i in range(plan.num_chunks)
    ]
    descend(a_leaves, b_leaves, "", 0)
    return plan
