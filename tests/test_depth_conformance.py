"""Conformance of the one Karatsuba datapath at every unroll depth.

``KaratsubaController(n, depth=L)`` lays out all three stages from the
depth-L unrolled plan.  Every depth must multiply bit-exactly on both
backends, with and without the cycle packer; its stage latencies must
equal the analytic cost model's, and the postcompute passes it
replays must be the passes the cost model counts.  For every design
(Karatsuba at each depth, Toom-3, schoolbook) the cost model's stage
areas and latencies are the built controller's.
"""

from __future__ import annotations

import random

import pytest

from repro.karatsuba import cost
from repro.karatsuba.controller import KaratsubaController
from repro.karatsuba.postcompute import PostcomputeStage
from repro.karatsuba.unroll import build_plan
from repro.portfolio.schoolbook import SchoolbookController
from repro.portfolio.toom3 import Toom3Controller
from repro.sim.exceptions import DesignError
from tests.conftest import random_operand

#: ``(depth, n)``: L = 1..3 at n = 64 and L = 4 at the n = 32 it allows.
DEPTHS = [(1, 64), (2, 64), (3, 64), (4, 32)]


@pytest.mark.parametrize("optimize", [False, True], ids=["paper", "packed"])
@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("backend", ["word", "scalar"])
@pytest.mark.parametrize("depth, n", DEPTHS, ids=[f"L{d}" for d, _ in DEPTHS])
def test_products_match_plan(depth, n, backend, jobs, optimize):
    """Two batches (the second runs in the swapped wear state): every
    product equals ``a*b`` and the plan's own evaluation."""
    rng = random.Random(depth * 1000 + n + jobs)
    controller = KaratsubaController(
        n, depth=depth, optimize=optimize, backend=backend
    )
    plan = build_plan(n, depth)
    for _ in range(2):
        pairs = [
            (random_operand(rng, n), random_operand(rng, n))
            for _ in range(jobs)
        ]
        products = [r.product for r in controller.run_jobs_batch(pairs)]
        assert products == [a * b for a, b in pairs]
        assert products == [plan.evaluate(a, b) for a, b in pairs]
    assert all(s["mismatches"] == 0 for s in controller.residue_stats())


@pytest.mark.parametrize("depth, n", DEPTHS, ids=[f"L{d}" for d, _ in DEPTHS])
def test_stage_latencies_match_cost_model(depth, n):
    """Each stage's latency, and what one job's record reports, is the
    cost model's stage latency."""
    controller = KaratsubaController(n, depth=depth)
    expected = tuple(s.latency_cc for s in cost.design_cost(n, depth).stages)
    assert controller.stage_latencies() == expected
    record = controller.run_job((1 << n) - 1, (1 << n) - 1)
    assert (
        record.precompute_cycles,
        record.multiply_cycles,
        record.postcompute_cycles,
    ) == expected


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_replayed_passes_are_the_counted_passes(depth):
    """On the Fig. 4 grid the postcompute stage replays exactly the
    schedule the cost model counts, op for op."""
    for n in (64, 128, 256, 384, 512, 768, 1024):
        plan = build_plan(n, depth)
        schedule = plan.postcompute_schedule((3 * n) // 2)
        stage = PostcomputeStage(n, depth)
        assert [op for _, op in stage.adder_passes()] == [
            p.op for p in schedule
        ]
        assert len(schedule) == len(cost.stage_layouts(n, depth)[2].passes)


#: ``(controller class, design_cost arguments after n, widths)`` of the
#: model = built grid.
KARATSUBA_WIDTHS = (16, 32, 64, 128, 256, 384, 512, 768, 1024)
PORTFOLIO_WIDTHS = (16, 32, 64, 90, 128, 270, 384)
DESIGNS = [
    *((KaratsubaController, (d,), KARATSUBA_WIDTHS) for d in (1, 2, 3, 4)),
    (Toom3Controller, (1, "toom3"), PORTFOLIO_WIDTHS),
    (SchoolbookController, (0, "schoolbook"), PORTFOLIO_WIDTHS),
]


@pytest.mark.parametrize(
    "cls, point, widths",
    DESIGNS,
    ids=["karatsuba-L1", "karatsuba-L2", "karatsuba-L3", "karatsuba-L4",
         "toom3", "schoolbook"],
)
def test_design_cost_is_the_built_layout(cls, point, widths):
    """``design_cost`` prices exactly what the controller builds: each
    stage's name, area and (paper-schedule) latency, at every feasible
    width."""
    depth = point[0]
    for n in widths:
        if cls is KaratsubaController:
            if n % (1 << depth):
                continue
            controller = cls(n, depth=depth, optimize=False)
        else:
            controller = cls(n, optimize=False)
        model = cost.design_cost(n, *point)
        assert [s.name for s in model.stages] == list(controller.stage_names)
        assert [s.area_cells for s in model.stages] == [
            stage.area_cells for stage in controller.stages
        ], n
        assert model.area_cells == controller.area_cells, n
        assert (
            tuple(s.latency_cc for s in model.stages)
            == controller.stage_latencies()
        ), n


def test_l2_schedule_is_the_paper_eleven_passes():
    """At L = 2 the generated schedule is the paper's 11 passes, with
    the l and h nodes batched in their t-add and subtraction."""
    schedule = build_plan(256, 2).postcompute_schedule(384)
    assert [(p.op, [b[0].path for b in p.blocks]) for p in schedule] == [
        ("add", ["l", "h"]),
        ("add", ["m"]),
        ("sub", ["l", "h"]),
        ("sub", ["m"]),
        ("add", ["m"]),        # u_m: c_ml is too wide to append
        ("add", ["l"]),
        ("add", ["h"]),
        ("add", ["m"]),
        ("add", ["top"]),
        ("sub", ["top"]),
        ("add", ["top"]),
    ]


def test_infeasible_depth_rejected():
    with pytest.raises(DesignError):
        KaratsubaController(36, depth=3)        # 36 % 8 != 0
