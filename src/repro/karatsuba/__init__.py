"""The paper's core contribution: the CIM Karatsuba multiplier."""

from repro.karatsuba.alternatives import (
    AlternativeCost,
    recursive_multi_adder,
    recursive_shared_adder,
    shared_adder_utilization,
    toom3_cim,
)
from repro.karatsuba.alternatives import comparison as alternatives_comparison
from repro.karatsuba.bank import BankStreamResult, BankTiming, MultiplierBank
from repro.karatsuba.controller import JobRecord, KaratsubaController, depth_study
from repro.karatsuba.cost import (
    DesignCost,
    StageCost,
    atp_sweep,
    design_cost,
    design_metrics,
    max_writes_per_cell,
    optimal_depth,
    stage_layouts,
)
from repro.karatsuba.design import KaratsubaCimMultiplier, supported_widths
from repro.karatsuba import floorplan
from repro.karatsuba.eventsim import (
    EventSimResult,
    JobTimeline,
    simulate_pipeline_events,
    simulate_uniform_pipeline,
    validates_closed_form,
)
from repro.karatsuba.reference import ReferenceMultiplier
from repro.karatsuba.multiply import MultiplicationStage
from repro.karatsuba.pipeline import KaratsubaPipeline, StreamResult
from repro.karatsuba.postcompute import PostcomputeStage
from repro.karatsuba.precompute import PrecomputeStage
from repro.karatsuba.unroll import UnrolledPlan, build_plan

__all__ = [
    "AlternativeCost",
    "BankStreamResult",
    "alternatives_comparison",
    "recursive_multi_adder",
    "recursive_shared_adder",
    "shared_adder_utilization",
    "toom3_cim",
    "BankTiming",
    "DesignCost",
    "MultiplierBank",
    "JobRecord",
    "KaratsubaCimMultiplier",
    "KaratsubaController",
    "KaratsubaPipeline",
    "EventSimResult",
    "floorplan",
    "JobTimeline",
    "ReferenceMultiplier",
    "simulate_pipeline_events",
    "simulate_uniform_pipeline",
    "validates_closed_form",
    "MultiplicationStage",
    "PostcomputeStage",
    "PrecomputeStage",
    "StageCost",
    "StreamResult",
    "UnrolledPlan",
    "atp_sweep",
    "build_plan",
    "design_cost",
    "depth_study",
    "design_metrics",
    "max_writes_per_cell",
    "optimal_depth",
    "stage_layouts",
    "supported_widths",
]
