"""Benchmarks for the extension studies beyond the paper's tables.

* design-alternative pricing (Sec. III made quantitative),
* energy / energy-delay comparison,
* NTT and RNS workload cycle models (the FHE/ZKP applications),
* multiplier-bank scaling,
* the in-memory conditional subtractor,
* fault/yield analysis of the adder.
"""

from __future__ import annotations

import random

import pytest

from benchmarks.conftest import register_report
from repro.arith.condsub import ConditionalSubtractor
from repro.crossbar.yieldsim import cell_criticality, yield_curve
from repro.crypto import GOLDILOCKS
from repro.crypto.ntt import CimNtt, NttParams
from repro.crypto.rns import CimRnsMultiplier, RnsBase
from repro.eval import energy
from repro.eval.report import format_table
from repro.karatsuba.alternatives import comparison, shared_adder_utilization
from repro.karatsuba.bank import MultiplierBank


def test_design_alternatives(benchmark):
    """The rejected alternatives of Sec. III, priced."""
    rows = benchmark(comparison, 384)
    assert rows[0].name == "unrolled-L2 (chosen)"
    register_report(
        "alternatives",
        format_table(
            ("design", "area", "bottleneck cc", "ATP", "vs chosen"),
            [
                (r.name, r.area_cells, r.bottleneck_cc, round(r.atp, 1),
                 round(r.atp_penalty_vs_chosen(), 2))
                for r in rows
            ],
            title=(
                "Design alternatives at n=384 (Sec. III rejections priced; "
                f"shared-adder utilisation {shared_adder_utilization(384):.0%})"
            ),
        ),
    )


def test_energy_comparison(benchmark):
    text = benchmark.pedantic(energy.render, args=(64,), rounds=1, iterations=1)
    assert "ours" in text
    register_report("energy", text)


def test_ntt_cycle_model(benchmark):
    """Ring multiplication cost in R_q, the FHE kernel."""
    ntt = CimNtt(NttParams.goldilocks(4096), simulate=False)
    model = benchmark(ntt.cycle_model, 64)
    assert model["ring_multiplication_cc"] > model["ntt_cc"]
    register_report(
        "ntt",
        "FHE ring multiplication (N=4096, Goldilocks, one 64-bit datapath): "
        f"{model['ring_multiplication_cc'] / 1e6:.0f} Mcc "
        f"({model['butterfly_mults_per_ntt']:,} butterfly mults per NTT at "
        f"{model['modmul_cc']} cc each)",
    )


def test_ntt_simulated_small(benchmark):
    """A full N=4 negacyclic convolution through the CIM datapath."""
    rng = random.Random(11)
    q = GOLDILOCKS.modulus
    ntt = CimNtt(NttParams.goldilocks(4), simulate=True)
    a = [rng.randrange(q) for _ in range(4)]
    b = [rng.randrange(q) for _ in range(4)]
    result = benchmark.pedantic(
        ntt.negacyclic_convolve, args=(a, b), rounds=1, iterations=1
    )
    from repro.crypto.ntt import reference_negacyclic_convolve

    assert result == reference_negacyclic_convolve(a, b, q)


def test_rns_wide_multiplication(benchmark, rng):
    base = RnsBase.fhe_default(4)
    rm = CimRnsMultiplier(base, simulate=False)
    big_m = base.dynamic_range
    x, y = rng.randrange(big_m), rng.randrange(big_m)
    result = benchmark(rm.multiply, x, y)
    assert result == (x * y) % big_m
    model = rm.cycle_model()
    register_report(
        "rns",
        f"RNS wide multiply ({base.limbs} x 62-bit limbs, "
        f"{big_m.bit_length()} dynamic-range bits): {model['parallel_cc']:.0f} cc "
        f"limb-parallel vs {model['serial_cc']:.0f} cc time-shared "
        f"({model['speedup']:.0f}x, {model['area_cells_parallel']:.0f} cells)",
    )


@pytest.mark.parametrize("ways", [1, 2, 4])
def test_bank_scaling(benchmark, ways, rng):
    bank = MultiplierBank(64, ways=ways)
    pairs = [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(ways)]
    result = benchmark.pedantic(
        bank.run_stream, args=(pairs,), rounds=1, iterations=1
    )
    assert result.products == [a * b for a, b in pairs]
    timing = bank.timing()
    assert timing.throughput_per_mcc == pytest.approx(
        ways * timing.pipeline.throughput_per_mcc
    )


def test_conditional_subtract(benchmark, rng):
    cs = ConditionalSubtractor(65521)
    u = rng.randrange(2 * 65521)
    result = benchmark(cs.reduce, u)
    assert result.value == u % 65521


def test_complexity_scaling(benchmark):
    """Sec. II-C complexity classes recovered from the cost models."""
    from repro.eval import scaling

    fits = benchmark(scaling.scaling_fits)
    expected = scaling.expected_classes()
    for fit in fits:
        assert fit.classify() == expected[(fit.design, fit.metric)], fit
    register_report("scaling", scaling.render())


def test_floorplan_practicality(benchmark):
    """Sec. V row-length argument as a floorplan table."""
    from repro.karatsuba import floorplan

    plans = benchmark(
        lambda: {
            "ours": floorplan.ours(384),
            "multpim": floorplan.multpim(384),
        }
    )
    assert plans["ours"].practical()
    assert not plans["multpim"].practical()
    register_report("floorplan", floorplan.comparison(384))


def test_fault_yield_curve(benchmark):
    curve = benchmark.pedantic(
        yield_curve,
        kwargs={"width": 8, "densities": (0.0, 0.01, 0.05), "trials": 6},
        rounds=1,
        iterations=1,
    )
    assert curve[0][1] == 1.0
    report = cell_criticality(width=4)
    register_report(
        "yield",
        "Fault study: survival "
        + ", ".join(f"{d:.0%}->{s:.0%}" for d, s in curve)
        + f"; single-fault criticality {report.critical_fraction:.0%} of "
        f"{report.total_cells} cells (width 4)",
    )


def test_generic_depth_study(benchmark):
    """Functional counterpart of Fig. 4: run a multiplication at each
    depth through the Karatsuba controller and measure the trade-off."""
    from repro.karatsuba import cost
    from repro.karatsuba.controller import depth_study

    study = benchmark.pedantic(
        depth_study, args=(64,), kwargs={"depths": (1, 2, 3)},
        rounds=1, iterations=1,
    )
    assert study[1].multiply_cycles > study[3].multiply_cycles
    assert study[1].precompute_cycles < study[3].precompute_cycles
    register_report(
        "generic-depths",
        format_table(
            ("L", "pre cc", "mult cc", "post cc", "post passes"),
            [
                (L, s.precompute_cycles, s.multiply_cycles,
                 s.postcompute_cycles,
                 len(cost.stage_layouts(64, L)[2].passes))
                for L, s in sorted(study.items())
            ],
            title=(
                "Fig. 4 mechanism, measured: Karatsuba controller at n=64 "
                "(batched postcompute)"
            ),
        ),
    )


def test_workload_replay(benchmark):
    """Synthetic FHE/ZKP traces through the event-driven pipeline."""
    from repro.eval import workloads

    result = benchmark(workloads.replay, workloads.fhe_limb_trace(24))
    assert result.jobs == 24
    register_report("workloads", workloads.render(jobs=24))


def test_nor_compiler(benchmark):
    """Compile and verify a majority-of-XORs expression."""
    import itertools

    from repro.magic.compiler import (
        compile_expression, evaluate, maj, v, xor,
    )

    expr = maj(xor(v("a"), v("b")), xor(v("b"), v("c")), xor(v("a"), v("c")))
    compiled = benchmark(
        compile_expression, expr, {"a": 0, "b": 1, "c": 2}, 3,
        list(range(4, 20)),
    )
    assert compiled.gate_count > 0
    register_report(
        "compiler",
        f"NOR compiler: maj(xor...) -> {compiled.gate_count} gates / "
        f"{compiled.cycles} cc with {compiled.scratch_rows_used} scratch rows",
    )


def test_periphery_correction(benchmark):
    """The periphery model's reversal of the cells-only area ranking."""
    from repro.crossbar import periphery
    from repro.karatsuba import floorplan

    ours = benchmark.pedantic(
        periphery.estimate, args=(floorplan.ours(384),),
        rounds=1, iterations=1,
    )
    multpim = periphery.estimate(floorplan.multpim(384))
    assert ours.total < multpim.total
    register_report("periphery", periphery.comparison(384))


def test_sensitivity_robustness(benchmark):
    """Do the paper's conclusions survive perturbed cost constants?"""
    from repro.eval import sensitivity

    result = benchmark.pedantic(
        sensitivity.sweep, args=(384,), rounds=1, iterations=1
    )
    assert result.ordering_preserved == result.perturbations
    register_report("sensitivity", sensitivity.render(384))


def test_claims_ledger(benchmark):
    """Every quantitative claim of the paper, machine-checked."""
    from repro.eval import claims

    results = benchmark(claims.verify_all)
    assert all(r.ok for r in results)
    register_report("claims", claims.render())


def test_nor_variability(benchmark):
    """Analog sense-margin study behind the 2-input NOR discipline."""
    from repro.crossbar import variability

    margins = benchmark(variability.worst_case_margins, 2)
    assert margins.functional
    register_report("variability", variability.render())
