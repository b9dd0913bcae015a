"""Tests for the sensitivity study plus assorted integration gaps:
new CLI commands, RNS x NTT composition, 384-bit golden vector, and
strict-mode masked-window semantics."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.crossbar import CrossbarArray
from repro.eval.sensitivity import (
    CostPerturbation,
    atp_ranking,
    atp_table,
    design_latencies,
    ours_latency,
    render,
    sweep,
)
from repro.sim.exceptions import DesignError, MagicProtocolError


class TestSensitivity:
    def test_identity_perturbation_matches_paper_shape(self):
        p = CostPerturbation()
        latencies = design_latencies(384, p)
        # Paper-cost latencies (up to float rounding).
        assert latencies["ours"] == pytest.approx(2061, abs=2)
        assert latencies["hajali2018"] == pytest.approx(13 * 384 * 384)
        assert latencies["leitersdorf2022"] == pytest.approx(8835, abs=2)

    def test_identity_perturbation_prices_the_stage_layouts(self):
        """The Fig. 4 part of the sweep re-prices the stage layouts, so
        at the paper's constants it is the cost model stage by stage."""
        from repro.eval.sensitivity import _perturbed_cc
        from repro.karatsuba import cost

        for n, depth in ((64, 1), (64, 3), (256, 2), (384, 3)):
            layouts = cost.stage_layouts(n, depth)
            assert tuple(
                _perturbed_cc(layout, CostPerturbation()) for layout in layouts
            ) == cost.design_cost(n, depth).stage_latencies

    def test_baseline_ranking_matches_table1(self):
        ranking = atp_ranking(384, CostPerturbation())
        assert ranking == [
            "leitersdorf2022", "ours", "lakshmi2022",
            "radakovits2020", "hajali2018",
        ]

    def test_ordering_fully_robust(self):
        """The Table I ATP ordering survives every 2x perturbation of
        the cost constants — the comparison is not an artefact of the
        exact cycle discipline."""
        result = sweep(384)
        assert result.ordering_preserved == result.perturbations

    def test_l2_choice_mostly_robust(self):
        """The Fig. 4 depth choice survives the majority of
        perturbations; extreme adder/multiplier cost skews move the
        optimum to a neighbouring depth (the figure's crossovers)."""
        result = sweep(384)
        assert result.l2_still_best >= result.perturbations // 2

    def test_headline_factor_stays_large(self):
        lo, hi = sweep(384).headline_factor_range
        assert lo > 100          # hundreds-x even in the worst case
        assert hi > lo

    def test_invalid_perturbation(self):
        with pytest.raises(DesignError):
            CostPerturbation(alpha=0)

    def test_perturbations_move_latency_monotonically(self):
        base = ours_latency(256, CostPerturbation())
        doubled = ours_latency(256, CostPerturbation(alpha=2.0))
        assert all(d > b for d, b in zip(doubled, base))

    def test_atp_table_positive(self):
        table = atp_table(128, CostPerturbation(beta=2.0))
        assert all(v > 0 for v in table.values())

    def test_render(self):
        text = render(384)
        assert "Table I ATP ordering preserved" in text


class TestNewCliCommands:
    def test_scaling_command(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "O(n^2)" in out

    def test_floorplan_command(self, capsys):
        assert main(["floorplan", "--bits", "384"]) == 0
        out = capsys.readouterr().out
        assert "multpim" in out and "NO" in out

    def test_waveform_command(self, capsys):
        assert main(["waveform", "--bits", "4", "--op", "sub"]) == 0
        out = capsys.readouterr().out
        assert "legend" in out

    def test_artifacts_command(self, capsys, tmp_path):
        assert main(["artifacts", "--out", str(tmp_path / "a")]) == 0
        out = capsys.readouterr().out
        assert "table1.json" in out
        assert (tmp_path / "a" / "MANIFEST.json").exists()


class TestRnsNttComposition:
    """The real FHE arrangement: one NTT per RNS limb."""

    def test_default_base_supports_large_transforms(self):
        from repro.crypto.rns import RnsBase

        base = RnsBase.fhe_default(3)
        for modulus in base.moduli:
            # Chosen as k * 2^20 + 1: supports negacyclic N up to 2^19.
            assert (modulus - 1) % (1 << 20) == 0

    def test_limbwise_ring_multiplication(self, rng):
        from repro.crypto.ntt import reference_negacyclic_convolve
        from repro.crypto.polyring import PolyRing
        from repro.crypto.rns import RnsBase

        base = RnsBase.fhe_default(2)
        size = 8
        rings = [PolyRing(size, modulus=m) for m in base.moduli]
        big_m = base.dynamic_range
        # Wide-coefficient polynomials, decomposed limb-wise.
        poly_a = [rng.randrange(big_m) for _ in range(size)]
        poly_b = [rng.randrange(big_m) for _ in range(size)]
        limb_products = []
        for ring in rings:
            a = ring.element([c % ring.modulus for c in poly_a])
            b = ring.element([c % ring.modulus for c in poly_b])
            limb_products.append(ring.mul(a, b).coeffs)
        # CRT-reconstruct each coefficient and compare to the wide
        # negacyclic product mod the full dynamic range.
        expected = reference_negacyclic_convolve(poly_a, poly_b, big_m)
        for i in range(size):
            residues = [limb_products[j][i] for j in range(len(rings))]
            assert base.from_rns(residues) == expected[i]


class TestGolden384:
    def test_384_bit_golden_vector(self):
        from repro.karatsuba.design import KaratsubaCimMultiplier

        cim = KaratsubaCimMultiplier(384)
        a = (0x9E3779B97F4A7C15 << 320) | (1 << 191) | 0xFFFF_FFFF
        b = (1 << 383) | (0xDEADBEEF << 128) | 0x1234_5678
        assert cim.multiply(a, b) == a * b
        assert cim.timing().stage_latencies == (949, 2061, 1415)
        assert cim.area_cells == 25044


class TestStrictMaskedWindows:
    def test_masked_init_arms_only_window(self):
        array = CrossbarArray(3, 8, strict_magic=True)
        import numpy as np

        window = np.zeros(8, dtype=bool)
        window[:4] = True
        array.init_rows([2], window)
        # NOR over the armed window succeeds...
        array.nor_rows([0], 2, window)
        # ... but over the unarmed remainder it violates the protocol.
        rest = ~window
        with pytest.raises(MagicProtocolError):
            array.nor_rows([0], 2, rest)

    def test_partial_overlap_detected(self):
        array = CrossbarArray(3, 8, strict_magic=True)
        import numpy as np

        half = np.zeros(8, dtype=bool)
        half[:4] = True
        array.init_rows([2], half)
        full = np.ones(8, dtype=bool)
        with pytest.raises(MagicProtocolError):
            array.nor_rows([0], 2, full)
