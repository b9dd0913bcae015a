"""Tests for the any-depth Karatsuba design and the artifact writer."""

from __future__ import annotations

import json

import pytest

from repro.eval.artifacts import write_all
from repro.karatsuba import cost
from repro.karatsuba.controller import KaratsubaController, depth_study
from repro.karatsuba.unroll import build_plan
from repro.sim.exceptions import DesignError
from tests.conftest import random_operand


class TestGenericDesign:
    """The one Karatsuba controller at unroll depths beyond the paper's
    L = 2 (the full conformance matrix is ``test_depth_conformance``)."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_correctness_at_depth(self, depth, rng):
        controller = KaratsubaController(64, depth=depth)
        for _ in range(3):
            a = random_operand(rng, 64)
            b = random_operand(rng, 64)
            assert controller.run_job(a, b).product == a * b

    def test_depth_four_small_width(self, rng):
        controller = KaratsubaController(32, depth=4)
        a, b = rng.getrandbits(32), rng.getrandbits(32)
        assert controller.run_job(a, b).product == a * b

    def test_operand_validation(self):
        controller = KaratsubaController(64, depth=3)
        with pytest.raises(DesignError):
            controller.run_job(1 << 64, 1)
        with pytest.raises(DesignError):
            controller.run_job(-1, 1)

    def test_precompute_passes_match_plan(self):
        for depth in (1, 2, 3):
            controller = KaratsubaController(64, depth=depth)
            plan = build_plan(64, depth)
            assert len(controller.precompute.adder_passes()) == len(
                plan.precompute_adds
            )

    def test_precompute_latency_matches_cost_model_at_l2(self, rng):
        record = KaratsubaController(64).run_job(
            rng.getrandbits(64), rng.getrandbits(64)
        )
        assert (
            record.precompute_cycles
            == cost.design_cost(64, 2).stages[0].latency_cc
        )

    def test_depth_tradeoff_shape(self):
        """Deeper unrolling shrinks the multiply stage but inflates the
        add stages — the Fig. 4 mechanism, measured."""
        study = depth_study(64, depths=(1, 2, 3))
        assert study[1].multiply_cycles > study[2].multiply_cycles
        assert study[2].multiply_cycles > study[3].multiply_cycles
        assert study[1].precompute_cycles < study[2].precompute_cycles
        assert study[2].postcompute_cycles < study[3].postcompute_cycles

    def test_depth_study_skips_infeasible(self):
        study = depth_study(36, depths=(1, 2, 3))   # 36 % 8 != 0
        assert 3 not in study
        assert 2 in study

    def test_area_measured(self):
        shipped = KaratsubaController(64)
        deeper = KaratsubaController(64, depth=3)
        # 27 multiplier rows beat 9, despite being narrower each.
        assert deeper.area_cells > shipped.area_cells > 0


class TestArtifactWriter:
    def test_write_all_manifest(self, tmp_path):
        manifest = write_all(str(tmp_path))
        assert set(manifest) == {
            "table1", "fig4", "explore", "scaling", "energy", "floorplan",
            "claims", "robustness",
        }
        for files in manifest.values():
            for name in files:
                assert (tmp_path / name).exists(), name
        assert (tmp_path / "MANIFEST.json").exists()

    def test_table1_json_structure(self, tmp_path):
        write_all(str(tmp_path))
        payload = json.loads((tmp_path / "table1.json").read_text())
        assert len(payload["rows"]) == 20
        assert 900 < payload["headline_factors"]["throughput"] < 1000
        ours_rows = [r for r in payload["rows"] if r["work"] == "ours"]
        assert {r["area_cells"] for r in ours_rows} == {
            4404, 8532, 16788, 25044,
        }

    def test_fig4_json_structure(self, tmp_path):
        write_all(str(tmp_path))
        payload = json.loads((tmp_path / "fig4.json").read_text())
        assert payload["best_overall_depth"] == 2
        assert any(p["depth"] == 4 for p in payload["points"])

    def test_scaling_json_classes(self, tmp_path):
        write_all(str(tmp_path))
        payload = json.loads((tmp_path / "scaling.json").read_text())
        classes = {(f["design"], f["metric"]): f["class"] for f in payload}
        assert classes[("hajali2018", "latency")] == "O(n^2)"
        assert classes[("ours", "area")] == "O(n)"

    def test_text_artifacts_nonempty(self, tmp_path):
        write_all(str(tmp_path))
        for name in ("table1.txt", "fig4.txt", "scaling.txt",
                     "sec3_exploration.txt", "floorplan.txt"):
            assert (tmp_path / name).read_text().strip()

    def test_idempotent(self, tmp_path):
        first = write_all(str(tmp_path))
        second = write_all(str(tmp_path))
        assert first == second
