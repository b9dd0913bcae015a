"""Tests for the banked multiplier deployment."""

from __future__ import annotations

import pytest

from repro.karatsuba.bank import MultiplierBank
from repro.karatsuba.pipeline import KaratsubaPipeline
from repro.sim.exceptions import DesignError


class TestBankTiming:
    def test_throughput_scales_linearly(self):
        one = MultiplierBank(64, ways=1).timing()
        four = MultiplierBank(64, ways=4).timing()
        assert four.throughput_per_mcc == pytest.approx(
            4 * one.throughput_per_mcc
        )

    def test_atp_invariant_under_banking(self):
        one = MultiplierBank(64, ways=1).timing()
        eight = MultiplierBank(64, ways=8).timing()
        assert eight.atp == pytest.approx(one.atp)

    def test_area_scales_linearly(self):
        assert MultiplierBank(64, ways=3).timing().area_cells == 3 * 4404

    def test_makespan(self):
        bank = MultiplierBank(64, ways=2)
        timing = bank.timing()
        # 5 jobs over 2 ways -> 3 on the fuller way.
        assert timing.makespan_cc(5) == timing.pipeline.makespan_cc(3)
        assert timing.makespan_cc(0) == 0
        with pytest.raises(DesignError):
            timing.makespan_cc(-1)

    def test_at_least_one_way(self):
        with pytest.raises(DesignError):
            MultiplierBank(64, ways=0)


class TestBankExecution:
    def test_products_bit_exact(self, rng):
        bank = MultiplierBank(64, ways=3)
        pairs = [
            (rng.getrandbits(64), rng.getrandbits(64)) for _ in range(7)
        ]
        result = bank.run_stream(pairs)
        assert result.products == [a * b for a, b in pairs]

    def test_least_loaded_distribution(self, rng):
        bank = MultiplierBank(64, ways=3)
        pairs = [(1, 1)] * 8
        result = bank.run_stream(pairs)
        assert result.per_way_jobs == [3, 3, 2]

    def test_empty_stream(self):
        bank = MultiplierBank(64, ways=2)
        result = bank.run_stream([])
        assert result.products == []
        assert result.makespan_cc == 0
        assert result.achieved_throughput_per_mcc == 0.0

    def test_achieved_throughput_approaches_model(self, rng):
        bank = MultiplierBank(64, ways=2)
        pairs = [
            (rng.getrandbits(64), rng.getrandbits(64)) for _ in range(12)
        ]
        result = bank.run_stream(pairs)
        model = bank.timing().throughput_per_mcc
        assert 0.5 * model < result.achieved_throughput_per_mcc <= model


    def test_uneven_tail_makespan_matches_static_model(self, rng):
        """Uneven job counts: stream makespan == BankTiming.makespan_cc."""
        bank = MultiplierBank(64, ways=3)
        timing = bank.timing()
        for jobs in (1, 2, 3, 4, 5, 7, 8):
            pairs = [
                (rng.getrandbits(64), rng.getrandbits(64))
                for _ in range(jobs)
            ]
            result = bank.run_stream(pairs)
            assert result.products == [a * b for a, b in pairs]
            assert result.makespan_cc == timing.makespan_cc(jobs)
            assert sum(result.per_way_jobs) == jobs
            # Balanced ceil/floor split across the ways.
            assert max(result.per_way_jobs) - min(result.per_way_jobs) <= 1

    def test_zero_jobs_short_circuit(self):
        bank = MultiplierBank(64, ways=4)
        result = bank.run_stream([])
        assert result.products == []
        assert result.makespan_cc == 0
        assert result.per_way_jobs == [0, 0, 0, 0]

    def test_one_way_equals_many_ways_bit_exact(self, rng):
        """ways=1 and ways=k produce identical products in input order."""
        pairs = [
            (rng.getrandbits(64), rng.getrandbits(64)) for _ in range(9)
        ]
        one = MultiplierBank(64, ways=1).run_stream(pairs)
        many = MultiplierBank(64, ways=4).run_stream(pairs)
        assert one.products == many.products == [a * b for a, b in pairs]
        # More ways can only shrink the makespan.
        assert many.makespan_cc <= one.makespan_cc

    def test_scalar_and_batched_paths_agree(self, rng):
        pairs = [
            (rng.getrandbits(64), rng.getrandbits(64)) for _ in range(5)
        ]
        batched = MultiplierBank(64, ways=2).run_stream(pairs)
        oracle = MultiplierBank(64, ways=2)
        oracle.pipelines = [
            KaratsubaPipeline(64, backend="scalar") for _ in range(2)
        ]
        scalar = oracle.run_stream(pairs, batch_size=1)
        assert batched.products == scalar.products
        assert batched.makespan_cc == scalar.makespan_cc
        assert batched.per_way_jobs == scalar.per_way_jobs


class TestScalingTable:
    def test_rows(self):
        table = MultiplierBank(64, ways=1).scaling_table(max_ways=4)
        assert len(table) == 4
        ways, tput, area = zip(*table)
        assert ways == (1, 2, 3, 4)
        assert area == (4404, 8808, 13212, 17616)
        assert tput[3] == pytest.approx(4 * tput[0])

    def test_monotonicity(self):
        """Throughput and area rise strictly with ways; ATP is flat."""
        table = MultiplierBank(128, ways=1).scaling_table(max_ways=8)
        ways, tput, area = zip(*table)
        assert list(ways) == sorted(ways)
        assert all(b > a for a, b in zip(tput, tput[1:]))
        assert all(b > a for a, b in zip(area, area[1:]))
        atps = [a / t for t, a in zip(tput, area)]
        for atp in atps[1:]:
            assert atp == pytest.approx(atps[0])
