"""Integration tests: full queries through every engine configuration.

The central invariant -- sharing must never change answers -- is asserted by
running the same workload through all configurations (both communication
models) and comparing against the independent reference evaluator.
"""

import dataclasses
import random

import pytest

from repro.baselines import VolcanoEngine, evaluate_plan
from repro.data import generate_ssb, generate_tpch
from repro.engine import CJOIN, CJOIN_SP, QPIPE, QPIPE_CS, QPIPE_SP, QPipeEngine
from repro.engine.config import fast_path
from repro.query.expr import Cmp
from repro.query.ssb_queries import q11, q21, q32, random_q32
from repro.query.tpch_queries import tpch_q1_plan
from repro.sim import Simulator
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager

ALL_CONFIGS = (QPIPE, QPIPE_CS, QPIPE_SP, CJOIN, CJOIN_SP)


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=21)


def norm(rows):
    """Order-insensitive, float-tolerant normal form of a result set."""
    return sorted(
        tuple(round(v, 6) if isinstance(v, float) else v for v in row) for row in rows
    )


def make_engine(ssb, config, resident="memory"):
    sim = Simulator(MachineSpec())
    storage = StorageManager(
        sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident=resident)
    )
    return sim, QPipeEngine(sim, storage, config)


class TestCorrectnessMatrix:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    @pytest.mark.parametrize("comm", ["spl", "fifo"])
    def test_q32_matches_oracle(self, ssb, config, comm):
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        oracle = norm(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        sim, eng = make_engine(ssb, dataclasses.replace(config, comm=comm))
        handles = [eng.submit(spec) for _ in range(3)]
        sim.run()
        for h in handles:
            assert norm(h.results) == oracle

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    def test_mixed_workload_matches_oracle(self, ssb, config):
        rng = random.Random(4)
        specs = [random_q32(rng) for _ in range(4)]
        specs += [q11(1993, 1.0, 3.0, 25), q21("MFGR#12", "AMERICA")]
        oracles = [norm(evaluate_plan(s.to_query_centric_plan(ssb.tables))) for s in specs]
        sim, eng = make_engine(ssb, config)
        handles = [eng.submit(s) for s in specs]
        sim.run()
        for h, o in zip(handles, oracles):
            assert norm(h.results) == o

    def test_gqp_plan_oracle_agrees_with_query_centric_oracle(self, ssb):
        """The reference evaluator itself is cross-checked on both plan
        shapes."""
        for spec in (q32("CHINA", "FRANCE", 1993, 1996), q11(1994, 2.0, 4.0, 30)):
            a = norm(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
            b = norm(evaluate_plan(spec.to_gqp_plan(ssb.tables)))
            assert a == b

    def test_disk_resident_results_identical(self, ssb):
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        oracle = norm(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        for config in (QPIPE_SP, CJOIN_SP):
            sim, eng = make_engine(ssb, config, resident="disk")
            h = eng.submit(spec)
            sim.run()
            assert norm(h.results) == oracle

    def test_volcano_matches_oracle(self, ssb):
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        oracle = norm(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        sim = Simulator(MachineSpec())
        storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig())
        pg = VolcanoEngine(sim, storage)
        h = pg.submit(spec)
        sim.run()
        assert norm(h.results) == oracle

    def test_tpch_q1_all_comms(self):
        ds = generate_tpch(0.5, seed=9)
        plan = tpch_q1_plan(ds.lineitem)
        oracle = norm(evaluate_plan(plan))
        assert oracle  # non-empty result
        for comm in ("spl", "fifo"):
            for config in (QPIPE, QPIPE_CS):
                sim = Simulator(MachineSpec())
                storage = StorageManager(sim, DEFAULT_COST_MODEL, ds.tables, StorageConfig())
                eng = QPipeEngine(sim, storage, dataclasses.replace(config, comm=comm))
                hs = [eng.submit_plan(plan) for _ in range(4)]
                sim.run()
                for h in hs:
                    assert norm(h.results) == oracle


class TestSharingBehavior:
    def test_no_sharing_without_sp(self, ssb):
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        sim, eng = make_engine(ssb, QPIPE)
        for _ in range(4):
            eng.submit(spec)
        sim.run()
        assert eng.sharing_summary() == {}

    def test_circular_scan_shares_across_different_predicates(self, ssb):
        """Linear WoP: scans share even when queries differ entirely."""
        sim, eng = make_engine(ssb, QPIPE_CS)
        eng.submit(q32("CHINA", "FRANCE", 1993, 1996))
        eng.submit(q32("JAPAN", "BRAZIL", 1992, 1994))
        sim.run()
        share = eng.sharing_summary()
        # Second query re-used all four table scans.
        assert share.get("tablescan", 0) == 4

    def test_join_sharing_counts_by_depth(self, ssb):
        sim, eng = make_engine(ssb, QPIPE_SP)
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        for _ in range(5):
            eng.submit(spec)
        sim.run()
        share = eng.sharing_summary()
        # Identical plans share at the top join (hj3); deeper joins are
        # cancelled along with the satellites' sub-plans.
        assert share.get("join:hj3", 0) == 4
        assert "join:hj1" not in share

    def test_partial_subplan_sharing(self, ssb):
        """Queries identical up to the second join share hj2 only."""
        sim, eng = make_engine(ssb, QPIPE_SP)
        eng.submit(q32("CHINA", "FRANCE", 1993, 1996))
        eng.submit(q32("CHINA", "FRANCE", 1992, 1996))  # different date pred
        sim.run()
        share = eng.sharing_summary()
        assert share.get("join:hj2", 0) == 1
        assert "join:hj3" not in share

    def test_join_fold_feeds_row_batches_to_parent_join(self, ssb):
        """A join packet folded onto a host join (hj2, residual on the
        fact predicate) emits row batches through its residual operator;
        the parent hj3, whose wider date range cannot fold, probes those
        rows.  Both queries still answer exactly what the oracle does."""
        host = q32("CHINA", "FRANCE", 1994, 1995)
        consumer = dataclasses.replace(
            q32("CHINA", "FRANCE", 1992, 1997), fact_predicate=Cmp("<", "lo_quantity", 25)
        )
        with fast_path(query_folding=True):
            sim, eng = make_engine(ssb, QPIPE_SP)
            handles = [eng.submit(host), eng.submit(consumer)]
            sim.run()
        assert sim.metrics.counts.get("fold_attach:join:hj2") == 1
        for spec, h in zip((host, consumer), handles):
            assert norm(h.results) == norm(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))

    def test_cjoin_sp_shares_identical_packets(self, ssb):
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        sim, eng = make_engine(ssb, CJOIN_SP)
        for _ in range(6):
            eng.submit(spec)
        sim.run()
        assert eng.sharing_summary().get("cjoin", 0) == 5
        # Only one admission batch with one real query happened.
        assert sim.metrics.counts["cjoin_queries_admitted"] == 1

    def test_cjoin_without_sp_admits_all(self, ssb):
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        sim, eng = make_engine(ssb, CJOIN)
        for _ in range(6):
            eng.submit(spec)
        sim.run()
        assert sim.metrics.counts["cjoin_queries_admitted"] == 6

    def test_sharing_never_changes_results_property(self, ssb):
        """Randomized mini-property: any workload produces identical result
        multisets under QPIPE and QPIPE_SP."""
        rng = random.Random(77)
        specs = [random_q32(rng) for _ in range(6)]
        results = {}
        for config in (QPIPE, QPIPE_SP):
            sim, eng = make_engine(ssb, config)
            handles = [eng.submit(s) for s in specs]
            sim.run()
            results[config.name] = [norm(h.results) for h in handles]
        assert results["QPipe"] == results["QPipe-SP"]


class TestPerformanceShape:
    """Coarse sanity checks of the headline performance relations (the
    precise curves live in benchmarks/)."""

    def test_sp_saves_cpu_at_high_similarity(self, ssb):
        spec = q32("CHINA", "FRANCE", 1993, 1996)

        def total_cpu(config):
            sim, eng = make_engine(ssb, config)
            for _ in range(8):
                eng.submit(spec)
            sim.run()
            return sum(sim.metrics.cpu_cycles_by_category.values())

        assert total_cpu(QPIPE_SP) < 0.5 * total_cpu(QPIPE)

    def test_shared_scan_reduces_disk_traffic(self, ssb):
        spec = q32("CHINA", "FRANCE", 1993, 1996)

        def bytes_read(config):
            sim, eng = make_engine(ssb, config, resident="disk")
            for _ in range(6):
                eng.submit(spec)
            sim.run()
            return sim.disk.bytes_delivered

        assert bytes_read(QPIPE_CS) < 0.5 * bytes_read(QPIPE)

    def test_cjoin_slower_at_one_query_faster_at_many(self, ssb):
        rng = random.Random(5)
        specs = [random_q32(rng) for _ in range(48)]

        def avg_rt(config, n):
            sim, eng = make_engine(ssb, config)
            hs = [eng.submit(s) for s in specs[:n]]
            sim.run()
            return sum(h.response_time for h in hs) / n

        assert avg_rt(CJOIN, 1) > avg_rt(QPIPE_SP, 1)
        assert avg_rt(CJOIN, 48) < avg_rt(QPIPE, 48)
