"""Tests for the reference evaluator and the Volcano baseline."""

import dataclasses

import pytest

from repro.baselines import VolcanoEngine, evaluate_plan
from repro.baselines.volcano import mature_cost_model
from repro.data import generate_ssb, generate_tpch
from repro.query.expr import Cmp, Col, Or
from repro.query.plan import AggregateNode, AggSpec, HashJoinNode, ScanNode, SelectNode, SortNode
from repro.query.ssb_queries import q21, q32
from repro.query.tpch_queries import tpch_q1_plan
from repro.sim import Simulator
from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=55)


def norm(rows):
    return sorted(
        tuple(round(v, 6) if isinstance(v, float) else v for v in row) for row in rows
    )


class TestReferenceEvaluator:
    def test_scan_and_select(self, ssb):
        plan = SelectNode(ScanNode(ssb.customer), Cmp("=", "c_nation", "CHINA"))
        rows = evaluate_plan(plan)
        inat = ssb.customer.schema.index("c_nation")
        assert rows
        assert all(r[inat] == "CHINA" for r in rows)

    def test_join_against_manual(self, ssb):
        plan = HashJoinNode(
            ScanNode(ssb.lineorder), ScanNode(ssb.supplier), "lo_suppkey", "s_suppkey"
        )
        rows = evaluate_plan(plan)
        # Foreign keys all resolve: one match per fact row.
        assert len(rows) == len(ssb.lineorder)

    def test_count_and_avg_weighting(self, ssb):
        plan = AggregateNode(
            ScanNode(ssb.supplier),
            (),
            (AggSpec("count", None, "n"), AggSpec("avg", Col("s_suppkey"), "avg_key")),
        )
        ((count, avg_key),) = evaluate_plan(plan)
        assert count == pytest.approx(ssb.supplier.real_rows)
        keys = [r[0] for r in ssb.supplier.iter_rows()]
        assert avg_key == pytest.approx(sum(keys) / len(keys))

    def test_min_max(self, ssb):
        plan = AggregateNode(
            ScanNode(ssb.supplier),
            (),
            (AggSpec("min", Col("s_suppkey"), "lo"), AggSpec("max", Col("s_suppkey"), "hi")),
        )
        ((lo, hi),) = evaluate_plan(plan)
        assert lo == 1
        assert hi == len(ssb.supplier)

    def test_sort_directions(self, ssb):
        plan = SortNode(
            ScanNode(ssb.supplier), (("s_nation", True), ("s_suppkey", False))
        )
        rows = evaluate_plan(plan)
        sch = ssb.supplier.schema
        inat, ikey = sch.index("s_nation"), sch.index("s_suppkey")
        keys = [(r[inat], -r[ikey]) for r in rows]
        assert keys == sorted(keys)

    def test_cjoin_requires_dim_tables(self, ssb):
        from repro.query.plan import CJoinNode, DimJoinSpec

        node = CJoinNode(
            ssb.lineorder,
            (DimJoinSpec("date", "lo_orderdate", "d_datekey"),),
            fact_payload=("lo_revenue",),
        )
        with pytest.raises(ValueError, match="dim_tables"):
            evaluate_plan(node)


class TestVolcano:
    def test_matches_oracle_on_templates(self, ssb):
        # A disjunctive fact predicate has no column kernel: the scan's
        # selection runs through the row kernel's passing positions.
        disjunctive = dataclasses.replace(
            q32("CHINA", "FRANCE", 1993, 1996),
            fact_predicate=Or(Cmp("<", "lo_quantity", 10), Cmp(">", "lo_quantity", 40)),
        )
        for spec in (
            q32("CHINA", "FRANCE", 1993, 1996),
            q21("MFGR#12", "AMERICA"),
            disjunctive,
        ):
            sim = Simulator(MachineSpec())
            storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig())
            pg = VolcanoEngine(sim, storage)
            h = pg.submit(spec)
            sim.run()
            assert norm(h.results) == norm(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))

    def test_tpch_q1(self):
        ds = generate_tpch(0.5, seed=3)
        plan = tpch_q1_plan(ds.lineitem)
        sim = Simulator(MachineSpec())
        storage = StorageManager(sim, DEFAULT_COST_MODEL, ds.tables, StorageConfig())
        pg = VolcanoEngine(sim, storage)
        h = pg.submit_plan(plan)
        sim.run()
        assert norm(h.results) == norm(evaluate_plan(plan))

    def test_mature_cost_model_is_cheaper(self):
        base = CostModel()
        mature = mature_cost_model(base)
        assert mature.scan_tuple < base.scan_tuple
        assert mature.probe_visit < base.probe_visit
        # Non-CPU knobs untouched.
        assert mature.admission_pause == base.admission_pause

    def test_faster_than_qpipe_at_one_query(self, ssb):
        """The paper: 'as Postgres is a more mature system ... it attains a
        better performance for low concurrency'."""
        from repro.engine import QPIPE_SP, QPipeEngine

        spec = q32("CHINA", "FRANCE", 1993, 1996)
        sim1 = Simulator(MachineSpec())
        st1 = StorageManager(sim1, DEFAULT_COST_MODEL, ssb.tables, StorageConfig())
        pg = VolcanoEngine(sim1, st1)
        h1 = pg.submit(spec)
        sim1.run()

        sim2 = Simulator(MachineSpec())
        st2 = StorageManager(sim2, DEFAULT_COST_MODEL, ssb.tables, StorageConfig())
        qp = QPipeEngine(sim2, st2, QPIPE_SP)
        h2 = qp.submit(spec)
        sim2.run()
        assert h1.response_time < h2.response_time

    def test_no_sharing_ever(self, ssb):
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        sim = Simulator(MachineSpec())
        storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig())
        pg = VolcanoEngine(sim, storage)
        for _ in range(4):
            pg.submit(spec)
        sim.run()
        assert not sim.metrics.sharing_events

    def test_rejects_gqp_plans(self, ssb):
        spec = q32("CHINA", "FRANCE", 1993, 1996)
        plan = spec.to_gqp_plan(ssb.tables)
        sim = Simulator(MachineSpec())
        storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig())
        pg = VolcanoEngine(sim, storage)
        pg.submit_plan(plan)
        from repro.sim.engine import SimulationError

        with pytest.raises(SimulationError):
            sim.run()
