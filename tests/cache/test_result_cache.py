"""Unit tests for the shared result cache store: probe/fill bookkeeping,
byte-budgeted eviction under both policies, table invalidation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CACHE_POLICIES, ResultCache
from repro.sim import Simulator
from repro.sim.machine import MachineSpec
from repro.storage.page import Batch


def make_cache(capacity=1000.0, policy="benefit", max_entry_fraction=0.5):
    sim = Simulator(MachineSpec(cores=2))
    return sim, ResultCache(sim, capacity, policy, max_entry_fraction)


def entry_batches(n=1):
    return [Batch([(i,)], weight=1.0) for i in range(n)]


class TestConstruction:
    def test_rejects_bad_capacity(self):
        sim = Simulator(MachineSpec(cores=2))
        with pytest.raises(ValueError):
            ResultCache(sim, 0.0)
        with pytest.raises(ValueError):
            ResultCache(sim, -1.0)

    def test_rejects_unknown_policy(self):
        sim = Simulator(MachineSpec(cores=2))
        with pytest.raises(ValueError, match="unknown cache policy"):
            ResultCache(sim, 100.0, "fifo")

    def test_policies_registry_matches(self):
        for policy in CACHE_POLICIES:
            sim, cache = make_cache(policy=policy)
            assert cache.policy == policy


class TestProbeAndFill:
    def test_miss_then_hit(self):
        sim, cache = make_cache()
        key = ("sort", "x")
        assert cache.probe(key) is None
        assert cache.misses == 1
        cache.admit(key, entry_batches(), 100.0, 0.5, frozenset({"t"}), "sort")
        entry = cache.probe(key)
        assert entry is not None
        assert entry.hits == 1
        assert cache.hits == 1
        assert sim.metrics.counts["result_cache_hits"] == 1
        assert sim.metrics.counts["result_cache_misses"] == 1

    def test_contains_is_silent(self):
        sim, cache = make_cache()
        key = ("agg", "y")
        cache.admit(key, entry_batches(), 10.0, 0.1, frozenset(), "aggregate")
        assert cache.contains(key)
        assert cache.contains_any([("other",), key])
        assert not cache.contains_any([("other",)])
        entry = cache._entries[key]
        assert cache.hits == 0 and cache.misses == 0 and entry.hits == 0

    def test_begin_fill_is_exclusive(self):
        _, cache = make_cache()
        key = ("join", "z")
        assert cache.begin_fill(key)
        assert not cache.begin_fill(key)  # a second identical host must not fill
        cache.end_fill(key)
        assert cache.begin_fill(key)

    def test_oversized_entry_rejected(self):
        sim, cache = make_cache(capacity=1000.0, max_entry_fraction=0.5)
        assert not cache.fits_entry(501.0)
        assert cache.fits_entry(500.0)
        assert not cache.admit(("k",), entry_batches(), 501.0, 1.0, frozenset(), "sort")
        assert cache.rejected == 1
        assert len(cache) == 0

    def test_readmit_replaces(self):
        _, cache = make_cache()
        key = ("sort", "x")
        cache.admit(key, entry_batches(1), 100.0, 0.5, frozenset(), "sort")
        cache.admit(key, entry_batches(3), 200.0, 0.7, frozenset(), "sort")
        assert len(cache) == 1
        assert cache.resident_bytes == 200.0


class TestEviction:
    def test_lru_evicts_least_recently_probed(self):
        _, cache = make_cache(capacity=1000.0, policy="lru", max_entry_fraction=1.0)
        cache.admit(("a",), entry_batches(), 400.0, 1.0, frozenset(), "sort")
        cache.admit(("b",), entry_batches(), 400.0, 1.0, frozenset(), "sort")
        cache.probe(("a",))  # "a" is now more recent than "b"
        cache.admit(("c",), entry_batches(), 400.0, 1.0, frozenset(), "sort")
        assert not cache.contains(("b",))
        assert cache.contains(("a",)) and cache.contains(("c",))
        assert cache.evictions == 1

    def test_benefit_evicts_cheapest_per_byte(self):
        _, cache = make_cache(capacity=1000.0, policy="benefit", max_entry_fraction=1.0)
        # "cheap" is large and cost little to make; "dear" is small and slow.
        cache.admit(("cheap",), entry_batches(), 400.0, 0.01, frozenset(), "sort")
        cache.admit(("dear",), entry_batches(), 100.0, 5.0, frozenset(), "sort")
        cache.admit(("new",), entry_batches(), 600.0, 1.0, frozenset(), "sort")
        assert not cache.contains(("cheap",))
        assert cache.contains(("dear",))

    def test_benefit_weighs_observed_reuse(self):
        _, cache = make_cache(capacity=1000.0, policy="benefit", max_entry_fraction=1.0)
        # Equal cost and size: the probed entry must survive the unprobed.
        cache.admit(("cold",), entry_batches(), 400.0, 1.0, frozenset(), "sort")
        cache.admit(("hot",), entry_batches(), 400.0, 1.0, frozenset(), "sort")
        for _ in range(3):
            cache.probe(("hot",))
        cache.admit(("new",), entry_batches(), 400.0, 1.0, frozenset(), "sort")
        assert cache.contains(("hot",))
        assert not cache.contains(("cold",))

    def test_eviction_keeps_budget(self):
        _, cache = make_cache(capacity=1000.0, max_entry_fraction=1.0)
        for i in range(10):
            cache.admit((i,), entry_batches(), 300.0, 1.0, frozenset(), "sort")
        assert cache.resident_bytes <= 1000.0
        assert len(cache) == 3


class TestInvalidation:
    def test_invalidate_by_table(self):
        sim, cache = make_cache()
        cache.admit(("a",), entry_batches(), 10.0, 1.0, frozenset({"lineorder", "date"}), "sort")
        cache.admit(("b",), entry_batches(), 10.0, 1.0, frozenset({"part"}), "sort")
        assert cache.invalidate_table("lineorder") == 1
        assert not cache.contains(("a",))
        assert cache.contains(("b",))
        assert cache.invalidated == 1
        assert cache.resident_bytes == 10.0
        assert cache.invalidate_table("lineorder") == 0

    def test_clear(self):
        _, cache = make_cache()
        cache.admit(("a",), entry_batches(), 10.0, 1.0, frozenset(), "sort")
        cache.clear()
        assert len(cache) == 0
        assert cache.resident_bytes == 0.0


class TestStats:
    def test_stats_snapshot(self):
        _, cache = make_cache(capacity=500.0, policy="lru")
        cache.admit(("a",), entry_batches(), 10.0, 1.0, frozenset(), "sort")
        cache.probe(("a",))
        cache.probe(("b",))
        stats = cache.stats()
        assert stats["policy"] == "lru"
        assert stats["capacity_bytes"] == 500.0
        assert stats["entries"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["insertions"] == 1


# ----------------------------------------------------------------------
# Fold-provider index: shape buckets vs a linear scan of every entry
# ----------------------------------------------------------------------
def _node_pool():
    """Plan nodes of several shapes; within a shape, weaker and stronger
    predicates and finer and coarser groupings, so real folds occur.  The
    Q3.2-like stars and join trees pin two dimensions by equality (or
    leave them as a set or unconstrained), so the pinned-value groups of
    the provider index hold several providers each."""
    from repro.query.expr import Between, Cmp, Col, InSet
    from repro.query.plan import (
        AggregateNode,
        AggSpec,
        CJoinNode,
        DimJoinSpec,
        HashJoinNode,
        ScanNode,
        SelectNode,
        SortNode,
    )
    from repro.storage.schema import Column, Schema
    from repro.storage.table import Table

    schema = Schema([Column("a"), Column("b"), Column("c")], row_bytes=24)
    fact = Table("t", schema, [(1, 2, 3)])
    aggs = (AggSpec("sum", Col("c"), "sum_c"), AggSpec("count", None, "n"))

    def select(pred):
        scan = ScanNode(fact)
        return scan if pred is None else SelectNode(scan, pred)

    preds = [None, Between("a", 0, 5), Between("a", 1, 3), Cmp(">", "b", 0)]
    nodes = []
    for pred in preds:
        for groups in (("a", "b"), ("a",)):
            nodes.append(AggregateNode(select(pred), groups, aggs))
    for dim_pred in (None, Between("x", 0, 5), Between("x", 1, 2)):
        for fact_pred in (None, Between("a", 1, 3)):
            dim = DimJoinSpec("d", "a", "k", dim_pred, ("x",))
            nodes.append(CJoinNode(fact, (dim,), ("a", "b"), fact_pred))
    for pred in preds[:3]:
        nodes.append(SortNode(AggregateNode(select(pred), ("a",), aggs), (("a", True),)))
    # Q3.2-like: d.x and e.y play c_nation and s_nation.
    d = Table("d", Schema([Column("k"), Column("x")], row_bytes=16), [(1, 1)])
    e = Table("e", Schema([Column("j"), Column("y")], row_bytes=16), [(1, 1)])
    xs = (Cmp("=", "x", 1), Cmp("=", "x", 2), InSet("x", (1, 2)))
    ys = (Cmp("=", "y", 1), Cmp("=", "y", 2), None)
    for px in xs:
        for py in ys:
            star = CJoinNode(
                fact,
                (DimJoinSpec("d", "a", "k", px, ("x",)), DimJoinSpec("e", "b", "j", py, ("y",))),
                ("a", "b", "c"),
            )
            nodes.append(star)
            nodes.append(AggregateNode(star, ("x", "y"), aggs))
            build_e = ScanNode(e) if py is None else SelectNode(ScanNode(e), py)
            tree = HashJoinNode(
                HashJoinNode(ScanNode(fact), SelectNode(ScanNode(d), px), "a", "k"),
                build_e,
                "b",
                "j",
            )
            nodes.append(AggregateNode(tree, ("x", "y"), aggs))
    return nodes


NODES = _node_pool()
#: cache keys: each node's signature (as the engine admits) plus two bare
#: keys whose entries carry a node only some of the time
KEYS = [n.signature for n in NODES] + [("bare", 0), ("bare", 1)]


def _reference_probe(cache, node):
    """The linear scan the shape index replaced: every entry with a node
    except the exact key is tested, in insertion order."""
    from repro.query.subsume import FoldPlanner, fold_plan

    planner = FoldPlanner(node)
    any_fold = False
    for entry in cache._entries.values():
        if entry.node is None or entry.key == node.signature:
            continue
        any_fold = any_fold or fold_plan(node, entry.node) is not None
        planner.consider(
            entry.node, entry, tie_break=(entry.nbytes, -entry.benefit_per_byte(), entry.seq)
        )
    best = planner.best()
    hit = None if best is None else (best[0], best[1], planner.examined)
    return hit, any_fold


def _assert_index_exact(cache):
    """The provider index mirrors the resident entries with a node: same
    shape buckets and pinned-value groups (pins recomputed from fresh
    parses), no empty bucket or group lingering, and exactly their
    predicates parsed."""
    from repro.query.subsume import constraint_maps, pin_key, shape_key

    index = cache._providers
    expected: dict = {}
    parsed: set = set()
    for key, entry in cache._entries.items():
        if entry.node is not None:
            cols, vals = pin_key(entry.node)
            groups = expected.setdefault(shape_key(entry.node), {})
            groups.setdefault(cols, {}).setdefault(vals, {})[key] = entry
            parsed |= set(constraint_maps(entry.node))
    assert index._buckets == expected
    for groups in index._buckets.values():
        assert groups
        for by_vals in groups.values():
            assert by_vals
            assert all(by_vals.values())
    assert len(index) == sum(
        len(p) for g in expected.values() for v in g.values() for p in v.values()
    )
    assert set(index.parses) == parsed == set(index._refs)


_OPS = {
    "admit": st.tuples(
        st.just("admit"),
        st.sampled_from(range(len(KEYS))),
        st.sampled_from([True, True, True, False]),  # record the node? (mostly)
        st.sampled_from(range(len(NODES))),  # node for a bare key
        st.sampled_from([40.0, 120.0, 300.0, 700.0]),
        st.sampled_from([0.01, 0.5, 2.0]),
        st.sampled_from(["t", "u"]),
    ),
    "fold": st.tuples(st.just("fold"), st.sampled_from(range(len(NODES)))),
    "probe": st.tuples(st.just("probe"), st.sampled_from(range(len(KEYS)))),
    "invalidate": st.tuples(st.just("invalidate"), st.sampled_from(["t", "u"])),
    "clear": st.tuples(st.just("clear")),
}
#: admits and fold probes dominate, so the cache holds providers when probed
_ops = st.sampled_from(
    ["admit"] * 8 + ["fold"] * 6 + ["probe"] * 2 + ["invalidate", "clear"]
).flatmap(_OPS.__getitem__)


@settings(max_examples=300, deadline=None)
@given(policy=st.sampled_from(sorted(CACHE_POLICIES)), ops=st.lists(_ops, min_size=10, max_size=60))
def test_shape_index_matches_linear_scan(policy, ops):
    """Random admit / replace / evict / invalidate / clear sequences: after
    every step the index mirrors the resident entries exactly, and both
    fold probes answer as the linear scan does -- same entry, same plan,
    same billed ``examined`` -- although shape buckets and pinned-value
    groups hide most entries from the test."""
    _, cache = make_cache(capacity=2000.0, policy=policy, max_entry_fraction=0.5)
    for op in ops:
        kind = op[0]
        if kind == "admit":
            _, ki, with_node, ni, nbytes, cost, table = op
            key = KEYS[ki]
            node = (NODES[ki] if ki < len(NODES) else NODES[ni]) if with_node else None
            cache.admit(key, entry_batches(), nbytes, cost, frozenset({table}), "aggregate", node)
        elif kind == "probe":
            cache.probe(KEYS[op[1]])
        elif kind == "fold":
            node = NODES[op[1]]
            expected, any_fold = _reference_probe(cache, node)
            assert cache.has_subsuming(node) == any_fold
            assert cache.probe_subsuming(node) == expected
        elif kind == "invalidate":
            cache.invalidate_table(op[1])
        else:
            cache.clear()
        _assert_index_exact(cache)


def test_pinned_groups_hide_other_values():
    """A consumer pinned to ``x = 1, y = 1`` tests only the providers of
    its shape not pinned to another value; one that leaves a pinned column
    unconstrained skips that whole group; both bill every entry."""
    from repro.query.expr import Cmp
    from repro.query.plan import CJoinNode
    from repro.query.subsume import FoldPlanner

    _, cache = make_cache(capacity=1e9)
    stars = [n for n in NODES if isinstance(n, CJoinNode) and len(n.dims) == 2]
    for node in stars:
        cache.admit(node.signature, entry_batches(), 10.0, 1.0, frozenset({"t"}), "cjoin", node)
    pinned = stars[0]  # x = 1, y = 1
    planner = FoldPlanner(pinned)
    tested = cache._providers.candidates(planner, exclude=pinned.signature)
    other = {Cmp("=", "x", 2).signature, Cmp("=", "y", 2).signature}
    assert tested
    assert all(
        d.predicate is None or d.predicate.signature not in other
        for e in tested
        for d in e.node.dims
    )
    assert len(tested) < len(stars) - 1
    hit = cache.probe_subsuming(pinned)
    assert hit is not None and hit[2] == len(stars) - 1  # billed as a scan
    broad = stars[-1]  # x IN (1, 2), y unconstrained
    tested = cache._providers.candidates(FoldPlanner(broad), exclude=broad.signature)
    assert all(e.node.dims[1].predicate is None for e in tested)
