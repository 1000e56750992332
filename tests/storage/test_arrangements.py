"""Property + lifecycle suite for shared join arrangements
(:mod:`repro.storage.arrangements`).

Two layers of guarantees:

* **Probe equivalence** (hypothesis, over arbitrary generated tables):
  the arrangement's hash variant returns exactly the
  positions a naive per-query dict build would; the sorted variant's
  range lookups return exactly what a naive filter keeps; the memoized
  single-match views equal freshly-built ones for any predicate.
* **Lifecycle**: refcounts pin holders, ``StorageManager.notify_update``
  drops cached arrangements while concurrent holders finish on their
  pinned snapshot, the next acquire rebuilds, and a regenerated table
  under the same name evicts the stale index.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.expr import Between, Cmp
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.engine import Simulator
from repro.sim.machine import MachineSpec
from repro.storage.arrangements import (
    ARRANGEMENTS,
    Arrangement,
    ArrangementCache,
    single_match_table,
)
from repro.storage.manager import StorageConfig, StorageManager
from repro.storage.packed import DICT_MAX_CARD, is_packed
from repro.storage.schema import Column, Schema
from repro.storage.table import Table

SCHEMA = Schema([Column("k"), Column("v"), Column("w")], row_bytes=24)

#: Possibly-duplicated keys: exercises the non-unique path and multi-match
#: position lists.
rows_strategy = st.lists(
    st.tuples(st.integers(0, 15), st.integers(-5, 5), st.integers(0, 3)),
    max_size=120,
)


def unique_rows(keys_base: int, vals: list[int]) -> list[tuple]:
    """Rows with a guaranteed-unique key column (dimension shape)."""
    return [(keys_base + j, v, j % 4) for j, v in enumerate(vals)]


def build_table(rows, tpp: int = 7) -> Table:
    return Table("dim", SCHEMA, rows, tuples_per_page=tpp)


# ----------------------------------------------------------------------
# Hash variant: arrangement probe == naive per-query build.
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(rows=rows_strategy, tpp=st.integers(1, 17))
def test_positions_equal_naive_build(rows, tpp):
    arr = Arrangement(build_table(rows, tpp), "k")
    naive: dict = {}
    for pos, r in enumerate(rows):
        naive.setdefault(r[0], []).append(pos)
    assert arr.positions == naive
    assert arr.unique == all(len(ps) == 1 for ps in naive.values())
    for k in list(naive) + [-99]:
        assert arr.lookup_positions(k) == naive.get(k, [])
    assert arr.rows == rows


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.integers(-5, 5), max_size=80),
    cutoff=st.integers(-6, 6),
)
def test_single_view_equals_fresh_single_match_table(vals, cutoff):
    rows = unique_rows(100, vals)
    arr = Arrangement(build_table(rows), "k")
    assert arr.unique
    # Full view == the hoisted single_match_table over a naive build.
    naive = {r[0]: [r] for r in rows}
    assert arr.single_view() == single_match_table(naive)
    # Predicated view == filter-then-build, and it is memoized: equal
    # predicates (Expr hashes structurally) return the identical object.
    pred = Cmp("<=", "v", cutoff)
    view = arr.single_view(pred)
    assert view == {r[0]: r for r in rows if r[1] <= cutoff}
    assert arr.single_view(Cmp("<=", "v", cutoff)) is view


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(st.just(1), st.integers(0, 3), st.just(0)), min_size=2, max_size=20))
def test_single_view_refuses_non_unique_keys(rows):
    arr = Arrangement(build_table(rows), "k")
    assert not arr.unique
    try:
        arr.single_view()
        raise AssertionError("expected ValueError on non-unique keys")
    except ValueError:
        pass


@settings(max_examples=40, deadline=None)
@given(vals=st.lists(st.integers(-5, 5), max_size=60), cutoff=st.integers(-6, 6))
def test_keys_for_matches_selected_and_memoizes(vals, cutoff):
    rows = unique_rows(0, vals)
    arr = Arrangement(build_table(rows), "k")
    pred = Cmp(">", "v", cutoff)
    selected = [r for r in rows if r[1] > cutoff]
    keys = arr.keys_for(selected, pred)
    assert keys == [r[0] for r in selected]
    assert arr.keys_for(selected, Cmp(">", "v", cutoff)) is keys
    # A different selection length under another predicate recomputes
    # instead of serving the stale memo.
    other = [r for r in rows if r[1] >= cutoff]
    assert arr.keys_for(other, Between("v", cutoff, 99)) == [r[0] for r in other]


# ----------------------------------------------------------------------
# Sorted variant: range lookups == naive filter.
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(
    rows=rows_strategy,
    lo=st.integers(-2, 16),
    span=st.integers(0, 8),
)
def test_range_positions_equal_naive_filter(rows, lo, span):
    hi = lo + span
    arr = Arrangement(build_table(rows), "k")
    got = arr.range_positions(lo, hi)
    expected = [pos for pos, r in enumerate(rows) if lo <= r[0] <= hi]
    # Ascending key order; ties in table order (sorted() is stable).
    assert sorted(got) == expected
    assert [rows[p][0] for p in got] == sorted(rows[p][0] for p in got)
    assert set(got) == set(expected)


def test_dictionary_fallback_boundary_probes_exactly():
    """DICT_MAX_CARD+1 distinct keys push a packed column past dictionary
    encoding into typed arrays -- the arrangement must probe identically
    on both sides of the boundary."""
    n = DICT_MAX_CARD + 1  # 257: typed-array (array('q')) territory
    rows = unique_rows(1000, list(range(n)))
    t = build_table(rows, tpp=64)
    assert any(is_packed(c) for c in t.columns())
    arr = Arrangement(t, "k")
    assert arr.unique and len(arr.positions) == n
    assert arr.single_view() == {r[0]: r for r in rows}
    assert arr.range_positions(1000, 1009) == list(range(10))
    small = unique_rows(0, list(range(DICT_MAX_CARD - 1)))
    arr_small = Arrangement(build_table(small, tpp=64), "k")
    assert arr_small.single_view() == {r[0]: r for r in small}


# ----------------------------------------------------------------------
# Lifecycle: refcounts, invalidation, rebuilds.
# ----------------------------------------------------------------------
def test_acquire_hit_and_refcounts():
    cache = ArrangementCache()
    t = build_table(unique_rows(0, [1, 2, 3]))
    a1 = cache.acquire(t, "k")
    a2 = cache.acquire(t, "k")
    assert a1 is a2 and a1.refcount == 2
    assert cache.stats() == {
        "hits": 1, "builds": 1, "evictions": 0, "invalidations": 0, "entries": 1,
        "fold_views": 0, "fold_ranges": 0,
    }
    cache.release(a1)
    cache.release(a2)
    assert a1.refcount == 0 and cache.pinned() == 0
    # Released but still cached: the next acquire is another hit.
    assert cache.acquire(t, "k") is a1 and cache.hits == 2


def test_invalidate_drops_entry_but_holders_keep_snapshot():
    cache = ArrangementCache()
    t = build_table(unique_rows(0, [4, 5, 6]))
    held = cache.acquire(t, "k")
    view = held.single_view()
    dropped = cache.invalidate_table("dim")
    assert dropped == 1 and cache.get("dim", "k") is None
    assert cache.evictions == 1 and cache.invalidations == 1
    # The concurrent holder finishes on its pinned snapshot untouched.
    assert held.refcount == 1 and held.single_view() is view
    assert view[0] == (0, 4, 0)
    cache.release(held)
    # The next query rebuilds against the (new) table.
    rebuilt = cache.acquire(t, "k")
    assert rebuilt is not held and cache.builds == 2


def test_stale_table_identity_evicts_and_rebuilds():
    cache = ArrangementCache()
    old = build_table(unique_rows(0, [1]))
    new = build_table(unique_rows(0, [1]))  # regenerated table
    a_old = cache.acquire(old, "k")
    cache.release(a_old)
    a_new = cache.acquire(new, "k")
    assert a_new is not a_old and a_new.table is new
    assert cache.evictions == 1 and cache.builds == 2 and cache.hits == 0


def test_notify_update_invalidates_arrangements():
    """The storage manager's update hook reaches the process-wide cache
    (and keeps its return-value contract: result-cache drops only)."""
    sim = Simulator(MachineSpec(cores=2, hz=2e9))
    t = build_table(unique_rows(0, [7, 8]))
    storage = StorageManager(
        sim, DEFAULT_COST_MODEL, {"dim": t}, StorageConfig(resident="memory")
    )
    before = ARRANGEMENTS.stats()
    held = ARRANGEMENTS.acquire(t, "k")
    assert ARRANGEMENTS.get("dim", "k") is held
    assert storage.notify_update("dim") == 0  # no result cache configured
    assert ARRANGEMENTS.get("dim", "k") is None
    after = ARRANGEMENTS.stats()
    assert after["invalidations"] - before["invalidations"] == 1
    assert held.refcount == 1  # holder unaffected
    ARRANGEMENTS.release(held)
