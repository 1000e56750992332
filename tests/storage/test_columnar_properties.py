"""Property suite for the columnar data plane.

Holds the two invariants the whole columnar data plane rests on, over
*arbitrary* generated inputs:

* **Round trip** -- a table built from rows exposes exactly the transposed
  column vectors, a table built from columns exposes exactly the zipped
  row tuples, and the page-level dual caches agree in both directions.
* **Kernel equivalence** -- for any schema, predicate and data,
  ``Expr.compile_cols`` pass positions equal the positions row-at-a-time
  ``Expr.compile`` evaluation keeps, in the same order, both on full
  columns and when refining a prior selection vector.

Plus the mask helpers (selection vector <-> int bitmap) and the shard
partitioner's column-wise builds, which reduce to the same two invariants.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.expr import And, Between, Cmp, InSet, Not, Or
from repro.shard.partition import assign_shards, partition_table
from repro.storage.page import ColumnPage, full_mask, mask_to_sel, sel_to_mask
from repro.storage.schema import Column, Schema
from repro.storage.table import Table

# ----------------------------------------------------------------------
# Strategies: small-int relations over a fixed 3-column schema (values
# collide often, so equality/set predicates exercise real selections).
# ----------------------------------------------------------------------
SCHEMA = Schema([Column("a"), Column("b"), Column("c")], row_bytes=24)

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 9), st.integers(-5, 5), st.integers(0, 3)
    ),
    max_size=120,
)

values = st.integers(-6, 10)
col_names = st.sampled_from(["a", "b", "c"])


def leaf_predicates():
    cmps = st.builds(
        Cmp, st.sampled_from(["<", "<=", "=", "!=", ">=", ">"]), col_names, values
    )
    betweens = st.builds(
        lambda c, lo, span: Between(c, lo, lo + span),
        col_names,
        values,
        st.integers(0, 6),
    )
    insets = st.builds(
        lambda c, vs: InSet(c, tuple(vs)),
        col_names,
        st.lists(values, min_size=1, max_size=4),
    )
    return st.one_of(cmps, betweens, insets)


predicates = st.recursive(
    leaf_predicates(),
    lambda inner: st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(lambda ps: And(*ps)),
        st.lists(inner, min_size=1, max_size=3).map(lambda ps: Or(*ps)),
        inner.map(Not),
    ),
    max_leaves=5,
)


# ----------------------------------------------------------------------
# Row <-> column round trip
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, tpp=st.integers(1, 17))
def test_row_built_table_round_trips_through_columns(rows, tpp):
    table = Table("t", SCHEMA, rows, tuples_per_page=tpp)
    expected_cols = tuple(list(c) for c in zip(*rows)) if rows else ((), (), ())
    assert tuple(list(c) for c in table.columns()) == tuple(
        list(c) for c in expected_cols
    )
    assert list(table.iter_rows()) == rows


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, tpp=st.integers(1, 17))
def test_column_built_table_round_trips_through_rows(rows, tpp):
    cols = tuple(list(c) for c in zip(*rows)) if rows else ([], [], [])
    table = Table.from_columns("t", SCHEMA, cols, tuples_per_page=tpp)
    assert list(table.iter_rows()) == rows
    assert table.num_rows == len(rows)
    # Page structure (counts, weights, bytes) matches the row constructor.
    row_table = Table("t", SCHEMA, rows, tuples_per_page=tpp)
    assert table.num_pages == row_table.num_pages
    for cp, rp in zip(table.pages, row_table.pages):
        assert list(cp.rows) == list(rp.rows)
        assert tuple(map(list, cp.columns)) == tuple(map(list, rp.columns))
        assert cp.real_bytes == rp.real_bytes
        assert cp.weight == rp.weight


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(), st.integers()), min_size=1, max_size=40))
def test_page_dual_cache_agrees_both_directions(rows):
    # min_size=1: a rowless page cannot reconstruct column arity (the
    # table layer always knows it from the schema, pages need the data).
    schema_cols = tuple(zip(*rows)) if rows else ((), ())
    from_rows = ColumnPage("t", 0, rows=list(rows), weight=1.0, real_bytes=0.0)
    from_cols = ColumnPage(
        "t", 0, rows=None, weight=1.0, real_bytes=0.0, columns=schema_cols
    )
    assert tuple(map(tuple, from_rows.columns)) == tuple(map(tuple, schema_cols))
    assert list(from_cols.rows) == rows
    assert len(from_rows) == len(from_cols) == len(rows)


# ----------------------------------------------------------------------
# Column kernels == row-wise predicates
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(rows=rows_strategy, expr=predicates)
def test_column_kernel_pass_positions_equal_row_wise(rows, expr):
    kernel = expr.compile_cols(SCHEMA)
    if kernel is None:  # shape has no column form; callers fall back
        return
    pred = expr.compile(SCHEMA)
    cols = tuple(zip(*rows)) if rows else ((), (), ())
    expected = [j for j, r in enumerate(rows) if pred(r)]
    assert kernel(cols.__getitem__, len(rows)) == expected


@settings(max_examples=120, deadline=None)
@given(rows=rows_strategy, expr=predicates, data=st.data())
def test_column_kernel_refines_selection_like_row_wise(rows, expr, data):
    kernel = expr.compile_cols(SCHEMA)
    if kernel is None:
        return
    pred = expr.compile(SCHEMA)
    keep = data.draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    sel = [j for j, k in enumerate(keep) if k]
    cols = tuple(zip(*rows)) if rows else ((), (), ())
    expected = [j for j in sel if pred(rows[j])]
    assert kernel(cols.__getitem__, len(rows), sel) == expected


@settings(max_examples=120, deadline=None)
@given(rows=rows_strategy, expr=predicates)
def test_batch_kernel_positions_equal_row_wise(rows, expr):
    idx_kernel = expr.compile_batch(SCHEMA, indices=True)
    row_kernel = expr.compile_batch(SCHEMA)
    pred = expr.compile(SCHEMA)
    expected_idx = [j for j, r in enumerate(rows) if pred(r)]
    assert idx_kernel(rows) == expected_idx
    assert list(row_kernel(rows)) == [rows[j] for j in expected_idx]


# ----------------------------------------------------------------------
# Mask helpers
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(0, 80))
def test_sel_mask_round_trip(data, n):
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    sel = [j for j, k in enumerate(keep) if k]
    mask = sel_to_mask(sel)
    assert mask_to_sel(mask, n) == sel
    assert mask & full_mask(n) == mask
    assert mask_to_sel(full_mask(n), n) == list(range(n))


# ----------------------------------------------------------------------
# Shard partitioning: column-wise build == row constructor
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    rows=rows_strategy,
    n_shards=st.integers(1, 5),
    mode=st.sampled_from(["hash", "range"]),
    salt=st.integers(0, 3),
)
def test_partition_layouts_hold_identical_rows(rows, n_shards, mode, salt):
    """Partitions sliced/gathered column-wise equal tables the row
    constructor builds from each shard's assigned rows."""
    table = Table("fact", SCHEMA, rows, tuples_per_page=7)
    assignment = assign_shards(len(rows), n_shards, mode, salt)
    row_parts = [
        Table(
            "fact",
            SCHEMA,
            [r for r, shard in zip(rows, assignment) if shard == k],
            tuples_per_page=7,
        )
        for k in range(n_shards)
    ]
    col_parts = partition_table(table, n_shards, mode, salt)
    assert len(col_parts) == n_shards
    for rp, cp in zip(row_parts, col_parts):
        assert list(cp.iter_rows()) == list(rp.iter_rows())
        assert cp.num_pages == rp.num_pages
        assert cp.real_bytes == rp.real_bytes
        assert cp.row_weight == rp.row_weight
