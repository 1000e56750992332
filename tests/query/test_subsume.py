"""Property suite for the subsumption lattice (:mod:`repro.query.subsume`).

The fold plane's whole correctness argument rests on four claims, each
checked here over arbitrary generated predicates and relations:

* **Order** -- subsumption is reflexive and transitive, and adding
  conjuncts always strengthens (``w`` subsumes ``w AND r``).
* **Containment** -- whenever ``predicate_subsumes(weak, strong)`` says
  yes, every row passing ``strong`` passes ``weak`` (the check is
  conservative: it may say no to a true containment, never yes to a
  false one).
* **Residual exactness** -- ``weak AND residual`` selects *exactly* the
  rows of ``strong``, and :class:`ResidualOperator` applied to the
  provider's output equals direct evaluation of the consumer (both
  kernel and row-closure filter paths).
* **Roll-up exactness** -- re-aggregating a provider's finalized groups
  into a coarser grouping equals direct aggregation of the consumer,
  value-for-value (exact ``Fraction`` arithmetic) and in the same
  emission order.

Plus the canonicalization satellite: :func:`normalize` never changes the
selected rows, is idempotent, and maps any conjunct permutation to one
signature; and the provider index's contract: whenever ``fold_plan``
folds, consumer and provider have the same :func:`shape_key`.
"""

from fractions import Fraction

from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from repro.query.expr import And, Between, Cmp, InSet, Not, Or
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
from repro.query.subsume import (
    FoldPlan,
    FoldPlanner,
    ResidualOperator,
    and_of,
    conjuncts,
    fold_plan,
    normalize,
    predicate_subsumes,
    shape_key,
    split_range,
)
from repro.storage.schema import Column, Schema
from repro.storage.table import Table

# ----------------------------------------------------------------------
# Strategies: small-int relations over a fixed 3-column schema (values
# collide often, so containment/residual checks exercise real regions).
# ----------------------------------------------------------------------
SCHEMA = Schema([Column("a"), Column("b"), Column("c")], row_bytes=24)

rows_strategy = st.lists(
    st.tuples(st.integers(0, 9), st.integers(-5, 5), st.integers(0, 3)),
    max_size=80,
)

values = st.integers(-6, 10)
col_names = st.sampled_from(["a", "b", "c"])


def leaves(cols=col_names):
    cmps = st.builds(
        Cmp, st.sampled_from(["<", "<=", "=", "!=", ">=", ">"]), cols, values
    )
    betweens = st.builds(
        lambda c, lo, span: Between(c, lo, lo + span),
        cols,
        values,
        st.integers(0, 6),
    )
    insets = st.builds(
        lambda c, vs: InSet(c, tuple(vs)),
        cols,
        st.lists(values, min_size=1, max_size=4),
    )
    return st.one_of(cmps, betweens, insets)


conj_lists = st.lists(leaves(), min_size=1, max_size=4)
predicates = conj_lists.map(and_of)
maybe_predicates = st.one_of(st.none(), predicates)


def passing(pred, rows):
    """Positions of ``rows`` passing ``pred`` (all of them for None)."""
    if pred is None:
        return list(range(len(rows)))
    f = pred.compile(SCHEMA)
    return [i for i, r in enumerate(rows) if f(r)]


# ----------------------------------------------------------------------
# Order properties
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(pred=maybe_predicates)
def test_subsumption_is_reflexive(pred):
    ok, residual = predicate_subsumes(pred, pred)
    assert ok
    assert residual == []


@settings(max_examples=120, deadline=None)
@given(weak=maybe_predicates, extra=conj_lists)
def test_conjunction_strengthening_subsumes(weak, extra):
    strong = and_of(conjuncts(weak) + extra)
    ok, _ = predicate_subsumes(weak, strong)
    assert ok


@settings(max_examples=200, deadline=None)
@given(a=maybe_predicates, b=maybe_predicates, c=maybe_predicates)
def test_subsumption_is_transitive(a, b, c):
    if predicate_subsumes(a, b)[0] and predicate_subsumes(b, c)[0]:
        assert predicate_subsumes(a, c)[0]


# ----------------------------------------------------------------------
# Containment + residual exactness
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(weak=maybe_predicates, strong=maybe_predicates, rows=rows_strategy)
def test_subsumes_implies_row_containment(weak, strong, rows):
    ok, _ = predicate_subsumes(weak, strong)
    if ok:
        assert set(passing(strong, rows)) <= set(passing(weak, rows))


@settings(max_examples=200, deadline=None)
@given(weak=maybe_predicates, extra=conj_lists, rows=rows_strategy)
def test_residual_restores_strong_exactly(weak, extra, rows):
    strong = and_of(conjuncts(weak) + extra)
    ok, residual = predicate_subsumes(weak, strong)
    assert ok
    survivors = passing(weak, rows)
    refined = passing(and_of(residual), [rows[i] for i in survivors])
    assert [survivors[i] for i in refined] == passing(strong, rows)


@settings(max_examples=120, deadline=None)
@given(
    weak=maybe_predicates,
    extra=conj_lists,
    rows=rows_strategy,
)
def test_residual_operator_equals_direct(weak, extra, rows):
    """Streaming the provider's (weak-filtered) rows through the compiled
    ResidualOperator must equal evaluating the consumer's predicate
    directly."""
    strong = and_of(conjuncts(weak) + extra)
    ok, residual = predicate_subsumes(weak, strong)
    assert ok
    op = ResidualOperator(FoldPlan(residual=and_of(residual)), SCHEMA)
    provider_rows = [rows[i] for i in passing(weak, rows)]
    assert op.apply(provider_rows) == [rows[i] for i in passing(strong, rows)]


@settings(max_examples=120, deadline=None)
@given(pred=predicates, rows=rows_strategy)
def test_split_range_is_exact(pred, rows):
    decomposed = split_range(pred)
    if decomposed is None:
        return
    col, lo, hi, residual = decomposed
    rebuilt = and_of([Between(col, lo, hi)] + conjuncts(residual))
    assert passing(rebuilt, rows) == passing(pred, rows)


# ----------------------------------------------------------------------
# Normalization (canonical conjunct form)
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(parts=conj_lists, rows=rows_strategy, data=st.data())
def test_normalize_is_canonical_and_semantics_preserving(parts, rows, data):
    perm = data.draw(st.permutations(parts))
    p1, p2 = and_of(parts), and_of(perm)
    n1, n2 = normalize(p1), normalize(p2)
    # One canonical signature for every author ordering...
    assert n1.signature == n2.signature
    # ...that selects exactly the original rows and is a fixpoint.
    assert passing(n1, rows) == passing(p1, rows)
    assert normalize(n1).signature == n1.signature


@settings(max_examples=80, deadline=None)
@given(parts=conj_lists, rows=rows_strategy)
def test_normalize_handles_negation_and_disjunction(parts, rows):
    pred = Not(Or(and_of(parts), Cmp("=", "a", 0)))
    assert passing(normalize(pred), rows) == passing(pred, rows)


# ----------------------------------------------------------------------
# Roll-up re-aggregation
# ----------------------------------------------------------------------
def _aggs():
    from repro.query.expr import Col

    return (
        AggSpec("sum", Col("c"), "sum_c"),
        AggSpec("count", None, "n"),
        AggSpec("min", Col("c"), "min_c"),
        AggSpec("max", Col("c"), "max_c"),
    )


def direct_agg(rows, group_by, aggs):
    """Reference aggregation: exact Fractions, first-occurrence group
    order (what the engine's hash aggregation emits)."""
    idx = {c.name: i for i, c in enumerate(SCHEMA.columns)}
    groups: dict[tuple, list] = {}
    for r in rows:
        key = tuple(r[idx[g]] for g in group_by)
        acc = groups.get(key)
        if acc is None:
            acc = groups[key] = [None] * len(aggs)
        for i, a in enumerate(aggs):
            v = r[idx[a.expr.name]] if a.expr is not None else None
            if a.func == "sum":
                acc[i] = (acc[i] or Fraction(0)) + Fraction(v)
            elif a.func == "count":
                acc[i] = (acc[i] or Fraction(0)) + Fraction(1)
            elif a.func == "min":
                acc[i] = v if acc[i] is None else min(acc[i], v)
            elif a.func == "max":
                acc[i] = v if acc[i] is None else max(acc[i], v)
    return [key + tuple(acc) for key, acc in groups.items()]


GROUP_SUBSETS = [("a", "b"), ("a",), ("b",), ()]


@settings(max_examples=120, deadline=None)
@given(
    rows=rows_strategy,
    weak=maybe_predicates,
    extra=st.lists(leaves(st.sampled_from(["a", "b"])), max_size=3),
    consumer_groups=st.sampled_from(GROUP_SUBSETS),
    agg_mask=st.integers(1, 15),
)
def test_rollup_reaggregation_equals_direct(
    rows, weak, extra, consumer_groups, agg_mask
):
    """Fold a consumer aggregate into a provider grouped strictly finer:
    the ResidualOperator's absorb/finalize over the provider's finalized
    groups must equal direct aggregation of the consumer's input, exactly
    (Fraction arithmetic) and in the same emission order."""
    aggs = _aggs()
    consumer_aggs = tuple(a for i, a in enumerate(aggs) if agg_mask >> i & 1)
    table = Table("t", SCHEMA, rows)

    def child(pred):
        scan = ScanNode(table)
        return scan if pred is None else SelectNode(scan, pred)

    strong = and_of(conjuncts(weak) + extra)
    provider = AggregateNode(child(weak), ("a", "b"), aggs)
    consumer = AggregateNode(child(strong), consumer_groups, consumer_aggs)
    plan = fold_plan(consumer, provider)
    assume(plan is not None)  # conservative misses are allowed, silence isn't

    provider_out = direct_agg(
        [rows[i] for i in passing(weak, rows)], ("a", "b"), aggs
    )
    op = ResidualOperator(plan, provider.schema)
    if op.regrouping:
        op.absorb(provider_out)
        folded = op.finalize()
    else:
        folded = op.apply(provider_out)
    direct = direct_agg(
        [rows[i] for i in passing(strong, rows)], consumer_groups, consumer_aggs
    )
    assert folded == direct


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, weak=maybe_predicates, extra=conj_lists)
def test_rollup_residual_on_nongroup_column_is_rejected(rows, weak, extra):
    """A residual conjunct on a column the provider did not group by can't
    run over finalized groups; fold_plan must refuse rather than guess."""
    aggs = _aggs()
    table = Table("t", SCHEMA, rows)
    scan = ScanNode(table)
    strong_extra = and_of(conjuncts(weak) + extra + [Cmp(">", "c", 1)])
    provider = AggregateNode(
        scan if weak is None else SelectNode(scan, weak), ("a", "b"), aggs
    )
    consumer = AggregateNode(SelectNode(scan, strong_extra), ("a",), aggs[:1])
    plan = fold_plan(consumer, provider)
    if plan is not None:
        # Only acceptable if c>1 was implied by the weak predicate itself
        # (then it is not part of the residual at all).
        assert plan.residual is None or "c" not in plan.residual.columns()


# ----------------------------------------------------------------------
# Planner ranking
# ----------------------------------------------------------------------
def test_fold_planner_prefers_fewest_residual_terms():
    from repro.query.expr import Col

    aggs = (AggSpec("sum", Col("c"), "sum_c"),)
    table = Table("t", SCHEMA, [(1, 2, 3)])
    scan = ScanNode(table)
    consumer = AggregateNode(
        SelectNode(scan, And(Between("a", 1, 4), Between("b", 0, 2))),
        ("a", "b"),
        aggs,
    )
    far = AggregateNode(scan, ("a", "b"), aggs)  # residual: both conjuncts
    near = AggregateNode(
        SelectNode(scan, Between("a", 1, 4)), ("a", "b"), aggs
    )  # residual: b only
    planner = FoldPlanner(consumer)
    planner.consider(far, "far")
    planner.consider(near, "near")
    token, plan = planner.best()
    assert token == "near"
    assert plan.residual.columns() == {"b"}


# ----------------------------------------------------------------------
# Provider index: the shape-key contract
# ----------------------------------------------------------------------
# Plan pairs over two fact tables (t, u: columns a, b, c) and two
# dimensions (d: k, x; e: j, y).  Each plan is a skeleton -- root kind,
# input kind, join keys, dimension keys, sort keys -- dressed with leaf
# choices: select chains, predicates from small pools, payloads, groupings
# and aggregates.  Half the pairs are a provider and a narrowing of it, so
# the contract is exercised on real folds, not only on misses.
DIM_SCHEMA = Schema([Column("k"), Column("x")], row_bytes=16)
FACTS = {n: Table(n, SCHEMA, [(1, 2, 3)]) for n in ("t", "u")}
DIM = Table("d", DIM_SCHEMA, [(3, 4)])
#: the inner dimension of a nested join tree (distinct column names)
INNER_DIM = Table("e", Schema([Column("j"), Column("y")], row_bytes=16), [(3, 4)])

fact_preds = st.sampled_from(
    [None, Between("a", 0, 5), Between("a", 1, 3), Cmp(">", "b", 0),
     And(Between("a", 1, 3), Cmp(">", "b", 0)), InSet("c", (1, 2))]
)
dim_preds = st.sampled_from(
    [None, Between("x", 0, 5), Between("x", 1, 2), Cmp("=", "k", 3)]
)
inner_dim_preds = st.sampled_from([None, Between("y", 0, 5), Between("y", 1, 2)])

skeletons = st.fixed_dictionaries(
    {
        "root": st.sampled_from(["agg", "sort", "cjoin", "hj", "scan"]),
        "input": st.sampled_from(["scan", "cjoin", "hj"]),
        "fact": st.sampled_from(["t", "u"]),
        "fks": st.sampled_from([("a",), ("b",), ("a", "b")]),
        "probe_key": st.sampled_from(["a", "b"]),
        "nested": st.booleans(),
        "sort_keys": st.sampled_from([(("a", True),), (("b", False),)]),
        "sort_over_agg": st.booleans(),
    }
)


def _chain(draw, node, preds):
    """Wrap ``node`` in zero to two selects."""
    for _ in range(draw(st.integers(0, 2))):
        pred = draw(preds)
        if pred is not None:
            node = SelectNode(node, pred)
    return node


def _cjoin(draw, sk):
    dims = []
    for i, fk in enumerate(sk["fks"]):
        # Output names must stay unique: only the first dimension carries x.
        payload = draw(st.sampled_from([(), ("x",)])) if i == 0 else ()
        dims.append(DimJoinSpec("d", fk, "k", draw(dim_preds), payload))
    fact_payload = draw(st.sampled_from([("a", "b"), ("a", "b", "c")]))
    return CJoinNode(FACTS[sk["fact"]], tuple(dims), fact_payload, draw(fact_preds))


def _hashjoin(draw, sk, nested):
    """``fact JOIN d``; nested: ``(fact JOIN e) JOIN d``."""
    probe = ScanNode(FACTS[sk["fact"]])
    if nested:
        probe = HashJoinNode(
            _chain(draw, probe, fact_preds),
            _chain(draw, ScanNode(INNER_DIM), inner_dim_preds),
            sk["probe_key"],
            "j",
        )
    return HashJoinNode(
        _chain(draw, probe, fact_preds),
        _chain(draw, ScanNode(DIM), dim_preds),
        sk["probe_key"],
        "k",
    )


def _input(draw, sk):
    if sk["input"] == "cjoin":
        base = _cjoin(draw, sk)
    elif sk["input"] == "hj":
        base = _hashjoin(draw, sk, sk["nested"])
    else:
        base = ScanNode(FACTS[sk["fact"]])
    return _chain(draw, base, fact_preds)


def _aggregate(draw, sk):
    aggs = _aggs()
    mask = draw(st.integers(1, 15))
    groups = draw(st.sampled_from(GROUP_SUBSETS))
    return AggregateNode(
        _input(draw, sk), groups, tuple(a for i, a in enumerate(aggs) if mask >> i & 1)
    )


def _plan(draw, sk):
    root = sk["root"]
    if root == "agg":
        return _aggregate(draw, sk)
    if root == "sort":
        child = _aggregate(draw, sk) if sk["sort_over_agg"] else _input(draw, sk)
        return SortNode(child, sk["sort_keys"])
    if root == "cjoin":
        return _cjoin(draw, sk)
    if root == "hj":
        return _hashjoin(draw, sk, sk["nested"])
    return ScanNode(FACTS[sk["fact"]])


#: select predicates that fit the columns above each base table
_POOLS = {"t": fact_preds, "u": fact_preds, "d": dim_preds, "e": inner_dim_preds}


def _narrow_input(draw, node):
    """A stronger version of an operator input: narrowed below, and
    perhaps one more select on top."""
    if isinstance(node, SelectNode):
        inner = SelectNode(_narrow_input(draw, node.child), node.predicate)
    elif isinstance(node, (CJoinNode, HashJoinNode)):
        inner = _narrow(draw, node, project=False)
    else:
        inner = node
    base = node
    while isinstance(base, SelectNode):
        base = base.child
    # A scan takes its table's predicates; star and join outputs have a, b, c.
    pool = _POOLS[base.table.name] if isinstance(base, ScanNode) else fact_preds
    pred = draw(pool)
    return inner if pred is None else SelectNode(inner, pred)


def _narrow(draw, node, project=True):
    """A consumer ``node`` (usually) subsumes: stronger predicates, and for
    aggregates a coarser grouping over a subset of the measures."""
    if isinstance(node, AggregateNode):
        groups = tuple(g for g in node.group_by if draw(st.booleans()))
        aggs = tuple(a for a in node.aggregates if draw(st.booleans())) or node.aggregates[:1]
        return AggregateNode(_narrow_input(draw, node.child), groups, aggs)
    if isinstance(node, SortNode):
        child = node.child
        if isinstance(child, AggregateNode):
            child = _narrow(draw, child)
        else:
            child = _narrow_input(draw, child)
        return SortNode(child, node.keys)
    if isinstance(node, CJoinNode):
        dims = tuple(
            DimJoinSpec(d.dim_table, d.fact_fk, d.dim_key,
                        and_of(conjuncts(d.predicate) + conjuncts(draw(dim_preds))), d.payload)
            for d in node.dims
        )
        payload = node.fact_payload
        if project and len(payload) > 2 and draw(st.booleans()):
            payload = payload[:2]
        fact_pred = and_of(conjuncts(node.fact_predicate) + conjuncts(draw(fact_preds)))
        return CJoinNode(node.fact_table_obj, dims, payload, fact_pred)
    if isinstance(node, HashJoinNode):
        return HashJoinNode(
            _narrow_input(draw, node.probe),
            _narrow_input(draw, node.build),
            node.probe_key,
            node.build_key,
        )
    return node


@st.composite
def plan_pairs(draw):
    """``(consumer, provider)``: mostly a narrowing of the provider (a
    likely fold), else a fresh plan of the same or another skeleton."""
    sk = draw(skeletons)
    provider = _plan(draw, sk)
    how = draw(st.sampled_from(["narrow", "narrow", "same", "other"]))
    if how == "narrow":
        return _narrow(draw, provider), provider
    return _plan(draw, sk if how == "same" else draw(skeletons)), provider


def _star(fact_pred, dim_pred, payload=("x",)):
    return CJoinNode(
        FACTS["t"], (DimJoinSpec("d", "a", "k", dim_pred, payload),), ("a", "b"), fact_pred
    )


def _join(probe_pred, dim_pred):
    probe = ScanNode(FACTS["t"])
    if probe_pred is not None:
        probe = SelectNode(probe, probe_pred)
    return HashJoinNode(probe, SelectNode(ScanNode(DIM), dim_pred), "a", "k")


@settings(max_examples=400, deadline=None)
@given(pair=plan_pairs())
@example(pair=(_star(Between("a", 1, 3), Between("x", 1, 2)), _star(None, Between("x", 0, 5))))
@example(pair=(
    AggregateNode(_star(Between("a", 1, 3), None, ()), ("a",), _aggs()[:1]),
    AggregateNode(_star(None, None, ()), ("a", "b"), _aggs()),
))
@example(pair=(
    SortNode(_join(Cmp(">", "b", 0), Between("x", 1, 2)), (("a", True),)),
    SortNode(_join(None, Between("x", 0, 5)), (("a", True),)),
))
def test_fold_implies_equal_shape_keys(pair):
    """The provider index may only hide providers that could not fold:
    ``fold_plan(c, p) is not None`` implies ``shape_key(c) == shape_key(p)``."""
    consumer, provider = pair
    folded = fold_plan(consumer, provider) is not None
    event("folds" if folded else "does not fold")
    if folded:
        assert shape_key(consumer) == shape_key(provider)


def test_shape_key_erases_predicates_and_separates_kinds():
    narrow = _star(Between("a", 1, 3), Between("x", 1, 2))
    broad = _star(None, None, ())
    assert shape_key(narrow) == shape_key(broad)
    # Node kind, dimension key and join key are part of the shape.
    assert shape_key(narrow) != shape_key(_join(None, Between("x", 1, 2)))
    other_fk = CJoinNode(FACTS["t"], (DimJoinSpec("d", "b", "k"),), ("a", "b"))
    assert shape_key(narrow) != shape_key(other_fk)
    assert shape_key(AggregateNode(narrow, ("a",), _aggs())) != shape_key(
        AggregateNode(_join(None, Between("x", 1, 2)), ("a",), _aggs())
    )
