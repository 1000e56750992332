"""Subsumption lattice over plan signatures: fold similar queries into one.

Every sharing mechanism in this repo -- the Window-of-Opportunity registry
(paper Section 2.3), the shared result cache (:mod:`repro.cache`) and the
shared join arrangements (:mod:`repro.storage.arrangements`) -- matched
plans by *exact* signature equality.  Two concurrent Q3.2 instances that
differ only in a year bound therefore ran fully query-centric even though
one's output strictly contains the other's.  Following GraftDB (*Dynamic
Folding of Concurrent Analytical Queries*) and the coordinated-reuse
argument of Sioulas et al. (*Real-Time Analytics by Coordinating Reuse and
Work Sharing*), this module defines ONE structural subsumption relation
that all three layers consult:

* :func:`predicate_subsumes` -- conjunctive-predicate containment.
  ``weak`` subsumes ``strong`` when every row passing ``strong`` passes
  ``weak`` (per-column interval/set containment for cmp/between/in-set
  conjuncts; opaque shapes must match by signature).  On success it also
  returns the *residual* conjuncts ``R`` with ``strong == weak AND R`` --
  exactly the post-filter a folded consumer must apply to the provider's
  rows.  The check is conservative: it may miss a true containment (a
  missed fold is only a missed optimization) but never reports a false
  one, so folded results are always exact.
* :func:`fold_plan` -- lifts predicate subsumption to whole plan nodes:
  selects over an identical sub-plan, CJOIN stars (per-dimension predicate
  containment + payload projection), hash joins (per-side containment),
  aggregations (group-by set containment with re-aggregable measures) and
  sorts.  Returns a :class:`FoldPlan`: the residual filter, an optional
  output projection and an optional :class:`Regroup` (roll-up
  re-aggregation), or ``None`` when the provider cannot serve the
  consumer.
* :class:`FoldPlanner` -- ranks candidate providers (in-flight hosts,
  cached entries) and keeps the cheapest fold; :class:`ResidualOperator`
  is the compiled runtime form the engine workers stream batches through.
* :func:`normalize` -- canonical conjunct form (sorted parts,
  constant-folded closed bounds), so author ordering never hides an
  equality; :func:`split_range` decomposes a predicate into a closed
  range on one column plus a residual, for the arrangement cache's
  sorted-variant probes.

Everything here is pure bookkeeping over immutable plan/expression
structures -- no simulated time.  The *engine* charges fold-search and
residual-filter work through :class:`~repro.sim.costmodel.CostModel`
(``fold_probe`` / ``fold_attach`` plus the ordinary read/predicate/
aggregate builders) at the consumer sites.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.query.expr import And, Between, Cmp, Col, Const, Expr, InSet, Not, Or
from repro.query.plan import (
    AggregateNode,
    CJoinNode,
    HashJoinNode,
    PlanNode,
    SelectNode,
    SortNode,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.schema import Schema

__all__ = [
    "FoldPlan",
    "FoldPlanner",
    "ProviderIndex",
    "Regroup",
    "ResidualOperator",
    "and_of",
    "conjuncts",
    "constraint_maps",
    "fold_plan",
    "normalize",
    "pin_key",
    "predicate_subsumes",
    "shape_key",
    "split_range",
]


# ---------------------------------------------------------------------------
# Conjunct algebra
# ---------------------------------------------------------------------------
def conjuncts(expr: Expr | None) -> list[Expr]:
    """Flatten a predicate into its top-level conjuncts (nested ``And``
    included).  ``None`` (no predicate) flattens to no conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, And):
        out: list[Expr] = []
        for p in expr.parts:
            out.extend(conjuncts(p))
        return out
    return [expr]


def and_of(parts: Iterable[Expr]) -> Expr | None:
    """Rebuild a conjunction: ``None`` for zero parts, the part itself for
    one, ``And`` otherwise."""
    parts = list(parts)
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return And(*parts)


class _Constraint:
    """The region one column is constrained to by a set of conjuncts:
    an interval (open/closed bounds, ``None`` = unbounded) intersected
    with an optional finite value set."""

    __slots__ = ("lo", "lo_open", "hi", "hi_open", "values")

    def __init__(self):
        self.lo: Any = None
        self.lo_open = False
        self.hi: Any = None
        self.hi_open = False
        self.values: frozenset | None = None

    # -- construction ----------------------------------------------------
    def add_lo(self, v: Any, open_: bool) -> None:
        if self.lo is None or v > self.lo or (v == self.lo and open_):
            self.lo, self.lo_open = v, open_

    def add_hi(self, v: Any, open_: bool) -> None:
        if self.hi is None or v < self.hi or (v == self.hi and open_):
            self.hi, self.hi_open = v, open_

    def add_values(self, vals: Iterable[Any]) -> None:
        vs = frozenset(vals)
        self.values = vs if self.values is None else (self.values & vs)

    def merge(self, other: "_Constraint") -> None:
        """Intersect ``other``'s region into this one."""
        if other.lo is not None:
            self.add_lo(other.lo, other.lo_open)
        if other.hi is not None:
            self.add_hi(other.hi, other.hi_open)
        if other.values is not None:
            self.add_values(other.values)

    # -- membership / containment ----------------------------------------
    def admits(self, x: Any) -> bool:
        """Is value ``x`` inside this region?"""
        if self.values is not None and x not in self.values:
            return False
        if self.lo is not None and (x < self.lo or (x == self.lo and self.lo_open)):
            return False
        if self.hi is not None and (x > self.hi or (x == self.hi and self.hi_open)):
            return False
        return True

    def _interval_contains(self, other: "_Constraint") -> bool:
        if self.lo is not None:
            if other.lo is None:
                return False
            if other.lo < self.lo:
                return False
            if other.lo == self.lo and self.lo_open and not other.lo_open:
                return False
        if self.hi is not None:
            if other.hi is None:
                return False
            if other.hi > self.hi:
                return False
            if other.hi == self.hi and self.hi_open and not other.hi_open:
                return False
        return True

    def contains(self, other: "_Constraint") -> bool:
        """Is ``other``'s region a subset of this one?  Conservative:
        ``False`` on any shape (or type) mismatch it cannot decide."""
        try:
            if other.values is not None:
                # Finite region: check each surviving point directly.
                return all(
                    self.admits(x) for x in other.values if other.admits(x)
                )
            if self.values is not None:
                # A finite set cannot contain a (non-degenerate) interval;
                # the one decidable case is a single-point interval.
                if (
                    other.lo is not None
                    and other.lo == other.hi
                    and not other.lo_open
                    and not other.hi_open
                ):
                    return self.admits(other.lo)
                return False
            return self._interval_contains(other)
        except TypeError:
            return False  # incomparable value types: undecidable, so no


def _classify(conj: Expr) -> tuple[str, _Constraint] | None:
    """``(column, constraint)`` for the supported single-column shapes,
    ``None`` for opaque conjuncts (compared by signature only)."""
    c = _Constraint()
    if isinstance(conj, Between):
        c.add_lo(conj.lo, False)
        c.add_hi(conj.hi, False)
        return conj.col, c
    if isinstance(conj, InSet):
        c.add_values(conj.values)
        return conj.col, c
    if isinstance(conj, Cmp) and isinstance(conj.left, Col) and isinstance(conj.right, Const):
        v = conj.right.value
        if conj.op == "<":
            c.add_hi(v, True)
        elif conj.op == "<=":
            c.add_hi(v, False)
        elif conj.op == ">":
            c.add_lo(v, True)
        elif conj.op == ">=":
            c.add_lo(v, False)
        elif conj.op == "=":
            c.add_values((v,))
        else:  # '!=' has no convex region; treat as opaque
            return None
        return conj.left.name, c
    return None


def _constraint_map(
    parts: list[Expr],
) -> tuple[dict[str, _Constraint], list[Expr]]:
    """Split conjuncts into per-column merged constraints plus the opaque
    leftovers."""
    cols: dict[str, _Constraint] = {}
    opaque: list[Expr] = []
    for p in parts:
        info = _classify(p)
        if info is None:
            opaque.append(p)
            continue
        col, c = info
        merged = cols.get(col)
        if merged is None:
            cols[col] = c
        else:
            merged.merge(c)
    return cols, opaque


class _Parsed:
    """One predicate's conjuncts, parsed once: their signatures, the
    per-column constraint map and the opaque leftovers.  Read-only after
    construction, so one parse serves every test that reuses the
    predicate.  The per-conjunct classification only the *strong* side
    of a test needs is built on first use."""

    __slots__ = ("expr", "sigs", "cols", "opaque_sigs", "_classified")

    def __init__(self, expr: Expr):
        self.expr = expr
        conj = conjuncts(expr)
        self.sigs = tuple(c.signature for c in conj)
        self.cols, opaque = _constraint_map(conj)
        self.opaque_sigs = tuple(o.signature for o in opaque)
        self._classified: list | None = None

    @property
    def classified(self) -> list[tuple[Expr, tuple, tuple[str, _Constraint] | None]]:
        """``(conjunct, signature, classification)`` per conjunct.  Built
        afresh: ``_constraint_map`` merges into the first conjunct's
        constraint, so ``cols`` cannot be reused here."""
        if self._classified is None:
            conj = conjuncts(self.expr)
            self._classified = [(c, sig, _classify(c)) for c, sig in zip(conj, self.sigs)]
        return self._classified


def _predicates(node: PlanNode) -> Iterator[Expr]:
    """Every predicate object in ``node``'s tree: select predicates and
    CJOIN fact and dimension predicates (once per occurrence)."""
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, SelectNode):
            yield n.predicate
        elif isinstance(n, CJoinNode):
            if n.fact_predicate is not None:
                yield n.fact_predicate
            for d in n.dims:
                if d.predicate is not None:
                    yield d.predicate
        stack.extend(n.children)


#: ``id(predicate) -> parse`` for the predicates of one or more plan trees
#: (:func:`constraint_maps`, :attr:`ProviderIndex.parses`).
ConstraintMaps = dict[int, _Parsed]


def constraint_maps(node: PlanNode) -> ConstraintMaps:
    """Parse every predicate in ``node``'s tree once.  Keys are object
    identities, so the maps are valid only while ``node`` is alive: the
    caller keeps them for one fold search, never in a process-wide memo."""
    maps: ConstraintMaps = {}
    for p in _predicates(node):
        if id(p) not in maps:
            maps[id(p)] = _Parsed(p)
    return maps


def _parsed(expr: Expr, maps: ConstraintMaps | None) -> _Parsed:
    if maps is not None:
        hit = maps.get(id(expr))
        if hit is not None:
            return hit
    return _Parsed(expr)


def predicate_subsumes(
    weak: Expr | None,
    strong: Expr | None,
    weak_maps: ConstraintMaps | None = None,
    strong_maps: ConstraintMaps | None = None,
) -> tuple[bool, list[Expr]]:
    """Does ``weak`` subsume ``strong`` -- rows(strong) a subset of
    rows(weak)?  Returns ``(ok, residual)`` where ``residual`` is the list
    of ``strong``'s conjuncts not already implied by ``weak``; on success
    ``weak AND residual`` selects *exactly* the rows of ``strong`` (the
    dropped conjuncts are each implied by ``weak``), so a consumer can run
    the residual as a post-filter over the provider's output.  The optional
    :data:`ConstraintMaps` supply pre-parsed predicates; they never change
    the answer."""
    if weak is None:
        return True, conjuncts(strong)
    if strong is None:
        return False, []
    w = _parsed(weak, weak_maps)
    s = _parsed(strong, strong_maps)
    # Every opaque conjunct of the weak side must literally reappear.
    for sig in w.opaque_sigs:
        if sig not in s.sigs:
            return False, []
    # Every column the weak side constrains must be constrained at least
    # as tightly by the strong side.
    wcols = w.cols
    for col, wc in wcols.items():
        sc = s.cols.get(col)
        if sc is None or not wc.contains(sc):
            return False, []
    # Residual: strong conjuncts not implied by the weak predicate.
    wsigs = w.sigs
    residual: list[Expr] = []
    for cj, sig, info in s.classified:
        if sig in wsigs:
            continue
        if info is not None:
            col, cc = info
            wc = wcols.get(col)
            if wc is not None and cc.contains(wc):
                continue  # weak's own constraint already implies this
        residual.append(cj)
    return True, residual


def split_range(
    predicate: Expr | None, column: str | None = None
) -> tuple[str, Any, Any, Expr | None] | None:
    """Decompose a conjunctive predicate into ``(col, lo, hi, residual)``
    where ``predicate == (lo <= col <= hi) AND residual`` exactly -- the
    shape the arrangement cache's sorted variants probe.  ``column``
    restricts which column the range may be on; ``None`` picks the first
    closed-range conjunct.  Returns ``None`` when no conjunct is a closed
    range (or single-point equality) on an eligible column."""
    parts = conjuncts(predicate)
    for i, p in enumerate(parts):
        col = lo = hi = None
        if isinstance(p, Between):
            col, lo, hi = p.col, p.lo, p.hi
        elif (
            isinstance(p, Cmp)
            and p.op == "="
            and isinstance(p.left, Col)
            and isinstance(p.right, Const)
        ):
            col, lo, hi = p.left.name, p.right.value, p.right.value
        if col is None or (column is not None and col != column):
            continue
        rest = parts[:i] + parts[i + 1 :]
        return col, lo, hi, and_of(rest)
    return None


# ---------------------------------------------------------------------------
# Normalization (canonical conjunct form)
# ---------------------------------------------------------------------------
def _rebuild_closed(col: str, lo: Any, hi: Any) -> Expr:
    if lo is not None and hi is not None:
        if lo == hi:
            return Cmp("=", col, lo)
        return Between(col, lo, hi)
    if lo is not None:
        return Cmp(">=", col, lo)
    return Cmp("<=", col, hi)


def _is_closed_bound(p: Expr) -> tuple[str, Any, Any] | None:
    """``(col, lo, hi)`` for closed-bound shapes (>=, <=, =, between);
    ``None`` for anything else (strict bounds and sets pass through)."""
    if isinstance(p, Between):
        return p.col, p.lo, p.hi
    if isinstance(p, Cmp) and isinstance(p.left, Col) and isinstance(p.right, Const):
        v = p.right.value
        if p.op == ">=":
            return p.left.name, v, None
        if p.op == "<=":
            return p.left.name, None, v
        if p.op == "=":
            return p.left.name, v, v
    return None


def normalize(expr: Expr | None) -> Expr | None:
    """Canonical form of a predicate: conjunctions flatten, closed bounds
    on one column constant-fold into a single range, duplicate conjuncts
    drop, and parts sort by signature.  Together with ``And``'s sorted
    signature this makes structurally equal predicates hash identically
    regardless of author order (``a>1 AND b<2`` == ``b<2 AND a>1``).
    Normalization never changes the selected rows."""
    if expr is None:
        return None
    if isinstance(expr, Not):
        return Not(normalize(expr.part))
    if isinstance(expr, Or):
        parts = [normalize(p) for p in expr.parts]
        seen: dict[tuple, Expr] = {}
        for p in parts:
            seen.setdefault(p.signature, p)
        ordered = [seen[s] for s in sorted(seen, key=repr)]
        return ordered[0] if len(ordered) == 1 else Or(*ordered)
    if not isinstance(expr, And):
        return expr
    flat: list[Expr] = []
    for p in expr.parts:
        np = normalize(p)
        flat.extend(np.parts if isinstance(np, And) else [np])
    # Constant-fold closed bounds per column (lo = max of lowers, hi = min
    # of uppers); strict bounds, sets and opaque conjuncts pass through.
    bounds: dict[str, tuple[Any, Any]] = {}
    order: list[Any] = []  # column name (folded) or Expr (pass-through)
    for p in flat:
        cb = _is_closed_bound(p)
        if cb is None:
            order.append(p)
            continue
        col, lo, hi = cb
        if col not in bounds:
            bounds[col] = (lo, hi)
            order.append(col)
        else:
            plo, phi = bounds[col]
            try:
                if lo is not None:
                    plo = lo if plo is None else max(plo, lo)
                if hi is not None:
                    phi = hi if phi is None else min(phi, hi)
            except TypeError:  # incomparable bound types: keep both as-is
                order.append(p)
                continue
            bounds[col] = (plo, phi)
    rebuilt: list[Expr] = []
    for item in order:
        if isinstance(item, Expr):
            rebuilt.append(item)
        else:
            lo, hi = bounds[item]
            rebuilt.append(_rebuild_closed(item, lo, hi))
    seen = {}
    for p in rebuilt:
        seen.setdefault(p.signature, p)
    ordered = [seen[s] for s in sorted(seen, key=repr)]
    return ordered[0] if len(ordered) == 1 else And(*ordered)


# ---------------------------------------------------------------------------
# Plan-level folding
# ---------------------------------------------------------------------------
#: Aggregate functions whose per-group results can be re-aggregated into
#: coarser groups (count rolls up by summing counts, etc.).  ``avg`` is
#: NOT re-aggregable from finalized values (it would need sum+count).
_ROLLUP = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


@dataclass(frozen=True)
class Regroup:
    """Roll-up re-aggregation of a provider aggregate's finalized groups
    into the consumer's coarser grouping."""

    #: positions of the consumer's group-by columns in the provider's output
    key_idx: tuple[int, ...]
    #: one ``(merge_func, provider_column)`` per consumer aggregate
    measures: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class FoldPlan:
    """How a subsuming provider's output becomes the consumer's result:
    residual filter, then projection or roll-up re-aggregation."""

    #: post-filter over the provider's output rows (None = pass everything)
    residual: Expr | None = None
    #: output projection (positions into the provider's output row);
    #: ``None`` = identity.  Mutually exclusive with ``regroup``.
    project: tuple[int, ...] | None = None
    #: roll-up re-aggregation; ``None`` for plain filter/project folds
    regroup: Regroup | None = None

    @property
    def residual_terms(self) -> int:
        return self.residual.terms if self.residual is not None else 0

    def cost_rank(self) -> tuple[int, int]:
        """Cheapest-provider ordering: fewer residual terms first, pure
        filters before roll-ups (a regroup re-touches every group)."""
        return (self.residual_terms, 1 if self.regroup is not None else 0)


def _schema_names(node: PlanNode) -> list[str]:
    return [c.name for c in node.schema.columns]


def _residual_over(
    residual: list[Expr], available: set[str]
) -> list[Expr] | None:
    """The residual conjuncts, provided every referenced column survives
    into the provider's output (else the fold is impossible)."""
    for r in residual:
        if not r.columns() <= available:
            return None
    return residual


def _unwrap_selects(node: PlanNode) -> tuple[PlanNode, Expr | None]:
    """Strip a chain of SelectNodes, folding predicates into one conjunction
    (same semantics as the engine-side unwrap in ``stages/inputs.py``)."""
    predicate: Expr | None = None
    while isinstance(node, SelectNode):
        predicate = node.predicate if predicate is None else And(node.predicate, predicate)
        node = node.child
    return node, predicate


def _child_residual(
    consumer_child: PlanNode,
    provider_child: PlanNode,
    wm: ConstraintMaps | None = None,
    sm: ConstraintMaps | None = None,
) -> tuple[bool, list[Expr]]:
    """Subsumption between two operator *inputs* (select chains included):
    ``(ok, residual conjuncts over the provider child's output schema)``.
    ``wm`` / ``sm`` are the provider's / consumer's constraint maps."""
    ci, cpred = _unwrap_selects(consumer_child)
    pi, ppred = _unwrap_selects(provider_child)
    if ci.signature == pi.signature:
        return predicate_subsumes(ppred, cpred, wm, sm)
    if isinstance(ci, CJoinNode) and isinstance(pi, CJoinNode):
        # Aggregations over CJOIN outputs: the star itself may subsume.
        plan = _fold_cjoin(ci, pi, wm, sm)
        if plan is None or plan.project is not None:
            # A projection below an aggregation would shift the column
            # positions its exprs resolve against; require equal payloads.
            return False, []
        ok, outer = predicate_subsumes(ppred, cpred, wm, sm)
        if not ok:
            return False, []
        return True, conjuncts(plan.residual) + outer
    if isinstance(ci, HashJoinNode) and isinstance(pi, HashJoinNode):
        # Query-centric join trees: recurse -- a narrower dimension
        # predicate anywhere in the tree surfaces as a residual over the
        # join's output (``_fold_join`` never projects, so column
        # positions are stable for the consuming operator's exprs).
        plan = _fold_join(ci, pi, wm, sm)
        if plan is None:
            return False, []
        ok, outer = predicate_subsumes(ppred, cpred, wm, sm)
        if not ok:
            return False, []
        return True, conjuncts(plan.residual) + outer
    return False, []


def _fold_aggregate(
    consumer: AggregateNode,
    provider: AggregateNode,
    wm: ConstraintMaps | None,
    sm: ConstraintMaps | None,
) -> FoldPlan | None:
    if not set(consumer.group_by) <= set(provider.group_by):
        return None
    n_groups = len(provider.group_by)
    # Map each consumer aggregate onto a provider aggregate with the same
    # function and expression (cheap, so before the input subsumption).
    matches: list[int] = []
    for a in consumer.aggregates:
        want = (a.func, a.expr.signature if a.expr else None)
        for j, p in enumerate(provider.aggregates):
            if (p.func, p.expr.signature if p.expr else None) == want:
                matches.append(n_groups + j)
                break
        else:
            return None
    ok, residual = _child_residual(consumer.child, provider.child, wm, sm)
    if not ok:
        return None
    # The residual runs over the provider's *output groups*, so it may
    # only reference columns the provider grouped by (within one group
    # all rows agree on those columns, making the group-level filter
    # exactly equivalent to the row-level one).
    residual = _residual_over(residual, set(provider.group_by))
    if residual is None:
        return None
    out_names = _schema_names(provider)
    if set(consumer.group_by) == set(provider.group_by):
        # Same grouping: groups pass through (filter + projection only).
        project: tuple[int, ...] | None = tuple(
            [out_names.index(g) for g in consumer.group_by] + matches
        )
        if project == tuple(range(len(project))) and len(project) == len(out_names):
            project = None
        return FoldPlan(residual=and_of(residual), project=project)
    # Proper subset: roll finalized measures up into coarser groups.
    measures = []
    for a, src in zip(consumer.aggregates, matches):
        merge = _ROLLUP.get(a.func)
        if merge is None:
            return None
        measures.append((merge, src))
    regroup = Regroup(
        key_idx=tuple(out_names.index(g) for g in consumer.group_by),
        measures=tuple(measures),
    )
    return FoldPlan(residual=and_of(residual), regroup=regroup)


def _fold_cjoin(
    consumer: CJoinNode,
    provider: CJoinNode,
    wm: ConstraintMaps | None,
    sm: ConstraintMaps | None,
) -> FoldPlan | None:
    if consumer.fact_table != provider.fact_table:
        return None
    if len(consumer.dims) != len(provider.dims):
        return None
    residual: list[Expr] = []
    for cd, pd in zip(consumer.dims, provider.dims):
        if (cd.dim_table, cd.fact_fk, cd.dim_key) != (pd.dim_table, pd.fact_fk, pd.dim_key):
            return None
        if not set(cd.payload) <= set(pd.payload):
            return None
        ok, res = predicate_subsumes(pd.predicate, cd.predicate, wm, sm)
        if not ok:
            return None
        residual.extend(res)
    if not set(consumer.fact_payload) <= set(provider.fact_payload):
        return None
    ok, res = predicate_subsumes(provider.fact_predicate, consumer.fact_predicate, wm, sm)
    if not ok:
        return None
    residual.extend(res)
    # Only a star that subsumes pays for its output schema.
    out_names = _schema_names(provider)
    if len(set(out_names)) != len(out_names):
        return None  # ambiguous column names: cannot resolve a residual
    checked = _residual_over(residual, set(out_names))
    if checked is None:
        return None
    consumer_names = _schema_names(consumer)
    if consumer_names == out_names:
        project = None
    else:
        project = tuple(out_names.index(n) for n in consumer_names)
    return FoldPlan(residual=and_of(checked), project=project)


def _fold_join(
    consumer: HashJoinNode,
    provider: HashJoinNode,
    wm: ConstraintMaps | None,
    sm: ConstraintMaps | None,
) -> FoldPlan | None:
    if (consumer.probe_key, consumer.build_key) != (provider.probe_key, provider.build_key):
        return None
    ok_p, res_p = _child_residual(consumer.probe, provider.probe, wm, sm)
    if not ok_p:
        return None
    ok_b, res_b = _child_residual(consumer.build, provider.build, wm, sm)
    if not ok_b:
        return None
    out_names = _schema_names(provider)
    if len(set(out_names)) != len(out_names):
        return None
    checked = _residual_over(res_p + res_b, set(out_names))
    if checked is None:
        return None
    return FoldPlan(residual=and_of(checked))


def _fold_sort(
    consumer: SortNode,
    provider: SortNode,
    wm: ConstraintMaps | None,
    sm: ConstraintMaps | None,
) -> FoldPlan | None:
    if consumer.keys != provider.keys:
        return None
    ok, res = _child_residual(consumer.child, provider.child, wm, sm)
    if not ok:
        return None
    out_names = _schema_names(provider)
    checked = _residual_over(res, set(out_names))
    if checked is None:
        return None
    # A filter of a sorted stream is sorted: no re-sort needed.
    return FoldPlan(residual=and_of(checked))


def fold_plan(
    consumer: PlanNode,
    provider: PlanNode,
    provider_maps: ConstraintMaps | None = None,
    consumer_maps: ConstraintMaps | None = None,
) -> FoldPlan | None:
    """A :class:`FoldPlan` turning ``provider``'s output into exactly
    ``consumer``'s, or ``None`` when ``provider`` does not subsume it.
    Both arguments are stage-root nodes (never ``SelectNode`` roots).
    The optional :func:`constraint_maps` of either tree spare re-parsing
    its predicates; they never change the answer."""
    if consumer.signature == provider.signature:
        return FoldPlan()
    wm, sm = provider_maps, consumer_maps
    if isinstance(consumer, AggregateNode) and isinstance(provider, AggregateNode):
        return _fold_aggregate(consumer, provider, wm, sm)
    if isinstance(consumer, CJoinNode) and isinstance(provider, CJoinNode):
        return _fold_cjoin(consumer, provider, wm, sm)
    if isinstance(consumer, HashJoinNode) and isinstance(provider, HashJoinNode):
        return _fold_join(consumer, provider, wm, sm)
    if isinstance(consumer, SortNode) and isinstance(provider, SortNode):
        return _fold_sort(consumer, provider, wm, sm)
    return None


# ---------------------------------------------------------------------------
# Provider index: shape keys
# ---------------------------------------------------------------------------
def shape_key(node: PlanNode) -> tuple:
    """The plan skeleton of ``node`` with predicates, payloads, projections
    and group-by columns erased -- everything :func:`fold_plan` requires
    to be *equal* between consumer and provider.  Contract: if
    ``fold_plan(c, p)`` is not ``None`` then ``shape_key(c) ==
    shape_key(p)``, so an index bucketed by shape only ever hides
    providers that could not have folded anyway."""
    if isinstance(node, AggregateNode):
        return ("agg", _input_shape(node.child))
    if isinstance(node, CJoinNode):
        return (
            "cjoin",
            node.fact_table,
            tuple((d.dim_table, d.fact_fk, d.dim_key) for d in node.dims),
        )
    if isinstance(node, HashJoinNode):
        return (
            "hj",
            node.probe_key,
            node.build_key,
            _input_shape(node.probe),
            _input_shape(node.build),
        )
    if isinstance(node, SortNode):
        return ("sort", node.keys, _input_shape(node.child))
    return node.signature  # other roots fold only when identical


def _input_shape(node: PlanNode) -> tuple:
    """Shape of an operator input, mirroring :func:`_child_residual`:
    select chains unwrap, star and join inputs recurse, and any other
    input must match exactly."""
    while isinstance(node, SelectNode):
        node = node.child
    if isinstance(node, (CJoinNode, HashJoinNode)):
        return shape_key(node)
    return node.signature


# ---------------------------------------------------------------------------
# Provider index: pinned values
# ---------------------------------------------------------------------------
#: One predicate slot's per-column constraints; ``None`` when the slot's
#: select chain cannot be merged (incomparable bounds), so it pins nothing.
_SlotCols = dict[str, _Constraint] | None


def _slots(node: PlanNode, maps: ConstraintMaps | None) -> list[_SlotCols]:
    """The per-column constraints of every predicate slot :func:`fold_plan`
    pairs up, in a fixed walk order: the select chain of each operator
    input (after :func:`_unwrap_selects`), then, for a star input or root,
    each dimension predicate and the fact predicate; join inputs recurse.
    Two nodes of one :func:`shape_key` have aligned slot lists."""
    out: list[_SlotCols] = []
    _root_slots(node, maps, out)
    return out


def _root_slots(node: PlanNode, maps: ConstraintMaps | None, out: list) -> None:
    if isinstance(node, (AggregateNode, SortNode)):
        _input_slots(node.child, maps, out)
    elif isinstance(node, CJoinNode):
        for d in node.dims:
            out.append(_slot_cols([d.predicate], maps))
        out.append(_slot_cols([node.fact_predicate], maps))
    elif isinstance(node, HashJoinNode):
        _input_slots(node.probe, maps, out)
        _input_slots(node.build, maps, out)


def _input_slots(node: PlanNode, maps: ConstraintMaps | None, out: list) -> None:
    chain = []
    while isinstance(node, SelectNode):
        chain.append(node.predicate)
        node = node.child
    out.append(_slot_cols(chain, maps))
    if isinstance(node, (CJoinNode, HashJoinNode)):
        _root_slots(node, maps, out)


def _slot_cols(preds: list[Expr | None], maps: ConstraintMaps | None) -> _SlotCols:
    """The merged per-column constraints of a slot's predicates, from
    their parses (a single predicate's map is shared, not copied)."""
    parses = [_parsed(p, maps) for p in preds if p is not None]
    if not parses:
        return {}
    if len(parses) == 1:
        return parses[0].cols
    merged: dict[str, _Constraint] = {}
    try:
        for parsed in parses:
            for col, c in parsed.cols.items():
                merged.setdefault(col, _Constraint()).merge(c)
    except TypeError:
        return None
    return merged


def pin_key(node: PlanNode, maps: ConstraintMaps | None = None) -> tuple[tuple, tuple]:
    """``(pinned columns, pinned values)`` of a provider: every predicate
    slot's single-value equality constraints (``=`` or a one-element set),
    as ``(slot, column)`` pairs and the values, in slot then column order.
    A consumer whose region on a pinned column is one *other* value, or
    who leaves a pinned column unconstrained, cannot be folded by this
    provider (:meth:`FoldPlanner.pin_probe`)."""
    cols: list[tuple[int, str]] = []
    vals: list[Any] = []
    for i, slot in enumerate(_slots(node, maps)):
        if not slot:
            continue
        for col in sorted(slot):
            vs = slot[col].values
            if vs is not None and len(vs) == 1:
                cols.append((i, col))
                vals.extend(vs)
    return tuple(cols), tuple(vals)


def _point(c: _Constraint) -> tuple | None:
    """``(v,)`` when ``c``'s region is exactly the single value ``v``."""
    if c.values is None or len(c.values) != 1:
        return None
    (v,) = c.values
    try:
        return (v,) if c.admits(v) else None
    except TypeError:  # incomparable bounds: undecidable
        return None


class ProviderIndex:
    """Fold providers (a result cache's entries) indexed for search.  They
    are bucketed by :func:`shape_key`, then grouped by their pinned
    columns and values (:func:`pin_key`), so a consumer tests only the
    providers whose shape and equality predicates could subsume it
    (:meth:`candidates`).  Their predicates are parsed once, into
    :attr:`parses`.  Providers that share predicate objects -- the sort,
    aggregate and star entries one query leaves behind -- share a parse.
    Parses are reference counted: a parse, and the predicate it keeps
    alive, lives exactly as long as some provider holds that predicate, so an
    identity key never goes stale.  Kept per owner, never process-wide."""

    __slots__ = ("parses", "_refs", "_buckets", "_size")

    def __init__(self) -> None:
        #: the providers' predicates, parsed (pass as ``provider_maps``)
        self.parses: ConstraintMaps = {}
        self._refs: dict[int, int] = {}
        #: shape -> pinned columns -> pinned values -> {key: token}
        self._buckets: dict[tuple, dict[tuple, dict[tuple, dict[Any, Any]]]] = {}
        self._size = 0

    def add(self, key: Any, node: PlanNode, token: Any) -> None:
        """Register provider ``token`` under ``key`` (unique per index)."""
        for p in _predicates(node):
            k = id(p)
            if k in self._refs:
                self._refs[k] += 1
            else:
                self._refs[k] = 1
                self.parses[k] = _Parsed(p)
        cols, vals = pin_key(node, self.parses)
        groups = self._buckets.setdefault(shape_key(node), {})
        groups.setdefault(cols, {}).setdefault(vals, {})[key] = token
        self._size += 1

    def remove(self, key: Any, node: PlanNode) -> None:
        """Undo :meth:`add` of ``key``, whose plan is ``node``."""
        # Shape and pins recomputed: rare, and saves keys per provider.
        shape = shape_key(node)
        cols, vals = pin_key(node, self.parses)
        groups = self._buckets[shape]
        by_vals = groups[cols]
        providers = by_vals[vals]
        del providers[key]
        if not providers:
            del by_vals[vals]
            if not by_vals:
                del groups[cols]
                if not groups:
                    del self._buckets[shape]
        self._size -= 1
        for p in _predicates(node):
            k = id(p)
            self._refs[k] -= 1
            if not self._refs[k]:
                del self._refs[k]
                del self.parses[k]

    def candidates(self, planner: "FoldPlanner", exclude: Any = None) -> list:
        """The providers that may fold ``planner``'s node, except the one
        under key ``exclude``: its shape bucket minus every pinned group
        :meth:`FoldPlanner.pin_probe` rules out.  Every provider hidden
        here has ``fold_plan(...) is None``."""
        groups = self._buckets.get(planner.shape)
        if not groups:
            return []
        out = []
        for cols, by_vals in groups.items():
            probe = planner.pin_probe(cols)
            if probe is False:
                continue
            if probe is True:
                subs: Iterable[dict] = by_vals.values()
            else:
                sub = by_vals.get(probe)
                subs = (sub,) if sub else ()
            for sub in subs:
                out.extend(t for k, t in sub.items() if k != exclude)
        return out

    def clear(self) -> None:
        self.parses.clear()
        self._refs.clear()
        self._buckets.clear()
        self._size = 0

    def __len__(self) -> int:
        return self._size


# ---------------------------------------------------------------------------
# Planner + runtime operator
# ---------------------------------------------------------------------------
class FoldPlanner:
    """Ranks candidate providers for one consumer node and keeps the
    cheapest fold.  ``examined`` counts the candidates the search covered
    so the engine can charge ``CostModel.fold_probe`` per candidate: both
    those tested by :meth:`consider` and those a shape or pin index ruled
    out unseen (:meth:`skip`), so indexing changes host time, never the
    bill."""

    __slots__ = ("node", "shape", "examined", "_best", "_maps", "_slots", "_probes")

    def __init__(self, node: PlanNode):
        self.node = node
        #: the consumer's :func:`shape_key`: only providers of this shape
        #: can fold it
        self.shape = shape_key(node)
        self.examined = 0
        self._best: tuple[tuple, Any, FoldPlan] | None = None
        self._maps: ConstraintMaps | None = None  # parsed on first use
        self._slots: list[_SlotCols] | None = None
        self._probes: dict[tuple, tuple | bool] = {}  # pinned columns -> pin_probe

    @property
    def maps(self) -> ConstraintMaps:
        """The consumer's :func:`constraint_maps`, parsed on first use."""
        if self._maps is None:
            self._maps = constraint_maps(self.node)
        return self._maps

    def pin_probe(self, cols: tuple) -> tuple | bool:
        """Which providers pinned on ``cols`` (a :func:`pin_key` column
        tuple) may fold the consumer: ``False`` -- none, the consumer
        leaves one of those columns unconstrained; a values tuple -- only
        providers pinned to exactly those values, the consumer's own
        single value on every column; ``True`` -- any of them (a
        multi-value set, an interval, or an empty region somewhere)."""
        hit = self._probes.get(cols)
        if hit is not None:
            return hit
        if self._slots is None:
            self._slots = _slots(self.node, self.maps)
        vals: list[Any] | None = []
        for i, col in cols:
            slot = self._slots[i]
            c = slot.get(col) if slot is not None else None
            if slot is not None and c is None:
                probe: tuple | bool = False  # predicate_subsumes fails here
                break
            point = None if c is None or vals is None else _point(c)
            if point is None:
                vals = None  # test them all, unless a later column hides
            else:
                vals.append(point[0])
        else:
            probe = True if vals is None else tuple(vals)
        self._probes[cols] = probe
        return probe

    def may_fold(self, pins: tuple[tuple, tuple]) -> bool:
        """The :meth:`pin_probe` rule for one provider's :func:`pin_key`."""
        probe = self.pin_probe(pins[0])
        return probe is True or probe == pins[1]

    def consider(
        self,
        provider_node: PlanNode,
        token: Any,
        tie_break: tuple = (),
        provider_maps: ConstraintMaps | None = None,
    ) -> None:
        """Test one provider; ``token`` is handed back by :meth:`best`.
        ``tie_break`` orders equal-cost folds deterministically (e.g.
        registration order, cache bytes); ``provider_maps`` holds the
        provider's pre-parsed predicates, if kept
        (:attr:`ProviderIndex.parses`)."""
        self.examined += 1
        plan = fold_plan(self.node, provider_node, provider_maps, self.maps)
        if plan is None:
            return
        score = plan.cost_rank() + tie_break + (self.examined,)
        if self._best is None or score < self._best[0]:
            self._best = (score, token, plan)

    def skip(self, n: int = 1) -> None:
        """Count ``n`` providers ruled out by shape or pins without a test."""
        self.examined += n

    def best(self) -> tuple[Any, FoldPlan] | None:
        if self._best is None:
            return None
        return self._best[1], self._best[2]


_MERGE: dict[str, Callable[[Any, Any], Any]] = {
    "sum": operator.add,
    "min": min,
    "max": max,
}


class ResidualOperator:
    """Compiled runtime form of a :class:`FoldPlan`: stream the provider's
    output batches through the residual filter, then project rows or roll
    groups up.  Row order (and, for roll-ups, accumulation order) matches
    what direct evaluation would produce, so folded results are exact."""

    __slots__ = ("plan", "_filter", "_project", "_groups", "_measures", "_key_idx")

    def __init__(self, plan: FoldPlan, provider_schema: "Schema"):
        self.plan = plan
        self._filter: Callable[[list], list] | None = None
        if plan.residual is not None:
            self._filter = plan.residual.compile_batch(provider_schema)
        self._project: Callable[[tuple], tuple] | None = None
        if plan.project is not None:
            idx = plan.project
            if len(idx) > 1:
                self._project = operator.itemgetter(*idx)
            else:
                i = idx[0]
                self._project = lambda r, _i=i: (r[_i],)
        self._groups: dict[tuple, list] | None = None
        self._measures: tuple[tuple[str, int], ...] = ()
        self._key_idx: tuple[int, ...] = ()
        if plan.regroup is not None:
            self._groups = {}
            self._measures = plan.regroup.measures
            self._key_idx = plan.regroup.key_idx

    @property
    def regrouping(self) -> bool:
        return self._groups is not None

    @property
    def n_measures(self) -> int:
        return max(len(self._measures), 1)

    def apply(self, rows: list) -> list:
        """Filter + project one batch (non-regroup folds)."""
        if self._filter is not None:
            rows = self._filter(rows)
        if self._project is not None and rows:
            proj = self._project
            rows = [proj(r) for r in rows]
        return rows

    def absorb(self, rows: list) -> int:
        """Filter one batch of finalized provider groups and merge them
        into the coarser grouping; returns how many groups were merged
        (for cost charging)."""
        if self._filter is not None:
            rows = self._filter(rows)
        groups = self._groups
        key_idx = self._key_idx
        measures = self._measures
        key_of = (
            operator.itemgetter(*key_idx)
            if len(key_idx) > 1
            else (lambda r, _i=key_idx[0]: (r[_i],))
            if key_idx
            else (lambda r: ())
        )
        for r in rows:
            key = key_of(r)
            if not isinstance(key, tuple):
                key = (key,)
            acc = groups.get(key)
            if acc is None:
                groups[key] = [r[src] for _, src in measures]
            else:
                for i, (merge, src) in enumerate(measures):
                    acc[i] = _MERGE[merge](acc[i], r[src])
        return len(rows)

    def finalize(self) -> list:
        """The rolled-up output rows, in provider first-occurrence order
        (the same order direct aggregation would emit)."""
        return [key + tuple(acc) for key, acc in self._groups.items()]
