"""Scalar expressions over rows.

Expressions are small immutable ASTs with four capabilities:

* ``compile(schema)`` -- build a fast ``row -> value`` closure (predicates
  are evaluated millions of times; attribute lookups are hoisted out);
* ``compile_batch(schema)`` -- build a *batch kernel* evaluating the
  predicate over a whole sequence of rows in one call (see below);
* ``signature`` -- a canonical, hashable encoding used for common-sub-plan
  detection (two predicates share iff their signatures are equal);
* ``terms`` -- the number of primitive comparisons, used by the cost model
  to charge predicate-evaluation cycles.

Batch kernels
-------------
``compile_batch(schema)`` returns ``rows -> list of passing rows``;
``compile_batch(schema, indices=True)`` returns ``rows -> list of passing
indices`` (for callers that filter parallel lists, e.g. CJOIN's
distributor).  The hot shapes -- single-column comparison against a
constant, inclusive range, set membership, and conjunctions of those --
compile to a single list comprehension with the column index and constants
hoisted into the closure, amortizing the per-row interpretation cost the
same way vectorized engines amortize per-tuple interpretation over blocks.
Every other shape falls back to wrapping the row closure, so the kernel is
*always* semantically identical to filtering with ``compile``: it selects
exactly the same rows in the same order (the batch-kernel property suite
holds every shape to that).

Column kernels
--------------
``compile_cols(schema)`` is the columnar-page counterpart: it returns a
kernel ``(col_of, n, sel=None) -> passing positions`` that evaluates the
predicate directly over column vectors -- ``col_of(i)`` yields logical
column ``i`` of a batch, ``sel`` restricts evaluation to a previous pass's
survivors (conjunctions cascade selection vectors instead of rebuilding
rows).  The pass positions equal the positions row-wise evaluation would
keep, in the same order (the property suite in ``tests/storage`` holds
arbitrary schemas/predicates to that).  Shapes without a column form
return ``None`` and the caller falls back to the row kernel.

When a column arrives dictionary-encoded (packed storage, see
:mod:`repro.storage.packed`), the leaf kernels switch to
predicate-on-dictionary evaluation: the predicate is applied once per
*distinct value* into a 256-byte pass table memoized on the shared
``Dictionary`` by the predicate's signature, then a full page filters
with one C-level ``codes.translate`` + ``itertools.compress`` pass and a
refinement pass indexes codes only.  Survivor positions and order are
unchanged, so this is invisible to simulated results.

Mask kernels
------------
``compile_mask(schema)`` returns ``(col_of, n) -> int bitmap | None``:
the predicate's live mask over a full batch, built from per-column
predicate bitmaps memoized on dictionary columns (``mask_for``).
Conjunction/disjunction/negation become single-int ``&``/``|``/``^``
operations, which also gives ``Or``/``Not`` a columnar form.  A kernel
returns ``None`` at call time when some referenced column is not
dictionary-encoded; callers then fall back to ``compile_cols`` /
``compile_batch``.  Masks select exactly the positions row-wise
evaluation keeps.

The module also hosts the shared schema->column-index helpers
(:func:`column_indices`, :func:`row_key_fn`, :func:`value_column`) that
the aggregation stage, the CJOIN distributor and the consumer-side inputs
previously each rebuilt by hand."""

from __future__ import annotations

import operator
from itertools import compress
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.storage.packed import DictColumn

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.schema import Schema

_CMP_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
}

_ARITH_OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

# Batch-kernel factories for single-column comparisons against a constant:
# the comparison is inlined in the comprehension (no per-row function call).
_BATCH_CMP_ROWS: dict[str, Callable[[int, Any], Callable]] = {
    "<": lambda i, v: lambda rows: [r for r in rows if r[i] < v],
    "<=": lambda i, v: lambda rows: [r for r in rows if r[i] <= v],
    "=": lambda i, v: lambda rows: [r for r in rows if r[i] == v],
    "!=": lambda i, v: lambda rows: [r for r in rows if r[i] != v],
    ">=": lambda i, v: lambda rows: [r for r in rows if r[i] >= v],
    ">": lambda i, v: lambda rows: [r for r in rows if r[i] > v],
}

_BATCH_CMP_IDX: dict[str, Callable[[int, Any], Callable]] = {
    "<": lambda i, v: lambda rows: [j for j, r in enumerate(rows) if r[i] < v],
    "<=": lambda i, v: lambda rows: [j for j, r in enumerate(rows) if r[i] <= v],
    "=": lambda i, v: lambda rows: [j for j, r in enumerate(rows) if r[i] == v],
    "!=": lambda i, v: lambda rows: [j for j, r in enumerate(rows) if r[i] != v],
    ">=": lambda i, v: lambda rows: [j for j, r in enumerate(rows) if r[i] >= v],
    ">": lambda i, v: lambda rows: [j for j, r in enumerate(rows) if r[i] > v],
}

# Column-kernel factories: evaluate over a column vector and return pass
# positions.  One pair per operator -- a full-column scan (enumerate) and a
# selection-vector refinement (indexing into the column).
_COL_CMP_FULL: dict[str, Callable[[Any], Callable]] = {
    "<": lambda v: lambda c: [j for j, x in enumerate(c) if x < v],
    "<=": lambda v: lambda c: [j for j, x in enumerate(c) if x <= v],
    "=": lambda v: lambda c: [j for j, x in enumerate(c) if x == v],
    "!=": lambda v: lambda c: [j for j, x in enumerate(c) if x != v],
    ">=": lambda v: lambda c: [j for j, x in enumerate(c) if x >= v],
    ">": lambda v: lambda c: [j for j, x in enumerate(c) if x > v],
}

_COL_CMP_SEL: dict[str, Callable[[Any], Callable]] = {
    "<": lambda v: lambda c, sel: [j for j in sel if c[j] < v],
    "<=": lambda v: lambda c, sel: [j for j in sel if c[j] <= v],
    "=": lambda v: lambda c, sel: [j for j in sel if c[j] == v],
    "!=": lambda v: lambda c, sel: [j for j in sel if c[j] != v],
    ">=": lambda v: lambda c, sel: [j for j in sel if c[j] >= v],
    ">": lambda v: lambda c, sel: [j for j in sel if c[j] > v],
}


def _col_kernel(
    i: int, full: Callable, refine: Callable, key: Any, value_pred: Callable
) -> Callable:
    """Assemble a column kernel from a full-scan and a refinement pass.

    ``key`` (the predicate's signature) and ``value_pred`` (a plain
    ``value -> bool`` closure) power the dictionary fast path: when the
    column arrives dictionary-encoded, the predicate is folded into a
    pass table once per (table, predicate) and pages filter on raw code
    bytes -- same survivors, same order."""

    def kernel(col_of: Callable, n: int, sel=None) -> list:
        c = col_of(i)
        if type(c) is DictColumn:
            table = c.dictionary.pass_table(key, value_pred)
            codes = c.codes
            if sel is None:
                return list(compress(range(n), codes.translate(table)))
            return [j for j in sel if table[codes[j]]]
        return full(c) if sel is None else refine(c, sel)

    return kernel


def _mask_kernel(i: int, key: Any, value_pred: Callable) -> Callable:
    """A leaf mask kernel: the predicate's bitmap over a full batch,
    memoized per dictionary column by predicate signature.  Returns
    ``None`` at call time for non-dictionary columns (caller falls back
    to selection-vector kernels)."""

    def kernel(col_of: Callable, n: int) -> int | None:
        c = col_of(i)
        if type(c) is DictColumn:
            return c.mask_for(key, value_pred)
        return None

    return kernel


# ----------------------------------------------------------------------
# Shared schema->column-index resolution (one home for the itemgetter
# construction the stages used to repeat).
# ----------------------------------------------------------------------
def column_indices(schema: "Schema", names: Sequence[str]) -> tuple[int, ...]:
    """Tuple positions of ``names`` in ``schema`` (in the given order)."""
    return tuple(schema.index(n) for n in names)


def row_key_fn(indices: Sequence[int]) -> Callable[[tuple], tuple]:
    """A ``row -> key tuple`` extractor for the given column positions.

    Keys are always tuples -- including the one-column case (callers
    concatenate them into output rows) and the empty grouping (a single
    global group) -- and multi-column extraction is a single C-level
    ``itemgetter`` call."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    if indices:
        i = indices[0]
        return lambda r, _i=i: (r[_i],)
    return lambda r: ()


def value_column(expr: "Expr", schema: "Schema", column_of: Callable, n: int):
    """Evaluate ``expr`` as one column vector over a columnar batch.

    ``column_of(i)`` yields logical column ``i`` (position-aligned).
    Returns ``None`` when the shape has no column form (caller falls back
    to row-wise evaluation); otherwise the result equals
    ``[expr.compile(schema)(r) for r in rows]`` element for element."""
    if isinstance(expr, Col):
        return column_of(schema.index(expr.name))
    if isinstance(expr, Const):
        return [expr.value] * n
    if isinstance(expr, Arith):
        lhs = value_column(expr.left, schema, column_of, n)
        if lhs is None:
            return None
        rhs = value_column(expr.right, schema, column_of, n)
        if rhs is None:
            return None
        return list(map(_ARITH_OPS[expr.op], lhs, rhs))
    return None


class Expr:
    """Base class for scalar expressions."""

    __slots__ = ()

    def compile(self, schema: "Schema") -> Callable[[tuple], Any]:
        raise NotImplementedError

    def compile_batch(
        self, schema: "Schema", indices: bool = False
    ) -> Callable[[Sequence[tuple]], list]:
        """Batch selection kernel (see module docstring).

        Generic fallback: wrap the row closure.  Subclasses with a hot
        shape override this with a fused one-pass comprehension."""
        pred = self.compile(schema)
        if indices:
            return lambda rows: [i for i, r in enumerate(rows) if pred(r)]
        return lambda rows: [r for r in rows if pred(r)]

    def compile_cols(self, schema: "Schema") -> Callable | None:
        """Column selection kernel (see module docstring), or ``None`` when
        this shape has no column form and the caller must fall back to the
        row kernel."""
        return None

    def compile_mask(self, schema: "Schema") -> Callable | None:
        """Mask kernel ``(col_of, n) -> int bitmap | None`` (see module
        docstring), or ``None`` when this shape has no mask form.  The
        kernel itself returns ``None`` at call time when a referenced
        column is not dictionary-encoded."""
        return None

    @property
    def signature(self) -> tuple:
        raise NotImplementedError

    @property
    def terms(self) -> int:
        """Number of primitive predicate terms (for cost charging)."""
        return 1

    def columns(self) -> frozenset[str]:
        raise NotImplementedError

    # Equality/hash by signature: predicates compare structurally.
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Expr) and self.signature == other.signature

    def __hash__(self) -> int:
        return hash(self.signature)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}{self.signature!r}"


class Col(Expr):
    """A column reference."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def compile(self, schema: "Schema") -> Callable[[tuple], Any]:
        # itemgetter is a single C-level call per row (no frame push).
        return operator.itemgetter(schema.index(self.name))

    @property
    def signature(self) -> tuple:
        return ("col", self.name)

    @property
    def terms(self) -> int:
        return 0

    def columns(self) -> frozenset[str]:
        return frozenset((self.name,))


class Const(Expr):
    """A literal constant."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def compile(self, schema: "Schema") -> Callable[[tuple], Any]:
        v = self.value
        return lambda row: v

    @property
    def signature(self) -> tuple:
        return ("const", self.value)

    @property
    def terms(self) -> int:
        return 0

    def columns(self) -> frozenset[str]:
        return frozenset()


class Cmp(Expr):
    """Binary comparison ``left <op> right``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr | str, right: Expr | Any):
        if op not in _CMP_OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = Col(left) if isinstance(left, str) else left
        self.right = right if isinstance(right, Expr) else Const(right)

    def compile(self, schema: "Schema") -> Callable[[tuple], bool]:
        f = _CMP_OPS[self.op]
        lhs = self.left.compile(schema)
        rhs = self.right.compile(schema)
        return lambda row: f(lhs(row), rhs(row))

    def compile_batch(
        self, schema: "Schema", indices: bool = False
    ) -> Callable[[Sequence[tuple]], list]:
        if isinstance(self.left, Col) and isinstance(self.right, Const):
            factory = (_BATCH_CMP_IDX if indices else _BATCH_CMP_ROWS)[self.op]
            return factory(schema.index(self.left.name), self.right.value)
        return super().compile_batch(schema, indices)

    def _value_pred(self) -> Callable[[Any], bool]:
        f = _CMP_OPS[self.op]
        v = self.right.value  # type: ignore[union-attr]
        return lambda x: f(x, v)

    def compile_cols(self, schema: "Schema") -> Callable | None:
        if isinstance(self.left, Col) and isinstance(self.right, Const):
            v = self.right.value
            return _col_kernel(
                schema.index(self.left.name),
                _COL_CMP_FULL[self.op](v),
                _COL_CMP_SEL[self.op](v),
                self.signature,
                self._value_pred(),
            )
        return None

    def compile_mask(self, schema: "Schema") -> Callable | None:
        if isinstance(self.left, Col) and isinstance(self.right, Const):
            return _mask_kernel(
                schema.index(self.left.name), self.signature, self._value_pred()
            )
        return None

    @property
    def signature(self) -> tuple:
        return ("cmp", self.op, self.left.signature, self.right.signature)

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()


class Between(Expr):
    """Inclusive range predicate ``lo <= col <= hi``."""

    __slots__ = ("col", "lo", "hi")

    def __init__(self, col: str, lo: Any, hi: Any):
        self.col = col
        self.lo = lo
        self.hi = hi

    def compile(self, schema: "Schema") -> Callable[[tuple], bool]:
        i = schema.index(self.col)
        lo, hi = self.lo, self.hi
        return lambda row: lo <= row[i] <= hi

    def compile_batch(
        self, schema: "Schema", indices: bool = False
    ) -> Callable[[Sequence[tuple]], list]:
        i = schema.index(self.col)
        lo, hi = self.lo, self.hi
        if indices:
            return lambda rows: [j for j, r in enumerate(rows) if lo <= r[i] <= hi]
        return lambda rows: [r for r in rows if lo <= r[i] <= hi]

    def compile_cols(self, schema: "Schema") -> Callable | None:
        lo, hi = self.lo, self.hi
        return _col_kernel(
            schema.index(self.col),
            lambda c: [j for j, x in enumerate(c) if lo <= x <= hi],
            lambda c, sel: [j for j in sel if lo <= c[j] <= hi],
            self.signature,
            lambda x: lo <= x <= hi,
        )

    def compile_mask(self, schema: "Schema") -> Callable | None:
        lo, hi = self.lo, self.hi
        return _mask_kernel(
            schema.index(self.col), self.signature, lambda x: lo <= x <= hi
        )

    @property
    def signature(self) -> tuple:
        return ("between", self.col, self.lo, self.hi)

    @property
    def terms(self) -> int:
        return 2

    def columns(self) -> frozenset[str]:
        return frozenset((self.col,))


class InSet(Expr):
    """Membership predicate ``col IN (v1, v2, ...)`` -- the disjunctions of
    nation/city options used by the paper's selectivity experiments."""

    __slots__ = ("col", "values")

    def __init__(self, col: str, values: Sequence[Any]):
        if not values:
            raise ValueError("InSet needs at least one value")
        self.col = col
        self.values = tuple(sorted(set(values), key=repr))

    def compile(self, schema: "Schema") -> Callable[[tuple], bool]:
        i = schema.index(self.col)
        vals = frozenset(self.values)
        return lambda row: row[i] in vals

    def compile_batch(
        self, schema: "Schema", indices: bool = False
    ) -> Callable[[Sequence[tuple]], list]:
        i = schema.index(self.col)
        vals = frozenset(self.values)
        if indices:
            return lambda rows: [j for j, r in enumerate(rows) if r[i] in vals]
        return lambda rows: [r for r in rows if r[i] in vals]

    def compile_cols(self, schema: "Schema") -> Callable | None:
        vals = frozenset(self.values)
        return _col_kernel(
            schema.index(self.col),
            lambda c: [j for j, x in enumerate(c) if x in vals],
            lambda c, sel: [j for j in sel if c[j] in vals],
            self.signature,
            lambda x: x in vals,
        )

    def compile_mask(self, schema: "Schema") -> Callable | None:
        vals = frozenset(self.values)
        return _mask_kernel(schema.index(self.col), self.signature, lambda x: x in vals)

    @property
    def signature(self) -> tuple:
        return ("in", self.col, self.values)

    @property
    def terms(self) -> int:
        return 1  # a hashed IN probe costs about one comparison

    def columns(self) -> frozenset[str]:
        return frozenset((self.col,))


class And(Expr):
    """Conjunction of predicates."""

    __slots__ = ("parts",)

    def __init__(self, *parts: Expr):
        if not parts:
            raise ValueError("And needs at least one part")
        self.parts = tuple(parts)

    def compile(self, schema: "Schema") -> Callable[[tuple], bool]:
        fns = [p.compile(schema) for p in self.parts]
        if len(fns) == 1:
            return fns[0]
        return lambda row: all(f(row) for f in fns)

    def compile_batch(
        self, schema: "Schema", indices: bool = False
    ) -> Callable[[Sequence[tuple]], list]:
        """Conjunction kernel: cascade the parts' kernels, each pass
        filtering the survivors of the previous one (selection order is
        preserved, so the result equals row-at-a-time evaluation)."""
        if len(self.parts) == 1:
            return self.parts[0].compile_batch(schema, indices)
        kernels = [p.compile_batch(schema) for p in self.parts]
        if not indices:
            def filter_rows(rows: Sequence[tuple]) -> list:
                out = rows
                for k in kernels:
                    if not out:
                        break
                    out = k(out)
                return out if isinstance(out, list) else list(out)

            return filter_rows

        first = self.parts[0].compile_batch(schema, indices=True)
        rest = [p.compile(schema) for p in self.parts[1:]]

        def filter_indices(rows: Sequence[tuple]) -> list:
            sel = first(rows)
            for pred in rest:
                if not sel:
                    break
                sel = [j for j in sel if pred(rows[j])]
            return sel

        return filter_indices

    def compile_cols(self, schema: "Schema") -> Callable | None:
        """Conjunction column kernel: each part refines the previous pass's
        selection vector (same survivors, same order as row-wise)."""
        kernels = [p.compile_cols(schema) for p in self.parts]
        if any(k is None for k in kernels):
            return None
        if len(kernels) == 1:
            return kernels[0]

        def kernel(col_of: Callable, n: int, sel=None) -> list:
            for k in kernels:
                sel = k(col_of, n, sel)
                if not sel:
                    return sel
            return sel

        return kernel

    def compile_mask(self, schema: "Schema") -> Callable | None:
        """Conjunction mask kernel: AND the parts' memoized bitmaps --
        one int ``&`` per part instead of a selection cascade."""
        kernels = [p.compile_mask(schema) for p in self.parts]
        if any(k is None for k in kernels):
            return None
        if len(kernels) == 1:
            return kernels[0]

        def kernel(col_of: Callable, n: int) -> int | None:
            m = kernels[0](col_of, n)
            if m is None:
                return None
            for k in kernels[1:]:
                if not m:
                    return 0
                part = k(col_of, n)
                if part is None:
                    return None
                m &= part
            return m

        return kernel

    @property
    def signature(self) -> tuple:
        # Canonical conjunct order: conjunction is commutative, so the
        # signature sorts part signatures (by repr -- part tuples mix value
        # types) to make ``a>1 AND b<2`` and ``b<2 AND a>1`` hash identically.
        # Evaluation order still follows author order (``compile*`` above).
        return ("and",) + tuple(sorted((p.signature for p in self.parts), key=repr))

    @property
    def terms(self) -> int:
        return sum(p.terms for p in self.parts)

    def columns(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for p in self.parts:
            out |= p.columns()
        return out


class Or(Expr):
    """Disjunction of predicates."""

    __slots__ = ("parts",)

    def __init__(self, *parts: Expr):
        if not parts:
            raise ValueError("Or needs at least one part")
        self.parts = tuple(parts)

    def compile(self, schema: "Schema") -> Callable[[tuple], bool]:
        fns = [p.compile(schema) for p in self.parts]
        if len(fns) == 1:
            return fns[0]
        return lambda row: any(f(row) for f in fns)

    def compile_mask(self, schema: "Schema") -> Callable | None:
        """Disjunction mask kernel: OR the parts' memoized bitmaps --
        the first columnar form disjunctions have had."""
        kernels = [p.compile_mask(schema) for p in self.parts]
        if any(k is None for k in kernels):
            return None
        if len(kernels) == 1:
            return kernels[0]

        def kernel(col_of: Callable, n: int) -> int | None:
            m = 0
            for k in kernels:
                part = k(col_of, n)
                if part is None:
                    return None
                m |= part
            return m

        return kernel

    @property
    def signature(self) -> tuple:
        return ("or",) + tuple(p.signature for p in self.parts)

    @property
    def terms(self) -> int:
        return sum(p.terms for p in self.parts)

    def columns(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for p in self.parts:
            out |= p.columns()
        return out


class Not(Expr):
    """Negation."""

    __slots__ = ("part",)

    def __init__(self, part: Expr):
        self.part = part

    def compile(self, schema: "Schema") -> Callable[[tuple], bool]:
        f = self.part.compile(schema)
        return lambda row: not f(row)

    def compile_mask(self, schema: "Schema") -> Callable | None:
        """Negation mask kernel: complement within the batch's n bits."""
        inner = self.part.compile_mask(schema)
        if inner is None:
            return None

        def kernel(col_of: Callable, n: int) -> int | None:
            m = inner(col_of, n)
            if m is None:
                return None
            return ((1 << n) - 1) ^ m

        return kernel

    @property
    def signature(self) -> tuple:
        return ("not", self.part.signature)

    @property
    def terms(self) -> int:
        return self.part.terms

    def columns(self) -> frozenset[str]:
        return self.part.columns()


class Arith(Expr):
    """Binary arithmetic, e.g. ``l_extendedprice * l_discount`` in Q1."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr | str, right: Expr | Any):
        if op not in _ARITH_OPS:
            raise ValueError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = Col(left) if isinstance(left, str) else left
        self.right = right if isinstance(right, Expr) else Const(right)

    def compile(self, schema: "Schema") -> Callable[[tuple], Any]:
        f = _ARITH_OPS[self.op]
        lhs = self.left.compile(schema)
        rhs = self.right.compile(schema)
        return lambda row: f(lhs(row), rhs(row))

    @property
    def signature(self) -> tuple:
        return ("arith", self.op, self.left.signature, self.right.signature)

    @property
    def terms(self) -> int:
        return 1

    def columns(self) -> frozenset[str]:
        return self.left.columns() | self.right.columns()
