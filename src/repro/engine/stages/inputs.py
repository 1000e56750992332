"""Consumer-side input wrapper: read + fused selection.

Selections never get their own packets (see :mod:`repro.query.plan`); the
consuming operator reads its input through a :class:`FilteredInput`, which
charges the consumer's per-tuple read cost and -- when the input was wrapped
in SelectNodes -- evaluates the fused predicate, charging per predicate
term.  Keeping predicate evaluation on the *consumer* side is what lets a
raw circular scan be shared by queries with different predicates.

Selection runs through the predicate's column, bitmap or batch kernels
(:mod:`repro.query.expr`) -- one call per batch, never one closure call per
row -- and the read + predicate cycle charges are fused into a single
simulator event whose parts complete at exactly the instants separate
yields would."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.engine.exchange import END
from repro.query.expr import And, Expr
from repro.query.plan import PlanNode, SelectNode
from repro.sim.commands import CPU_FUSED
from repro.storage.page import Batch, ColumnBatch

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.costmodel import CostModel


def unwrap_selects(node: PlanNode) -> tuple[PlanNode, Expr | None]:
    """Strip a chain of SelectNodes, folding predicates into one conjunction
    (outermost select evaluated last, matching plan semantics)."""
    predicate: Expr | None = None
    while isinstance(node, SelectNode):
        predicate = node.predicate if predicate is None else And(node.predicate, predicate)
        node = node.child
    return node, predicate


class FilteredInput:
    """A reader plus an optional fused predicate."""

    def __init__(
        self,
        reader: Any,
        cost: "CostModel",
        predicate: Expr | None,
        schema,
        charge_read: bool = True,
    ):
        self.reader = reader
        self.cost = cost
        self.schema = schema
        self.charge_read = charge_read
        self.terms = predicate.terms if predicate is not None else 0
        # An SPL reader hands us its per-page read charge to fuse in front
        # of whatever we yield next (everything between is pure
        # computation, so the fused parts complete at exactly the instants
        # the separate yields would have).
        self._deferred_charge = None
        self._lock_prepay = None
        if hasattr(reader, "defer_read_charge"):
            self._deferred_charge = reader.defer_read_charge()
            self._lock_prepay = reader.prepay_lock_charge()
        # Column kernel: used when the incoming batch is a ColumnBatch
        # (selection = shrinking the selection vector, no row rebuild).
        # Predicate shapes without a column form fall back to the row
        # kernel over the batch's materialized rows.
        if predicate is None:
            self._kernel = self._col_kernel = self._mask_kernel = None
        else:
            self._kernel = predicate.compile_batch(schema)
            self._col_kernel = predicate.compile_cols(schema)
            self._mask_kernel = predicate.compile_mask(schema)

    def _filter(self, batch) -> Any:
        """Apply the fused predicate to one non-empty batch (pure Python --
        the caller charges the cycles).

        Dispatch order: bitmap kernel (dictionary-encoded page views --
        per-column predicate masks are memoized, so recurring predicates
        across concurrent queries AND cached ints), then selection-vector
        column kernel, then the row kernel.  All three keep exactly the
        same survivors in the same order."""
        if isinstance(batch, ColumnBatch):
            mk = self._mask_kernel
            if mk is not None and batch.sel is None:
                # Page view: columns are the base vectors (mask bit p ==
                # base row p); selected batches gather their columns, so
                # the mask probe would materialize them only to fall back.
                m = mk(batch.column, len(batch))
                if m is not None:
                    return batch.take_mask(m)
            ck = self._col_kernel
            if ck is not None:
                return batch.take(ck(batch.column, len(batch)))
        return Batch(self._kernel(batch.rows), batch.weight)

    def read(self) -> Iterator[Any]:
        """Next (filtered) batch, or END, with its charge yielded."""
        batch, cmd = yield from self.read_fused()
        if cmd is not None:
            yield cmd
        return batch

    def read_fused(self) -> Iterator[Any]:
        """Like :meth:`read`, but hand the per-batch charge back to the
        caller as ``(batch, cmd)`` instead of yielding it.  The caller must
        fuse ``cmd`` (when not None) in front of the very next CPU command
        it yields, before reading again -- everything in between must be
        pure computation.  ``(END, None)`` closes the
        stream; END never carries a charge."""
        batch = yield from self.reader.read()
        if batch is END:
            return END, None
        rc = self._deferred_charge
        n = len(batch)
        if self._kernel is None or n == 0:
            if self.charge_read and n:
                read_cmd = self.cost.read(n, batch.weight)
                return batch, (CPU_FUSED(rc, read_cmd) if rc is not None else read_cmd)
            return batch, rc
        if self.charge_read:
            read_cmd = self.cost.read(n, batch.weight)
            pred_cmd = self.cost.predicate(n, batch.weight, max(self.terms, 1))
            cmd = (
                CPU_FUSED(rc, read_cmd, pred_cmd)
                if rc is not None
                else CPU_FUSED(read_cmd, pred_cmd)
            )
        else:
            pred_cmd = self.cost.predicate(n, batch.weight, max(self.terms, 1))
            cmd = CPU_FUSED(rc, pred_cmd) if rc is not None else pred_cmd
        return self._filter(batch), cmd

    def fuse_next_lock(self, cmd):
        """Fuse the *next* read's SPL lock charge as the last
        part of ``cmd`` (see ``SplConsumer.prepay_lock_charge``).  Only
        legal when nothing but pure computation happens between yielding
        the returned command and the next ``read_fused`` call -- in
        particular, no intervening emit.  Returns ``cmd`` unchanged when
        prepaying is unavailable."""
        lp = self._lock_prepay
        if lp is None or cmd is None:
            return cmd
        self.reader.lock_prepaid = True
        return CPU_FUSED(cmd, lp)
