"""The aggregation stage (hash group-by, step WoP).

Blocking operator: all results are emitted after the input drains, so the
whole execution is inside the step Window of Opportunity -- an identical
packet arriving any time before completion reuses the full result."""

from __future__ import annotations

from typing import Any, Iterator

from repro.sim.commands import CPU, CPU_FUSED
from repro.engine.exchange import END
from repro.engine.packet import Packet
from repro.engine.stage import Stage
from repro.engine.stages.inputs import FilteredInput
from repro.query.expr import column_indices, row_key_fn, value_column
from repro.query.plan import AggregateNode, AggSpec
from repro.storage.page import Batch, ColumnBatch


class _Accumulator:
    """Accumulators for one group (one slot per aggregate spec)."""

    __slots__ = ("sums", "counts", "mins", "maxs")

    def __init__(self, n: int):
        self.sums = [0.0] * n
        self.counts = [0] * n
        self.mins: list[Any] = [None] * n
        self.maxs: list[Any] = [None] * n


def accumulate_columnar(
    batch: ColumnBatch,
    n: int,
    w: float,
    group_idx: tuple[int, ...],
    specs,
    value_fns,
    schema,
    groups: dict,
) -> None:
    """Late-materialized accumulation: gather group-key and value columns
    once per batch, then fold -- no per-row tuples, no per-row closure
    calls.  Accumulation order (batch order, per group) matches the
    row-wise loop exactly, so every float result is bit-identical."""
    col_of = batch.column
    if len(group_idx) > 1:
        keys = list(zip(*(col_of(i) for i in group_idx)))
    elif group_idx:
        keys = [(v,) for v in col_of(group_idx[0])]
    else:
        keys = None
    nspecs = len(specs)
    vcols: list = []
    rows = None
    for spec, fn in zip(specs, value_fns):
        if spec.expr is None:
            vcols.append(None)
            continue
        vc = value_column(spec.expr, schema, col_of, n)
        if vc is None:
            # No column form for this expression shape: fall back to the
            # row closure over materialized rows (values are identical).
            if rows is None:
                rows = batch.rows
            vc = [fn(r) for r in rows]
        vcols.append(vc)
    get_group = groups.get
    if nspecs == 1 and keys is not None and specs[0].func in ("sum", "avg"):
        # The workload's common shape: one weighted sum/avg per group.
        vc = vcols[0]
        for key, v in zip(keys, vc):
            acc = get_group(key)
            if acc is None:
                acc = groups[key] = _Accumulator(1)
            acc.sums[0] += v * w
            acc.counts[0] += w
        return
    for p in range(n):
        key = keys[p] if keys is not None else ()
        acc = get_group(key)
        if acc is None:
            acc = groups[key] = _Accumulator(nspecs)
        for i in range(nspecs):
            spec = specs[i]
            if spec.func == "count":
                acc.counts[i] += w
                continue
            v = vcols[i][p]
            if spec.func in ("sum", "avg"):
                acc.sums[i] += v * w
                acc.counts[i] += w
            elif spec.func == "min":
                acc.mins[i] = v if acc.mins[i] is None else min(acc.mins[i], v)
            else:
                acc.maxs[i] = v if acc.maxs[i] is None else max(acc.maxs[i], v)


def _finalize(spec: AggSpec, acc: _Accumulator, i: int) -> Any:
    if spec.func == "sum":
        return acc.sums[i]
    if spec.func == "count":
        return acc.counts[i]
    if spec.func == "avg":
        return acc.sums[i] / acc.counts[i] if acc.counts[i] else 0.0
    if spec.func == "min":
        return acc.mins[i]
    return acc.maxs[i]


class AggregateStage(Stage):
    """The hash group-by aggregation stage (step WoP)."""
    def __init__(self, engine):
        super().__init__(engine, "aggregate")

    def run(self, packet: Packet, child_input: FilteredInput) -> None:
        self.spawn_worker(packet, self._work(packet, child_input))

    def _work(self, packet: Packet, child_input: FilteredInput) -> Iterator[Any]:
        node: AggregateNode = packet.node
        cost = self.engine.cost
        exchange = packet.exchange
        yield CPU(cost.packet_dispatch, "misc")

        schema = child_input.schema
        group_idx = column_indices(schema, node.group_by)
        value_fns = [a.expr.compile(schema) if a.expr is not None else None for a in node.aggregates]
        specs = node.aggregates
        nspecs = len(specs)
        groups: dict[tuple, _Accumulator] = {}
        # Group-key extraction hoisted out of the per-row loop; keys stay
        # tuples (out_rows concatenates them) even for a single column.
        key_of = row_key_fn(group_idx)
        get_group = groups.get

        while True:
            # The input hands back its per-batch charge so it rides in
            # front of our aggregation charge (see join._work).
            batch, fc = yield from child_input.read_fused()
            if batch is END:
                break
            n, w = len(batch), batch.weight
            if not n:
                if fc is not None:
                    yield child_input.fuse_next_lock(fc)
                continue
            # Group-table hashing counts as aggregation work (the paper's
            # "Hashing" bucket covers hash-join hash()/equal() only).
            hash_cmd = CPU(cost.hash_func * n * w, "aggregation")
            agg_cmd = cost.aggregate(n, w, functions=nspecs)
            if fc is not None:
                cmd = CPU_FUSED(fc, hash_cmd, agg_cmd)
            else:
                cmd = CPU_FUSED(hash_cmd, agg_cmd)
            # Accumulation is pure computation; nothing is emitted until
            # END, so the next read's lock charge rides along.
            yield child_input.fuse_next_lock(cmd)
            if isinstance(batch, ColumnBatch):
                accumulate_columnar(
                    batch, n, w, group_idx, specs, value_fns, schema, groups
                )
                continue
            for r in batch.rows:
                key = key_of(r)
                acc = get_group(key)
                if acc is None:
                    acc = groups[key] = _Accumulator(nspecs)
                # ``w`` rows of real data stand behind each generated row:
                # additive aggregates scale by the weight so results match
                # what the represented real table would produce.
                for i, fn in enumerate(value_fns):
                    spec = specs[i]
                    if spec.func == "count":
                        acc.counts[i] += w
                        continue
                    v = fn(r)
                    if spec.func in ("sum", "avg"):
                        acc.sums[i] += v * w
                        acc.counts[i] += w
                    elif spec.func == "min":
                        acc.mins[i] = v if acc.mins[i] is None else min(acc.mins[i], v)
                    else:
                        acc.maxs[i] = v if acc.maxs[i] is None else max(acc.maxs[i], v)

        out_rows = [
            key + tuple(_finalize(specs[i], acc, i) for i in range(nspecs))
            for key, acc in groups.items()
        ]
        packet.mark_started()
        self.unregister(packet)
        if out_rows:
            yield from exchange.emit(Batch(out_rows, weight=1.0))
        exchange.close()
        packet.finished = True
