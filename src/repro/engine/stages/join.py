"""The hash-join stage (query-centric joins, step WoP).

One worker per host packet: build a hash table from the (filtered) build
input, then stream the probe input.  Cost charges split per the paper's
breakdown: ``hash()``/``equal()`` cycles under "hashing", build/probe
bookkeeping and output materialization under "joins".

Both hot loops run vectorized (one comprehension per batch, key indices
hoisted out of the loop) and the per-batch cycle charges are fused into a
single simulator event whose parts complete at exactly the instants
separate yields would."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.sim.commands import CPU, CPU_FUSED
from repro.engine.exchange import END
from repro.engine.packet import Packet
from repro.engine.stage import Stage
from repro.engine.stages.inputs import FilteredInput
from repro.storage.arrangements import (  # noqa: F401  (re-export: baselines import it here)
    ARRANGEMENTS,
    Arrangement,
    single_match_table,
)
from repro.storage.packed import as_list
from repro.storage.page import ColumnBatch


def probe_columnar(
    batch: ColumnBatch,
    probe_key: int,
    get,
    weight: float,
    single: dict[Any, tuple] | None = None,
) -> ColumnBatch:
    """Late-materialized hash probe: extract the key column, match, and
    emit a new selection vector over the *same* base columns plus a tail
    of matched build rows -- no wide output tuples.  Match order (probe
    order, then build-insertion order) equals the row-wise probe's, so
    downstream results and charge counts are identical.

    With a ``single`` match table the whole probe runs as one C-level
    ``map(dict.get)`` pass over the key column plus ``is not None``
    comprehensions (one hash lookup per key, no per-row Python
    bytecode beyond the loops)."""
    # Packed FK vectors decode once per page (memoized on the column) so
    # the C-level dict probes below run over cached boxed keys instead of
    # re-boxing array elements on every circular-scan revisit.
    keys = as_list(batch.column(probe_key))
    src = batch.sel
    tails = batch.tail
    if single is not None:
        ms = list(map(single.get, keys))
        if tails is None:
            if src is None:
                out_sel = [j for j, m in enumerate(ms) if m is not None]
            else:
                out_sel = [j for j, m in zip(src, ms) if m is not None]
            out_tail = [m for m in ms if m is not None]
        else:
            out_sel = [j for j, m in zip(src, ms) if m is not None]
            out_tail = [t + m for t, m in zip(tails, ms) if m is not None]
        return ColumnBatch(batch.cols, out_sel, weight, out_tail)
    out_sel = []
    out_tail = []
    add_sel = out_sel.append
    add_tail = out_tail.append
    if tails is None:
        positions = range(len(keys)) if src is None else src
        for j, k in zip(positions, keys):
            ms = get(k)
            if ms is not None:
                for m in ms:
                    add_sel(j)
                    add_tail(m)
    else:
        for j, k, t in zip(src, keys, tails):
            ms = get(k)
            if ms is not None:
                for m in ms:
                    add_sel(j)
                    add_tail(t + m)
    return ColumnBatch(batch.cols, out_sel, weight, out_tail)

if TYPE_CHECKING:  # pragma: no cover
    from repro.query.plan import HashJoinNode


class HashJoinStage(Stage):
    """The query-centric hash-join stage (step WoP)."""
    def __init__(self, engine):
        super().__init__(engine, "join")

    def run(
        self,
        packet: Packet,
        probe_input: FilteredInput,
        build_input: FilteredInput,
        shared: tuple[Arrangement, Any] | None = None,
    ) -> None:
        """``shared`` (engine-resolved, see ``QPipeEngine._shared_build``)
        carries a pinned arrangement plus the build-side predicate: the
        build input is then drained with identical charges but no private
        dict is populated, and probes hit the arrangement's shared view
        for that predicate -- seeded by the first query's own drained
        rows, fetched from the memo by every later one."""
        self.spawn_worker(packet, self._work(packet, probe_input, build_input, shared))

    def _work(
        self,
        packet: Packet,
        probe_input: FilteredInput,
        build_input: FilteredInput,
        shared: tuple[Arrangement, Any] | None = None,
    ) -> Iterator[Any]:
        node: "HashJoinNode" = packet.node
        cost = self.engine.cost
        exchange = packet.exchange
        yield CPU(cost.packet_dispatch, "misc")

        # ---- build phase --------------------------------------------
        # Key index resolved once per packet, not per batch.
        build_key = build_input.schema.index(node.build_key)
        table: dict[Any, list[tuple]] = {}
        setdefault = table.setdefault
        #: with a shared arrangement whose view for this predicate is not
        #: memoized yet, collect the drained rows to seed it (C-level
        #: extends; cheaper than the private setdefault loop they replace).
        #: Under query folding, a *subsuming* sibling view (built for a
        #: weaker build-side predicate) serves instead: the view derives
        #: from the sibling's rows at probe time, so nothing is collected.
        #: Either way the build input is drained with identical charges --
        #: the derived mapping equals the directly built one (unique base
        #: keys), so this fold never moves a simulated tick.
        collect: list[tuple] | None = None
        fold_view = False
        if shared is not None and not shared[0].has_single_view(shared[1]):
            if self.engine.config.use_query_folding() and shared[0].has_subsuming_view(
                shared[1]
            ):
                fold_view = True
            else:
                collect = []
        while True:
            # The input hands back its per-batch charge so it rides in
            # front of our hashing/build charge -- one command per batch
            # for the whole read->filter->build chain.
            batch, fc = yield from build_input.read_fused()
            if batch is END:
                break
            n, w = len(batch), batch.weight
            if not n:
                if fc is not None:
                    yield build_input.fuse_next_lock(fc)
                continue
            # The build side materializes rows either way: they become the
            # probe output's tail payloads (dims are small post-filter).
            rows = batch.rows
            # Only pure computation follows until the next read, so the
            # next read's lock charge rides at the tail of this command.
            if fc is not None:
                cmd = CPU_FUSED(fc, cost.hashing(n, w), cost.build(n, w))
            else:
                cmd = CPU_FUSED(cost.hashing(n, w), cost.build(n, w))
            yield build_input.fuse_next_lock(cmd)
            if shared is None:
                # Private build.  With a shared arrangement the input is
                # drained and charged identically (the *work* of reading
                # and hashing is still this query's), but the dict the
                # probes hit is the arrangement's shared view.
                for r in rows:
                    setdefault(r[build_key], []).append(r)
            elif collect is not None:
                collect.extend(rows)

        # ---- probe phase --------------------------------------------
        probe_key = probe_input.schema.index(node.probe_key)
        get = table.get
        if shared is not None:
            if fold_view:
                single = shared[0].fold_single_view(shared[1])
            else:
                single = shared[0].offer_single_view(shared[1], collect or [])
        else:
            single = single_match_table(table)
        while True:
            batch, fc = yield from probe_input.read_fused()
            if batch is END:
                break
            n, w = len(batch), batch.weight
            if not n:
                if fc is not None:
                    yield probe_input.fuse_next_lock(fc)
                continue
            if type(batch) is not ColumnBatch:
                # A folded or cache-replayed child join emits row
                # batches: view them column-wise.
                batch = ColumnBatch(tuple(zip(*batch.rows)), None, w)
            out = probe_columnar(batch, probe_key, get, w, single)
            nout = len(out)
            cmds = [cost.hashing(n, w, equals=nout), cost.probe(n, w)]
            if nout:
                cmds.append(cost.emit_join(nout, w))
            if fc is not None:
                cmds.insert(0, fc)
            fused_cmd = CPU_FUSED(*cmds)
            if not nout:
                # No emission before the next read, so its lock charge can
                # ride at the tail (an emit in between would hold the input
                # SPL's lock across the emit -- illegal).
                fused_cmd = probe_input.fuse_next_lock(fused_cmd)
            yield fused_cmd
            if nout:
                if not packet.started_emitting:
                    packet.mark_started()
                    self.unregister(packet)  # step WoP closes
                yield from exchange.emit(out)

        exchange.close()
        packet.finished = True
        self.unregister(packet)
        if shared is not None:
            ARRANGEMENTS.release(shared[0])
