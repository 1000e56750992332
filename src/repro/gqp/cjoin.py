"""The CJOIN pipeline: shared selections + shared hash-joins for star
queries, evaluated by a single always-on dataflow (see package docstring).

Thread structure (all simulated, all daemons):

* 1 preprocessor -- circular fact scan, admission batching, page tagging;
* ``filter_workers`` workers -- move fact pages through the filter chain
  (the paper's *horizontal* configuration; the per-page ``filter_sync_page``
  charge models their queue synchronization, one of CJOIN's inherent
  bookkeeping costs);
* ``distributor_parts`` workers -- route joined tuples to query outputs.

Admission (Section 3.1/3.2) pauses the pipeline: it waits for in-flight
pages to drain, clears retired bitmap slots, scans the referenced dimension
tables through the buffer pool (so file-system caching -- or its absence
under direct I/O -- shows up exactly as in the paper's Figure 13), inserts
or re-annotates selected dimension tuples in the filter hash tables, and
records the new query's point of entry on the fact table's circular scan.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.sim.commands import CPU, CPU_FUSED, SLEEP, CpuCommand
from repro.sim.sync import Channel, Condition
from repro.gqp.bitmap import SlotAllocator
from repro.gqp.ordering import ChainOrderer
from repro.query.expr import column_indices, row_key_fn
from repro.storage.arrangements import ARRANGEMENTS
from repro.storage.packed import as_list
from repro.storage.page import Batch
from repro.storage.prefetch import PageSource

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.packet import Packet
    from repro.engine.qpipe import QPipeEngine
    from repro.query.plan import CJoinNode
    from repro.storage.table import Table


class _Entry:
    """One dimension tuple resident in a filter's hash table."""

    __slots__ = ("row", "bitmap")

    def __init__(self, row: tuple, bitmap: int):
        self.row = row
        self.bitmap = bitmap


class Filter:
    """Shared scan + shared selection + shared hash-join for one dimension
    (CJOIN groups the three into a 'filter')."""

    __slots__ = (
        "dim_name",
        "fact_fk_idx",
        "dim_key_idx",
        "weight",
        "ht",
        "pass_mask",
        "referencing",
        "fk_get",
        "ewma_pass",
        "probe_rows",
        "pass_rows",
    )

    def __init__(self, dim_name: str, fact_fk_idx: int, dim_key_idx: int, weight: float):
        self.dim_name = dim_name
        self.fact_fk_idx = fact_fk_idx
        self.dim_key_idx = dim_key_idx
        self.weight = weight  # dim row weight, for bookkeeping charges
        self.ht: dict[Any, _Entry] = {}
        self.pass_mask = 0  # bits of queries that do not reference this dim
        self.referencing: set[int] = set()  # slots that do
        self.fk_get = itemgetter(fact_fk_idx)  # FK column extractor (kernels)
        #: observed selectivity (see repro.gqp.ordering): EWMA of per-page
        #: pass rates, plus cumulative probe/pass row counts.  Maintained
        #: only when adaptive ordering is on; stats retire with the filter.
        self.ewma_pass: float | None = None
        self.probe_rows = 0
        self.pass_rows = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Filter {self.dim_name} entries={len(self.ht)}>"


class _QueryState:
    """Runtime state of one admitted star query."""

    __slots__ = (
        "packet",
        "slot",
        "bit",
        "pages_left",
        "outstanding",
        "no_more_pages",
        "projector",
        "fact_pred",
        "fact_pred_terms",
        "done",
        "agg_node",
        "agg_group_idx",
        "agg_key_fn",
        "agg_value_fns",
        "agg_groups",
    )

    def __init__(self, packet: "Packet", slot: int, pages_left: int):
        self.packet = packet
        self.slot = slot
        self.bit = 1 << slot  # slot mask, hoisted out of the per-page loops
        self.pages_left = pages_left  # fact pages until the scan wraps to the entry point
        self.outstanding = 0  # addressed pages not yet distributed
        self.no_more_pages = False
        self.projector: Callable | None = None
        self.fact_pred: Callable | None = None
        self.fact_pred_terms = 0
        self.done = False
        # DataPath-style shared aggregation (running sums per group & query);
        # None when the query's aggregation runs query-centric above the GQP.
        self.agg_node = None
        self.agg_group_idx: tuple[int, ...] = ()
        self.agg_key_fn: Callable | None = None
        self.agg_value_fns: list[Callable | None] = []
        self.agg_groups: dict | None = None


class _WorkItem:
    """One tagged fact page moving through the pipeline.

    Surviving tuples are carried as three *parallel lists* -- ``rows``
    (fact rows), ``bms`` (per-row query bitmaps) and ``dims`` (per-row
    tuples of joined dimension rows) -- instead of a list of triples, so
    the distributor's bitmap pass is a single comprehension over ``bms``
    with no per-row unpacking."""

    __slots__ = (
        "batch",
        "mask",
        "addressed",
        "filters",
        "filter_pos",
        "high_slots",
        "rows",
        "bms",
        "dims",
        "live",
    )

    def __init__(
        self,
        batch: Batch,
        mask: int,
        addressed: list[_QueryState],
        filters: list[Filter],
        filter_pos: dict[str, int],
        high_slots: int,
    ):
        self.batch = batch
        self.mask = mask
        self.addressed = addressed
        self.filters = filters
        self.filter_pos = filter_pos
        self.high_slots = high_slots
        self.rows: list[tuple] = []
        self.bms: list[int] = []
        self.dims: list[tuple] = []
        #: OR of the surviving rows' bitmaps (maintained by the columnar
        #: kernels only; drives the irrelevant-filter short-circuit)
        self.live = mask


class CJoinPipeline:
    """The always-on GQP for one fact table."""

    def __init__(self, engine: "QPipeEngine", fact_table: "Table"):
        self.engine = engine
        self.sim = engine.sim
        self.cost = engine.cost
        self.storage = engine.storage
        self.fact = fact_table
        cfg = engine.config

        self.filters: dict[str, Filter] = {}  # insertion-ordered chain
        #: snapshot of the filter chain handed to every work item.  The
        #: chain only changes during admission/retirement (pipeline paused),
        #: so the preprocessor reuses one (list, position-map) pair instead
        #: of rebuilding both for every fact page; work items must treat
        #: them as read-only.
        self._chain_snapshot: tuple[list[Filter], dict[str, int]] | None = None
        #: host-side memo of admission dim-scan selections, keyed by
        #: (dim table, predicate) -- predicates compare structurally, and
        #: random workloads draw them from small per-dimension vocabularies,
        #: so repeat admissions skip the predicate pass.  Every simulated
        #: charge (page reads, scan and predicate cycles) is still paid per
        #: admission; only the Python list comprehension is reused.  Entries
        #: are read-only downstream (_apply_admission never mutates them).
        self._dim_sel_cache: dict[tuple, list] = {}
        self.active: dict[int, _QueryState] = {}
        self.pending: list["Packet"] = []
        self.slots = SlotAllocator()

        #: adaptive data plane (repro.gqp.ordering): both default off, in
        #: which case the chain stays in plan-insertion order and every
        #: charge is bit-identical to the reference implementation.
        self.filter_kernels = cfg.use_gqp_filter_kernels()
        self._vertical = cfg.cjoin_threads == "vertical"
        self.orderer: ChainOrderer | None = (
            ChainOrderer(
                alpha=cfg.gqp_selectivity_alpha,
                interval=cfg.gqp_reorder_interval,
                hysteresis=cfg.gqp_order_hysteresis,
            )
            if cfg.use_gqp_adaptive_ordering()
            else None
        )

        self._page_chan = Channel(self.sim, capacity=4, name=f"cjoin.{fact_table.name}.pages")
        self._dist_chan = Channel(self.sim, capacity=8, name=f"cjoin.{fact_table.name}.dist")
        self.inflight = 0
        self._work = Condition(self.sim, "cjoin.work")
        self._idle = Condition(self.sim, "cjoin.idle")
        self._pause_requested = False
        self._paused = False
        self._pause_cond = Condition(self.sim, "cjoin.paused")
        self._resume_cond = Condition(self.sim, "cjoin.resume")
        self._source: PageSource | None = None

        self._vchans: list[Channel] = []
        self.sim.spawn(self._preprocessor(), f"cjoin-{fact_table.name}-pre", daemon=True)
        self.sim.spawn(self._admission_worker(), f"cjoin-{fact_table.name}-adm", daemon=True)
        if cfg.cjoin_threads == "vertical":
            self._ensure_vertical_worker(0)
            self.sim.spawn(
                self._vertical_worker(0), f"cjoin-{fact_table.name}-vflt0", daemon=True
            )
        else:
            for i in range(cfg.filter_workers):
                self.sim.spawn(self._filter_worker(), f"cjoin-{fact_table.name}-flt{i}", daemon=True)
        for i in range(cfg.distributor_parts):
            self.sim.spawn(self._distributor_part(), f"cjoin-{fact_table.name}-dist{i}", daemon=True)

    # ------------------------------------------------------------------
    def submit(self, packet: "Packet") -> None:
        """Queue a CJOIN packet for the next admission batch."""
        self.pending.append(packet)
        self._work.notify_all()

    def _filter_chain(self) -> tuple[list[Filter], dict[str, int]]:
        """The cached (chain, name->position) snapshot for work items."""
        snap = self._chain_snapshot
        if snap is None:
            filters = list(self.filters.values())
            snap = (filters, {name: i for i, name in enumerate(self.filters)})
            self._chain_snapshot = snap
        return snap

    def _observe(self, flt: Filter, n_in: int, n_out: int) -> None:
        """Feed one filter application's (rows in, rows out) to the chain
        orderer and surface the running selectivity through the metrics
        counters.  No-op (and no counters) without adaptive ordering, so
        default-mode metrics stay bit-identical."""
        orderer = self.orderer
        if orderer is None or n_in <= 0:
            return
        orderer.observe(flt, n_in, n_out)
        metrics = self.sim.metrics
        name = flt.dim_name
        metrics.bump(f"cjoin_filter_probes.{name}", n_in)
        metrics.bump(f"cjoin_filter_passes.{name}", n_out)
        metrics.set_count(
            f"cjoin_filter_pass_permille.{name}", int(round(flt.ewma_pass * 1000))
        )

    def _reorder_chain(self) -> CpuCommand | None:
        """Re-sort ``self.filters`` most-selective-first (hysteresis
        permitting) and return the bookkeeping charge, or ``None`` when the
        order stands.  In-flight work items keep the snapshot they were
        tagged with, so a re-sort only affects pages not yet preprocessed."""
        order = self.orderer.propose(list(self.filters.values()))
        if order is None:
            return None
        self.filters = {name: self.filters[name] for name in order}
        self._chain_snapshot = None
        self.sim.metrics.bump("cjoin_chain_reorders")
        return self.cost.reorder(len(order))

    # ------------------------------------------------------------------
    # Preprocessor
    # ------------------------------------------------------------------
    def _preprocessor(self) -> Iterator[Any]:
        sim = self.sim
        cost = self.cost
        while True:
            if self._pause_requested:
                # Admission needs the pipeline quiescent: drain in-flight
                # pages, park, and wait to be resumed.
                while self.inflight > 0:
                    yield from self._idle.wait()
                self._paused = True
                self._pause_cond.notify_all()
                while self._pause_requested:
                    yield from self._resume_cond.wait()
                self._paused = False
                continue
            addressable = [s for s in self.active.values() if not s.no_more_pages]
            if not addressable:
                yield from self._work.wait()
                continue
            if self._source is None:
                self._source = PageSource(
                    sim, self.storage, self.fact, 0, name=f"cjoin.{self.fact.name}"
                )
            page = yield from self._source.next()
            yield cost.preprocess(len(page), page.weight)
            orderer = self.orderer
            if orderer is not None and not self._vertical and orderer.tick_page():
                # Horizontal logical tick: every ``gqp_reorder_interval``
                # pages the preprocessor may re-sort the chain; pages
                # already in flight keep their own snapshot.
                reorder_cmd = self._reorder_chain()
                if reorder_cmd is not None:
                    yield reorder_cmd
            mask = 0
            addressed: list[_QueryState] = []
            for state in addressable:
                mask |= state.bit
                state.outstanding += 1
                state.pages_left -= 1
                if state.pages_left == 0:
                    state.no_more_pages = True  # wrapped to its point of entry
                addressed.append(state)
            filters, filter_pos = self._filter_chain()
            item = _WorkItem(
                batch=page.to_batch(),
                mask=mask,
                addressed=addressed,
                filters=filters,
                filter_pos=filter_pos,
                high_slots=max(self.slots.high_water, 1),
            )
            self.inflight += 1
            yield from self._page_chan.put(item)

    # ------------------------------------------------------------------
    # Admission (pipeline paused)
    # ------------------------------------------------------------------
    def _admission_worker(self) -> Iterator[Any]:
        """Admit pending packets in batches.

        Following the original CJOIN, the expensive part of admission --
        scanning the referenced dimension tables and evaluating each new
        query's selection predicates -- happens *asynchronously* while the
        pipeline keeps flowing ("parts of the admission phase ... can be
        done asynchronously while CJOIN is running").  Only the brief filter
        re-adjustment needs the pipeline paused and drained.  Queries
        arriving during an admission form the next batch."""
        sim = self.sim
        cost = self.cost
        batched = self.engine.config.gqp_batched_execution
        while True:
            if not self.pending:
                yield from self._work.wait()
                continue
            if batched and self.active:
                # SharedDB-style generations: the next batch starts only
                # when every query of the current one has completed (its
                # latency is dominated by the longest-running member).
                yield from self._work.wait()
                continue
            batch, self.pending = self.pending, []
            t0 = sim.now
            # ---- phase A (pipeline running): per-query dimension scans ---
            prepared: list[tuple["Packet", list[tuple[Any, list[tuple]]]]] = []
            for packet in batch:
                node, _agg = self._split_node(packet)
                plans = []
                for dimspec in node.dims:
                    selected = yield from self._scan_dim_selected(dimspec)
                    plans.append((dimspec, selected))
                prepared.append((packet, plans))
            # ---- phase B (pipeline paused): re-adjust filters ------------
            self._pause_requested = True
            self._work.notify_all()  # wake an idle preprocessor to park
            while not self._paused:
                yield from self._pause_cond.wait()
            yield from self._reclaim_retired_slots()
            touched: set[str] = set()
            for packet, plans in prepared:
                yield from self._apply_admission(packet, plans)
                touched.update(d.dim_table for d, _ in plans)
            if self.orderer is not None and self._vertical:
                # Vertical logical tick: the per-position workers hand
                # pages stage to stage, so the chain only re-sorts while
                # the pipeline is provably drained -- at admission pauses.
                reorder_cmd = self._reorder_chain()
                if reorder_cmd is not None:
                    yield reorder_cmd
            # The pipeline stall itself (re-adjusting filters, 3.1 (e)).
            yield SLEEP(cost.admission_pause + cost.admission_pause_per_filter * len(touched))
            self._pause_requested = False
            self._resume_cond.notify_all()
            self._work.notify_all()
            sim.metrics.add_duration("cjoin_admission", sim.now - t0)
            sim.metrics.bump("cjoin_admission_batches")
            sim.metrics.bump("cjoin_queries_admitted", len(batch))

    def _scan_dim_selected(self, dimspec) -> Iterator[Any]:
        """Phase A: scan one dimension table for one query and return its
        selected rows.  Every admitted query pays this scan (Section 3.1
        lists it among the per-query admission costs -- the cost CJOIN-SP
        avoids for identical packets); the physical I/O is shared through
        the buffer pool."""
        cost = self.cost
        dim = self.storage.table(dimspec.dim_table)
        kernel = None
        terms = 0
        cached = None
        cache_key = None
        if dimspec.predicate is not None:
            terms = dimspec.predicate.terms
            cache_key = (dimspec.dim_table, dimspec.predicate)
            cached = self._dim_sel_cache.get(cache_key)
            if cached is None and self.engine.config.use_query_folding():
                # Query folding: derive this selection from a subsuming
                # sibling selection or a sorted arrangement variant
                # instead of compiling a fresh predicate kernel.  The page
                # loop below still charges every scan/predicate cycle
                # (kernel stays None), so simulated ticks are unchanged.
                cached = self._fold_dim_selected(dim, dimspec)
            if cached is None:
                kernel = dimspec.predicate.compile_batch(dim.schema)
        # Prepay the next page's buffer-pool latch charge at the tail of
        # this page's scan/predicate command -- only pure compute happens
        # in between, so the charge instants are unchanged and one
        # simulator event per page disappears (admission scans every dim
        # page per admitted query, the hottest page loop in CJOIN).
        prepay = self.storage.latch_prepay_charge()
        fused_cmds: dict[int, Any] = {}
        last = dim.num_pages - 1
        prepaid = False
        selected: list[tuple] = []
        for page_index in range(dim.num_pages):
            page = yield from self.storage.read_page(dim, page_index, latch_prepaid=prepaid)
            rows = page.rows
            n = len(rows)
            if dimspec.predicate is not None:
                scan_cmd = cost.scan(n, page.weight)
                pred_cmd = cost.predicate(n, page.weight, max(terms, 1))
                if prepay is not None and page_index < last:
                    cmd = fused_cmds.get(n)
                    if cmd is None:
                        cmd = fused_cmds[n] = CPU_FUSED(scan_cmd, pred_cmd, prepay)
                    prepaid = True
                else:
                    cmd = CPU_FUSED(scan_cmd, pred_cmd)
                    prepaid = False
                yield cmd
                if kernel is not None:
                    selected.extend(kernel(rows))
            else:
                if prepay is not None and page_index < last:
                    cmd = fused_cmds.get(n)
                    if cmd is None:
                        cmd = fused_cmds[n] = CPU_FUSED(cost.scan(n, page.weight), prepay)
                    prepaid = True
                else:
                    cmd = cost.scan(n, page.weight)
                    prepaid = False
                yield cmd
                selected.extend(rows)
        if cached is not None:
            return cached
        if cache_key is not None:
            self._dim_sel_cache[cache_key] = selected
        return selected

    def _fold_dim_selected(self, dim, dimspec) -> list | None:
        """Derive one admission's dim-scan selection from already-shared
        state (query folding, host-side only -- no simulated charges):

        * **sibling selection** -- a ``_dim_sel_cache`` entry whose
          predicate *subsumes* this one filters down to exactly this
          selection (fewer rows touched than a full re-scan);
        * **range probe** -- when the predicate splits into a closed range
          on one column plus a residual, the shared arrangement keyed by
          that column serves the positions from its sorted variant
          (:meth:`~repro.storage.arrangements.Arrangement.range_positions`),
          re-sorted to table order.

        Returns ``None`` when neither applies (the caller compiles the
        ordinary predicate kernel).  The derived list is memoized under
        this exact predicate, seeding later exact hits and further folds."""
        from repro.query.subsume import predicate_subsumes, split_range

        predicate = dimspec.predicate
        metrics = self.sim.metrics
        provider: list | None = None
        for (tname, prov_pred), rows in self._dim_sel_cache.items():
            if tname != dimspec.dim_table:
                continue
            if predicate_subsumes(prov_pred, predicate)[0]:
                if provider is None or len(rows) < len(provider):
                    provider = rows
        if provider is not None:
            pred = predicate.compile(dim.schema)
            selected = [r for r in provider if pred(r)]
            self._dim_sel_cache[(dimspec.dim_table, predicate)] = selected
            metrics.bump("cjoin_fold_dim_sibling")
            return selected
        if not self.engine.config.use_arrangements():
            return None
        sr = split_range(predicate)
        if sr is None:
            return None
        col, lo, hi, residual = sr
        arr = ARRANGEMENTS.acquire(dim, col)
        try:
            # Positions come back in key order; table order (= scan order)
            # is restored by sorting, keeping the derived list identical
            # to what the page-by-page predicate scan would select.
            positions = sorted(arr.range_positions(lo, hi, residual))
            rows_src = arr.rows
            selected = [rows_src[p] for p in positions]
        finally:
            ARRANGEMENTS.release(arr)
        self._dim_sel_cache[(dimspec.dim_table, predicate)] = selected
        metrics.bump("cjoin_fold_dim_range")
        return selected

    def _apply_admission(self, packet: "Packet", plans: list[tuple[Any, list[tuple]]]) -> Iterator[Any]:
        """Phase B (paused): allocate the query's bitmap slot, extend the
        filters with its selected dimension tuples, and register its point
        of entry on the circular fact scan."""
        cost = self.cost
        node, agg_node = self._split_node(packet)
        slot = self.slots.alloc()
        bit = 1 << slot
        referenced = {d.dim_table for d, _ in plans}
        use_arr = self.engine.config.use_arrangements()
        for dimspec, selected in plans:
            flt = self._ensure_filter(dimspec)
            key_idx = flt.dim_key_idx
            ht = flt.ht
            inserts = 0
            annotations = 0
            arr = None
            if use_arr:
                # Shared arrangement: the dimension's key extraction is
                # memoized per predicate, and base-key uniqueness makes
                # every selected subset unique, so the set-equality check
                # below is skipped (it would always pass).  All admission
                # charges (dim scans above, hashing/build/bitmap below)
                # are still paid per admitted query -- only the Python
                # key list is reused across concurrent admissions.
                arr = ARRANGEMENTS.acquire(
                    self.storage.table(dimspec.dim_table), dimspec.dim_key
                )
            if arr is not None and arr.unique:
                keys = arr.keys_for(selected, dimspec.predicate)
                unique = True
            else:
                keys = [r[key_idx] for r in selected]
                unique = len(set(keys)) == len(keys)
            if arr is not None:
                # Transient pin: held only across the key extraction; the
                # extended filter owns its own _Entry table afterwards.
                ARRANGEMENTS.release(arr)
            if unique:
                # Unique keys (dimensions keyed by primary key -- the
                # common case): probe the hash table in one C-level map
                # pass, then branch only on the precomputed entries.
                entries = list(map(ht.get, keys))
                inserts = entries.count(None)
                annotations = len(keys) - inserts
                for key, r, entry in zip(keys, selected, entries):
                    if entry is None:
                        ht[key] = _Entry(r, bit)
                    else:
                        entry.bitmap |= bit
            else:
                for key, r in zip(keys, selected):
                    entry = ht.get(key)
                    if entry is None:
                        ht[key] = _Entry(r, bit)
                        inserts += 1
                    else:
                        entry.bitmap |= bit
                        annotations += 1
            cmds: list[CpuCommand] = []
            if inserts:
                cmds.append(cost.hashing(inserts, flt.weight))
                cmds.append(cost.build(inserts, flt.weight))
            if annotations:
                cmds.append(
                    CPU(cost.admission_bitmap * annotations * flt.weight, "joins")
                )
            if cmds:
                # Pure bookkeeping between the charges (pipeline paused):
                # fuse them into one event per extended filter.
                yield CPU_FUSED(*cmds)
        for name, flt in self.filters.items():
            if name in referenced:
                flt.referencing.add(slot)
            else:
                flt.pass_mask |= bit
        state = _QueryState(packet, slot, pages_left=self.fact.num_pages)
        state.projector = self._make_projector(node)
        if node.fact_predicate is not None:
            state.fact_pred = node.fact_predicate.compile(self.fact.schema)
            state.fact_pred_terms = node.fact_predicate.terms
        if agg_node is not None:
            schema = node.schema  # the projected (payload) schema
            state.agg_node = agg_node
            state.agg_group_idx = schema.indices(agg_node.group_by)
            state.agg_key_fn = row_key_fn(state.agg_group_idx)
            state.agg_value_fns = [
                a.expr.compile(schema) if a.expr is not None else None
                for a in agg_node.aggregates
            ]
            state.agg_groups = {}
        self.active[slot] = state

    def _ensure_filter(self, dimspec) -> Filter:
        flt = self.filters.get(dimspec.dim_table)
        if flt is None:
            dim = self.storage.table(dimspec.dim_table)
            flt = Filter(
                dim_name=dimspec.dim_table,
                fact_fk_idx=self.fact.schema.index(dimspec.fact_fk),
                dim_key_idx=dim.schema.index(dimspec.dim_key),
                weight=dim.row_weight,
            )
            # Every currently active query predates this filter, hence does
            # not reference it and must pass through freely.
            for state in self.active.values():
                flt.pass_mask |= state.bit
            self.filters[dimspec.dim_table] = flt
            self._chain_snapshot = None  # chain grew: work items need a fresh snapshot
        return flt

    def _reclaim_retired_slots(self) -> Iterator[Any]:
        """Clear the bits of completed queries from every filter entry and
        recycle their slots (done with the pipeline paused)."""
        cost = self.cost
        stale = self.slots.retired_mask()
        if not stale:
            return
        keep = ~stale
        for flt in self.filters.values():
            entries = len(flt.ht)
            dead = []
            for key, entry in flt.ht.items():
                entry.bitmap &= keep
                if entry.bitmap == 0:
                    dead.append(key)
            for key in dead:
                del flt.ht[key]
            flt.pass_mask &= keep
            flt.referencing -= {s for s in flt.referencing if stale >> s & 1}
            if entries:
                yield CPU(cost.admission_bitmap * entries * flt.weight, "joins")
        # Drop filters no longer referenced by any live query.
        dropped = [n for n, f in self.filters.items() if not f.referencing]
        for name in dropped:
            del self.filters[name]
        if dropped:
            self._chain_snapshot = None
        self.slots.reclaim()

    # ------------------------------------------------------------------
    # Filter workers (horizontal configuration)
    # ------------------------------------------------------------------
    def _apply_one_filter(self, item: _WorkItem, flt: Filter) -> Iterator[Any]:
        """Probe one filter with the item's surviving tuples (generator:
        charges the shared-operator costs); updates the item's parallel
        survivor lists in place.

        The survivor pass runs before the cycle charges so all of them
        (including the survivor-count-dependent ``emit_join``) can be fused
        into one simulator event; the computation is pure Python between
        yields, so the charge values, their order, and every simulated tick
        are identical to separate yields."""
        cost = self.cost
        w = item.batch.weight
        rows = item.rows
        n = len(rows)
        if n == 0:
            return
        get = flt.ht.get
        fk = flt.fact_fk_idx
        pass_mask = flt.pass_mask
        new_rows: list[tuple] = []
        new_bms: list[int] = []
        new_dims: list[tuple] = []
        add_row = new_rows.append
        add_bm = new_bms.append
        add_dim = new_dims.append
        for row, bm, dims in zip(rows, item.bms, item.dims):
            entry = get(row[fk])
            if entry is None:
                bm &= pass_mask
                dim_row = None
            else:
                bm &= entry.bitmap | pass_mask
                dim_row = entry.row
            if bm:
                add_row(row)
                add_bm(bm)
                add_dim(dims + (dim_row,))
        self._observe(flt, n, len(new_rows))
        cmds = [
            cost.hashing(n, w),
            cost.probe(n, w, shared=True),
            cost.bitmap_and(n, w, item.high_slots),
        ]
        if new_rows:
            # Materializing the joined tuple (attaching the dimension
            # payload) costs the same as a query-centric join's output
            # materialization.
            cmds.append(cost.emit_join(len(new_rows), w))
        yield CPU_FUSED(*cmds)
        item.rows, item.bms, item.dims = new_rows, new_bms, new_dims

    # ------------------------------------------------------------------
    # Columnar filter kernels (gqp_filter_kernels)
    # ------------------------------------------------------------------
    def _filter_kernel(self, item: _WorkItem, flt: Filter, cmds: list[CpuCommand]) -> None:
        """Columnar version of :meth:`_apply_one_filter`: hoists the FK
        column once, probes with a pre-bound ``dict.get`` over the column,
        and appends its charges to ``cmds`` instead of yielding them (the
        caller fuses the whole chain's charges into one event).

        Short-circuit: a filter whose ``pass_mask`` covers every *live*
        bit on the page cannot kill a tuple and no surviving query reads
        its dimension payload -- the kernel only appends the positional
        placeholder column (chain positions must stay aligned with the
        snapshot's ``filter_pos``) and charges nothing, which is the one
        way kernels mode changes simulated charges."""
        rows = item.rows
        n = len(rows)
        if n == 0:
            return
        pass_mask = flt.pass_mask
        if item.live & ~pass_mask == 0:
            item.dims = [d + (None,) for d in item.dims]
            self.sim.metrics.bump("cjoin_filters_skipped")
            return
        cost = self.cost
        batch = item.batch
        w = batch.weight
        if n == len(batch):
            # First filter of a page: the FK keys come straight
            # off the page's column vector -- no per-row tuple access.
            # Packed vectors decode once per page (memoized) so revisits
            # probe cached boxed keys.
            entries = list(map(flt.ht.get, as_list(batch.column(flt.fact_fk_idx))))
        else:
            entries = list(map(flt.ht.get, map(flt.fk_get, rows)))  # hoisted FK probe
        new_rows: list[tuple] = []
        new_bms: list[int] = []
        new_dims: list[tuple] = []
        add_row = new_rows.append
        add_bm = new_bms.append
        add_dim = new_dims.append
        live = 0
        for row, bm, dim, entry in zip(rows, item.bms, item.dims, entries):
            if entry is None:
                bm &= pass_mask
                dim_row = None
            else:
                bm &= entry.bitmap | pass_mask
                dim_row = entry.row
            if bm:
                add_row(row)
                add_bm(bm)
                add_dim(dim + (dim_row,))
                live |= bm
        self._observe(flt, n, len(new_rows))
        cmds.append(cost.hashing(n, w))
        cmds.append(cost.probe(n, w, shared=True))
        cmds.append(cost.bitmap_and(n, w, item.high_slots))
        if new_rows:
            cmds.append(cost.emit_join(len(new_rows), w))
        item.rows, item.bms, item.dims = new_rows, new_bms, new_dims
        item.live = live

    def _apply_chain_kernel(
        self, item: _WorkItem, prefix: CpuCommand | None = None
    ) -> Iterator[Any]:
        """Drive the whole chain through the columnar kernels, fusing the
        bitmap-AND charge groups of consecutive filters into one simulator
        event (charge values and their order match the per-filter path;
        only skipped filters' charges are elided).  ``prefix`` is the
        caller's page-sync charge, riding at the head of the
        fused command -- its charge instant is unchanged and one more
        simulator event per page disappears."""
        cmds: list[CpuCommand] = [] if prefix is None else [prefix]
        base = len(cmds)
        for flt in item.filters:
            if not item.rows:
                break
            self._filter_kernel(item, flt, cmds)
        if len(cmds) > base:
            yield CPU_FUSED(*cmds)
        elif prefix is not None:
            yield prefix

    def _filter_worker(self) -> Iterator[Any]:
        """Horizontal configuration: each worker carries a page through the
        whole filter chain."""
        cost = self.cost
        # The per-page sync charge is immutable -- build it once.  With the
        # chain kernels and no adaptive orderer (whose EWMA folds are
        # order-sensitive across workers) it rides at the head of the
        # chain's fused command instead of being its own event.
        sync = CPU(cost.filter_sync_page, "locks")
        while True:
            item = yield from self._page_chan.get()
            if item is Channel.CLOSED:  # pragma: no cover - pipeline never closes
                return
            fuse_sync = self.filter_kernels and self.orderer is None
            if not fuse_sync:
                yield sync
            rows = item.batch.rows
            item.rows = rows
            item.bms = [item.mask] * len(rows)
            item.dims = [()] * len(rows)
            if self.filter_kernels:
                yield from self._apply_chain_kernel(
                    item, prefix=sync if fuse_sync else None
                )
            else:
                for flt in item.filters:
                    if not item.rows:
                        break
                    yield from self._apply_one_filter(item, flt)
            yield from self._dist_chan.put(item)

    def _vertical_worker(self, position: int) -> Iterator[Any]:
        """Vertical configuration (Section 5.2.2): one thread per filter
        *position*; pages are handed from stage to stage through bounded
        channels, paying the hand-off synchronization at every stage."""
        cost = self.cost
        in_chan = self._page_chan if position == 0 else self._vchans[position]
        sync = CPU(cost.filter_sync_page, "locks")
        while True:
            item = yield from in_chan.get()
            if item is Channel.CLOSED:  # pragma: no cover
                return
            use_kernel = self.filter_kernels and position < len(item.filters)
            fuse_sync = use_kernel and self.orderer is None
            if not fuse_sync:
                yield sync
            if position == 0:
                rows = item.batch.rows
                item.rows = rows
                item.bms = [item.mask] * len(rows)
                item.dims = [()] * len(rows)
            if position < len(item.filters):
                if use_kernel:
                    cmds: list[CpuCommand] = [sync] if fuse_sync else []
                    base = len(cmds)
                    self._filter_kernel(item, item.filters[position], cmds)
                    if len(cmds) > base:
                        yield CPU_FUSED(*cmds)
                    elif fuse_sync:
                        yield sync
                else:
                    yield from self._apply_one_filter(item, item.filters[position])
            if position + 1 < len(item.filters):
                self._ensure_vertical_worker(position + 1)
                yield from self._vchans[position + 1].put(item)
            else:
                yield from self._dist_chan.put(item)

    def _ensure_vertical_worker(self, position: int) -> None:
        while len(self._vchans) <= position:
            k = len(self._vchans)
            self._vchans.append(
                Channel(self.sim, capacity=4, name=f"cjoin.{self.fact.name}.v{k}")
            )
            if k > 0:
                self.sim.spawn(
                    self._vertical_worker(k),
                    f"cjoin-{self.fact.name}-vflt{k}",
                    daemon=True,
                )

    # ------------------------------------------------------------------
    # Distributor parts
    # ------------------------------------------------------------------
    def _distributor_part(self) -> Iterator[Any]:
        cost = self.cost
        while True:
            item = yield from self._dist_chan.get()
            if item is Channel.CLOSED:  # pragma: no cover
                return
            w = item.batch.weight
            rows = item.rows
            bms = item.bms
            dims = item.dims
            filter_pos = item.filter_pos
            for state in item.addressed:
                # The bitmap pass is one comprehension over the parallel
                # ``bms`` list with the query's bit pre-bound -- no per-row
                # triple unpacking.  Charges for the selection, routing and
                # (optional) shared-aggregation update fuse into one event;
                # values and order match separate yields exactly.
                bit = state.bit
                pred = state.fact_pred
                sel = [j for j, bm in enumerate(bms) if bm & bit]
                cmds = []
                if sel and pred is not None:
                    cmds.append(cost.predicate(len(sel), w, max(state.fact_pred_terms, 1)))
                    sel = [j for j in sel if pred(rows[j])]
                out = None
                if sel:
                    project = state.projector
                    out = [project(rows[j], dims[j], filter_pos) for j in sel]
                    cmds.append(cost.distribute(len(out), w))
                    if state.agg_groups is not None:
                        cmds.append(CPU(
                            (cost.hash_func + cost.agg_update
                             + cost.agg_per_function * len(state.agg_node.aggregates))
                            * len(out) * w,
                            "aggregation",
                        ))
                if cmds:
                    yield CPU_FUSED(*cmds)
                if out:
                    if state.agg_groups is not None:
                        # Shared aggregation: fold into running sums instead
                        # of emitting (the packet's step WoP stays open for
                        # the whole execution -- results are buffered).
                        self._fold_aggregates(state, out, w)
                    else:
                        packet = state.packet
                        if not packet.started_emitting:
                            packet.mark_started()
                            if self.engine.cjoin_stage is not None:
                                self.engine.cjoin_stage.unregister(packet)
                        yield from packet.exchange.emit(Batch(out, w))
                state.outstanding -= 1
                if state.no_more_pages and state.outstanding == 0 and not state.done:
                    yield from self._complete(state)
            self.inflight -= 1
            if self.inflight == 0:
                self._idle.notify_all()

    def _fold_aggregates(self, state: _QueryState, rows: list[tuple], weight: float) -> None:
        from repro.engine.stages.aggregate import _Accumulator

        specs = state.agg_node.aggregates
        nspecs = len(specs)
        groups = state.agg_groups
        key_of = state.agg_key_fn or row_key_fn(state.agg_group_idx)
        fns = state.agg_value_fns
        for r in rows:
            key = key_of(r)
            acc = groups.get(key)
            if acc is None:
                acc = groups[key] = _Accumulator(nspecs)
            for i, fn in enumerate(fns):
                spec = specs[i]
                if spec.func == "count":
                    acc.counts[i] += weight
                    continue
                v = fn(r)
                if spec.func in ("sum", "avg"):
                    acc.sums[i] += v * weight
                    acc.counts[i] += weight
                elif spec.func == "min":
                    acc.mins[i] = v if acc.mins[i] is None else min(acc.mins[i], v)
                else:
                    acc.maxs[i] = v if acc.maxs[i] is None else max(acc.maxs[i], v)

    def _complete(self, state: _QueryState) -> Iterator[Any]:
        state.done = True
        packet = state.packet
        if state.agg_groups is not None:
            from repro.engine.stages.aggregate import _finalize

            specs = state.agg_node.aggregates
            out_rows = [
                key + tuple(_finalize(specs[i], acc, i) for i in range(len(specs)))
                for key, acc in state.agg_groups.items()
            ]
            packet.mark_started()
            if self.engine.cjoin_stage is not None:
                self.engine.cjoin_stage.unregister(packet)
            if out_rows:
                yield from packet.exchange.emit(Batch(out_rows, weight=1.0))
        packet.exchange.close()
        packet.finished = True
        if self.engine.cjoin_stage is not None:
            self.engine.cjoin_stage.unregister(packet)
        del self.active[state.slot]
        self.slots.retire(state.slot)
        self._work.notify_all()

    # ------------------------------------------------------------------
    def _split_node(self, packet: "Packet") -> tuple["CJoinNode", Any]:
        """A pipeline packet carries either a bare CJoinNode or -- with
        shared aggregation -- an AggregateNode directly above one."""
        from repro.query.plan import AggregateNode

        node = packet.node
        if isinstance(node, AggregateNode):
            return node.child, node
        return node, None

    def _make_projector(self, node: "CJoinNode") -> Callable:
        fact_idx = column_indices(self.fact.schema, node.fact_payload)
        dim_proj: list[tuple[str, tuple[int, ...]]] = []
        for d in node.dims:
            dim_schema = self.storage.table(d.dim_table).schema
            dim_proj.append((d.dim_table, column_indices(dim_schema, d.payload)))

        def project(fact_row: tuple, dims: tuple, filter_pos: dict[str, int]) -> tuple:
            out = [fact_row[i] for i in fact_idx]
            for name, idxs in dim_proj:
                if idxs:
                    dim_row = dims[filter_pos[name]]
                    out.extend(dim_row[i] for i in idxs)
            return tuple(out)

        return project
