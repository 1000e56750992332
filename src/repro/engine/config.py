"""Engine configurations.

The paper's Section 5.1 compares five configurations of the integrated
QPipe+CJOIN engine; Figure 6 additionally varies the SP communication model
(push-based FIFO vs pull-based SPL).  All of them are instances of
:class:`EngineConfig`:

* ``QPIPE``     -- no sharing at all (the query-centric baseline),
* ``QPIPE_CS``  -- SP for the table-scan stage only (circular scans),
* ``QPIPE_SP``  -- + SP for the join stage,
* ``CJOIN``     -- star-query joins routed to the shared CJOIN pipeline,
* ``CJOIN_SP``  -- + SP for the CJOIN stage itself.

SP for aggregation and sort stages exists but is off in every preset, as in
the paper ("this is done on purpose to isolate the benefits of SP for joins
only").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Process-wide sharing switches (shared arrangements, query folding, the
# adaptive GQP plane).  They live in repro.sim.fastpath, the lowest layer;
# re-exported here because engine code and benchmarks treat them as engine
# configuration.
from repro.sim.fastpath import (  # noqa: F401  (re-exports)
    arrangements_default,
    fast_path,
    gqp_adaptive_ordering_default,
    gqp_filter_kernels_default,
    gqp_plane,
    query_folding_default,
    set_gqp_plane,
)


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of one engine configuration."""

    name: str = "QPipe"
    #: SP per stage
    sp_scan: bool = False  # circular scans (linear WoP)
    sp_join: bool = False  # join stage (step WoP)
    sp_agg: bool = False  # off in all paper experiments
    sp_sort: bool = False  # off in all paper experiments
    #: route star-query joins to the CJOIN global query plan
    use_cjoin: bool = False
    sp_cjoin: bool = False  # SP on whole CJOIN packets (step WoP)
    #: SP communication model: 'spl' (pull) or 'fifo' (push)
    comm: str = "spl"
    #: run-time prediction model for *push-based* SP (Johnson et al. [14]):
    #: attach a satellite only when forwarding beats private evaluation on
    #: the current load.  Ignored under 'spl' (pull-based sharing has no
    #: serialization point, so sharing is always beneficial -- the paper's
    #: argument for not needing a model at all).
    sp_prediction: bool = False
    #: SPL bound in pages (paper: 256 KB / 32 KB pages = 8)
    spl_max_pages: int = 8
    #: FIFO buffer bound in pages
    fifo_capacity: int = 8
    #: CJOIN thread configuration (paper Section 5.2.2): "horizontal" --
    #: a pool of ``filter_workers`` threads each carrying a page through
    #: the whole filter chain -- or "vertical" -- one thread *per filter*,
    #: pages handed between them ("these configurations, however, do not
    #: necessarily provide better performance").
    cjoin_threads: str = "horizontal"
    filter_workers: int = 4
    distributor_parts: int = 2
    #: DataPath-style shared aggregation (paper Section 2.4): fold each
    #: star query's aggregation into the GQP -- the distributor keeps "a
    #: running sum for each group and query" and emits finalized rows at
    #: query completion, eliminating the per-query aggregation packets.
    shared_aggregation: bool = False
    #: SharedDB-style batched execution (paper Section 2.4): admit new
    #: queries only when the current generation has fully completed.  The
    #: paper's noted drawback emerges: "a new query may suffer increased
    #: latency, and the latency of a batch is dominated by the
    #: longest-running query."  Off by default (CJOIN admits continuously).
    gqp_batched_execution: bool = False
    #: stages whose packets may probe/fill the shared result cache (when
    #: the storage manager carries one; see repro.cache).  Materialization
    #: points with small outputs and large recompute costs by default --
    #: aggregate/sort roots serve whole recurring queries from cache, and
    #: CJOIN packets cover the GQP route.  Raw scans are never cached (the
    #: buffer pool already holds base pages); 'join' may be opted in, at
    #: the price of spilling potentially fact-sized intermediate results.
    result_cache_stages: tuple[str, ...] = ("aggregate", "sort", "cjoin")
    #: shared join arrangements (None = follow the process-wide default):
    #: the hash-join stage and CJOIN admission probe one refcounted
    #: build-side index per (table, key column) from
    #: :data:`repro.storage.arrangements.ARRANGEMENTS` instead of each
    #: query building its own.  Every simulated charge is still paid per
    #: query (only the host-side structure is shared), so it never changes
    #: a simulated tick.
    arrangements: bool | None = None
    #: subsumption-based query folding (None = follow the process-wide
    #: default, ``REPRO_FOLD``): admission, the result cache, and the
    #: arrangement cache match by *subsumption* (:mod:`repro.query.subsume`)
    #: in addition to exact signatures -- a satellite attaches to a
    #: superset host through a residual post-filter, a cache probe answers
    #: from a superset entry, a range probe rides a sibling arrangement.
    #: Folding skips sub-plan work, so unlike arrangements it *changes
    #: simulated timing*; query results stay bit-identical (golden suite
    #: fingerprint-asserts both planes).
    query_folding: bool | None = None
    #: the adaptive GQP data plane (None = follow the process-wide default;
    #: see ``gqp_plane`` / ``set_gqp_plane``).  Unlike arrangements,
    #: these *change simulated results* when enabled: ``gqp_adaptive_ordering``
    #: re-sorts the CJOIN filter chain most-selective-first at logical-tick
    #: boundaries, and ``gqp_filter_kernels`` probes filters columnar-style
    #: and skips filters irrelevant to every surviving query on a page.
    #: Both default off, keeping default runs bit-identical to the golden
    #: metrics snapshot.
    gqp_adaptive_ordering: bool | None = None
    gqp_filter_kernels: bool | None = None
    #: adaptive-ordering tuning: re-sort check cadence in preprocessor pages
    #: (the horizontal config's logical tick; the vertical config re-sorts
    #: at admission pauses), EWMA smoothing of observed per-filter pass
    #: rates, and the pass-rate margin an adjacent filter pair must be out
    #: of order by before the chain re-sorts (hysteresis against thrash).
    gqp_reorder_interval: int = 16
    gqp_selectivity_alpha: float = 0.3
    gqp_order_hysteresis: float = 0.05

    def use_arrangements(self) -> bool:
        return arrangements_default() if self.arrangements is None else self.arrangements

    def use_query_folding(self) -> bool:
        return query_folding_default() if self.query_folding is None else self.query_folding

    def use_gqp_adaptive_ordering(self) -> bool:
        if self.gqp_adaptive_ordering is None:
            return gqp_adaptive_ordering_default()
        return self.gqp_adaptive_ordering

    def use_gqp_filter_kernels(self) -> bool:
        if self.gqp_filter_kernels is None:
            return gqp_filter_kernels_default()
        return self.gqp_filter_kernels

    def __post_init__(self) -> None:
        if self.comm not in ("spl", "fifo"):
            raise ValueError("comm must be 'spl' or 'fifo'")
        if self.spl_max_pages < 1 or self.fifo_capacity < 1:
            raise ValueError("buffer bounds must be >= 1")
        if self.filter_workers < 1 or self.distributor_parts < 1:
            raise ValueError("CJOIN needs at least one worker of each kind")
        if self.sp_cjoin and not self.use_cjoin:
            raise ValueError("sp_cjoin requires use_cjoin")
        if self.shared_aggregation and not self.use_cjoin:
            raise ValueError("shared_aggregation requires use_cjoin")
        if self.gqp_batched_execution and not self.use_cjoin:
            raise ValueError("gqp_batched_execution requires use_cjoin")
        if self.cjoin_threads not in ("horizontal", "vertical"):
            raise ValueError("cjoin_threads must be 'horizontal' or 'vertical'")
        if self.gqp_reorder_interval < 1:
            raise ValueError("gqp_reorder_interval must be >= 1")
        if not 0.0 < self.gqp_selectivity_alpha <= 1.0:
            raise ValueError("gqp_selectivity_alpha must be in (0, 1]")
        if not 0.0 <= self.gqp_order_hysteresis < 1.0:
            raise ValueError("gqp_order_hysteresis must be in [0, 1)")
        allowed = {"tablescan", "join", "aggregate", "sort", "cjoin"}
        unknown = set(self.result_cache_stages) - allowed
        if unknown:
            raise ValueError(f"unknown result_cache_stages: {sorted(unknown)}")
        if "tablescan" in self.result_cache_stages:
            raise ValueError("raw scans are served by the buffer pool, not the result cache")

    def with_comm(self, comm: str) -> "EngineConfig":
        return replace(self, comm=comm, name=f"{self.name} ({comm.upper()})")


#: The paper's five configurations (Section 5.1).
QPIPE = EngineConfig(name="QPipe")
QPIPE_CS = EngineConfig(name="QPipe-CS", sp_scan=True)
QPIPE_SP = EngineConfig(name="QPipe-SP", sp_scan=True, sp_join=True)
CJOIN = EngineConfig(name="CJOIN", sp_scan=True, use_cjoin=True)
CJOIN_SP = EngineConfig(name="CJOIN-SP", sp_scan=True, use_cjoin=True, sp_cjoin=True)

PAPER_CONFIGS = (QPIPE, QPIPE_CS, QPIPE_SP, CJOIN, CJOIN_SP)
