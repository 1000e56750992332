"""Shared join arrangements: refcounted build-side indexes reused across
concurrent queries.

The paper's thesis is that concurrent analytical queries should share
*data and work*; scans already share (circular scans, WoP, the result
cache, the GQP) but build-side **state** did not -- every QPipe hash-join
and every CJOIN admission rebuilt its build-side hash table from scratch.
Following *Shared Arrangements* (McSherry et al., PAPERS.md), this module
maintains ONE indexed representation of each (table, key column) pair --
an :class:`Arrangement` -- built on first demand and shared by every
concurrent reader that joins on that key.

Determinism contract (the same one ``CJoinPipeline._dim_sel_cache``
established): sharing an arrangement never changes a simulated tick.
Every consumer keeps yielding the exact charges of a private build --
build-input page reads, hashing/insert cycles, admission scans -- and
only the *host-side Python data structure* is reused.  The golden suite
(``tests/engine/test_golden_determinism.py``) holds simulated metrics to
bit-identical with the ``arrangements`` flag on vs off.

Contents of one arrangement:

* ``positions`` -- hash map from key value to row positions (the hash
  variant every join consumer probes);
* ``unique`` -- whether the base table's key column is unique (dimension
  tables keyed by primary key -- the star-schema common case).  Unique
  base keys make every filtered subset unique too, so shared views are
  insertion-order-independent and safe under circular-scan rotation;
* :meth:`Arrangement.single_view` -- the hoisted single-match table
  (``key -> row``), memoized **per predicate** instead of rebuilt per
  query (see :func:`single_match_table`, moved here from the join
  stage);
* :meth:`Arrangement.range_positions` -- the sorted variant: bisect
  range lookups over the key column for range-keyed consumers.

Lifecycle: the process-wide :data:`ARRANGEMENTS` cache hands out pinned
(refcounted) arrangements via :meth:`ArrangementCache.acquire`; holders
:meth:`~ArrangementCache.release` when done.  ``StorageManager.
notify_update`` calls :meth:`ArrangementCache.invalidate_table` (the
same hook the result cache uses): the cache entry is dropped so the
*next* acquirer rebuilds against fresh data, while concurrent holders
finish on their pinned snapshot (their Python reference keeps it alive).
Shard parents build arrangements pre-fork (:mod:`repro.shard.service`)
so they ride fork-COW into every worker for free.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.query.expr import Expr
    from repro.storage.table import Table

__all__ = ["ARRANGEMENTS", "Arrangement", "ArrangementCache", "single_match_table"]


def single_match_table(table: dict[Any, list[tuple]]) -> dict[Any, tuple] | None:
    """When every build key maps to exactly one row (dimension tables keyed
    by primary key -- the star-schema common case), flatten the hash table
    to key -> row so probes run as C-level dict lookups.  Returns None when
    any key has multiple matches (the general loop handles those).

    Hoisted here from the join stage so the specialization is computed
    once per *arrangement* (see :meth:`Arrangement.single_view`) instead
    of once per query; the stage still calls it for private builds."""
    if any(len(ms) != 1 for ms in table.values()):
        return None
    return {k: ms[0] for k, ms in table.items()}


class Arrangement:
    """One shared build-side index over ``table`` keyed by ``key_column``."""

    __slots__ = (
        "table",
        "key_column",
        "key_idx",
        "rows",
        "positions",
        "unique",
        "refcount",
        "_single_memo",
        "_keys_memo",
        "_sorted_keys",
        "_sorted_positions",
        "_range_memo",
        "fold_views",
        "fold_ranges",
    )

    def __init__(self, table: "Table", key_column: str):
        self.table = table
        self.key_column = key_column
        self.key_idx = table.schema.index(key_column)
        # Dimension tables are small (thousands of generated rows); the
        # arrangement materializes their rows once so every shared view is
        # a dict over already-boxed tuples.
        self.rows: list[tuple] = list(table.iter_rows())
        key_idx = self.key_idx
        positions: dict[Any, list[int]] = {}
        setdefault = positions.setdefault
        for pos, r in enumerate(self.rows):
            setdefault(r[key_idx], []).append(pos)
        self.positions = positions
        self.unique = all(len(ps) == 1 for ps in positions.values())
        self.refcount = 0
        #: predicate (or None) -> {key: row} single-match view over the
        #: rows passing that predicate.  Expr compares/hashes structurally
        #: (PR 7), so queries drawing equal predicates share one view.
        self._single_memo: dict[Any, dict[Any, tuple]] = {}
        #: predicate (or None) -> [key per selected row, in table order]
        #: (what CJOIN admission extracts per admitted query)
        self._keys_memo: dict[Any, list[Any]] = {}
        self._sorted_keys: list[Any] | None = None
        self._sorted_positions: list[int] | None = None
        #: predicate -> (sorted keys, sorted positions) over the rows
        #: passing that predicate -- per-predicate sorted variants, each
        #: derived from the weakest subsuming variant already built
        #: (``None`` = the unfiltered base) instead of from scratch.
        self._range_memo: dict[Any, tuple[list[Any], list[int]]] = {}
        #: single-match views served from a subsuming sibling's view
        #: through a residual filter (query folding)
        self.fold_views = 0
        #: per-predicate sorted variants derived from a subsuming sibling
        self.fold_ranges = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Arrangement {self.table.name}.{self.key_column}"
            f" keys={len(self.positions)} unique={self.unique} rc={self.refcount}>"
        )

    # -- hash variant ---------------------------------------------------
    def single_view(self, predicate: "Expr | None" = None) -> dict[Any, tuple]:
        """The shared single-match table (``key -> row``) over the rows
        passing ``predicate`` (all rows when None), memoized per
        predicate.  Only valid on a unique-key arrangement: uniqueness of
        the base key makes every subset's mapping independent of build
        insertion order, which is what lets circularly-rotated build
        scans share one view."""
        if not self.unique:
            raise ValueError(
                f"{self.table.name}.{self.key_column} is not unique; "
                "consumers must fall back to a private build"
            )
        view = self._single_memo.get(predicate)
        if view is None:
            key_idx = self.key_idx
            if predicate is None:
                rows = self.rows
            else:
                pred = predicate.compile(self.table.schema)
                rows = [r for r in self.rows if pred(r)]
            view = self._single_memo[predicate] = {r[key_idx]: r for r in rows}
        return view

    def has_single_view(self, predicate: "Expr | None" = None) -> bool:
        """Whether the view for ``predicate`` is already memoized (lets a
        consumer skip collecting rows to offer)."""
        return predicate in self._single_memo

    def offer_single_view(
        self, predicate: "Expr | None", rows: list[tuple]
    ) -> dict[Any, tuple]:
        """Memoize (or fetch) the single-match view for ``predicate`` from
        ``rows``, an already-filtered build input some consumer drained
        anyway.  This is the cheap path :meth:`single_view` avoids paying
        twice for: the first query with a novel predicate seeds the view
        from its own (fully charged) build scan, and later queries fetch
        the memo.  Unique base keys make the mapping independent of row
        order, so circularly-rotated build scans offer identical views."""
        view = self._single_memo.get(predicate)
        if view is None:
            if not self.unique:
                raise ValueError(
                    f"{self.table.name}.{self.key_column} is not unique; "
                    "consumers must fall back to a private build"
                )
            key_idx = self.key_idx
            view = self._single_memo[predicate] = {r[key_idx]: r for r in rows}
        return view

    # -- subsumption folds (repro.query.subsume) -------------------------
    def has_subsuming_view(self, predicate: "Expr | None" = None) -> bool:
        """Whether :meth:`fold_single_view` could serve ``predicate`` right
        now: its exact view is memoized, or some memoized sibling's
        predicate subsumes it (lets a consumer skip collecting rows to
        offer, exactly like :meth:`has_single_view`)."""
        if not self.unique:
            return False
        if predicate in self._single_memo:
            return True
        if predicate is None:
            return False
        from repro.query.subsume import predicate_subsumes  # deferred: layering

        return any(predicate_subsumes(p, predicate)[0] for p in self._single_memo)

    def fold_single_view(self, predicate: "Expr | None") -> dict[Any, tuple] | None:
        """The single-match view for ``predicate``, derived from the
        smallest memoized sibling view whose predicate *subsumes* it
        (query folding) -- filter the sibling's rows instead of re-scanning
        the table.  Returns the exact memo when present, ``None`` when no
        sibling subsumes (callers fall back to a private build).  The
        derived view is memoized, so it seeds further folds."""
        view = self._single_memo.get(predicate)
        if view is not None:
            return view
        if not self.unique or predicate is None:
            return None
        from repro.query.subsume import predicate_subsumes  # deferred: layering

        provider: dict[Any, tuple] | None = None
        for prov_pred, prov_view in self._single_memo.items():
            if predicate_subsumes(prov_pred, predicate)[0]:
                if provider is None or len(prov_view) < len(provider):
                    provider = prov_view
        if provider is None:
            return None
        pred = predicate.compile(self.table.schema)
        view = {k: r for k, r in provider.items() if pred(r)}
        self._single_memo[predicate] = view
        self.fold_views += 1
        return view

    def keys_for(
        self, selected: list[tuple], predicate: "Expr | None" = None
    ) -> list[Any]:
        """The key column of ``selected`` (an admission's dim-scan output
        for ``predicate``), memoized per predicate.  Scans iterate pages
        in table order, so equal predicates select equal row lists; the
        length check guards the (never-observed) mismatch by recomputing."""
        keys = self._keys_memo.get(predicate)
        if keys is None or len(keys) != len(selected):
            key_idx = self.key_idx
            keys = self._keys_memo[predicate] = [r[key_idx] for r in selected]
        return keys

    # -- sorted variant -------------------------------------------------
    def _ensure_sorted(self) -> None:
        if self._sorted_keys is None:
            order = sorted(range(len(self.rows)), key=lambda p: self.rows[p][self.key_idx])
            self._sorted_positions = order
            self._sorted_keys = [self.rows[p][self.key_idx] for p in order]

    def range_positions(
        self, lo: Any, hi: Any, predicate: "Expr | None" = None
    ) -> list[int]:
        """Row positions whose key falls in ``[lo, hi]`` (both inclusive)
        *and* whose row passes ``predicate`` (all rows when None), in
        ascending key order -- the sorted arrangement for range-keyed
        consumers, built lazily on first range probe (bisect over one
        sorted key vector shared by every range consumer).

        Per-predicate sorted variants are derived from the weakest
        subsuming variant already memoized (query folding): a probe under
        ``σ_a`` filters the base's sorted vector once, and a later probe
        under ``σ_a∧b`` filters ``σ_a``'s (smaller) vector instead of the
        base -- the sorted variant of a differently filtered sibling keeps
        serving narrower consumers."""
        if predicate is None:
            self._ensure_sorted()
            keys, poss = self._sorted_keys, self._sorted_positions
        else:
            keys, poss = self._range_variant(predicate)
        a = bisect_left(keys, lo)
        b = bisect_right(keys, hi)
        return poss[a:b]

    def _range_variant(self, predicate: "Expr") -> tuple[list[Any], list[int]]:
        """The (sorted keys, positions) pair over rows passing
        ``predicate``, derived from the smallest memoized subsuming
        variant (the unfiltered base when none subsumes) and memoized."""
        got = self._range_memo.get(predicate)
        if got is not None:
            return got
        from repro.query.subsume import predicate_subsumes  # deferred: layering

        provider: tuple[list[Any], list[int]] | None = None
        for prov_pred, pair in self._range_memo.items():
            if predicate_subsumes(prov_pred, predicate)[0]:
                if provider is None or len(pair[0]) < len(provider[0]):
                    provider = pair
        if provider is None:
            self._ensure_sorted()
            keys, poss = self._sorted_keys, self._sorted_positions
        else:
            keys, poss = provider
            self.fold_ranges += 1
        pred = predicate.compile(self.table.schema)
        rows = self.rows
        pairs = [(k, p) for k, p in zip(keys, poss) if pred(rows[p])]
        variant = ([k for k, _ in pairs], [p for _, p in pairs])
        self._range_memo[predicate] = variant
        return variant

    def lookup_positions(self, key: Any) -> list[int]:
        """Row positions holding ``key`` (empty when absent)."""
        return self.positions.get(key, [])


class ArrangementCache:
    """Process-wide refcounted cache of :class:`Arrangement` objects.

    Keyed by ``(table name, key column)`` with *object identity*
    verification: regenerated datasets produce new ``Table`` objects under
    old names, and a stale entry is then evicted and rebuilt.  Single-threaded by design, like every
    other host-side structure here: engine "threads" are simulated
    generators, and each shard worker process owns its own (fork-COW
    initialized) cache."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], Arrangement] = {}
        self.hits = 0
        self.builds = 0
        self.evictions = 0
        self.invalidations = 0

    # -- acquisition ----------------------------------------------------
    def acquire(self, table: "Table", key_column: str) -> Arrangement:
        """Pin (refcount) the arrangement for ``(table, key_column)``,
        building it on first demand.  Callers must :meth:`release`."""
        key = (table.name, key_column)
        arr = self._entries.get(key)
        if arr is not None and arr.table is table:
            self.hits += 1
            arr.refcount += 1
            return arr
        if arr is not None:
            # Same name, different table object: the dataset was rebuilt
            # (e.g. under other storage flags); drop the stale index.
            self.evictions += 1
        arr = Arrangement(table, key_column)
        self._entries[key] = arr
        self.builds += 1
        arr.refcount += 1
        return arr

    def release(self, arr: Arrangement) -> None:
        """Unpin one holder.  The arrangement stays cached for the next
        acquirer; refcounts only track live readers (invalidation never
        destroys a pinned holder's snapshot -- Python references do the
        keeping-alive, the count is the observable)."""
        if arr.refcount > 0:
            arr.refcount -= 1

    # -- invalidation ---------------------------------------------------
    def invalidate_table(self, table_name: str) -> int:
        """A base table changed: drop its arrangements so the next query
        rebuilds.  Concurrent holders keep their pinned snapshot (exactly
        the semantics of the result cache's ``invalidate_table``, whose
        ``StorageManager.notify_update`` hook calls this).  Returns the
        number of arrangements dropped."""
        stale = [k for k in self._entries if k[0] == table_name]
        for k in stale:
            del self._entries[k]
        self.evictions += len(stale)
        self.invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        """Drop everything (tests)."""
        self.evictions += len(self._entries)
        self._entries.clear()

    # -- introspection --------------------------------------------------
    def get(self, table_name: str, key_column: str) -> Arrangement | None:
        """The cached arrangement (unpinned peek), or None."""
        return self._entries.get((table_name, key_column))

    def pinned(self) -> int:
        """Total live pins across cached arrangements."""
        return sum(a.refcount for a in self._entries.values())

    def stats(self) -> dict[str, int]:
        """Counter snapshot -- what the service tiers publish into their
        metrics (``arrangement_hits`` / ``_builds`` / ... deltas) and the
        benchmarks commit into ``BENCH_arrangements.json``."""
        return {
            "hits": self.hits,
            "builds": self.builds,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": len(self._entries),
            "fold_views": sum(a.fold_views for a in self._entries.values()),
            "fold_ranges": sum(a.fold_ranges for a in self._entries.values()),
        }


#: The process-wide cache every consumer shares (QPipe hash joins, CJOIN
#: admission, shard prewarm + workers).  Gated by the ``arrangements``
#: fast-path flag at each consumer, not here.
ARRANGEMENTS = ArrangementCache()
