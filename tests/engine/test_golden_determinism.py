"""Golden determinism: the fast path must not change a single simulated tick.

Each seeded SSB workload runs twice through the same engine configuration --
once with batch kernels and fused charges disabled (the row-at-a-time
"before") and once enabled -- and the complete ``Metrics.to_dict()`` view,
the final simulated clock, and every per-query response time must match
*bitwise* (``==`` on floats, no tolerance).

A committed snapshot (``golden_metrics.json``) additionally pins the
fast-path numbers across commits: any change to simulated behavior --
intended or not -- shows up as a diff of that file, which must then be
regenerated deliberately (``python tests/engine/test_golden_determinism.py``)
and reviewed."""

import json
import pathlib

import pytest

from repro.data import generate_ssb
from repro.engine import CJOIN, CJOIN_SP, QPIPE_SP, QPipeEngine
from repro.engine.config import fast_path
from repro.baselines import VolcanoEngine
from repro.query.ssb_queries import random_q32
from repro.data.rng import make_rng
from repro.sim import Simulator
from repro.sim.machine import MachineSpec
from repro.storage import StorageConfig, StorageManager
from repro.sim.costmodel import DEFAULT_COST_MODEL

GOLDEN_PATH = pathlib.Path(__file__).with_name("golden_metrics.json")

MACHINE = MachineSpec(cores=8, hz=1.86e9)
CONFIGS = {
    "QPipe-SP": QPIPE_SP,
    "CJOIN": CJOIN,
    "CJOIN-SP": CJOIN_SP,
    "Postgres": "postgres",
}


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=21)


def _run_mix_inner(ssb, config_key: str) -> dict:
    """One seeded 6-query Q3.2 mix under the *current* process flags;
    returns a JSON-safe measurement dict."""
    sim = Simulator(MACHINE)
    storage = StorageManager(
        sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident="memory")
    )
    config = CONFIGS[config_key]
    if config == "postgres":
        engine = VolcanoEngine(sim, storage, DEFAULT_COST_MODEL)
    else:
        engine = QPipeEngine(sim, storage, config)
    rng = make_rng(77, "golden", config_key)
    handles = [engine.submit(random_q32(rng)) for _ in range(6)]
    sim.run()
    times = sorted(h.response_time for h in handles)
    n = len(times)
    return {
        "sim_now": sim.now,
        "response_times": [h.response_time for h in handles],
        "p50": times[int(0.50 * (n - 1))],
        "p95": times[int(0.95 * (n - 1))],
        "p99": times[int(0.99 * (n - 1))],
        "metrics": sim.metrics.to_dict(),
    }


def run_mix(
    ssb, config_key: str, *, batch: bool, fuse: bool, columnar: bool | None = None
) -> dict:
    """:func:`_run_mix_inner` under a ``fast_path`` context.
    ``columnar=None`` follows ``batch`` (the fast_path default)."""
    with fast_path(batch_kernels=batch, fuse_charges=fuse, columnar_pages=columnar):
        return _run_mix_inner(ssb, config_key)


@pytest.mark.parametrize("config_key", list(CONFIGS), ids=list(CONFIGS))
def test_fast_path_is_bit_identical(ssb, config_key):
    slow = run_mix(ssb, config_key, batch=False, fuse=False)
    fast = run_mix(ssb, config_key, batch=True, fuse=True)
    assert fast == slow  # bitwise: dict equality compares floats with ==


@pytest.mark.parametrize(
    "batch,fuse", [(True, False), (False, True)], ids=["kernels-only", "fusion-only"]
)
def test_each_fast_path_is_independently_identical(ssb, batch, fuse):
    base = run_mix(ssb, "CJOIN-SP", batch=False, fuse=False)
    assert run_mix(ssb, "CJOIN-SP", batch=batch, fuse=fuse) == base


@pytest.mark.parametrize("config_key", list(CONFIGS), ids=list(CONFIGS))
def test_columnar_plane_is_bit_identical(ssb, config_key):
    """The columnar (late-materialized) data plane changes only host-side
    layout: batches, selection vectors and join tails carry the same row
    counts as the row plane, so every charge -- and therefore every
    simulated tick -- must match bitwise with the toggle alone flipped."""
    rows = run_mix(ssb, config_key, batch=True, fuse=True, columnar=False)
    cols = run_mix(ssb, config_key, batch=True, fuse=True, columnar=True)
    assert cols == rows


@pytest.mark.parametrize("config_key", list(CONFIGS), ids=list(CONFIGS))
def test_packed_storage_is_bit_identical(config_key):
    """Packed vectors (typed arrays + dictionary codes) change only how
    column values are *stored*.  Every kernel -- dictionary pass tables,
    memoized predicate masks, typed-array decodes -- keeps the same
    survivors in the same order and decodes the exact original values, so
    the full metrics view must match bitwise against boxed vectors.  The
    dataset is regenerated inside each context: layout is baked in at
    table build time (the memo is keyed by the effective flag)."""
    results = []
    for packed in (False, True):
        with fast_path(
            batch_kernels=True,
            fuse_charges=True,
            columnar_pages=True,
            packed_storage=packed,
        ):
            data = generate_ssb(0.5, seed=21)
            results.append(_run_mix_inner(data, config_key))
    assert results[0] == results[1]  # bitwise: == on floats


@pytest.mark.parametrize("config_key", list(CONFIGS), ids=list(CONFIGS))
def test_arrangements_are_bit_identical(ssb, config_key):
    """Shared join arrangements reuse the *host-side* build index across
    queries; every simulated charge (build-input reads, hashing/insert
    cycles, CJOIN admission scans) is still paid per query, so the full
    metrics view must match bitwise with the toggle alone flipped."""
    results = []
    for arrange in (False, True):
        with fast_path(
            batch_kernels=True,
            fuse_charges=True,
            arrangements=arrange,
        ):
            results.append(_run_mix_inner(ssb, config_key))
    assert results[0] == results[1]  # bitwise: == on floats


@pytest.mark.parametrize("mode", ["hash", "range"])
def test_shard_fingerprints_identical_arrangements_vs_naive(ssb, mode):
    """A shard engine probing shared arrangements must be indistinguishable
    from one building private hash tables: identical partial-aggregate
    state and identical simulated service time on every shard, for either
    placement mode."""
    from repro.parallel.cells import DatasetSpec
    from repro.query.ssb_queries import q32
    from repro.shard.partition import shard_tables
    from repro.shard.spec import ShardConfig
    from repro.shard.worker import execute_shard_query

    spec = q32("CHINA", "FRANCE", 1993, 1996)
    outcomes = []
    for arrange in (False, True):
        with fast_path(batch_kernels=True, fuse_charges=True, arrangements=arrange):
            config = ShardConfig(n_shards=2, dataset=DatasetSpec("ssb", 0.5, 21))
            per_shard = []
            for shard in range(2):
                view = shard_tables(ssb.tables, "lineorder", shard, 2, mode, 21)
                per_shard.append(execute_shard_query(view, spec, config))
            outcomes.append(per_shard)
    assert outcomes[0] == outcomes[1]  # bitwise: == on floats


@pytest.mark.parametrize("mode", ["hash", "range"])
def test_shard_fingerprints_identical_row_vs_columnar_partitioning(ssb, mode):
    """Zero-copy shard partitions (column slices / gathers through
    ``Table.from_columns``) must be *indistinguishable* from row-built
    partitions to a shard engine: identical partial-aggregate state and
    identical simulated service time on every shard."""
    from repro.parallel.cells import DatasetSpec
    from repro.query.ssb_queries import q32
    from repro.shard.partition import shard_tables
    from repro.shard.spec import ShardConfig
    from repro.shard.worker import execute_shard_query

    spec = q32("CHINA", "FRANCE", 1993, 1996)
    config = ShardConfig(n_shards=2, dataset=DatasetSpec("ssb", 0.5, 21))
    for shard in range(2):
        fingerprints = []
        for columnar in (False, True):
            view = shard_tables(
                ssb.tables, "lineorder", shard, 2, mode, 21, columnar=columnar
            )
            state, svc = execute_shard_query(view, spec, config)
            fingerprints.append((state, svc))
        assert fingerprints[0] == fingerprints[1]  # bitwise: == on floats


@pytest.mark.parametrize("mode", ["hash", "range"])
def test_shard_fingerprints_identical_packed_vs_boxed(mode):
    """Packed shard partitions -- zero-copy ``memoryview`` range slices
    and single-pass code/array gathers -- must be indistinguishable from
    boxed-list partitions to a shard engine: identical partial-aggregate
    state and identical simulated service time on every shard, for either
    placement mode."""
    from repro.parallel.cells import DatasetSpec
    from repro.query.ssb_queries import q32
    from repro.shard.partition import shard_tables
    from repro.shard.spec import ShardConfig
    from repro.shard.worker import execute_shard_query

    spec = q32("CHINA", "FRANCE", 1993, 1996)
    config = ShardConfig(n_shards=2, dataset=DatasetSpec("ssb", 0.5, 21))
    outcomes = []
    for packed in (False, True):
        with fast_path(
            batch_kernels=True,
            fuse_charges=True,
            columnar_pages=True,
            packed_storage=packed,
        ):
            data = generate_ssb(0.5, seed=21)
            per_shard = []
            for shard in range(2):
                view = shard_tables(
                    data.tables, "lineorder", shard, 2, mode, 21, columnar=True
                )
                per_shard.append(execute_shard_query(view, spec, config))
            outcomes.append(per_shard)
    assert outcomes[0] == outcomes[1]  # bitwise: == on floats


# ---------------------------------------------------------------------------
# Query folding (subsumption lattice, sixth fast-path flag)
# ---------------------------------------------------------------------------
# Folding deliberately CHANGES simulated timing -- a folded satellite reads
# the host's stream instead of running its own sub-plan -- so the invariant
# here is different from the other planes: query *results* must be
# bit-identical fold-on vs fold-off, while fold-OFF metrics stay pinned by
# the committed snapshot (every other test in this file runs inside a
# ``fast_path`` context, which resolves ``query_folding=None`` to False).


def _result_fingerprint(rows) -> str:
    import hashlib

    h = hashlib.sha256()
    for r in rows:
        h.update(repr(r).encode())
        h.update(b"\n")
    return h.hexdigest()


def _fold_mix_jobs():
    """An overlap-heavy Q3.2 mix: two broad templates, each followed by
    strictly narrower instances a fold can serve, plus random ad-hoc
    queries (arrival order broad-first so hosts exist when the narrow
    satellites are admitted)."""
    from repro.query.ssb_queries import q32

    rng = make_rng(31, "golden-fold")
    jobs = [
        q32("CHINA", "FRANCE", 1992, 1997),
        q32("CHINA", "FRANCE", 1993, 1996),
        q32("CHINA", "FRANCE", 1994, 1995),
        q32("INDIA", "RUSSIA", 1992, 1997),
        q32("INDIA", "RUSSIA", 1995, 1997),
        random_q32(rng),
        random_q32(rng),
        q32("CHINA", "FRANCE", 1993, 1993),
    ]
    return jobs


def _fold_mix_run(ssb, config_key: str, fold: bool):
    """Run the overlap mix with a small submit stagger; returns the
    simulator and the per-query handles in submit order."""
    from repro.sim.commands import SLEEP
    from repro.storage.manager import StorageConfig as SC

    with fast_path(batch_kernels=True, fuse_charges=True, query_folding=fold):
        sim = Simulator(MACHINE)
        storage = StorageManager(
            sim,
            DEFAULT_COST_MODEL,
            ssb.tables,
            SC(resident="memory", result_cache_bytes=32.0),
        )
        config = CONFIGS[config_key]
        if config == "postgres":
            engine = VolcanoEngine(sim, storage, DEFAULT_COST_MODEL)
        else:
            engine = QPipeEngine(sim, storage, config)
        jobs = _fold_mix_jobs()
        handles = []

        def submitter():
            for i, spec in enumerate(jobs):
                handles.append(engine.submit(spec))
                if i + 1 < len(jobs):
                    yield SLEEP(0.001)

        sim.spawn(submitter(), "submitter")
        sim.run()
        return sim, handles


def _run_fold_mix(ssb, config_key: str, fold: bool):
    """Per-query result fingerprints of the overlap mix plus the fold
    counters that fired."""
    sim, handles = _fold_mix_run(ssb, config_key, fold)
    folds = {k: v for k, v in sim.metrics.counts.items() if k.startswith("fold_")}
    return [_result_fingerprint(h.results) for h in handles], folds


@pytest.mark.parametrize("config_key", list(CONFIGS), ids=list(CONFIGS))
def test_query_folding_results_bit_identical(ssb, config_key):
    """Folded execution must be invisible in query *results*: every
    query's rows fingerprint identically fold-on vs fold-off (the residual
    filter / roll-up is exact and order-preserving, and integer-valued SSB
    measures make re-summed aggregates exact)."""
    off, _ = _run_fold_mix(ssb, config_key, fold=False)
    on, _ = _run_fold_mix(ssb, config_key, fold=True)
    assert on == off


def test_query_folding_fires_on_overlap(ssb):
    """The overlap mix must actually exercise the fold path (otherwise the
    bit-identity test above proves nothing)."""
    _, off_folds = _run_fold_mix(ssb, "QPipe-SP", fold=False)
    _, on_folds = _run_fold_mix(ssb, "QPipe-SP", fold=True)
    assert not off_folds, f"fold counters must stay zero fold-off: {off_folds}"
    assert sum(on_folds.values()) > 0, "no fold fired on the overlap mix"


#: sha256 of the fold-on overlap mix's full metrics view plus per-query
#: latencies, pinned before the fold providers were indexed by shape: the
#: index is a host-side lookup, so every fold-on tick must stay put.
FOLD_TIMING_DIGESTS = {
    "QPipe-SP": "53cf66d6e884eb3b8f2605726046bcb9bbe57c093f8295891cfe5fd7e8aecfa9",
    "CJOIN-SP": "a95f09bab59303f13541e52df837dbeeffa383e7a53e658ea6dd68949c82e176",
}


def _fold_timing_digest(ssb, config_key: str) -> str:
    import hashlib

    sim, handles = _fold_mix_run(ssb, config_key, fold=True)
    measured = {
        "metrics": sim.metrics.to_dict(),
        "latencies": [h.response_time for h in handles],
    }
    return hashlib.sha256(json.dumps(measured, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("config_key", list(FOLD_TIMING_DIGESTS))
def test_query_folding_timing_pinned(ssb, config_key):
    """Fold-on simulated timing is pinned too: fold search bills
    ``CostModel.fold_search`` per candidate examined, so how providers are
    found may change only host time, never a simulated tick."""
    assert _fold_timing_digest(ssb, config_key) == FOLD_TIMING_DIGESTS[config_key]


@pytest.mark.parametrize("mode", ["hash", "range"])
def test_shard_fingerprints_identical_fold_vs_naive(ssb, mode):
    """The fold flag rides ShardConfig's fast_flags into workers; a shard
    engine running under it must produce identical partial-aggregate state
    and identical simulated service time as the unfolded plane, for either
    placement mode."""
    from repro.parallel.cells import DatasetSpec
    from repro.query.ssb_queries import q32
    from repro.shard.partition import shard_tables
    from repro.shard.spec import ShardConfig
    from repro.shard.worker import execute_shard_query

    spec = q32("CHINA", "FRANCE", 1993, 1996)
    outcomes = []
    for fold in (False, True):
        with fast_path(batch_kernels=True, fuse_charges=True, query_folding=fold):
            config = ShardConfig(n_shards=2, dataset=DatasetSpec("ssb", 0.5, 21))
            per_shard = []
            for shard in range(2):
                view = shard_tables(ssb.tables, "lineorder", shard, 2, mode, 21)
                per_shard.append(execute_shard_query(view, spec, config))
            outcomes.append(per_shard)
    assert outcomes[0] == outcomes[1]  # bitwise: == on floats


def _jsonify(measured: dict) -> dict:
    """Round-trip through JSON so committed and in-memory forms compare
    equal (JSON has no tuples / int-vs-float distinctions to preserve)."""
    return json.loads(json.dumps(measured, sort_keys=True))


def test_matches_committed_golden_snapshot(ssb):
    assert GOLDEN_PATH.exists(), (
        "golden_metrics.json missing; regenerate with "
        "'PYTHONPATH=src python tests/engine/test_golden_determinism.py'"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    measured = {
        key: _jsonify(run_mix(ssb, key, batch=True, fuse=True)) for key in CONFIGS
    }
    assert measured == golden


if __name__ == "__main__":  # regenerate the snapshot
    data = generate_ssb(0.5, seed=21)
    snapshot = {
        key: _jsonify(run_mix(data, key, batch=True, fuse=True)) for key in CONFIGS
    }
    GOLDEN_PATH.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
