"""Golden determinism: how pages are stored must not change a simulated tick.

The data plane (columnar pages, packed vectors, batch kernels, fused
charges) is a host-side representation: every charge is computed from row
*counts*, so the simulated clock must not depend on it.  A committed
snapshot (``golden_metrics.json``) pins the complete ``Metrics.to_dict()``
view, the final simulated clock and every per-query response time of a
seeded SSB mix on each engine configuration -- any change to simulated
behavior, intended or not, shows up as a diff of that file, which must then
be regenerated deliberately
(``python tests/engine/test_golden_determinism.py``) and reviewed.

sha256 pins extend the snapshot to the disk-resident storage path (buffer
pool, OS cache, read-ahead) and to the shard tier's per-shard partial
aggregates; they were computed while the row-at-a-time reference plane
still existed and matched it bitwise.  An independent oracle
(:func:`repro.baselines.evaluate_plan`) checks the answers themselves."""

import hashlib
import json
import pathlib

import pytest

from repro.data import generate_ssb
from repro.engine import CJOIN, CJOIN_SP, QPIPE_SP, QPipeEngine
from repro.engine.config import fast_path
from repro.baselines import VolcanoEngine, evaluate_plan
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
MEMORY = StorageConfig(resident="memory")
DISK = StorageConfig(resident="disk")


@pytest.fixture(scope="module")
def ssb():
    return generate_ssb(0.5, seed=21)


def _golden_mix(ssb, config_key: str, resident: StorageConfig = MEMORY):
    """Run the seeded 6-query Q3.2 mix under the *current* process flags;
    returns the simulator, the query specs and their handles."""
    sim = Simulator(MACHINE)
    storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, resident)
    config = CONFIGS[config_key]
    if config == "postgres":
        engine = VolcanoEngine(sim, storage, DEFAULT_COST_MODEL)
    else:
        engine = QPipeEngine(sim, storage, config)
    rng = make_rng(77, "golden", config_key)
    specs = [random_q32(rng) for _ in range(6)]
    handles = [engine.submit(spec) for spec in specs]
    sim.run()
    return sim, specs, handles


def _run_mix_inner(ssb, config_key: str, resident: StorageConfig = MEMORY) -> dict:
    """The golden mix's JSON-safe measurement dict."""
    sim, _specs, handles = _golden_mix(ssb, config_key, resident)
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


def run_mix(ssb, config_key: str, resident: StorageConfig = MEMORY) -> dict:
    """:func:`_run_mix_inner` under the default ``fast_path`` context
    (arrangements on, folding off: the reference timing plane)."""
    with fast_path():
        return _run_mix_inner(ssb, config_key, resident)


def _sha256(measured) -> str:
    return hashlib.sha256(json.dumps(measured, sort_keys=True).encode()).hexdigest()


def norm(rows):
    return sorted(
        tuple(round(v, 6) if isinstance(v, float) else v for v in row) for row in rows
    )


@pytest.mark.parametrize("config_key", list(CONFIGS), ids=list(CONFIGS))
def test_golden_mix_matches_reference_oracle(ssb, config_key):
    """Every query of the concurrent golden mix answers exactly what the
    independent row-at-a-time evaluator computes for it alone: sharing
    (circular scans, WoP satellites, CJOIN's shared pipeline) and the data
    plane's kernels never change a row."""
    with fast_path():
        _sim, specs, handles = _golden_mix(ssb, config_key)
    for spec, handle in zip(specs, handles):
        oracle = norm(evaluate_plan(spec.to_query_centric_plan(ssb.tables)))
        assert norm(handle.results) == oracle, spec.label


#: sha256 of the golden mix's measurement dict with the database resident
#: on *disk* (buffer pool, OS cache and read-ahead charges, ``PageSource``
#: scans), pinned while the row-at-a-time plane still existed and matched
#: the columnar/packed plane bitwise on every configuration.
DISK_RESIDENT_DIGESTS = {
    "QPipe-SP": "b32cf1709a056096ddfd0164616a493cf466eee3a818222563e938f68f08ad6e",
    "CJOIN": "bce42e33bd06189b69a625255e04f567800a2241443fa984100d3de6229fec27",
    "CJOIN-SP": "821ecb972741572ba3599d00ec2500aaa696ad3c76740a945a972bd11a92c28a",
    "Postgres": "d102b18e18bf423b6273b28dd0cd13796597641e9572dc8c7a5a1bb3defc75cd",
}


@pytest.mark.parametrize("config_key", list(CONFIGS), ids=list(CONFIGS))
def test_disk_resident_timing_pinned(ssb, config_key):
    measured = run_mix(ssb, config_key, DISK)
    assert _sha256(measured) == DISK_RESIDENT_DIGESTS[config_key]


@pytest.mark.parametrize("config_key", list(CONFIGS), ids=list(CONFIGS))
def test_arrangements_are_bit_identical(ssb, config_key):
    """Shared join arrangements reuse the *host-side* build index across
    queries; every simulated charge (build-input reads, hashing/insert
    cycles, CJOIN admission scans) is still paid per query, so the full
    metrics view must match bitwise with the toggle alone flipped."""
    results = []
    for arrange in (False, True):
        with fast_path(arrangements=arrange):
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
        with fast_path(arrangements=arrange):
            config = ShardConfig(n_shards=2, dataset=DatasetSpec("ssb", 0.5, 21))
            per_shard = []
            for shard in range(2):
                view = shard_tables(ssb.tables, "lineorder", shard, 2, mode, 21)
                per_shard.append(execute_shard_query(view, spec, config))
            outcomes.append(per_shard)
    assert outcomes[0] == outcomes[1]  # bitwise: == on floats


#: sha256 of the 2-shard Q3.2 outcomes (sorted partial-aggregate state and
#: simulated service time per shard), pinned while row-built and boxed
#: partitions still existed and matched the zero-copy packed ones bitwise.
SHARD_OUTCOME_DIGESTS = {
    "hash": "353e1224287ab13bf36afe934fd64c7c6fd125e93c77e7a754f7d233320502f3",
    "range": "8e56f900d0da1ee2039ad140bd582c142f7bed688b800b182a7d7aa2fa792c22",
}


@pytest.mark.parametrize("mode", list(SHARD_OUTCOME_DIGESTS))
def test_shard_outcomes_pinned(ssb, mode):
    """Zero-copy shard partitions (column slices and code/array gathers)
    give a shard engine the exact partial-aggregate state and simulated
    service time the row-built partitions gave, for either placement."""
    from repro.parallel.cells import DatasetSpec
    from repro.query.ssb_queries import q32
    from repro.shard.partition import shard_tables
    from repro.shard.spec import ShardConfig
    from repro.shard.worker import execute_shard_query

    spec = q32("CHINA", "FRANCE", 1993, 1996)
    flat = []
    with fast_path():
        config = ShardConfig(n_shards=2, dataset=DatasetSpec("ssb", 0.5, 21))
        for shard in range(2):
            view = shard_tables(ssb.tables, "lineorder", shard, 2, mode, 21)
            state, svc = execute_shard_query(view, spec, config)
            flat.append((sorted(state.items()), svc))
    assert hashlib.sha256(repr(flat).encode()).hexdigest() == SHARD_OUTCOME_DIGESTS[mode]


# ---------------------------------------------------------------------------
# Query folding (subsumption lattice)
# ---------------------------------------------------------------------------
# Folding deliberately CHANGES simulated timing -- a folded satellite reads
# the host's stream instead of running its own sub-plan -- so the invariant
# here is different from the data plane: query *results* must be
# bit-identical fold-on vs fold-off, while fold-OFF metrics stay pinned by
# the committed snapshot (every other test in this file runs inside a
# ``fast_path`` context, where ``query_folding`` defaults to False).


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

    with fast_path(query_folding=fold):
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
        with fast_path(query_folding=fold):
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
        key: _jsonify(run_mix(ssb, key)) for key in CONFIGS
    }
    assert measured == golden


if __name__ == "__main__":  # regenerate the snapshot
    data = generate_ssb(0.5, seed=21)
    snapshot = {
        key: _jsonify(run_mix(data, key)) for key in CONFIGS
    }
    GOLDEN_PATH.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
