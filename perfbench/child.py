"""One cold run of one benchmark workload, in a process of its own.

``run.py`` starts this script once per repetition and reads the JSON
record it prints as its last line::

    python3 perfbench/child.py --workload serve-mix --seed 7 --t0 <monotonic> [--trace]

``--t0`` is the parent's ``time.monotonic()`` just before the spawn, so
``setup_s`` covers interpreter start, imports, data generation and the
service build.  The timed phase runs from the first submission to drain;
the answer check against the reference evaluator runs after it.

With ``--trace`` the run is profiled and spanned (see ``tracing.py``),
then repeated untraced in the same process: the two runs must agree on
every simulated metric, which catches process-global state leaking from
one run into the next.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import Spans, counting_tracer, layer_self_times  # noqa: E402

MB = 1 << 20
#: SSB scale factor and data seed: fixed, so only the workload varies.
SF = 0.5
DATA_SEED = 42


def norm(rows) -> list[tuple]:
    """Order- and float-noise-insensitive form of a result (the
    normalization the CJOIN edge-case tests use)."""
    return sorted(
        tuple(round(v, 6) if isinstance(v, float) else v for v in row) for row in rows
    )


class Oracle:
    """Reference answers from ``repro.baselines``, memoized per signature."""

    def __init__(self, tables: dict):
        self.tables = tables
        self._memo: dict[tuple, list[tuple]] = {}

    def expected(self, spec) -> list[tuple]:
        from repro.baselines.reference import evaluate_plan

        key = spec.signature
        rows = self._memo.get(key)
        if rows is None:
            rows = self._memo[key] = norm(evaluate_plan(spec.to_query_centric_plan(self.tables)))
        return rows


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, default=repr).encode()).hexdigest()


def _metrics_view(m) -> dict:
    """Every simulated counter of a ``repro.sim.metrics.Metrics``."""
    return {
        "cpu": {k: repr(v) for k, v in sorted(m.cpu_cycles_by_category.items())},
        "sharing": dict(sorted(m.sharing_events.items())),
        "durations": {k: repr(v) for k, v in sorted(m.durations.items())},
        "counts": dict(sorted(m.counts.items())),
    }


# ---------------------------------------------------------------------------
# Workloads.  Each builds its stack in ``setup`` and serves in ``run``;
# ``outcome`` collects answers and simulated metrics afterwards.
# ---------------------------------------------------------------------------


class ServeOverlap:
    """An open-loop Poisson stream of ``folding:0.3`` through
    ``repro.server.QueryService``: adaptive routing, a 64 MB benefit-policy
    result cache."""

    WORKLOAD = "folding:0.3"
    RATE = 16.0  # a float: PoissonArrivals salts its RNG with repr(rate)
    DURATION = 20.0
    CACHE_MB = 64

    def setup(self, seed: int, tables: dict) -> None:
        from repro.server.arrivals import make_arrivals
        from repro.server.router import make_policy
        from repro.server.service import QueryService, job_factory
        from repro.sim.machine import PAPER_MACHINE
        from repro.storage.manager import StorageConfig

        self.jobs = job_factory(self.WORKLOAD, seed)
        self.arrivals = make_arrivals("poisson", self.RATE, seed)
        self.service = QueryService(
            tables,
            make_policy("adaptive", PAPER_MACHINE),
            storage_config=StorageConfig(
                result_cache_bytes=self.CACHE_MB * MB, result_cache_policy="benefit"
            ),
        )
        self.sim = self.service.sim
        self.storage = self.service.storage

    def run(self) -> None:
        self.service.run(self.jobs, self.arrivals, self.DURATION)

    def outcome(self) -> dict:
        m = self.service.metrics
        done = [h for h in self.service.handles if h.done]
        return {
            "submitted": m.arrived,
            "dropped": m.dropped,
            "shed": m.timed_out,
            "errored": m.admitted - m.completed - m.timed_out,
            "answers": [(h.query.spec, h.results) for h in done],
            "latencies": list(m.latencies),
            "window": max(self.sim.now, self.DURATION),
            "sim": {
                "now": repr(self.sim.now),
                "metrics": _metrics_view(m),
                "service": {
                    "arrived": m.arrived,
                    "admitted": m.admitted,
                    "completed": m.completed,
                    "routed": dict(sorted(m.routed.items())),
                    "cache_routed": m.cache_routed,
                    "queue_waits": [repr(w) for w in m.queue_waits],
                },
                "cache": self.storage.result_cache.stats(),
            },
        }


class ShardMix:
    """``ssb-mix`` at 0.75 q/s on two hash shards running CJOIN-SP."""

    RATE = 0.75
    DURATION = 180.0
    SHARDS = 2

    def setup(self, seed: int, tables: dict) -> None:
        from repro.parallel.cells import DatasetSpec
        from repro.server.arrivals import make_arrivals
        from repro.server.service import job_factory
        from repro.shard.service import ShardService
        from repro.shard.spec import ShardConfig

        self.jobs = job_factory("ssb-mix", seed)
        self.arrivals = make_arrivals("poisson", self.RATE, seed)
        config = ShardConfig(
            n_shards=self.SHARDS,
            partition="hash",
            engine="cjoin-sp",
            dataset=DatasetSpec("ssb", SF, DATA_SEED),
        )
        t = time.perf_counter()
        self.service = ShardService(config)
        self.prewarm_s = time.perf_counter() - t
        self.sim = None
        self.storage = None

    def run(self) -> None:
        self.final = self.service.run(self.jobs, self.arrivals, self.DURATION)

    def outcome(self) -> dict:
        m = self.service.metrics
        return {
            "submitted": m.arrived,
            "dropped": m.dropped,
            "shed": m.timed_out,
            "errored": m.failed,
            "answers": [(self.jobs(r.seq).spec, r.rows) for r in self.service.results],
            "latencies": list(m.latencies),
            "window": max(self.final, self.DURATION),
            "sim": {
                "now": repr(self.final),
                "completed": m.completed,
                "per_shard_svc": {k: [repr(x) for x in v] for k, v in m.per_shard_svc.items()},
                "stragglers": dict(sorted(m.straggler_counts.items())),
                "queue_waits": [repr(w) for w in m.queue_waits],
                "fingerprints": [(r.seq, r.fingerprint) for r in self.service.results],
            },
        }

    def close(self) -> None:
        self.service.close()


WORKLOADS = {"serve-overlap": ServeOverlap, "shard-mix": ShardMix}


# ---------------------------------------------------------------------------
# Traced run: spans around the layers' public calls
# ---------------------------------------------------------------------------


class LayerProbe:
    """Installs the spans and per-query path bookkeeping for one traced run."""

    #: sharing paths, strongest first; a query takes the strongest path any
    #: of its packets took
    PATHS = ("cache_exact", "cache_fold", "fold_attach", "sp_satellite", "gqp", "computed")

    def __init__(self) -> None:
        self.spans = Spans()
        self.admits = 0
        self.attached = 0
        self.fold_searches = 0
        self.folds = 0
        self._path: dict[int, int] = {}
        self._keep: list = []  # keeps queries alive so their ids stay unique

    def _mark(self, query, path: str) -> None:
        rank = self.PATHS.index(path)
        key = id(query)
        if key not in self._path:
            self._keep.append(query)
            self._path[key] = rank
        else:
            self._path[key] = min(self._path[key], rank)

    def path_of(self, query) -> str:
        return self.PATHS[self._path.get(id(query), len(self.PATHS) - 1)]

    def install(self) -> None:
        from repro.cache.result_cache import ResultCache
        from repro.engine.qpipe import QPipeEngine
        from repro.engine.stage import Stage
        from repro.gqp.cjoin import CJoinPipeline
        from repro.parallel.workers import WorkerHandle
        from repro.query.subsume import FoldPlanner
        from repro.server.router import AdaptivePolicy

        sp = self.spans

        def outcomes(stage) -> tuple[int, int, int, int]:
            # Stage counters in PATHS order: which way a packet was admitted.
            return (
                stage.packets_cached,
                stage.packets_fold_cached,
                stage.packets_folded,
                stage.packets_shared,
            )

        def make_admit(orig):
            def admit(stage, packet):
                before = outcomes(stage)
                idx = sp.open("engine.admit")
                try:
                    result = orig(stage, packet)
                finally:
                    sp.close(idx)
                after = outcomes(stage)
                self.admits += 1
                for path, b, a in zip(self.PATHS, before, after):
                    if a > b:
                        self._mark(packet.query, path)
                self.attached += (after[2] - before[2]) + (after[3] - before[3])
                return result

            return admit

        sp.patch(Stage, "admit", make_admit)

        def on_best(args, result):
            self.fold_searches += 1
            if result is not None:
                self.folds += 1

        sp.wrap(QPipeEngine, "submit", "engine.submit")
        sp.wrap(
            CJoinPipeline, "submit", "gqp.submit",
            on_call=lambda args, _r: self._mark(args[1].query, "gqp"),
        )
        sp.wrap(FoldPlanner, "consider", "query.consider")
        sp.wrap(FoldPlanner, "best", "query.best", on_call=on_best)
        sp.wrap(ResultCache, "probe", "cache.probe")
        sp.wrap(ResultCache, "probe_subsuming", "cache.probe_subsuming")
        sp.wrap(AdaptivePolicy, "choose", "server.choose")
        sp.wrap(WorkerHandle, "send", "shard.send")
        sp.wrap(WorkerHandle, "recv", "shard.recv")


def _rss_mb(workers: int) -> float:
    """Peak RSS of this process plus its shard workers.  getrusage reports
    the largest reaped child, so the workers count as ``workers`` times it."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (self_kb + workers * child_kb) / 1024.0


def run_once(name: str, seed: int, t0: float, probe: LayerProbe | None) -> dict:
    """Set up, serve and check one workload; returns its record."""
    from repro.data.ssb import generate_ssb

    profile = cProfile.Profile() if probe is not None else None
    if probe is not None:
        probe.install()
        profile.enable()
        gen = probe.spans.open("data.generate")
    tables = generate_ssb(SF, DATA_SEED).tables
    if probe is not None:
        probe.spans.close(gen)
    wl = WORKLOADS[name]()
    wl.setup(seed, tables)
    tracer = counting_tracer(wl.sim) if probe is not None and wl.sim is not None else None
    arrange_before = _arrangement_stats()
    t_start = time.monotonic()
    setup_s = t_start - t0
    wl.run()
    host_s = time.monotonic() - t_start
    if profile is not None:
        profile.disable()
    if tracer is not None:
        tracer.detach()
    out = wl.outcome()
    arrange = {k: v - arrange_before.get(k, 0) for k, v in _arrangement_stats().items()}
    if isinstance(wl, ShardMix):
        wl.close()
    workers = ShardMix.SHARDS if isinstance(wl, ShardMix) else 0

    oracle = Oracle(tables)
    wrong = []
    answers_digest = hashlib.sha256()
    for i, (spec, rows) in enumerate(out.pop("answers")):
        got = norm(rows)
        answers_digest.update(repr(got).encode())
        if got != oracle.expected(spec):
            wrong.append(i)
    latencies = out["latencies"]
    sim_view = {"sim": out["sim"], "latencies": [repr(x) for x in latencies],
                "answers": answers_digest.hexdigest()}
    record = {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "host_s": host_s,
        "peak_rss_mb": _rss_mb(workers),
        "submitted": out["submitted"],
        "completed": len(latencies),
        "dropped": out["dropped"],
        "shed": out["shed"],
        "errored": out["errored"],
        "wrong": len(wrong),
        "wrong_examples": wrong[:5],
        "latencies": latencies,
        "window": out["window"],
        "sim_digest": _digest(sim_view),
        "counter_digest": _digest({"arrangements": arrange}),
        "arrangements": arrange,
    }
    if probe is not None:
        record["layers"] = layer_metrics(wl, probe, tracer, profile, arrange, out, host_s)
    return record


def _arrangement_stats() -> dict:
    from repro.storage.arrangements import ARRANGEMENTS

    return ARRANGEMENTS.stats()


def layer_metrics(wl, probe: LayerProbe, tracer, profile, arrange: dict, out: dict, host_s: float) -> dict:
    """The per-layer metrics of one traced run (names as in BENCHMARK.json)."""
    sp = probe.spans
    self_s, named, total = layer_self_times(profile)
    lm = {f"{layer}.self_s": self_s[layer] for layer in self_s if layer not in ("shard", "data")}
    lm["trace.coverage"] = named / total if total else 0.0
    lm["trace.host_s"] = host_s
    sim = wl.sim
    metrics = sim.metrics if sim is not None else None
    window = out["window"]

    lm["sim.commands"] = tracer.commands if tracer is not None else 0
    lm["sim.avg_cores"] = sim.avg_cores_used(window) if sim is not None else 0.0

    lm["engine.admits"] = probe.admits
    lm["engine.sp_share"] = probe.attached / probe.admits if probe.admits else 0.0
    lm["engine.submit_s"] = sp.total_s("engine.submit")
    hz = sim.machine.hz if sim is not None else 1.0
    lm["engine.cpu_locks_s"] = metrics.cpu_seconds_by_category(hz)["locks"] if metrics else 0.0

    lm["gqp.submits"] = sp.count("gqp.submit")
    lm["gqp.admission_s"] = metrics.durations.get("cjoin_admission", 0.0) if metrics else 0.0
    lm["gqp.admission_batches"] = metrics.counts.get("cjoin_admission_batches", 0) if metrics else 0

    lm["query.fold_candidates"] = sp.count("query.consider")
    lm["query.fold_searches"] = probe.fold_searches
    lm["query.folds"] = probe.folds
    lm["query.fold_yield"] = probe.folds / probe.fold_searches if probe.fold_searches else 0.0
    lm["query.fold_s"] = sp.total_s("query.consider", "query.best")

    cache = wl.storage.result_cache if wl.storage is not None else None
    probes = sp.count("cache.probe") + sp.count("cache.probe_subsuming")
    stats = cache.stats() if cache is not None else {}
    lm["cache.probes"] = probes
    lm["cache.hit_ratio"] = (stats.get("hits", 0) + stats.get("fold_hits", 0)) / probes if probes else 0.0
    lm["cache.evictions"] = stats.get("evictions", 0)
    lm["cache.resident_mb"] = stats.get("resident_bytes", 0.0) / MB
    lm["cache.probe_s"] = sp.total_s("cache.probe", "cache.probe_subsuming")

    lm["storage.arrangement_builds"] = arrange.get("builds", 0)
    lm["storage.arrangement_hits"] = arrange.get("hits", 0)
    lm["storage.bufferpool_hits"] = metrics.counts.get("bufferpool_hits", 0) if metrics else 0
    from repro.data.ssb import generate_ssb

    lm["storage.dataset_mb"] = sum(
        t.memory_footprint()["columns_bytes"] for t in generate_ssb(SF, DATA_SEED).tables.values()
    ) / MB

    service = getattr(wl, "service", None)
    smetrics = service.metrics if service is not None else None
    routed = smetrics.routed if smetrics is not None else {}
    lm["server.routed_gqp"] = routed.get("gqp", 0)
    lm["server.routed_qc"] = routed.get("query-centric", 0)
    lm["server.cache_routed"] = smetrics.cache_routed if smetrics is not None else 0
    lm["server.queue_wait_p95_s"] = (
        smetrics.queue_wait_percentiles()["p95"] if smetrics is not None else 0.0
    )
    lm["server.choose_s"] = sp.total_s("server.choose")

    shard = isinstance(wl, ShardMix)
    lm["shard.scatter_s"] = sp.total_s("shard.send") if shard else 0.0
    lm["shard.gather_s"] = sp.total_s("shard.recv") if shard else 0.0
    for i in range(ShardMix.SHARDS):
        svc = smetrics.per_shard_svc.get(i, []) if shard else []
        lm[f"shard.{i}.svc_s"] = sum(svc) / len(svc) if svc else 0.0
    stragglers = smetrics.straggler_counts if shard else {}
    total_q = sum(stragglers.values())
    lm["shard.straggler_max_share"] = max(stragglers.values()) / total_q if total_q else 0.0
    lm["shard.respawns"] = smetrics.shard_respawns if shard else 0
    lm["shard.prewarm_s"] = wl.prewarm_s if shard else 0.0

    lm["data.generate_s"] = sp.total_s("data.generate")

    paths = dict.fromkeys(LayerProbe.PATHS, 0)
    handles = [] if shard else service.handles
    done = [h for h in handles if h.done]
    for h in done:
        paths[probe.path_of(h.query)] += 1
    n = len(done)
    for path, c in paths.items():
        lm[f"path.{path}"] = c / n if n else 0.0
    # Shard workers are other processes: their sharing paths are not seen.
    lm["path.remote"] = 1.0 if shard else 0.0
    return lm


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write the traced run's spans here")
    args = ap.parse_args()

    probe = LayerProbe() if args.trace else None
    record = run_once(args.workload, args.seed, args.t0, probe)
    if probe is not None:
        probe.spans.unwrap_all()
        if args.spans:
            probe.spans.write(args.spans)
        rerun = run_once(args.workload, args.seed, time.monotonic(), None)
        record["rerun_sim_digest"] = rerun["sim_digest"]
        record["rerun_host_s"] = rerun["host_s"]
        record["wrong"] += rerun["wrong"]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
