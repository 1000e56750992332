#!/usr/bin/env python
"""Similarity sweep: subsumption-based query folding vs exact-match sharing.

The fold plane (``REPRO_FOLD``) pays off exactly where exact-signature
sharing misses: queries that *overlap* without being identical.  The
sweep serves the ``folding:<overlap>`` workload -- an ``overlap``
fraction of queries narrows one of four broad Q3.2 templates to a random
year sub-range (sub-ranges rarely coincide, so exact matching almost
never fires on them) -- with folding off and on, both modes running the
same 64 MB result cache, and checks:

* at 0% overlap folding is free: p95 within +/-3% of fold-off (admission
  probes the lattice and finds nothing; no residuals are built);
* at 50% overlap folding cuts p95 by >= 1.3x (the acceptance gate): the
  narrowings attach to in-flight broad hosts or replay subsuming cached
  results through a residual filter instead of recomputing;
* at 100% overlap the two modes converge again -- the highly recurrent
  stream repeats exact sub-ranges often enough that plain exact-match
  sharing (WoP + cache) already serves the fold-off baseline.  Folding's
  win lives in the partial-overlap middle, which is the paper's Figure
  14/15 similarity-knob story.

A second section re-runs the same workload's query specs directly on
QPipe-SP and CJOIN-SP engines, fold-off vs fold-on, and **asserts the
per-query simulated results bit-identical** (sha256 over row reprs) --
the golden-determinism contract extended to the fold plane.  A results
mismatch exits non-zero; all perf thresholds except the 50%-overlap gate
are warn-only.

Writes ``BENCH_folding.json`` at the repo root (collated into
``BENCH_trajectory.json`` by ``benchmarks/trajectory.py``).

Usage::

    python benchmarks/bench_folding.py          # default sweep (5 overlaps)
    python benchmarks/bench_folding.py --fast   # CI smoke (0%, 50%)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.bench.reporting import format_table
from repro.data import generate_ssb
from repro.engine.config import CJOIN_SP, QPIPE_SP, fast_path
from repro.engine.qpipe import QPipeEngine
from repro.server import serve
from repro.server.service import folding_job_factory
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.engine import Simulator
from repro.sim.machine import PAPER_MACHINE
from repro.storage.manager import StorageConfig, StorageManager

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = ROOT / "BENCH_folding.json"

FAST_OVERLAPS = (0.0, 0.5)
FULL_OVERLAPS = (0.0, 0.25, 0.5, 0.75, 1.0)
CACHE_MB = 64.0
SF = 0.5
DATA_SEED = 23
SERVE_SEED = 1
#: past the query-centric path's capacity, so queueing makes folded-away
#: work visible in the tail (an idle system hides the sharing win)
ARRIVAL_RATE = 16.0

ENGINES = {"QPipe-SP": QPIPE_SP, "CJOIN-SP": CJOIN_SP}


def _storage() -> StorageConfig:
    # Cache ON in *both* modes: the sweep isolates what subsumption adds
    # on top of exact-match sharing, not what a cache adds over nothing.
    return StorageConfig(
        resident="memory", result_cache_bytes=CACHE_MB * 1024 * 1024
    )


# ----------------------------------------------------------------------
# Section 1: the served similarity sweep.
# ----------------------------------------------------------------------
def sweep(full: bool = False):
    overlaps = FULL_OVERLAPS if full else FAST_OVERLAPS
    duration = 10.0 if full else 5.0
    tables = generate_ssb(SF, seed=DATA_SEED).tables
    cells = {}
    for overlap in overlaps:
        for fold in (False, True):
            with fast_path(query_folding=fold):
                cells[(overlap, fold)] = serve(
                    tables,
                    policy="adaptive",
                    arrival="poisson",
                    rate=ARRIVAL_RATE,
                    duration=duration,
                    seed=SERVE_SEED,
                    workload=f"folding:{overlap}",
                    storage_config=_storage(),
                )
    return overlaps, cells


def p95(report) -> float:
    return report.metrics.latency_percentiles()["p95"]


def ratio(cells, overlap) -> float:
    """p95(fold-off) / p95(fold-on) at ``overlap`` (>1 means folding wins)."""
    on = p95(cells[(overlap, True)])
    return p95(cells[(overlap, False)]) / on if on > 0 else 1.0


def fold_counters(report) -> dict:
    """Every fold-plane counter the run bumped (attach/cache-hit/cjoin)."""
    return {
        k: v for k, v in sorted(report.metrics.counts.items()) if "fold" in k
    }


def render(overlaps, cells) -> str:
    rows = []
    for overlap in overlaps:
        off, on = cells[(overlap, False)], cells[(overlap, True)]
        counters = fold_counters(on)
        attaches = sum(
            v for k, v in counters.items()
            if k.startswith(("fold_attach:", "fold_cache_hit:"))
        )
        rows.append(
            [
                f"{overlap:.0%}",
                on.metrics.completed,
                f"{p95(off):.3f}",
                f"{p95(on):.3f}",
                f"{ratio(cells, overlap):.2f}x",
                attaches,
                on.metrics.cache_stats.get("fold_hits", 0),
                on.metrics.cache_stats.get("hits", 0),
            ]
        )
    return format_table(
        f"folding sweep: folding:<overlap>, {CACHE_MB:.0f} MB cache both modes",
        ["overlap", "done", "p95 off", "p95 on", "ratio", "folds",
         "cache-fold", "cache-exact"],
        rows,
        note="ratio = p95(fold-off)/p95(fold-on); folds = attach + cache-fold hits",
    )


def check(overlaps, cells) -> list[str]:
    """The 50%-overlap gate asserts; everything else warns."""
    warnings = []
    r0 = ratio(cells, 0.0)
    if not 0.97 <= r0 <= 1.03:
        warnings.append(
            f"folding not free at 0% overlap: p95 ratio {r0:.3f}x"
        )
    half = ratio(cells, 0.5)
    assert half >= 1.3, (
        f"only {half:.2f}x p95 improvement at 50% overlap (need >= 1.3x)"
    )
    # The fold-on run actually exercised the lattice end to end.
    counters = fold_counters(cells[(0.5, True)])
    assert counters, "no fold counters bumped at 50% overlap with folding on"
    off_counters = fold_counters(cells[(0.5, False)])
    assert not off_counters, (
        f"fold counters bumped with folding OFF: {off_counters}"
    )
    return warnings


# ----------------------------------------------------------------------
# Section 2: per-query result identity, fold-off vs fold-on.
# ----------------------------------------------------------------------
def _fingerprint(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def check_results_identical(n: int) -> dict:
    """Folding must not change a single simulated result row: run the
    same ``folding:0.6`` specs through both modes on one engine each and
    compare per-query sha256 fingerprints.  Divergence is fatal."""
    dataset = generate_ssb(SF, seed=DATA_SEED)
    make = folding_job_factory(SERVE_SEED, 0.6)
    specs = [make(k).spec for k in range(n)]
    section = {"queries": n, "engines": {}}
    for name, config in ENGINES.items():
        per_mode = {}
        for fold in (False, True):
            with fast_path(query_folding=fold):
                sim = Simulator(PAPER_MACHINE)
                storage = StorageManager(
                    sim, DEFAULT_COST_MODEL, dataset.tables, _storage()
                )
                engine = QPipeEngine(sim, storage, config)
                handles = [engine.submit(spec) for spec in specs]
                sim.run()
                per_mode[fold] = [_fingerprint(h.results) for h in handles]
        for k, (a, b) in enumerate(zip(per_mode[False], per_mode[True])):
            if a != b:
                print(
                    f"FATAL: {name} query {k} results diverge under folding "
                    f"({a[:16]} != {b[:16]})",
                    file=sys.stderr,
                )
                raise SystemExit(2)
        section["engines"][name] = {
            "batch_fingerprint": _fingerprint(per_mode[False]),
            "identical": True,
        }
    return section


# ----------------------------------------------------------------------
# Artifact.
# ----------------------------------------------------------------------
def to_artifact(overlaps, cells, identity, warnings) -> dict:
    doc = {
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "params": {
            "sf": SF,
            "data_seed": DATA_SEED,
            "serve_seed": SERVE_SEED,
            "arrival_rate": ARRIVAL_RATE,
            "cache_mb": CACHE_MB,
            "policy": "adaptive",
            "workload": "folding:<overlap>",
        },
        "sweep": {},
        "speedup_p95": {},
        "identity": identity,
        "warnings": warnings,
    }
    for overlap in overlaps:
        off, on = cells[(overlap, False)], cells[(overlap, True)]
        doc["sweep"][f"{overlap:.2f}"] = {
            "completed_off": off.metrics.completed,
            "completed_on": on.metrics.completed,
            "p95_off_s": round(p95(off), 4),
            "p95_on_s": round(p95(on), 4),
            "ratio": round(ratio(cells, overlap), 4),
            "fold_counters": fold_counters(on),
            "cache_fold_hits": on.metrics.cache_stats.get("fold_hits", 0),
            "cache_exact_hits": on.metrics.cache_stats.get("hits", 0),
        }
        doc["speedup_p95"][f"overlap_{overlap:.2f}"] = round(
            ratio(cells, overlap), 4
        )
    return doc


def bench_folding(once, save_report, full_mode):
    """pytest-benchmark entry point (see conftest.py)."""
    overlaps, cells = once(sweep, full=full_mode)
    save_report("folding", render(overlaps, cells))
    check(overlaps, cells)
    check_results_identical(8)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--fast", action="store_true",
                      help="CI smoke parameters (0%% and 50%% overlap)")
    mode.add_argument("--full", action="store_true",
                      help="paper-scale sweep (5 overlaps, longer serve)")
    parser.add_argument("--out", type=pathlib.Path, default=OUT_PATH,
                        help=f"artifact path (default {OUT_PATH.name} at repo root)")
    args = parser.parse_args(argv)

    overlaps, cells = sweep(full=args.full)
    print(render(overlaps, cells))
    warnings = check(overlaps, cells)
    for w in warnings:
        print(f"WARN: {w}", file=sys.stderr)
    identity = check_results_identical(16 if args.full else 8)
    for name, eng in identity["engines"].items():
        print(f"{name}: {identity['queries']} queries bit-identical "
              f"fold-off vs fold-on ({eng['batch_fingerprint'][:16]})")
    args.out.write_text(
        json.dumps(to_artifact(overlaps, cells, identity, warnings),
                   indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {args.out}")
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
