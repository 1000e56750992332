"""The repository benchmark: host cost and simulated latency of two
sharing workloads, end to end (untraced) or per layer (traced).

    python3 perfbench/run.py --workload serve-overlap --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, untraced

Each repetition is a cold process (``child.py``): users of the CLI pay
data generation and lazy index builds on every run.  An untraced run
runs each of ``SUBSEEDS[workload]`` workload seeds derived from
``--seed`` once, then repeats them while ``--seconds`` last.  Host
metrics use every repetition; simulated metrics pool the first run of
each derived seed.  Every answer is checked against the reference
evaluator, and a repeated seed must reproduce every simulated metric and
counter exactly.  Either failure makes the result ``"correct": false``
and the exit code 1.

A traced run (``--trace 1``) runs the workload once untraced and once
traced (cProfile plus spans around the layers' public calls) and reports
the per-layer metrics, the tracing overhead and the profile's coverage.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units come from ``BENCHMARK.json``.  Full records go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

#: workload -> distinct workload seeds per untraced run (the first is
#: ``--seed`` itself).  Pooling several streams is what keeps a run's
#: figures steady from one ``--seed`` to the next; the counts fill about
#: 50 s on a 2-vCPU host.
SUBSEEDS = {"serve-overlap": 10, "shard-mix": 12}
WORKLOADS = tuple(SUBSEEDS)
#: stop starting repetitions after this many seconds, whatever ``--seconds``
HARD_LIMIT_S = 140.0
CHILD_TIMEOUT_S = 120.0


class BenchError(Exception):
    """A repetition could not produce a record."""


def subseed(seed: int, i: int) -> int:
    return seed + 1_000_003 * i


def run_child(workload: str, seed: int, trace: bool = False) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
    ]
    if trace:
        cmd += ["--trace", "--spans", str(OUT / f"spans-{workload}-{seed}.json")]
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} seed {seed}: no result within {CHILD_TIMEOUT_S:g} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"{workload} seed {seed}: exit {proc.returncode}\n{tail}")
    return json.loads(lines[-1])


def failures(rec: dict) -> int:
    return rec["dropped"] + rec["shed"] + rec["errored"] + rec["wrong"]


def check_answers(recs: list[dict], problems: list[str]) -> None:
    for r in recs:
        if r["wrong"]:
            problems.append(
                f"seed {r['seed']}: {r['wrong']} answers differ from the reference "
                f"evaluator (query indexes {r['wrong_examples']})"
            )


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], list[str]]:
    """Every derived seed once, then repeats while ``seconds`` last;
    returns (metrics, records, problems)."""
    k = SUBSEEDS[workload]
    start = time.monotonic()
    recs: list[dict] = []
    while True:
        recs.append(run_child(workload, subseed(seed, len(recs) % k)))
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(recs)
        if len(recs) >= k and elapsed + per_rep > min(seconds, HARD_LIMIT_S):
            break

    problems: list[str] = []
    check_answers(recs, problems)
    first: dict[int, dict] = {}
    for r in recs:
        ref = first.setdefault(r["seed"], r)
        for key in ("sim_digest", "counter_digest"):
            if r[key] != ref[key]:
                problems.append(f"seed {r['seed']}: {key} differs between two cold runs")
    canon = list(first.values())
    lat = [x for r in canon for x in r["latencies"]]
    from repro.sim.metrics import percentile  # the program's own definition

    n = len(recs)
    metrics = {
        "host_ms_per_query": (
            1000.0 * sum(r["host_s"] for r in recs) / sum(r["completed"] for r in recs), n
        ),
        "setup_s": (statistics.median(r["setup_s"] for r in recs), n),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in recs), n),
        "latency_p50_s": (percentile(lat, 0.50), len(lat)),
        "latency_p95_s": (percentile(lat, 0.95), len(lat)),
        "throughput_qps": (
            sum(r["completed"] for r in canon) / sum(r["window"] for r in canon), len(canon)
        ),
    }
    return metrics, recs, problems


def traced(workload: str, seed: int) -> tuple[dict, list[dict], list[str]]:
    base = run_child(workload, seed)
    rec = run_child(workload, seed, trace=True)
    problems: list[str] = []
    check_answers([base, rec], problems)
    if rec["sim_digest"] != base["sim_digest"]:
        problems.append("tracing changed a simulated metric")
    if rec["rerun_sim_digest"] != rec["sim_digest"]:
        problems.append("a second run in the same process changed a simulated metric")
    if rec["counter_digest"] != base["counter_digest"]:
        problems.append("tracing changed a host-side counter")
    layers = dict(rec["layers"])
    traced_host = layers.pop("trace.host_s")
    layers["trace.overhead"] = traced_host / base["host_s"]
    return {k: (v, 1) for k, v in layers.items()}, [base, rec], problems


def spec_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        values, recs, problems = traced(workload, seed)
    else:
        values, recs, problems = untraced(workload, seed, seconds)
    attempted = sum(r["submitted"] for r in recs)
    failed = sum(failures(r) for r in recs)
    print(f"# {workload}  seed {seed}  {'traced' if trace else 'untraced'}  "
          f"{len(recs)} cold runs  {attempted} queries submitted")
    metrics = {}
    for m in spec_metrics(trace):
        value, count = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<28} {value:>14.6g} {m['unit']:<6} n={count}")
    print(f"{'failed_frac':<28} {failed / attempted:>14.6g} {'':<6} n={attempted}")
    for p in problems:
        print(f"FAILED: {p}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"result": result, "problems": problems, "runs": recs}, indent=1)
    )
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
