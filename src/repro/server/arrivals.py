"""Open-loop arrival processes for the query service.

The batch runner submits every query at once; a *service* sees a stream.
Each process below yields successive **inter-arrival gaps** in simulated
seconds; the service's source thread sleeps each gap and enqueues the next
query.  All processes are deterministic in their seed
(:func:`repro.data.rng.make_rng`), so a served workload replays exactly.
"""

from __future__ import annotations

import pathlib
from typing import Iterator

from repro.data.rng import make_rng


class ArrivalProcess:
    """Base class: an unbounded stream of inter-arrival gaps."""

    name = "arrivals"

    def gaps(self) -> Iterator[float]:  # pragma: no cover - interface
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at ``rate`` queries/second (exponential gaps) --
    the standard open-loop model for independent analytical clients."""

    name = "poisson"

    def __init__(self, rate: float, seed: int = 1):
        if rate <= 0:
            raise ValueError("rate must be positive")
        # A float, so the RNG salt (repr of the rate) is the same for 16
        # and 16.0 -- otherwise an int rate would draw a different stream.
        self.rate = float(rate)
        self.seed = seed

    def gaps(self) -> Iterator[float]:
        rng = make_rng(self.seed, "arrivals", self.name, self.rate)
        while True:
            yield rng.expovariate(self.rate)


class UniformArrivals(ArrivalProcess):
    """Perfectly paced arrivals: one query every ``1/rate`` seconds."""

    name = "uniform"

    def __init__(self, rate: float, seed: int = 1):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)

    def gaps(self) -> Iterator[float]:
        gap = 1.0 / self.rate
        while True:
            yield gap


class BurstArrivals(ArrivalProcess):
    """Bursty arrivals: ``burst`` back-to-back queries, then silence, with
    a long-run average of ``rate`` queries/second.  Stresses the admission
    queue bound and the router's queue-depth signal."""

    name = "burst"

    def __init__(self, rate: float, seed: int = 1, burst: int = 8):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = rate
        self.burst = burst

    def gaps(self) -> Iterator[float]:
        quiet = self.burst / self.rate
        while True:
            yield quiet
            for _ in range(self.burst - 1):
                yield 0.0


class TraceArrivals(ArrivalProcess):
    """Trace-driven arrivals: an explicit list of absolute arrival times
    (non-decreasing, in simulated seconds).  Finite -- the service stops
    sourcing when the trace is exhausted."""

    name = "trace"

    def __init__(self, times: list[float]):
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("trace times must be non-decreasing")
        if times and times[0] < 0:
            raise ValueError("trace times must be non-negative")
        self.times = list(times)

    @classmethod
    def from_file(cls, path: str | pathlib.Path) -> "TraceArrivals":
        """Parse a trace file: one arrival timestamp per line; blank lines
        and ``#`` comments ignored."""
        times = []
        for line in pathlib.Path(path).read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                times.append(float(line))
        return cls(times)

    def gaps(self) -> Iterator[float]:
        prev = 0.0
        for t in self.times:
            yield t - prev
            prev = t


#: CLI-selectable arrival kinds.
ARRIVALS = ("poisson", "uniform", "burst", "trace")


def make_arrivals(
    kind: str,
    rate: float,
    seed: int = 1,
    trace_path: str | None = None,
    burst: int = 8,
) -> ArrivalProcess:
    """Build an arrival process by name (the CLI/benchmark entry point)."""
    if kind == "poisson":
        return PoissonArrivals(rate, seed)
    if kind == "uniform":
        return UniformArrivals(rate, seed)
    if kind == "burst":
        return BurstArrivals(rate, seed, burst=burst)
    if kind == "trace":
        if trace_path is None:
            raise ValueError("trace arrivals need a trace file (--trace)")
        return TraceArrivals.from_file(trace_path)
    raise ValueError(f"unknown arrival process {kind!r} (choose from: {', '.join(ARRIVALS)})")
