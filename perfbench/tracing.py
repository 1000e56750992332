"""Tracing for the benchmark's per-layer run, applied from outside the program.

Three instruments, all installed only when a run is traced:

* :class:`Spans` wraps public calls of the ``repro`` layers and records one
  span per call -- name, start, end, parent -- in memory.  Counts and
  inclusive times per layer come from these spans.
* :func:`counting_tracer` attaches the simulator's own
  :class:`repro.sim.trace.Tracer`, reduced to a dispatch counter.
* :func:`layer_self_times` attributes cProfile self time to the
  ``repro.<module>`` prefix of each function's file.
"""

from __future__ import annotations

import json
import pstats
import time
from collections import defaultdict

#: The package modules reported as layers.
LAYERS = ("sim", "engine", "gqp", "query", "cache", "storage", "server", "shard", "data")


class Spans:
    """In-memory span recorder.  Each span is ``[name, start, end, parent]``
    with ``parent`` the index of the enclosing span (-1 at top level)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def patch(self, owner: object, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)`` until :meth:`unwrap_all`."""
        orig = owner.__dict__[attr]
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def wrap(self, owner: object, attr: str, name: str, on_call=None) -> None:
        """Record span ``name`` around every call of ``owner.attr``.
        ``on_call(args, result)`` runs after each call (outside the span)."""

        def make(orig):
            def wrapper(*args, **kwargs):
                idx = self.open(name)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    self.close(idx)
                if on_call is not None:
                    on_call(args, result)
                return result

            return wrapper

        self.patch(owner, attr, make)

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def total_s(self, *names: str) -> float:
        """Inclusive seconds of the named spans, not double counting a
        span nested inside another of the same set."""
        wanted = set(names)
        total = 0.0
        for name, start, end, parent in self.spans:
            if name not in wanted or end is None:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in wanted:
                p = self.spans[p][3]
            if p < 0:
                total += end - start
        return total

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent"], "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def counting_tracer(sim):
    """A :class:`repro.sim.trace.Tracer` that only counts dispatched
    commands (``.commands``), attached to ``sim``."""
    from repro.sim.trace import Tracer

    class CountingTracer(Tracer):
        commands = 0

        def _record_command(self, thread, cmd) -> None:
            self.commands += 1

        def _record(self, thread, kind, detail="") -> None:
            pass

    return CountingTracer(sim).attach()


def _layer_of(filename: str) -> str | None:
    marker = "/repro/"
    i = filename.rfind(marker)
    if i < 0:
        return None
    rest = filename[i + len(marker):]
    head = rest.split("/", 1)[0]
    if head.endswith(".py"):
        head = head[:-3]
    return head


def layer_self_times(profile) -> tuple[dict[str, float], float, float]:
    """``({layer: self seconds}, named seconds, total seconds)`` of a
    finished ``cProfile.Profile``.  A builtin's self time goes to the layer
    of the function that called it (cProfile splits it per caller); the
    standard library's Python code stays unattributed.  ``named / total``
    is the trace's coverage."""
    stats = pstats.Stats(profile).stats
    per: dict[str, float] = defaultdict(float)
    total = 0.0
    for (filename, _line, _func), (_cc, _nc, tt, _ct, callers) in stats.items():
        total += tt
        if filename == "~":
            for (caller_file, _l, _f), (_ccc, _cnc, caller_tt, _cct) in callers.items():
                layer = _layer_of(caller_file)
                if layer in LAYERS:
                    per[layer] += caller_tt
            continue
        layer = _layer_of(filename)
        if layer in LAYERS:
            per[layer] += tt
    named = sum(per.values())
    return {layer: per.get(layer, 0.0) for layer in LAYERS}, named, total
