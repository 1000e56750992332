"""Process-wide execution-plane switchboards.

The data plane itself has no switches: scans emit
:class:`~repro.storage.page.ColumnBatch` column views over packed column
vectors (:mod:`repro.storage.packed`), stages run batch kernels over
selection vectors, and workers yield fused CPU charges that the simulator
services inline.  Every charge is computed from row *counts*, so how
Python stores the pages never changes a simulated tick
(``tests/engine/test_golden_determinism.py`` pins that).

The fast-path switchboard holds the two flags that select different
sharing behaviour:

* ``arrangements`` -- join consumers share refcounted build-side
  indexes (:mod:`repro.storage.arrangements`): one hash arrangement per
  (table, key column) built on first demand and probed by every
  concurrent query joining on that key, instead of each query building
  its own dict.  Every simulated charge (build-input reads, hashing,
  insert bookkeeping, admission scans) is still paid per query -- only
  the host-side Python data structure is shared -- so simulated results
  stay bit-identical either way;
* ``query_folding`` -- the sharing layers (WoP registry, result cache,
  arrangements) match plans by *subsumption*
  (:mod:`repro.query.subsume`), not just exact signature equality: a
  packet can attach to a host whose output strictly contains its own
  through a residual post-filter, a cache probe can answer from a
  superset entry, and a range probe can ride a sibling arrangement's
  sorted variant.  Folding changes *simulated timing* (folded
  satellites skip sub-plan work and pay fold-search/residual charges
  instead); query **results** stay bit-identical, which the golden suite
  fingerprint-asserts.

Both are on by process default; ``REPRO_ARRANGE=0`` / ``REPRO_FOLD=0``
seed them off at import time (spawned benchmark/worker processes inherit
the parent's choice).  Inside a :func:`fast_path` context folding
defaults to **off**, so every context pinned for golden comparisons stays
on the reference (fold-off) timing plane unless it opts in explicitly.

A second switchboard carries the process-wide defaults of the **adaptive
GQP data plane** (:mod:`repro.gqp.ordering`):

* ``gqp_adaptive_ordering`` -- the CJOIN filter chain re-sorts itself
  most-selective-first at logical-tick boundaries;
* ``gqp_filter_kernels`` -- columnar filter probing with chain-fused
  charges and pass-mask short-circuiting.

Unlike arrangements, these two **change simulated results when enabled**
(fewer doomed tuples reach later filters; irrelevant filters are skipped).
They default *off*, so default runs stay bit-identical to the committed
golden metrics; ``EngineConfig`` fields set to ``None`` fall back to these
defaults, which makes one env var / context manager flip whole sweeps.
The environment variables ``REPRO_GQP_ORDERING=adaptive`` and
``REPRO_GQP_KERNELS=1`` seed the defaults at import time so freshly
spawned benchmark/worker processes inherit the parent's choice."""

from __future__ import annotations

import contextlib
import os

_FAST_PATH = {
    "arrangements": os.environ.get("REPRO_ARRANGE", "1") not in ("0", "false"),
    "query_folding": os.environ.get("REPRO_FOLD", "1") not in ("0", "false"),
}

_GQP_PLANE = {
    "adaptive_ordering": os.environ.get("REPRO_GQP_ORDERING", "") == "adaptive",
    "filter_kernels": os.environ.get("REPRO_GQP_KERNELS", "") not in ("", "0", "false"),
}


def arrangements_default() -> bool:
    """Process-wide default for shared (refcounted) join arrangements."""
    return _FAST_PATH["arrangements"]


def query_folding_default() -> bool:
    """Process-wide default for subsumption-based query folding."""
    return _FAST_PATH["query_folding"]


@contextlib.contextmanager
def fast_path(arrangements: bool = True, query_folding: bool = False):
    """Temporarily override the fast-path defaults (benchmarking/tests).

    ``query_folding`` defaults to **False**, not to the process default:
    folding changes simulated ticks, and every pinned context (golden
    suites, A/B benchmark runs, shard workers replaying a parent's flags)
    must stay on the reference timing plane unless it asks for folding
    explicitly."""
    saved = dict(_FAST_PATH)
    _FAST_PATH["arrangements"] = arrangements
    _FAST_PATH["query_folding"] = query_folding
    try:
        yield
    finally:
        _FAST_PATH.update(saved)


def gqp_adaptive_ordering_default() -> bool:
    """Process-wide default for selectivity-ordered CJOIN filter chains."""
    return _GQP_PLANE["adaptive_ordering"]


def gqp_filter_kernels_default() -> bool:
    """Process-wide default for columnar CJOIN filter kernels."""
    return _GQP_PLANE["filter_kernels"]


def set_gqp_plane(
    adaptive_ordering: bool | None = None, filter_kernels: bool | None = None
) -> None:
    """Set the process-wide adaptive-GQP defaults (``None`` leaves a knob
    untouched).  The CLI uses this to apply ``--gqp-ordering`` /
    ``--gqp-kernels`` to every engine a command builds, including the
    hard-coded CJOIN-SP configs inside the hybrid/service routers."""
    if adaptive_ordering is not None:
        _GQP_PLANE["adaptive_ordering"] = adaptive_ordering
    if filter_kernels is not None:
        _GQP_PLANE["filter_kernels"] = filter_kernels


@contextlib.contextmanager
def gqp_plane(adaptive_ordering: bool = False, filter_kernels: bool = False):
    """Temporarily override the adaptive-GQP defaults (benchmarks/tests)."""
    saved = dict(_GQP_PLANE)
    _GQP_PLANE["adaptive_ordering"] = adaptive_ordering
    _GQP_PLANE["filter_kernels"] = filter_kernels
    try:
        yield
    finally:
        _GQP_PLANE.update(saved)
