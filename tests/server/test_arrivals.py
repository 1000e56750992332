"""Tests for the open-loop arrival processes."""

import itertools

import pytest

from repro.server.arrivals import (
    ARRIVALS,
    BurstArrivals,
    PoissonArrivals,
    TraceArrivals,
    UniformArrivals,
    make_arrivals,
)


def take(process, n):
    return list(itertools.islice(process.gaps(), n))


class TestPoisson:
    def test_deterministic_in_seed(self):
        assert take(PoissonArrivals(8.0, seed=7), 50) == take(PoissonArrivals(8.0, seed=7), 50)

    def test_seed_changes_stream(self):
        assert take(PoissonArrivals(8.0, seed=7), 50) != take(PoissonArrivals(8.0, seed=8), 50)

    def test_mean_gap_matches_rate(self):
        gaps = take(PoissonArrivals(10.0, seed=1), 4000)
        assert sum(gaps) / len(gaps) == pytest.approx(0.1, rel=0.1)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)

    def test_int_and_float_rate_draw_the_same_stream(self):
        # The RNG is salted with the rate: 16 and 16.0 must salt alike.
        assert take(PoissonArrivals(16, seed=3), 50) == take(PoissonArrivals(16.0, seed=3), 50)
        assert take(make_arrivals("poisson", 16, seed=3), 50) == take(
            make_arrivals("poisson", 16.0, seed=3), 50
        )


class TestUniform:
    def test_constant_gaps(self):
        assert take(UniformArrivals(4.0), 5) == [0.25] * 5


class TestBurst:
    def test_pattern_and_average_rate(self):
        gaps = take(BurstArrivals(8.0, burst=4), 8)
        # quiet gap, then burst-1 back-to-back, repeating.
        assert gaps == [0.5, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0]
        assert 8 / sum(gaps) == pytest.approx(8.0)

    def test_rejects_bad_burst(self):
        with pytest.raises(ValueError):
            BurstArrivals(8.0, burst=0)


class TestTrace:
    def test_absolute_times_to_gaps(self):
        assert take(TraceArrivals([0.5, 0.5, 2.0]), 3) == [0.5, 0.0, 1.5]

    def test_finite(self):
        assert take(TraceArrivals([1.0]), 5) == [1.0]

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            TraceArrivals([1.0, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TraceArrivals([-1.0, 0.5])

    def test_from_file(self, tmp_path):
        f = tmp_path / "trace.txt"
        f.write_text("# arrival times\n0.5\n\n1.5  # second query\n")
        assert TraceArrivals.from_file(f).times == [0.5, 1.5]


class TestFactory:
    def test_all_kinds_constructible(self, tmp_path):
        f = tmp_path / "t.txt"
        f.write_text("1.0\n")
        for kind in ARRIVALS:
            proc = make_arrivals(kind, 4.0, seed=1, trace_path=str(f))
            assert proc.name == kind

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown arrival"):
            make_arrivals("fractal", 4.0)

    def test_trace_needs_path(self):
        with pytest.raises(ValueError, match="trace"):
            make_arrivals("trace", 4.0)
