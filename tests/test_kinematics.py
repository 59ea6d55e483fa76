"""Derivative chain, statistics and windowing."""

import numpy as np
import pytest

from kinemotion.dataset import Annotation, Recording
from kinemotion.errors import ContractError, DegenerateInputError, InvalidDataError
from kinemotion.kinematics import (
    ACCELERATION,
    JERK,
    SNAP,
    TimeSeries3D,
    differentiate,
    window,
    window_offsets,
)
from kinemotion.smoothness import smoothness_set


def series_from_axis(values, fs=50.0, order=ACCELERATION):
    values = np.asarray(values, dtype=float)
    return TimeSeries3D(fs=fs, samples=np.column_stack([values] * 3), order=order)


def segment_stats(samples, fs=1.0):
    """(measure, statistic, axis) jerk and squared-jerk statistics of one
    key segment spanning ``samples``, as ``smoothness_set`` computes them."""
    series = TimeSeries3D(fs=fs, samples=samples)
    rec = Recording("P9", "patient", 1, "dominant", "L1", series,
                    (Annotation(0, len(series), "M1"),))
    return smoothness_set([rec]).stats[0]


def sequential_stats(values):
    """Left-to-right sum, max and min of each column, one value at a time."""
    out = []
    for column in np.asarray(values).T:
        total, hi, lo = 0.0, -np.inf, np.inf
        for value in column:
            total += value
            hi, lo = max(hi, value), min(lo, value)
        out.append((total / len(column), hi, lo))
    return np.array(out).T


class TestContainer:
    def test_rejects_nonpositive_fs(self):
        with pytest.raises(ContractError):
            TimeSeries3D(fs=0.0, samples=np.zeros((4, 3)))

    def test_rejects_non_finite_samples(self):
        bad = np.zeros((4, 3))
        bad[2, 1] = np.nan
        with pytest.raises(InvalidDataError):
            TimeSeries3D(fs=50.0, samples=bad)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ContractError):
            TimeSeries3D(fs=50.0, samples=np.zeros((4, 2)))

    def test_samples_are_read_only(self):
        ts = TimeSeries3D(fs=50.0, samples=np.zeros((4, 3)))
        with pytest.raises(ValueError):
            ts.samples[0, 0] = 1.0

    def test_slice_is_a_read_only_view_validated_once(self, monkeypatch):
        ts = TimeSeries3D(fs=50.0, samples=np.arange(30.0).reshape(10, 3), unit="u")
        monkeypatch.setattr(
            TimeSeries3D, "__post_init__", lambda self: pytest.fail("validated again")
        )
        sub = ts.slice(2, 7)
        assert np.shares_memory(sub.samples, ts.samples)
        np.testing.assert_array_equal(sub.samples, ts.samples[2:7])
        assert (sub.fs, sub.order, sub.unit, len(sub)) == (50.0, ts.order, "u", 5)
        with pytest.raises(ValueError):
            sub.samples[0, 0] = 1.0
        assert len(ts) == 10


class TestDifferentiate:
    def test_constant_series_gives_exact_zero(self):
        ts = TimeSeries3D(fs=50.0, samples=np.ones((8, 3)))
        out = differentiate(ts)
        assert np.all(out.samples == 0.0)
        assert out.order == JERK
        assert len(out) == len(ts)
        assert out.fs == ts.fs

    def test_linear_ramp_is_exact(self):
        ts = series_from_axis(np.arange(8.0), fs=1.0)
        out = differentiate(ts)
        np.testing.assert_array_equal(out.samples, np.ones((8, 3)))

    def test_sine_matches_analytic_derivative(self):
        # d/dt sin(2 pi t) = 2 pi cos(2 pi t); central differences are
        # second-order so the sampled estimate must sit well under 0.5%
        # relative RMS error at 100 Hz
        fs = 100.0
        t = np.arange(0.0, 1.0 + 1e-12, 1.0 / fs)
        ts = series_from_axis(np.sin(2 * np.pi * t), fs=fs)
        est = differentiate(ts).axis("x")
        truth = 2 * np.pi * np.cos(2 * np.pi * t)
        rel_rms = np.linalg.norm(est - truth) / np.linalg.norm(truth)
        assert rel_rms < 0.005

    def test_applied_twice_reaches_snap_order(self):
        ts = series_from_axis(np.sin(np.linspace(0, 3, 32)))
        assert differentiate(differentiate(ts)).order == SNAP

    def test_too_short_raises(self):
        with pytest.raises(DegenerateInputError):
            differentiate(TimeSeries3D(fs=50.0, samples=np.zeros((2, 3))))

    def test_linearity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(3, 60))
            u = TimeSeries3D(fs=50.0, samples=rng.normal(size=(n, 3)))
            v = TimeSeries3D(fs=50.0, samples=rng.normal(size=(n, 3)))
            a, b = rng.normal(size=2)
            mixed = TimeSeries3D(fs=50.0, samples=a * u.samples + b * v.samples)
            lhs = differentiate(mixed).samples
            rhs = a * differentiate(u).samples + b * differentiate(v).samples
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestSquaredJerk:
    """Squared jerk is computed inside ``smoothness_set``: its statistics."""

    def test_zero_jerk_gives_zero(self):
        assert np.all(segment_stats(np.ones((6, 3)), fs=50.0)[1] == 0.0)

    def test_componentwise_square(self):
        # an acceleration ramp of slope (-2, 3, 0.5) has exactly that jerk
        ramp = np.arange(3.0)[:, None] * [-2.0, 3.0, 0.5]
        np.testing.assert_array_equal(segment_stats(ramp)[1], [[4.0, 9.0, 0.25]] * 3)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(40, 3))
        jerk = differentiate(TimeSeries3D(fs=50.0, samples=samples)).samples
        squares = [[jerk[n, axis] ** 2 for axis in range(3)] for n in range(40)]
        np.testing.assert_array_equal(
            segment_stats(samples, fs=50.0)[1], sequential_stats(squares)
        )

    def test_nonnegative_and_jensen(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            jerk_stats, sq_stats = segment_stats(rng.normal(size=(64, 3)), fs=50.0)
            assert np.all(sq_stats >= 0.0)
            assert np.all(sq_stats[0] >= jerk_stats[0] ** 2 - 1e-15)


class TestSegmentStats:
    """Per-segment jerk statistics, as ``smoothness_set`` computes them."""

    def test_constant_series(self):
        ramp = np.arange(10.0)[:, None] * [5.0, 5.0, 5.0]  # jerk 5 everywhere
        np.testing.assert_array_equal(segment_stats(ramp)[0], np.full((3, 3), 5.0))

    def test_hand_computed_values(self):
        samples = np.zeros((3, 3))
        samples[:, 0] = [0.0, -1.0, 2.0]  # jerk x = [-1, 1, 3] at fs 1
        mean, maximum, minimum = segment_stats(samples)[0, :, 0]
        assert (mean, maximum, minimum) == (1.0, 3.0, -1.0)

    def test_matches_sequential_reference_bitwise(self):
        rng = np.random.default_rng(17)
        samples = rng.normal(size=(1000, 3))
        jerk = differentiate(TimeSeries3D(fs=50.0, samples=samples)).samples
        np.testing.assert_array_equal(
            segment_stats(samples, fs=50.0)[0], sequential_stats(jerk)
        )

    def test_empty_series_rejected(self):
        # the emptiest segment an annotation can mark has one sample
        with pytest.raises(DegenerateInputError):
            segment_stats(np.zeros((1, 3)))


class TestWindow:
    def test_counts_and_offsets(self):
        ts = TimeSeries3D(fs=50.0, samples=np.arange(30.0).reshape(10, 3))
        epochs = window(ts, w=4, s=2)
        assert list(window_offsets(len(ts), 4, 2)) == [0, 2, 4, 6]
        assert [e.samples[0, 0] for e in epochs] == [0.0, 6.0, 12.0, 18.0]
        assert all(len(e) == 4 for e in epochs)

    def test_single_epoch_cases(self):
        ts = TimeSeries3D(fs=50.0, samples=np.zeros((4, 3)))
        assert len(window(ts, w=4, s=1)) == 1
        ts = TimeSeries3D(fs=50.0, samples=np.zeros((128, 3)))
        assert len(window(ts, w=128, s=64)) == 1

    def test_short_series_gives_empty(self):
        ts = TimeSeries3D(fs=50.0, samples=np.zeros((3, 3)))
        assert window(ts, w=4, s=1) == []

    def test_zero_params_rejected(self):
        ts = TimeSeries3D(fs=50.0, samples=np.zeros((8, 3)))
        with pytest.raises(ContractError):
            window(ts, w=0, s=1)
        with pytest.raises(ContractError):
            window(ts, w=4, s=0)

    def test_count_formula_grid(self):
        rng = np.random.default_rng(5)
        widths = (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64)
        strides = (1, 2, 3, 4, 5, 7, 8, 16, 31, 63, 64)
        for n in range(1, 65):
            ts = TimeSeries3D(fs=50.0, samples=rng.normal(size=(n, 3)))
            for w in widths:
                for s in strides:
                    expected = (n - w) // s + 1 if n >= w else 0
                    assert len(window(ts, w, s)) == expected, (n, w, s)

    def test_content_matches_slices(self):
        rng = np.random.default_rng(7)
        ts = TimeSeries3D(fs=50.0, samples=rng.normal(size=(20, 3)))
        epochs = window(ts, w=5, s=3)
        for ep, offset in zip(epochs, window_offsets(len(ts), 5, 3), strict=True):
            np.testing.assert_array_equal(ep.samples, ts.samples[offset : offset + 5])

    def test_windows_are_read_only_views_with_the_series_tags(self):
        ts = TimeSeries3D(fs=40.0, samples=np.zeros((16, 3)), order=JERK, unit="m/s^3")
        (ep,) = window(ts, w=16, s=4)
        assert len(ep) == 16
        assert (ep.fs, ep.order, ep.unit) == (40.0, JERK, "m/s^3")
        assert np.shares_memory(ep.samples, ts.samples)
        with pytest.raises(ValueError):
            ep.samples[0, 0] = 1.0
