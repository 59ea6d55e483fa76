"""Derivative chain, statistics, windowing and resampling."""

import numpy as np
import pytest

from kinemotion.errors import ContractError, DegenerateInputError, InvalidDataError
from kinemotion.kinematics import (
    ACCELERATION,
    JERK,
    SNAP,
    AxisStats,
    Epoch,
    TimeSeries3D,
    differentiate,
    resample,
    segment_stats,
    squared_jerk,
    window,
)


def series_from_axis(values, fs=50.0, order=ACCELERATION):
    values = np.asarray(values, dtype=float)
    return TimeSeries3D(fs=fs, samples=np.column_stack([values] * 3), order=order)


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

    def test_axis_stats_ordering_enforced(self):
        with pytest.raises(ContractError):
            AxisStats(mean=[2, 0, 0], maximum=[1, 1, 1], minimum=[0, 0, 0])


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
    def test_zero_jerk_gives_zero(self):
        jerk = TimeSeries3D(fs=50.0, samples=np.zeros((6, 3)), order=JERK)
        assert np.all(squared_jerk(jerk).samples == 0.0)

    def test_componentwise_square(self):
        jerk = TimeSeries3D(
            fs=50.0, samples=np.array([[-2.0, 3.0, 0.5]]), order=JERK
        )
        np.testing.assert_array_equal(
            squared_jerk(jerk).samples, np.array([[4.0, 9.0, 0.25]])
        )

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        jerk = TimeSeries3D(fs=50.0, samples=rng.normal(size=(40, 3)), order=JERK)
        out = squared_jerk(jerk).samples
        for n in range(40):
            for axis in range(3):
                assert out[n, axis] == jerk.samples[n, axis] ** 2

    def test_wrong_order_tag_rejected(self):
        accel = TimeSeries3D(fs=50.0, samples=np.ones((6, 3)), order=ACCELERATION)
        with pytest.raises(ContractError):
            squared_jerk(accel)

    def test_nonnegative_and_jensen(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            jerk = TimeSeries3D(
                fs=50.0, samples=rng.normal(size=(64, 3)), order=JERK
            )
            sq = squared_jerk(jerk)
            assert np.all(sq.samples >= 0.0)
            stats_sq = segment_stats(sq)
            stats_j = segment_stats(jerk)
            assert np.all(stats_sq.mean >= stats_j.mean**2 - 1e-15)


class TestSegmentStats:
    def test_constant_series(self):
        ts = TimeSeries3D(fs=50.0, samples=np.full((10, 3), 5.0))
        stats = segment_stats(ts)
        for arr in (stats.mean, stats.maximum, stats.minimum):
            np.testing.assert_array_equal(arr, [5.0, 5.0, 5.0])

    def test_hand_computed_values(self):
        samples = np.zeros((3, 3))
        samples[:, 0] = [-1.0, 0.0, 3.0]
        ts = TimeSeries3D(fs=50.0, samples=samples)
        mean, maximum, minimum = segment_stats(ts).along("x")
        assert mean == pytest.approx(2.0 / 3.0)
        assert maximum == 3.0
        assert minimum == -1.0

    def test_matches_sequential_reference_bitwise(self):
        rng = np.random.default_rng(17)
        ts = TimeSeries3D(fs=50.0, samples=rng.normal(size=(1000, 3)))
        stats = segment_stats(ts)
        for axis in range(3):
            acc = 0.0
            hi, lo = -np.inf, np.inf
            for value in ts.samples[:, axis]:
                acc += value
                hi = max(hi, value)
                lo = min(lo, value)
            assert stats.mean[axis] == acc / 1000.0
            assert stats.maximum[axis] == hi
            assert stats.minimum[axis] == lo

    def test_ordering_invariant(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            ts = TimeSeries3D(
                fs=50.0, samples=rng.normal(size=(int(rng.integers(1, 200)), 3))
            )
            stats = segment_stats(ts)
            assert np.all(stats.minimum <= stats.mean)
            assert np.all(stats.mean <= stats.maximum)

    def test_empty_series_rejected(self):
        ts = TimeSeries3D(fs=50.0, samples=np.zeros((0, 3)))
        with pytest.raises(DegenerateInputError):
            segment_stats(ts)


class TestWindow:
    def test_counts_and_offsets(self):
        ts = TimeSeries3D(fs=50.0, samples=np.arange(30.0).reshape(10, 3))
        epochs = window(ts, w=4, s=2)
        assert [e.offset for e in epochs] == [0, 2, 4, 6]
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
        for ep in window(ts, w=5, s=3):
            np.testing.assert_array_equal(
                ep.values, ts.samples[ep.offset : ep.offset + 5]
            )


class TestResample:
    def test_identity_at_same_length(self):
        rng = np.random.default_rng(9)
        ts = TimeSeries3D(fs=50.0, samples=rng.normal(size=(17, 3)))
        out = resample(ts, 17)
        np.testing.assert_array_equal(out.samples, ts.samples)
        assert out.fs == ts.fs

    def test_linear_ramp_gets_half_steps(self):
        ts = series_from_axis(np.arange(5.0))
        out = resample(ts, 9)
        np.testing.assert_allclose(out.axis("x"), np.arange(0.0, 4.5, 0.5))

    def test_endpoints_preserved_exactly(self):
        rng = np.random.default_rng(13)
        ts = TimeSeries3D(fs=50.0, samples=rng.normal(size=(40, 3)))
        out = resample(ts, 101)
        np.testing.assert_array_equal(out.samples[0], ts.samples[0])
        np.testing.assert_array_equal(out.samples[-1], ts.samples[-1])

    def test_duration_preserved(self):
        ts = series_from_axis(np.arange(50.0), fs=50.0)
        out = resample(ts, 128)
        assert out.duration == pytest.approx(ts.duration)

    def test_sine_against_analytic_values(self):
        # 1 Hz sine at 50 Hz, upsampled to 128 points: linear
        # interpolation error stays below 1% of the unit amplitude
        fs = 50.0
        t = np.arange(0.0, 1.0, 1.0 / fs)
        ts = series_from_axis(np.sin(2 * np.pi * t), fs=fs)
        out = resample(ts, 128)
        t_new = np.linspace(0.0, t[-1], 128)
        np.testing.assert_allclose(
            out.axis("x"), np.sin(2 * np.pi * t_new), atol=0.01
        )

    def test_degenerate_lengths_rejected(self):
        ts = series_from_axis(np.arange(5.0))
        with pytest.raises(ContractError):
            resample(ts, 1)
        short = TimeSeries3D(fs=50.0, samples=np.zeros((1, 3)))
        with pytest.raises(ContractError):
            resample(short, 10)


class TestEpoch:
    def test_length_and_readonly(self):
        ep = Epoch(values=np.zeros((16, 3)), source_id="r1", offset=5)
        assert len(ep) == 16
        with pytest.raises(ValueError):
            ep.values[0, 0] = 1.0

    def test_rejects_bad_shape(self):
        with pytest.raises(ContractError):
            Epoch(values=np.zeros((16, 2)))
