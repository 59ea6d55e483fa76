"""Synthetic movement generator: analytic guarantees and dataset output."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinemotion.dataset import KEY_MOVEMENTS, Annotation, Recording, parse_recording
from kinemotion.errors import ContractError
from kinemotion.kinematics import ACCELERATION, TimeSeries3D, differentiate
from kinemotion.smoothness import smoothness_set
from kinemotion.synth import (
    CLASS_SIGNATURES,
    SynthProfile,
    gen_dataset,
    gen_movement,
    gen_patient_variant,
    healthy_counterpart,
    min_jerk_acceleration,
    min_jerk_position,
)


def reference_gen_movement(profile):
    """The per-stroke loop gen_movement replaced: each sub-reach evaluated
    on its own samples and added into zeros in turn.  The reference that
    gen_movement is checked against, bit for bit."""
    mix, reversals = CLASS_SIGNATURES[profile.movement]
    n = int(round(profile.duration_s * profile.fs))
    t = np.arange(n) / profile.fs
    legs = reversals + 1
    leg_s = profile.duration_s / legs
    sub_s = leg_s / profile.n_submovements
    accel_1d = np.zeros(n)
    for leg in range(legs):
        direction = 1.0 if leg % 2 == 0 else -1.0
        for sub in range(profile.n_submovements):
            displacement = direction * profile.amplitude / profile.n_submovements
            tau = (t - (leg * leg_s + sub * sub_s)) / sub_s
            inside = (tau >= 0.0) & (tau < 1.0)
            stroke = np.zeros_like(t)
            stroke[inside] = (displacement / sub_s**2) * min_jerk_acceleration(
                tau[inside]
            )
            accel_1d += stroke
    samples = accel_1d[:, None] * np.asarray(mix)[None, :]
    if profile.noise_sigma > 0:
        rng = np.random.default_rng(profile.seed)
        samples = samples + rng.normal(0.0, profile.noise_sigma, size=samples.shape)
    return TimeSeries3D(fs=profile.fs, samples=samples, order=ACCELERATION)


@st.composite
def synth_profiles(draw):
    """Profiles of every movement and 1-8 sub-reaches, with or without noise,
    over 16 to 4,000 samples; amplitude 0 makes strokes of signed zeros."""
    fs = draw(st.sampled_from([50.0, 3.0, 7.0, 1000.0]) | st.floats(0.5, 2000.0))
    duration = draw(st.floats(16.5 / fs, 4000.0 / fs))
    return SynthProfile(
        movement=draw(st.sampled_from(KEY_MOVEMENTS)),
        duration_s=duration,
        amplitude=draw(st.sampled_from([0.0, -0.0, 1.0]) | st.floats(-5.0, 5.0)),
        fs=fs,
        n_submovements=draw(st.integers(1, 8)),
        noise_sigma=draw(st.sampled_from([0.0]) | st.floats(1e-3, 1.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def analytic_jerk_axis(profile, axis):
    """Exact jerk of a noise-free single-sub-reach profile, per sample."""
    mix, reversals = CLASS_SIGNATURES[profile.movement]
    total = profile.duration_s
    n = int(round(total * profile.fs))
    t = np.arange(n) / profile.fs
    legs = reversals + 1
    leg_s = total / legs
    jerk = np.zeros(n)
    for leg in range(legs):
        direction = 1.0 if leg % 2 == 0 else -1.0
        tau = (t - leg * leg_s) / leg_s
        inside = (tau >= 0.0) & (tau < 1.0)
        jerk[inside] += (
            direction
            * profile.amplitude
            / leg_s**3
            * (60.0 - 360.0 * tau[inside] + 360.0 * tau[inside] ** 2)
        )
    return jerk * mix["xyz".index(axis)]


def mean_squared_jerk_x(series):
    """Mean squared jerk on x of one generated segment, by ``smoothness_set``."""
    rec = Recording("P1", "patient", 1, "dominant", "L1", series,
                    (Annotation(0, len(series), "M1"),))
    return smoothness_set([rec]).stats[0, 1, 0, 0]


class TestQuinticStroke:
    def test_position_boundary_conditions(self):
        assert min_jerk_position(0.0) == 0.0
        assert min_jerk_position(1.0) == 1.0

    def test_velocity_zero_at_both_endpoints(self):
        # dx/dtau = 30 tau^2 - 60 tau^3 + 30 tau^4 vanishes at 0 and 1
        h = 1e-7
        for tau in (0.0, 1.0):
            a, b = max(tau - h, 0.0), min(tau + h, 1.0)
            slope = (min_jerk_position(b) - min_jerk_position(a)) / (b - a)
            assert abs(slope) < 1e-6

    def test_generated_displacement_reaches_amplitude(self):
        # integrate the emitted acceleration twice over the first reach
        profile = SynthProfile(movement="M1", duration_s=2.0, amplitude=1.3, fs=400.0)
        series = gen_movement(profile)
        dt = 1.0 / series.fs
        half = len(series) // 2  # one reversal: first reach is half
        ax = series.axis("x")[:half]
        velocity = np.cumsum(ax) * dt
        position = np.cumsum(velocity) * dt
        assert position[-1] == pytest.approx(1.3, rel=0.01)
        assert velocity[-1] == pytest.approx(0.0, abs=0.01)

    def test_net_velocity_change_is_zero_overall(self):
        # each reach starts and ends at rest, so the acceleration
        # integral vanishes up to quadrature error at the reach joins
        profile = SynthProfile(movement="M4", duration_s=2.0, fs=200.0)
        series = gen_movement(profile)
        peak_speed = np.abs(np.cumsum(series.axis("z")) / series.fs).max()
        for axis in "xyz":
            acc = series.axis(axis)  # trapezoid rule (np.trapezoid needs numpy 2)
            net = (acc.sum() - (acc[0] + acc[-1]) / 2) / series.fs
            assert abs(net) < 0.005 * peak_speed


class TestAnalyticJerk:
    @pytest.mark.parametrize("movement", KEY_MOVEMENTS)
    def test_numeric_jerk_matches_analytic_profile(self, movement):
        profile = SynthProfile(movement=movement, duration_s=2.0, fs=400.0)
        series = gen_movement(profile)
        numeric = differentiate(series).axis("x")
        truth = analytic_jerk_axis(profile, "x")

        _, reversals = CLASS_SIGNATURES[movement]
        legs = reversals + 1
        leg_samples = len(series) / legs  # joins may fall between samples
        keep = np.ones(len(series), dtype=bool)
        keep[0] = keep[-1] = False  # one-sided endpoint estimates
        indices = np.arange(len(series))
        for leg in range(legs + 1):
            boundary = leg * leg_samples
            keep[np.abs(indices - boundary) <= 1.5] = False  # straddles the kink
        scale = np.abs(truth).max()
        np.testing.assert_allclose(numeric[keep], truth[keep], atol=0.01 * scale)

    def test_peak_jerk_magnitude(self):
        # peak |jerk| of the quintic is 60 A / T^3 at the reach endpoints
        profile = SynthProfile(movement="M1", duration_s=2.0, amplitude=1.5, fs=1000.0)
        series = gen_movement(profile)
        leg_s = 1.0  # two legs over 2 s
        expected = 60.0 * profile.amplitude / leg_s**3
        numeric_peak = np.abs(differentiate(series).axis("x")).max()
        assert numeric_peak == pytest.approx(expected, rel=0.05)


class TestDeterminismAndValidation:
    def test_same_seed_identical_series(self):
        profile = SynthProfile(movement="M2", noise_sigma=0.05, seed=9)
        a = gen_movement(profile)
        b = gen_movement(profile)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        base = SynthProfile(movement="M2", noise_sigma=0.05, seed=9)
        other = SynthProfile(movement="M2", noise_sigma=0.05, seed=10)
        assert not np.array_equal(gen_movement(base).samples, gen_movement(other).samples)

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ContractError):
            SynthProfile(movement="M9")
        with pytest.raises(ContractError):
            SynthProfile(movement="M1", duration_s=0.1, fs=50.0)
        with pytest.raises(ContractError):
            SynthProfile(movement="M1", n_submovements=0)
        with pytest.raises(ContractError):
            SynthProfile(movement="M1", noise_sigma=-0.1)


class TestBroadcastGenerator:
    """gen_movement against the per-stroke reference_gen_movement."""

    @settings(max_examples=300, deadline=None)
    @given(profile=synth_profiles())
    def test_equals_per_stroke_reference_bit_for_bit(self, profile):
        got, want = gen_movement(profile), reference_gen_movement(profile)
        # int64 views, so that -0.0 and 0.0 differ
        assert got.samples.shape == want.samples.shape
        assert np.array_equal(got.samples.view(np.int64), want.samples.view(np.int64))
        assert (got.fs, got.order, got.unit) == (want.fs, want.order, want.unit)

    def test_single_stroke_sums_onto_zero_like_the_loop(self, monkeypatch):
        # a reach of negative amplitude starts at -0.0; the loop adds it into
        # zeros (0.0 + -0.0 = 0.0).  Every real class has two or more strokes,
        # whose outside samples are 0.0 anyway, so only one stroke shows it;
        # and, were the zero row lost, only on a numpy whose sum starts from
        # the first row rather than from 0.0 (numpy 2.4 starts from 0.0).
        monkeypatch.setitem(CLASS_SIGNATURES, "M1", ((1.0, 0.5, 0.25), 0))
        profile = SynthProfile(movement="M1", amplitude=-1.0)
        got, want = gen_movement(profile), reference_gen_movement(profile)
        assert want.samples[0].tobytes() == np.zeros(3).tobytes()
        assert np.array_equal(got.samples.view(np.int64), want.samples.view(np.int64))


class TestPatientVariant:
    def test_degenerate_variant_equals_healthy(self):
        profile = SynthProfile(movement="M3", n_submovements=1, noise_sigma=0.0)
        np.testing.assert_array_equal(
            gen_patient_variant(profile).samples, gen_movement(profile).samples
        )

    def test_fragmented_variant_is_at_least_twice_as_jerky(self):
        for seed in range(10):
            profile = SynthProfile(
                movement="M1", n_submovements=5, noise_sigma=0.05, seed=seed
            )
            patient = gen_patient_variant(profile)
            healthy = gen_movement(healthy_counterpart(profile))
            assert len(patient) == len(healthy)
            assert mean_squared_jerk_x(patient) >= 2.0 * mean_squared_jerk_x(healthy)

    def test_noise_raises_squared_jerk_in_expectation(self):
        sigmas = (0.01, 0.05, 0.1)
        means = []
        for sigma in sigmas:
            values = [
                mean_squared_jerk_x(
                    gen_movement(
                        SynthProfile(
                            movement="M2",
                            n_submovements=3,
                            noise_sigma=sigma,
                            seed=seed,
                        )
                    )
                )
                for seed in range(50)
            ]
            means.append(np.mean(values))
        assert means[0] < means[1] < means[2]

    def test_slower_execution_lowers_squared_jerk(self):
        # the observed clinical inversion: slower movement, lower level
        base = SynthProfile(movement="M1", duration_s=2.0)
        slow = SynthProfile(movement="M1", duration_s=4.0)
        assert mean_squared_jerk_x(gen_movement(slow)) < mean_squared_jerk_x(
            gen_movement(base)
        )


def energy_features(series):
    return np.mean(series.samples**2, axis=0)


META = ("subject_id", "group", "session", "hand", "scenario")


class TestGenDataset:
    def test_balanced_counts(self):
        recs = gen_dataset(n_per_class=10, seed=7)
        labels = [a.label for r in recs for a in r.annotations]
        assert len(labels) == 40
        for movement in KEY_MOVEMENTS:
            assert labels.count(movement) == 10

    def test_round_trips_through_files(self, tmp_path):
        # every file parses back to its in-memory recording, bit for bit
        recs = gen_dataset(n_per_class=3, seed=11, out_dir=tmp_path)
        paths = [tmp_path / f"{r.subject_id}_s{r.session}_{k:04d}.csv"
                 for k, r in enumerate(recs)]
        assert sorted(p for p in tmp_path.glob("*.csv")
                      if ".annotations" not in p.name) == sorted(paths)
        for rec, path in zip(recs, paths):
            parsed = parse_recording(path)
            assert np.array_equal(parsed.series.samples.view(np.int64),
                                  rec.series.samples.view(np.int64))
            assert (parsed.series.fs, parsed.series.order, parsed.series.unit) == (
                rec.series.fs, rec.series.order, rec.series.unit)
            assert parsed.annotations == rec.annotations and len(rec.annotations) == 4
            assert [getattr(parsed, key) for key in META] == [
                getattr(rec, key) for key in META]

    def test_rerun_is_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        gen_dataset(n_per_class=4, seed=3, out_dir=a_dir)
        gen_dataset(n_per_class=4, seed=3, out_dir=b_dir)
        a_files = sorted(p.name for p in a_dir.iterdir())
        assert a_files == sorted(p.name for p in b_dir.iterdir())
        for name in a_files:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_nearest_centroid_baseline_separates_classes(self):
        # per-axis energy features alone must reach 70%, confirming the
        # classes are learnable before any network enters the picture
        recs = gen_dataset(n_per_class=40, seed=5)
        feats, labels, rec_ids = [], [], []
        for k, rec in enumerate(recs):
            for ann in rec.annotations:
                seg = rec.series.slice(ann.start, ann.end)
                f = energy_features(seg)
                feats.append(f / np.linalg.norm(f))
                labels.append(ann.label)
                rec_ids.append(k)
        feats = np.asarray(feats)
        labels = np.asarray(labels)
        train = np.asarray(rec_ids) % 2 == 0  # every recording holds all classes
        centroids = {
            m: feats[train & (labels == m)].mean(axis=0) for m in KEY_MOVEMENTS
        }
        correct = 0
        for f, label in zip(feats[~train], labels[~train]):
            nearest = min(centroids, key=lambda m: np.linalg.norm(f - centroids[m]))
            correct += nearest == label
        assert correct / (~train).sum() >= 0.70

    def test_healthy_fraction_controls_groups(self):
        recs = gen_dataset(n_per_class=10, healthy_fraction=0.7, seed=1)
        healthy = sum(r.group == "healthy" for r in recs)
        assert healthy == 7
        patients = [r for r in recs if r.group == "patient"]
        assert {r.session for r in patients} <= {1, 2, 3, 4}

    def test_smoothness_pipeline_runs_on_generated_segments(self):
        recs = gen_dataset(n_per_class=1, seed=2)
        sset = smoothness_set(recs)
        assert len(sset.movements) == sum(len(r.annotations) for r in recs)
        assert np.all(np.isfinite(sset.stats)) and np.all(sset.stats[:, 1] >= 0.0)
