"""Deterministic synthetic accelerometer data for the four key movements.

Each movement class is a sequence of point-to-point reaches following
the minimum-jerk quintic x(tau) = A*(10 tau^3 - 15 tau^4 + 6 tau^5),
alternating direction, with a class-specific axis mix and reversal
count.  Acceleration is the exact analytic second derivative of this
trajectory, so the generated signals are maximally smooth; "patient"
variants split every reach into several staggered sub-reaches of the
same total displacement, which multiplies the squared-jerk level while
keeping class and duration fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataset import Annotation, KEY_MOVEMENTS, Recording, check_seed, write_recording
from .errors import ContractError
from .kinematics import ACCELERATION, TimeSeries3D

# Axis energy mix (x, y, z; dominant axis = 1) and number of direction
# reversals for each movement class.  Distinct mixes/reversal counts
# keep the four classes separable by simple energy features.
CLASS_SIGNATURES = {
    "M1": ((1.0, 0.25, 0.10), 1),
    "M2": ((0.15, 1.0, 0.20), 1),
    "M3": ((0.70, 0.70, 0.25), 3),
    "M4": ((0.20, 0.10, 1.0), 2),
}


@dataclass(frozen=True)
class SynthProfile:
    """Everything needed to generate one movement segment."""

    movement: str
    duration_s: float = 2.0
    amplitude: float = 1.0
    fs: float = 50.0
    n_submovements: int = 1
    noise_sigma: float = 0.0
    speed_factor: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.movement not in KEY_MOVEMENTS:
            raise ContractError(f"movement must be one of {KEY_MOVEMENTS}")
        if self.fs <= 0 or self.duration_s <= 0:
            raise ContractError("fs and duration_s must be positive")
        if self.duration_s * self.fs < 16:
            raise ContractError("segment must span at least 16 samples")
        if self.n_submovements < 1:
            raise ContractError("n_submovements must be >= 1")
        if self.noise_sigma < 0:
            raise ContractError("noise_sigma must be >= 0")
        if self.speed_factor <= 0:
            raise ContractError("speed_factor must be positive")


def min_jerk_position(tau):
    """Normalized quintic reach profile on tau in [0, 1]."""
    return 10.0 * tau**3 - 15.0 * tau**4 + 6.0 * tau**5


def min_jerk_acceleration(tau):
    """Second derivative of the quintic w.r.t. tau (unit duration)."""
    return 60.0 * tau - 180.0 * tau**2 + 120.0 * tau**3


def _stroke_acceleration(t, t0, duration, displacement):
    """Analytic acceleration of one reach of given displacement/duration."""
    tau = (t - t0) / duration
    inside = (tau >= 0.0) & (tau < 1.0)
    out = np.zeros_like(t)
    out[inside] = (displacement / duration**2) * min_jerk_acceleration(tau[inside])
    return out


def gen_movement(profile: SynthProfile) -> TimeSeries3D:
    """Acceleration series for one movement segment; deterministic in seed.

    The trajectory is reversals+1 alternating reaches of the class's
    amplitude, each subdivided into ``n_submovements`` equal staggered
    sub-reaches.  A ``speed_factor`` below 1 slows execution (the
    segment lasts duration_s / speed_factor).  White noise of standard
    deviation ``noise_sigma`` is added per axis.
    """
    mix, reversals = CLASS_SIGNATURES[profile.movement]
    total_s = profile.duration_s / profile.speed_factor
    n = int(round(total_s * profile.fs))
    t = np.arange(n) / profile.fs

    legs = reversals + 1
    leg_s = total_s / legs
    sub_s = leg_s / profile.n_submovements
    accel_1d = np.zeros(n)
    for leg in range(legs):
        direction = 1.0 if leg % 2 == 0 else -1.0
        for sub in range(profile.n_submovements):
            t0 = leg * leg_s + sub * sub_s
            accel_1d += _stroke_acceleration(
                t,
                t0,
                sub_s,
                direction * profile.amplitude / profile.n_submovements,
            )

    samples = accel_1d[:, None] * np.asarray(mix)[None, :]
    if profile.noise_sigma > 0:
        rng = np.random.default_rng(profile.seed)
        samples = samples + rng.normal(0.0, profile.noise_sigma, size=samples.shape)
    return TimeSeries3D(fs=profile.fs, samples=samples, order=ACCELERATION)


def healthy_counterpart(profile: SynthProfile) -> SynthProfile:
    """The single-reach, noise-free profile a patient variant mirrors."""
    return replace(profile, n_submovements=1, noise_sigma=0.0)


def gen_patient_variant(profile: SynthProfile) -> TimeSeries3D:
    """Jerkified variant: same class and duration, fragmented reaches.

    With ``n_submovements`` sub-reaches per leg the squared-jerk level
    scales as roughly the fourth power of the count, so any count >= 2
    guarantees a strictly jerkier signal than
    ``gen_movement(healthy_counterpart(profile))`` at equal duration;
    the degenerate profile (one sub-reach, no noise) reproduces the
    healthy signal exactly.
    """
    return gen_movement(profile)


def gen_dataset(
    n_per_class: int,
    healthy_fraction: float = 0.5,
    seed: int = 0,
    out_dir=None,
) -> list[Recording]:
    """Balanced labelled recordings, one segment per class per recording.

    Produces ``n_per_class`` recordings, each containing one annotated
    segment of every movement class separated by rest gaps, so the
    dataset holds exactly ``n_per_class`` segments per class.  Subjects
    are synthetic: healthy ones record once, patient ones appear in
    four consecutive sessions.  When ``out_dir`` is given the
    recordings are also written in the on-disk dataset format.
    """
    if n_per_class < 1:
        raise ContractError("n_per_class must be >= 1")
    if not (0.0 <= healthy_fraction <= 1.0):
        raise ContractError("healthy_fraction must be in [0, 1]")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    fs = 50.0
    n_healthy = int(round(n_per_class * healthy_fraction))

    recordings = []
    for i in range(n_per_class):
        healthy = i < n_healthy
        if healthy:
            subject, group, session = f"H{i:03d}", "healthy", 1
        else:
            j = i - n_healthy
            subject, group, session = f"P{100 + j // 4}", "patient", j % 4 + 1

        chunks, annotations = [], []
        cursor = 0
        gap = np.zeros((int(0.5 * fs), 3))
        for movement in KEY_MOVEMENTS:
            if healthy:
                n_sub = 1
                sigma = rng.uniform(0.01, 0.03)
            else:
                n_sub = int(rng.integers(3, 6))
                sigma = rng.uniform(0.03, 0.08)
            profile = SynthProfile(
                movement=movement,
                duration_s=float(rng.uniform(1.6, 2.8)),
                amplitude=float(rng.uniform(0.8, 1.2)),
                fs=fs,
                n_submovements=n_sub,
                noise_sigma=float(sigma),
                seed=int(rng.integers(0, 2**32)),
            )
            segment = gen_movement(profile)
            chunks.append(gap)
            cursor += len(gap)
            annotations.append(Annotation(cursor, cursor + len(segment), movement))
            chunks.append(segment.samples)
            cursor += len(segment)
        chunks.append(gap)

        series = TimeSeries3D(
            fs=fs, samples=np.concatenate(chunks, axis=0), order=ACCELERATION
        )
        recordings.append(
            Recording(
                subject_id=subject,
                group=group,
                session=session,
                hand="dominant",
                scenario="L1",
                series=series,
                annotations=tuple(annotations),
            )
        )

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for k, rec in enumerate(recordings):
            write_recording(
                rec, out_dir / f"{rec.subject_id}_s{rec.session}_{k:04d}.csv"
            )
    return recordings
