"""Tri-axial time-series container and kinematic derivative operations.

The same container holds a signal at any point of the derivative chain
position -> velocity -> acceleration -> jerk -> snap; the ``order``
field records where in the chain the data sits (position is order 0,
acceleration order 2, jerk order 3, snap order 4).  Raw accelerometer
data therefore enters at order 2 and one differentiation yields jerk.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError, InvalidDataError

POSITION, VELOCITY, ACCELERATION, JERK, SNAP = 0, 1, 2, 3, 4

AXES = ("x", "y", "z")

# Units along the derivative chain; anything unrecognised falls back to
# a generic "per second" suffix.
_UNIT_CHAIN = {
    "m": "m/s",
    "m/s": "m/s^2",
    "m/s^2": "m/s^3",
    "m/s^3": "m/s^4",
}


def _axis_index(axis):
    try:
        return AXES.index(axis)
    except ValueError:
        raise ContractError(f"unknown axis {axis!r}, expected one of {AXES}") from None


@dataclass(frozen=True)
class TimeSeries3D:
    """Uniformly sampled (x, y, z) signal.

    Parameters
    ----------
    fs : float
        Sampling rate in Hz, must be positive.
    samples : ndarray, shape (n, 3)
        One row per sample.  Stored as read-only float64; all values
        must be finite.
    order : int
        Derivative order relative to the position trajectory.
    unit : str
        Free-form unit tag.  Carried as metadata only, never converted.
    """

    fs: float
    samples: np.ndarray
    order: int = ACCELERATION
    unit: str = "m/s^2"

    def __post_init__(self):
        if not np.isfinite(self.fs) or self.fs <= 0:
            raise ContractError(f"sampling rate must be positive, got {self.fs}")
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ContractError(f"samples must have shape (n, 3), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidDataError("samples contain NaN or Inf")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "fs", float(self.fs))

    def __len__(self):
        return self.samples.shape[0]

    @property
    def duration(self):
        """Time spanned by the samples, (n - 1) / fs, in seconds."""
        return (len(self) - 1) / self.fs

    def axis(self, axis):
        """Return one axis ('x', 'y' or 'z') as a 1-D array."""
        return self.samples[:, _axis_index(axis)]

    def slice(self, start, stop):
        """Sub-series over sample indices [start, stop), same fs and tags; its
        samples are a read-only view of these, neither copied nor checked again."""
        if not (0 <= start < stop <= len(self)):
            raise ContractError(
                f"slice [{start}, {stop}) out of range for length {len(self)}"
            )
        sub = copy.copy(self)
        object.__setattr__(sub, "samples", self.samples[start:stop])
        return sub


def differentiate(series: TimeSeries3D) -> TimeSeries3D:
    """Differentiate a series in time, advancing its derivative order.

    Interior samples use the second-order central difference
    (s[n+1] - s[n-1]) * fs / 2; the two endpoints use first-order
    one-sided differences.  Applied to acceleration this yields jerk,
    applied twice it yields snap.  Length and sampling rate are
    preserved.
    """
    x = series.samples
    if len(series) < 3:
        raise DegenerateInputError(
            f"need at least 3 samples to differentiate, got {len(series)}"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidDataError("cannot differentiate a series with NaN or Inf")
    unit = _UNIT_CHAIN.get(series.unit, f"({series.unit})/s")
    return TimeSeries3D(fs=series.fs, samples=central_difference(x, series.fs),
                        order=series.order + 1, unit=unit)


def central_difference(x: np.ndarray, fs: float) -> np.ndarray:
    """The array arithmetic of :func:`differentiate`: the time derivative of
    the n >= 3 rows of ``x``, unchecked, so an overflow yields inf or NaN."""
    out = np.empty_like(x)
    out[1:-1] = (x[2:] - x[:-2]) * (fs / 2.0)
    out[0] = (x[1] - x[0]) * fs
    out[-1] = (x[-1] - x[-2]) * fs
    return out


def window_offsets(n: int, w: int, s: int) -> range:
    """Start indices of the length-``w`` windows at stride ``s`` over ``n`` samples.

    Window k starts at k*s and ends by ``n``; fewer than ``w`` samples
    give no window.
    """
    if w < 1 or s < 1:
        raise ContractError(f"window length and stride must be >= 1, got w={w}, s={s}")
    return range(0, n - w + 1, s)


def window(series: TimeSeries3D, w: int, s: int) -> list[TimeSeries3D]:
    """Cut the series into fixed-length windows of length ``w``, stride ``s``.

    Window k is ``series.slice(k*s, k*s + w)``, a read-only view; a series
    shorter than ``w`` yields an empty list.
    """
    return [series.slice(o, o + w) for o in window_offsets(len(series), w, s)]


def resample(series: TimeSeries3D, target_len: int) -> TimeSeries3D:
    """Linearly resample onto ``target_len`` points spanning the same duration.

    First and last samples are preserved exactly; the sampling rate is
    rescaled so the duration is unchanged.  Resampling to the source
    length is the identity.
    """
    n = len(series)
    if n < 2 or target_len < 2:
        raise ContractError(
            f"resample needs source and target lengths >= 2, got {n} -> {target_len}"
        )
    if target_len == n:
        return series
    src_t = np.arange(n, dtype=np.float64)
    dst_t = np.linspace(0.0, n - 1, target_len)
    out = np.column_stack(
        [np.interp(dst_t, src_t, series.samples[:, i]) for i in range(3)]
    )
    # preserve endpoints exactly even if interp rounds at the edges
    out[0] = series.samples[0]
    out[-1] = series.samples[-1]
    new_fs = series.fs * (target_len - 1) / (n - 1)
    return TimeSeries3D(fs=new_fs, samples=out, order=series.order, unit=series.unit)
