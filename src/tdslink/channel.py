"""Multipath/AWGN channel model and the equivalent symbol-rate response.

The equivalent baseband channel is the cascade upsample -> shaping ->
multipath -> shaping -> downsample-at-phase-epsilon.  Its per-subcarrier
response is the aliased sum of the combined raised-cosine spectrum and
the physical channel response, each image carrying the sampling-phase
ramp exp(j 2 pi (f - k) epsilon).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import INTERP_TAPS, delay, raised_cosine_response
from .frame import PnSequence

__all__ = [
    "AWGN_PROFILE",
    "ChannelProfile",
    "EquivResponse",
    "ImageSum",
    "apply_channel",
    "awgn_response",
    "equivalent_response",
    "estimate_complex_response_from_pn",
    "estimate_response_from_pn",
    "load_profile",
    "pn_spectrum",
    "wrap_phase",
]


def wrap_phase(epsilon: float) -> float:
    """Wrap a sampling phase into [-0.5, 0.5) modulo one symbol period."""
    return float((epsilon + 0.5) % 1.0 - 0.5)


@dataclass(frozen=True)
class ChannelProfile:
    """Tapped delay line: strictly increasing delays (symbol periods) and
    complex gains normalized to unit total power."""

    delays: np.ndarray
    gains: np.ndarray
    name: str = ""

    def __post_init__(self):
        delays = np.asarray(self.delays, dtype=float)
        gains = np.asarray(self.gains, dtype=np.complex128)
        if delays.size == 0 or delays.size != gains.size:
            raise ValueError("profile needs matching, non-empty delay/gain lists")
        if not (np.all(np.isfinite(delays)) and np.all(np.isfinite(gains))):
            raise ValueError("tap delays and gains must be finite")
        if delays[0] < 0 or np.any(np.diff(delays) <= 0):
            raise ValueError("tap delays must be >= 0 and strictly increasing")
        power = float(np.sum(np.abs(gains) ** 2))
        if power <= 0:
            raise ValueError("profile has no power")
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "gains", gains / math.sqrt(power))

    @property
    def is_identity(self) -> bool:
        return self.delays.size == 1 and self.delays[0] == 0.0

    def frequency_response(self, f: np.ndarray) -> np.ndarray:
        """Analog response at normalized frequency f (cycles per symbol)."""
        f = np.asarray(f, dtype=float)
        return np.sum(
            self.gains[:, None]
            * np.exp(-2j * np.pi * f[None, :] * self.delays[:, None]),
            axis=0,
        )


AWGN_PROFILE = ChannelProfile(delays=[0.0], gains=[1.0 + 0.0j], name="awgn")


def load_profile(path: str | Path) -> ChannelProfile:
    """Read a tap file: one `delay_symbols gain_re gain_im` triple per line,
    `#` starts a comment.  Power is normalized on load."""
    path = Path(path)
    delays, gains = [], []
    for ln, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{ln}: expected 'delay re im', got {raw!r}")
        try:
            d, re, im = (float(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: non-numeric tap entry") from exc
        delays.append(d)
        gains.append(complex(re, im))
    if not delays:
        raise ValueError(f"{path}: no taps found")
    return ChannelProfile(delays=delays, gains=gains, name=path.stem)


def apply_channel(x: np.ndarray, profile: ChannelProfile, sps: int) -> np.ndarray:
    """Tapped-delay-line channel on samples at ``sps`` per symbol.

    ``x`` is convolved with the channel's impulse response at that rate:
    the sum of each tap's gain times a unit sample delayed by the tap's
    delay (:func:`~tdslink.dsp.delay`).  The output is extended so no
    tail is truncated and starts at the input's first sample (tap delays
    are part of the channel response, not group delay to compensate).
    """
    shifts = profile.delays * sps
    last = int(math.ceil(shifts.max()))
    half = INTERP_TAPS // 2  # the interpolator's reach before a delayed sample
    lags = np.arange(-half, last + half + 1)
    h = sum(gain * delay(np.ones(1), shift, lags) for gain, shift in zip(profile.gains, shifts))
    return np.convolve(x, h)[half : half + len(x) + last + 1]


@dataclass(frozen=True)
class EquivResponse:
    """Per-subcarrier complex gains of the equivalent symbol-rate channel."""

    h: np.ndarray

    @property
    def n_fft(self) -> int:
        return self.h.size

    @property
    def magnitude_sq(self) -> np.ndarray:
        return np.abs(self.h) ** 2


class ImageSum:
    """Aliased-image sum for the equivalent channel, phase by phase.

    h[n] = sum_k H_C(f_n - k) RC(f_n - k) exp(j 2 pi (f_n - k) epsilon),
    f_n = n / n_fft.  Truncating the image index to |k| <= 2 is exact:
    the combined shaping response vanishes beyond |f| = (1 + alpha)/2.
    Only the ramp depends on the phase, so the image terms
    H_C(f_n - k) RC(f_n - k) are computed once, here.
    """

    def __init__(self, profile: ChannelProfile, alpha: float, n_fft: int):
        f = np.arange(n_fft) / n_fft
        self.images = []
        for k in range(-2, 3):
            fk = f - k
            rc = raised_cosine_response(fk, alpha)
            if np.any(rc):
                self.images.append((fk, profile.frequency_response(fk) * rc))

    def response(self, epsilon: float) -> EquivResponse:
        """Equivalent response at phase ``epsilon``."""
        h = sum(term * np.exp(2j * np.pi * fk * epsilon) for fk, term in self.images)
        return EquivResponse(h)


def equivalent_response(
    profile: ChannelProfile, alpha: float, epsilon: float, n_fft: int
) -> EquivResponse:
    """:class:`ImageSum` response at one phase ``epsilon``."""
    return ImageSum(profile, alpha, n_fft).response(epsilon)


def awgn_response(alpha: float, epsilon: float, f) -> np.ndarray:
    """Closed-form equivalent response over an ideal channel.

    Three branches on f in [0, 1): a pure phase ramp below the roll-off
    band, cos(pi eps) + j sin((pi/alpha)(0.5 - f)) sin(pi eps) times a
    ramp inside it, and the wrapped ramp above.  Independent of the
    aliased-sum path, which makes the two cross-checkable.
    """
    f_arr = np.asarray(f, dtype=float)
    if np.any((f_arr < 0.0) | (f_arr >= 1.0)):
        raise ValueError("normalized frequency must lie in [0, 1)")
    lo = 0.5 * (1.0 - alpha)
    hi = 0.5 * (1.0 + alpha)
    out = np.empty(f_arr.shape, dtype=np.complex128)

    below = f_arr < lo
    band = (f_arr >= lo) & (f_arr < hi)
    above = f_arr >= hi

    out[below] = np.exp(2j * np.pi * epsilon * f_arr[below])
    fb = f_arr[band]
    out[band] = np.exp(2j * np.pi * epsilon * (fb - 0.5)) * (
        math.cos(math.pi * epsilon)
        + 1j * np.sin(np.pi / alpha * (0.5 - fb)) * math.sin(math.pi * epsilon)
    )
    out[above] = np.exp(2j * np.pi * epsilon * (f_arr[above] - 1.0))
    if np.ndim(f) == 0:
        return complex(out)
    return out


def pn_spectrum(pn: PnSequence, guard_amplitude: float = 1.0) -> np.ndarray:
    """DFT of the transmitted guard, the divisor of the PN estimators;
    ValueError when a bin falls below 1e-6 of the mean magnitude."""
    ref = np.fft.fft(guard_amplitude * pn.chips)
    mag = np.abs(ref)
    bad = mag < 1e-6 * float(np.mean(mag))
    if np.any(bad):
        raise ValueError(
            f"{int(bad.sum())} PN spectrum bins below threshold; "
            "pick a different generator"
        )
    return ref


def _pn_ls_estimate(guard_windows: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per-bin LS estimate DFT(rx)/DFT(tx_guard), averaged over the rows;
    ``ref`` is DFT(tx_guard), from :func:`pn_spectrum`."""
    windows = np.atleast_2d(np.asarray(guard_windows, dtype=np.complex128))
    if windows.shape[1] != ref.size:
        raise ValueError(
            f"guard windows have length {windows.shape[1]}, PN is {ref.size}"
        )
    return np.mean(np.fft.fft(windows, axis=1), axis=0) / ref


def _interp_bins(values: np.ndarray, n_fft: int) -> np.ndarray:
    """Periodic linear interpolation of real per-bin values onto n_fft bins."""
    f_l = np.arange(values.size) / values.size
    return np.interp(np.arange(n_fft) / n_fft, f_l, values, period=1.0)


def estimate_response_from_pn(
    guard_windows: np.ndarray, ref: np.ndarray, n_fft: int
) -> EquivResponse:
    """Least-squares channel magnitude estimate from received guards.

    ``guard_windows`` holds one row per received guard interval (symbol
    rate, candidate phase already applied), and ``ref`` is the
    transmitted guard's :func:`pn_spectrum`.  Per-bin estimates
    DFT(rx)/DFT(tx_guard) are averaged coherently over the rows, then
    |H|^2 is linearly interpolated from the guard length up to ``n_fft``
    bins.  Only magnitudes are meaningful in the result (the band-power
    phase criterion needs nothing else), so ``h`` is real non-negative.
    """
    est = _pn_ls_estimate(guard_windows, ref)
    magsq = _interp_bins(np.abs(est) ** 2, n_fft)
    return EquivResponse(np.sqrt(magsq).astype(np.complex128))


def estimate_complex_response_from_pn(
    guard_windows: np.ndarray, ref: np.ndarray, n_fft: int
) -> np.ndarray:
    """Complex gains for equalizing: the LS step of
    :func:`estimate_response_from_pn` with the real and imaginary parts
    interpolated up to ``n_fft`` bins."""
    est = _pn_ls_estimate(guard_windows, ref)
    return _interp_bins(est.real, n_fft) + 1j * _interp_bins(est.imag, n_fft)
