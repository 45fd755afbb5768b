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

from .dsp import SignalBuffer, delay, raised_cosine_response
from .frame import PnSequence

__all__ = [
    "AWGN_PROFILE",
    "ChannelProfile",
    "EquivResponse",
    "add_awgn",
    "apply_channel",
    "awgn_response",
    "equivalent_response",
    "estimate_complex_response_from_pn",
    "estimate_response_from_pn",
    "load_profile",
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


def apply_channel(buf: SignalBuffer, profile: ChannelProfile) -> SignalBuffer:
    """Tapped-delay-line channel at the oversampled rate.

    Integer-sample delays are index shifts; fractional residues go
    through the windowed-sinc interpolator.  The output is extended so
    no tail is truncated, and the time origin is unchanged (tap delays
    are part of the channel response, not group delay to compensate).
    """
    if buf.sps < 2:
        raise ValueError("channel applies at the oversampled rate")
    x = buf.samples
    shifts = profile.delays * buf.sps
    n_out = len(x) + int(math.ceil(shifts.max())) + 1
    out = np.zeros(n_out, dtype=np.complex128)
    for gain, shift in zip(profile.gains, shifts):
        y, base = delay(x, float(shift))
        out[base : base + len(x)] += gain * y
        del y  # free it before the next tap's interpolation: peak memory
    return SignalBuffer(out, sps=buf.sps, origin=buf.origin)


def add_awgn(
    x: np.ndarray,
    ebn0_db: float,
    bits_per_symbol: int,
    oversampling: int,
    rng: np.random.Generator,
    signal_power: float | None = None,
) -> np.ndarray:
    """Add circular complex Gaussian noise calibrated to Eb/N0.

    ``signal_power`` is the mean |x|^2 of the payload at the buffer's own
    rate (measured from ``x`` when omitted); ``oversampling`` refers it
    back to the symbol rate, where one symbol carries
    ``bits_per_symbol`` information bits.  The per-real-dimension
    variance is P * oversampling / (2 * bits_per_symbol * 10^(Eb/N0/10)).
    """
    x = np.asarray(x, dtype=np.complex128)
    if signal_power is None:
        signal_power = float(np.mean(np.abs(x) ** 2))
    gamma = 10.0 ** (ebn0_db / 10.0)
    var_per_dim = signal_power * oversampling / (2.0 * bits_per_symbol * gamma)
    sigma = math.sqrt(var_per_dim)
    noise = sigma * (
        rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
    )
    return x + noise


@dataclass(frozen=True)
class EquivResponse:
    """Per-subcarrier complex gains of the equivalent symbol-rate channel."""

    h: np.ndarray
    epsilon: float
    alpha: float
    profile_name: str = ""

    @property
    def n_fft(self) -> int:
        return self.h.size

    @property
    def magnitude_sq(self) -> np.ndarray:
        return np.abs(self.h) ** 2


def equivalent_response(
    profile: ChannelProfile, alpha: float, epsilon: float, n_fft: int
) -> EquivResponse:
    """Aliased-image sum for the equivalent channel at phase ``epsilon``.

    h[n] = sum_k H_C(f_n - k) RC(f_n - k) exp(j 2 pi (f_n - k) epsilon),
    f_n = n / n_fft.  Truncating the image index to |k| <= 2 is exact:
    the combined shaping response vanishes beyond |f| = (1 + alpha)/2.
    """
    f = np.arange(n_fft) / n_fft
    h = np.zeros(n_fft, dtype=np.complex128)
    for k in range(-2, 3):
        fk = f - k
        rc = raised_cosine_response(fk, alpha)
        if not np.any(rc):
            continue
        h += profile.frequency_response(fk) * rc * np.exp(2j * np.pi * fk * epsilon)
    return EquivResponse(h=h, epsilon=epsilon, alpha=alpha, profile_name=profile.name)


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


def _pn_ls_estimate(
    guard_windows: np.ndarray,
    pn: PnSequence,
    guard_amplitude: float,
    spectral_floor: float = 1e-6,
) -> np.ndarray:
    """Per-bin LS estimate DFT(rx)/DFT(tx_guard), averaged over the rows."""
    windows = np.atleast_2d(np.asarray(guard_windows, dtype=np.complex128))
    if windows.shape[1] != pn.chips.size:
        raise ValueError(
            f"guard windows have length {windows.shape[1]}, PN is {pn.chips.size}"
        )
    ref = np.fft.fft(guard_amplitude * pn.chips)
    mag = np.abs(ref)
    bad = mag < spectral_floor * float(np.mean(mag))
    if np.any(bad):
        raise ValueError(
            f"{int(bad.sum())} PN spectrum bins below threshold; "
            "pick a different generator"
        )
    return np.mean(np.fft.fft(windows, axis=1), axis=0) / ref


def _interp_bins(values: np.ndarray, n_fft: int) -> np.ndarray:
    """Periodic linear interpolation of real per-bin values onto n_fft bins."""
    f_l = np.arange(values.size) / values.size
    return np.interp(np.arange(n_fft) / n_fft, f_l, values, period=1.0)


def estimate_response_from_pn(
    guard_windows: np.ndarray,
    pn: PnSequence,
    n_fft: int,
    guard_amplitude: float = 1.0,
    spectral_floor: float = 1e-6,
) -> EquivResponse:
    """Least-squares channel magnitude estimate from received guards.

    ``guard_windows`` holds one row per received guard interval (symbol
    rate, candidate phase already applied).  Per-bin estimates
    DFT(rx)/DFT(tx_guard) are averaged coherently over the rows, then
    |H|^2 is linearly interpolated from the guard length up to ``n_fft``
    bins.  Only magnitudes are meaningful in the result (the band-power
    phase criterion needs nothing else), so ``h`` is real non-negative.
    """
    est = _pn_ls_estimate(guard_windows, pn, guard_amplitude, spectral_floor)
    magsq = _interp_bins(np.abs(est) ** 2, n_fft)
    return EquivResponse(
        h=np.sqrt(magsq).astype(np.complex128),
        epsilon=math.nan,
        alpha=math.nan,
        profile_name="pn-estimate",
    )


def estimate_complex_response_from_pn(
    guard_windows: np.ndarray, pn: PnSequence, n_fft: int, guard_amplitude: float
) -> np.ndarray:
    """Complex gains for equalizing: the LS step of
    :func:`estimate_response_from_pn` with the real and imaginary parts
    interpolated up to ``n_fft`` bins."""
    est = _pn_ls_estimate(guard_windows, pn, guard_amplitude)
    return _interp_bins(est.real, n_fft) + 1j * _interp_bins(est.imag, n_fft)
