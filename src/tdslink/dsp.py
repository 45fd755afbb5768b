"""Core signal-processing primitives shared by the whole simulator.

Frequencies are normalized to the symbol rate (cycles per symbol period)
unless stated otherwise, so a shaped signal occupies |f| <= (1 + alpha)/2
and the oversampled Nyquist frequency sits at samples_per_symbol / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.signal import fftconvolve

__all__ = [
    "SignalBuffer",
    "SrrcSpec",
    "apply_fir",
    "delay",
    "fractional_delay",
    "qfunc",
    "raised_cosine_response",
    "srrc_taps",
    "upsample",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SignalBuffer:
    """Complex baseband samples with a samples-per-symbol rate tag.

    ``origin`` is the index of the sample aligned with symbol 0; filters
    that delay the signal advance it, so downstream stages can slice the
    stream without re-deriving group delays.  Buffers are treated as
    immutable once built.
    """

    samples: np.ndarray
    sps: int = 1
    origin: int = 0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("buffer must be a non-empty 1-D sample sequence")
        if not np.all(np.isfinite(samples.view(np.float64))):
            raise ValueError("buffer contains non-finite samples")
        if self.sps < 1:
            raise ValueError("samples-per-symbol tag must be >= 1")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2))


@dataclass(frozen=True)
class SrrcSpec:
    """Square-root raised cosine design: roll-off, one-sided span, rate."""

    alpha: float
    span_symbols: int = 16
    samples_per_symbol: int = 4

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"roll-off must be in (0, 1], got {self.alpha}")
        if self.span_symbols < 4:
            raise ValueError("filter span must be at least 4 symbols")
        if self.samples_per_symbol < 2:
            raise ValueError("need at least 2 samples per symbol")

    @property
    def n_taps(self) -> int:
        return 2 * self.span_symbols * self.samples_per_symbol + 1


def raised_cosine_response(f, alpha: float):
    """Combined transmit/receive SRRC magnitude response (a raised cosine).

    The transmit and receive shaping filters are square-root raised
    cosines, so their cascade has this response: 1 in the passband
    |f| < (1-alpha)/2, a sine roll-off out to (1+alpha)/2, zero beyond.
    ``f`` is in cycles per symbol; scalar or array.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"roll-off must be in (0, 1], got {alpha}")
    af = np.abs(np.asarray(f, dtype=float))
    lo = 0.5 * (1.0 - alpha)
    hi = 0.5 * (1.0 + alpha)
    out = np.zeros_like(af)
    out[af < lo] = 1.0
    band = (af >= lo) & (af < hi)
    out[band] = 0.5 * (1.0 + np.sin(np.pi / (2.0 * alpha) * (1.0 - 2.0 * af[band])))
    if np.ndim(f) == 0:
        return float(out)
    return out


def srrc_taps(spec: SrrcSpec) -> np.ndarray:
    """Unit-energy square-root raised cosine impulse response.

    Closed-form time-domain expression sampled at ``samples_per_symbol``
    per symbol and truncated to +/- ``span_symbols``.  The removable
    singularities at t = 0 and |t| = 1/(4 alpha) use their analytic
    limits.  Taps are scaled so that sum(taps**2) == 1.
    """
    a = spec.alpha
    sps = spec.samples_per_symbol
    half = spec.span_symbols * sps
    t = np.arange(-half, half + 1, dtype=float) / sps

    h = np.empty_like(t)
    at_zero = np.isclose(t, 0.0)
    sing = np.isclose(np.abs(t), 1.0 / (4.0 * a))
    regular = ~(at_zero | sing)

    h[at_zero] = 1.0 - a + 4.0 * a / np.pi
    h[sing] = (a / _SQRT2) * (
        (1.0 + 2.0 / np.pi) * math.sin(np.pi / (4.0 * a))
        + (1.0 - 2.0 / np.pi) * math.cos(np.pi / (4.0 * a))
    )
    tr = t[regular]
    num = np.sin(np.pi * tr * (1.0 - a)) + 4.0 * a * tr * np.cos(np.pi * tr * (1.0 + a))
    den = np.pi * tr * (1.0 - (4.0 * a * tr) ** 2)
    h[regular] = num / den

    return h / math.sqrt(np.sum(h * h))


def upsample(buf: SignalBuffer, factor: int) -> SignalBuffer:
    """Zero-stuff a symbol-rate buffer by an integer factor."""
    if buf.sps != 1:
        raise ValueError("upsample expects a symbol-rate buffer")
    if factor < 2:
        raise ValueError("upsampling factor must be >= 2")
    out = np.zeros(len(buf) * factor, dtype=np.complex128)
    out[::factor] = buf.samples
    return SignalBuffer(out, sps=factor, origin=buf.origin * factor)


def apply_fir(buf: SignalBuffer, taps: np.ndarray) -> SignalBuffer:
    """Full linear convolution; origin advances by the filter group delay.

    ``taps`` must be (close to) symmetric for the origin bookkeeping to
    mean anything, which holds for every filter used here.
    """
    taps = np.asarray(taps)
    y = fftconvolve(buf.samples, taps)
    return SignalBuffer(y, sps=buf.sps, origin=buf.origin + (len(taps) - 1) // 2)


def fractional_delay(x: np.ndarray, mu: float, n_taps: int = 63) -> np.ndarray:
    """Delay a buffer by ``mu`` samples, |mu| <= 0.5, at its own rate.

    Blackman-windowed sinc interpolator with compensated group delay:
    the output has the same length and time alignment as the input apart
    from the fractional shift; :func:`delay` handles larger delays.
    Accurate for content below ~0.4 of the sample rate; mu = 0 is an
    exact pass-through.
    """
    if not -0.5 <= mu <= 0.5:
        raise ValueError(f"fractional delay must be in [-0.5, 0.5], got {mu}")
    if n_taps % 2 == 0:
        raise ValueError("interpolator length must be odd")
    x = np.asarray(x)
    if mu == 0.0:
        return x.astype(np.complex128, copy=True)
    half = n_taps // 2
    k = np.arange(n_taps)
    taps = np.sinc(k - half - mu) * np.blackman(n_taps)
    taps /= taps.sum()  # unit DC gain at every shift
    y = fftconvolve(x, taps)
    return y[half : half + len(x)]


def delay(x: np.ndarray, d: float) -> tuple[np.ndarray, int]:
    """Delay a buffer by ``d`` samples (any real ``d``, at its own rate).

    Returns ``(y, base)`` with ``base = round(d)``: ``y`` is ``x`` delayed
    by the fractional rest ``d - base`` (same length and alignment as
    ``x``), and the full delay is the index shift ``z[n + base] = y[n]``.
    Positive ``d`` makes the signal arrive later; sampling a stream
    ``eps`` symbols late is therefore ``delay(x, -eps * sps)`` read from
    index ``origin - base``.  A rest below 1e-12 is passed through.
    """
    base = int(round(d))
    mu = d - base
    if abs(mu) < 1e-12:
        return np.asarray(x, dtype=np.complex128), base
    return fractional_delay(x, mu), base


def qfunc(x):
    """Tail probability of the standard normal distribution.

    Evaluated through erfc, which keeps the relative error far below
    1e-10 over the range used by the link budget math.  Scalar in,
    scalar out; arrays pass through elementwise.
    """
    out = 0.5 * special.erfc(np.asarray(x, dtype=float) / _SQRT2)
    if np.ndim(x) == 0:
        return float(out)
    return out
