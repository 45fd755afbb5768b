"""Core signal-processing primitives shared by the whole simulator.

Frequencies are normalized to the symbol rate (cycles per symbol period)
unless stated otherwise, so a shaped signal occupies |f| <= (1 + alpha)/2
and the oversampled Nyquist frequency sits at samples_per_symbol / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft as sp_fft
from scipy import special

__all__ = [
    "INTERP_TAPS",
    "SrrcSpec",
    "convolve",
    "delay",
    "qfunc",
    "raised_cosine_response",
    "srrc_taps",
]

_SQRT2 = math.sqrt(2.0)

# Length of the fractional-delay interpolator; it reaches INTERP_TAPS // 2
# samples to either side.
INTERP_TAPS = 63


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


def convolve(a, b, mode: str = "full") -> np.ndarray:
    """Linear convolution of ``a`` and ``b`` along their last axis (the
    other axes broadcast), through complex FFTs: complex, with the same
    numbers as SciPy's ``fftconvolve`` gives for a complex result.

    ``mode="full"`` keeps all n + m - 1 outputs, ``"valid"`` the
    |n - m| + 1 that overlap the longer input completely.
    """
    a, b = np.asarray(a), np.asarray(b)
    n, m = a.shape[-1], b.shape[-1]
    if mode == "full":
        lo, hi = 0, n + m - 1
    elif mode == "valid":
        lo, hi = min(n, m) - 1, max(n, m)
    else:
        raise ValueError(f"mode must be 'full' or 'valid', got {mode!r}")
    size = sp_fft.next_fast_len(n + m - 1, real=False)
    out = sp_fft.ifft(sp_fft.fft(a, size) * sp_fft.fft(b, size))
    return out[..., lo:hi].copy()


_LAGS = np.arange(INTERP_TAPS) - INTERP_TAPS // 2
_WINDOW = np.blackman(INTERP_TAPS)


# A criterion run over 64 phases at 4 samples a symbol reads the grid's
# 16 distinct shifts ~120 times and each of the timing loop's 16-26
# shifts once, so ~75 % of its calls hit.  256 entries of 63 taps stay
# under 130 kB.
@lru_cache(maxsize=256)
def _interp_taps(mu: float) -> np.ndarray:
    """Taps of the interpolator that delays by ``mu`` samples:
    y[n] = sum_k taps[k] x[n + half - k]; one read-only array per shift."""
    taps = np.sinc(_LAGS - mu) * _WINDOW
    taps /= taps.sum()  # unit DC gain at every shift
    taps.setflags(write=False)
    return taps


def delay(x: np.ndarray, d: float, at) -> np.ndarray:
    """``z[at]``, where ``z`` is the buffer ``x`` delayed by ``d`` samples
    (any real ``d``, at its own rate) and ``at`` holds integer indices of
    any shape.

    Positive ``d`` makes the signal arrive later: ``z[n] = x(n - d)``, so
    sampling a stream ``eps`` symbols late reads ``delay(x, -eps * sps,
    at)``.  The whole part ``round(d)`` is an index shift; a rest of
    1e-12 or more goes through a Blackman-windowed sinc of
    ``INTERP_TAPS`` taps, accurate for content below ~0.4 of the sample
    rate.  Each output sample is one dot product with the taps, reading
    ``x`` as zero beyond its ends, so a long stream costs only where it
    is read.
    """
    base = int(round(d))
    mu = d - base
    taps = np.ones(1) if abs(mu) < 1e-12 else _interp_taps(mu)
    idx = (np.asarray(at) - base + taps.size // 2)[..., None] - np.arange(taps.size)
    x = np.asarray(x, dtype=np.complex128)
    window = x.take(idx, mode="clip")
    window[(idx < 0) | (idx >= x.size)] = 0
    # a BLAS dot here would leave threads spinning beside the bursts
    return (window * taps).sum(axis=-1)


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
