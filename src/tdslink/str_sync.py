"""Conventional symbol timing recovery: PN correlation plus a sidelobe
timing error detector driving a first-order tracking loop.

The loop state's ``phase_estimate`` is the correction delay (in
oversampled samples) applied to the incoming stream before correlating;
at convergence it equals minus the stream's fractional delay, so
``-phase_estimate`` recovers the injected offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import fftconvolve

from .channel import wrap_phase
from .dsp import delay
from .frame import PnSequence

__all__ = [
    "CorrelationTrace",
    "StrLoopState",
    "correlate_pn",
    "str_track",
    "timing_error",
]


@dataclass(frozen=True)
class CorrelationTrace:
    """|R(k)| over lag k and the index of its maximum (first on ties)."""

    r: np.ndarray
    peak_index: int


def correlate_pn(
    rx: np.ndarray, pn: PnSequence, n_upsam: int
) -> CorrelationTrace:
    """Correlate an oversampled buffer against symbol-spaced PN chips.

    r[k] = |sum_m rx[k + m n_upsam] conj(pn[m])|, one lag per
    oversampled sample.
    """
    rx = np.asarray(rx, dtype=np.complex128)
    kernel_len = n_upsam * (pn.chips.size - 1) + 1
    if rx.size < kernel_len:
        raise ValueError(
            f"buffer of {rx.size} samples is shorter than the "
            f"{kernel_len}-sample correlation kernel"
        )
    kernel = np.zeros(kernel_len)
    kernel[::n_upsam] = pn.chips
    r = np.abs(fftconvolve(rx, kernel[::-1], mode="valid"))
    return CorrelationTrace(r=r, peak_index=int(np.argmax(r)))


def timing_error(trace: CorrelationTrace) -> float:
    """Normalized sidelobe difference around the correlation peak.

    e = (r[peak+1] - r[peak-1]) / r[peak]; positive when the true peak
    lies later than the sampled one, so the loop correction subtracts it.
    """
    p = trace.peak_index
    if p <= 0 or p >= trace.r.size - 1:
        raise ValueError("correlation peak sits on the trace boundary")
    return float((trace.r[p + 1] - trace.r[p - 1]) / trace.r[p])


@dataclass
class StrLoopState:
    """First-order tracking loop state in oversampled samples."""

    phase_estimate: float = 0.0
    loop_gain: float = 0.5
    error_history: list[float] = field(default_factory=list)
    peak_offset: int = 0
    converged: bool = False

    def __post_init__(self):
        if not 0.0 < self.loop_gain <= 1.0:
            raise ValueError(f"loop gain must be in (0, 1], got {self.loop_gain}")
        if not math.isfinite(self.phase_estimate):
            raise ValueError("phase estimate must be finite")


def str_track(
    rx: np.ndarray,
    pn: PnSequence,
    state: StrLoopState,
    n_frames: int,
    n_upsam: int,
    frame_len_symbols: int,
    guard_offset: int = 0,
    threshold: float = 0.02,
    required_consecutive: int = 5,
) -> StrLoopState:
    """Track the PN correlation peak over ``n_frames`` guard intervals.

    Per frame: interpolate the frame's correlation window at the current
    phase, locate the peak, form the sidelobe timing error, and update
    ``phase_estimate -= loop_gain * error``.  Convergence is declared
    after ``required_consecutive`` frames with |error| < ``threshold``;
    failing that the returned state is flagged, not fatal.
    """
    rx = np.asarray(rx, dtype=np.complex128)
    frame_len = frame_len_symbols * n_upsam
    kernel_len = n_upsam * (pn.chips.size - 1) + 1
    pad = 4 * n_upsam
    ok_streak = 0
    state.converged = False

    for i in range(n_frames):
        start = guard_offset + i * frame_len - pad
        stop = start + kernel_len + 2 * pad
        if start < 0 or stop > rx.size:
            raise ValueError(f"frame {i} correlation window falls outside buffer")
        segment, base = delay(rx[start:stop], state.phase_estimate)
        trace = correlate_pn(segment, pn, n_upsam)
        err = timing_error(trace)
        state.error_history.append(err)
        # peak index relative to the nominal on-time position of this window
        state.peak_offset = trace.peak_index - pad + base
        state.phase_estimate -= state.loop_gain * err
        ok_streak = ok_streak + 1 if abs(err) < threshold else 0
        if ok_streak >= required_consecutive:
            state.converged = True
            break
    return state


def converged_sampling_phase(state: StrLoopState, n_upsam: int) -> float:
    """Sampling phase (fraction of a symbol) implied by a tracked loop.

    The total timing the loop settled on is the integer peak offset plus
    the accumulated fractional correction; dividing by the upsampling
    factor and wrapping gives the phase a receiver should sample at.
    """
    total_samples = state.peak_offset - state.phase_estimate
    return wrap_phase(total_samples / n_upsam)
