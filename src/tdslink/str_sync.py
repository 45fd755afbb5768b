"""Conventional symbol timing recovery: PN correlation plus a sidelobe
timing error detector driving a first-order tracking loop.

The loop reads each frame's correlation window from the whole stream
delayed by the injected phase plus its correction ``phase_estimate``
(both in oversampled samples).  At convergence the correction cancels
the stream's fractional delay, so over an ideal channel the integer
peak offset minus ``phase_estimate`` recovers the injected offset.
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

# convergence: this many frames in a row with |timing error| below this
_SETTLED_FRAMES, _SETTLED_ERROR = 5, 0.02


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
    """First-order tracking loop state in oversampled samples, and its
    outcome: each frame's timing error and the ``phase_estimate`` after
    that frame's update, the last frame's peak offset, whether the loop
    converged and the sampling phase ``epsilon_hat`` it settled on."""

    phase_estimate: float = 0.0
    loop_gain: float = 0.5
    error_history: list[float] = field(default_factory=list)
    phase_history: list[float] = field(default_factory=list)
    peak_offset: int = 0
    converged: bool = False
    epsilon_hat: float = 0.0

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
    injected: float = 0.0,
) -> StrLoopState:
    """Track the PN correlation peak over ``n_frames`` guard intervals of
    ``rx``, the first at index ``guard_offset``, with the stream arriving
    ``injected`` samples late.

    Per frame: read the frame's correlation window from ``rx`` delayed
    by ``injected + phase_estimate``, locate the peak, form the sidelobe
    timing error, and update ``phase_estimate -= loop_gain * error``.
    Convergence is declared after ``_SETTLED_FRAMES`` frames in a row
    with |error| < ``_SETTLED_ERROR``.  A peak on the window's edge
    gives no error and ends tracking.  A loop that did not converge is
    flagged in the returned state, not fatal.  The state's
    ``epsilon_hat`` is the sampling phase the loop held: the integer
    peak offset minus the correction ``phase_estimate``, in symbols,
    wrapped.
    """
    frame_len = frame_len_symbols * n_upsam
    pad = 4 * n_upsam
    # a guard's correlation kernel span and ``pad`` lags on either side
    window = np.arange(n_upsam * (pn.chips.size - 1) + 1 + 2 * pad) - pad
    ok_streak = 0
    state.converged = False

    for i in range(n_frames):
        at = guard_offset + i * frame_len + window
        trace = correlate_pn(delay(rx, injected + state.phase_estimate, at), pn, n_upsam)
        if not 0 < trace.peak_index < trace.r.size - 1:
            break
        err = timing_error(trace)
        state.error_history.append(err)
        # peak index relative to the nominal on-time position of this window
        state.peak_offset = trace.peak_index - pad
        state.phase_estimate -= state.loop_gain * err
        state.phase_history.append(state.phase_estimate)
        ok_streak = ok_streak + 1 if abs(err) < _SETTLED_ERROR else 0
        if ok_streak >= _SETTLED_FRAMES:
            state.converged = True
            break
    state.epsilon_hat = wrap_phase((state.peak_offset - state.phase_estimate) / n_upsam)
    return state
