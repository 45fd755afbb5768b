"""Conventional symbol timing recovery: PN correlation plus a sidelobe
timing error detector driving a first-order tracking loop.

The loop reads each frame's correlation window from that frame's row
of the stream (:func:`track_rows`), delayed by the injected phase plus
its correction ``phase_estimate`` (both in oversampled samples).  At
convergence the correction cancels the stream's fractional delay, so
over an ideal channel the integer peak offset minus ``phase_estimate``
recovers the injected offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import wrap_phase
from .dsp import INTERP_TAPS, convolve, delay
from .frame import PnSequence

__all__ = [
    "CorrelationTrace",
    "StrLoopState",
    "correlate_pn",
    "str_track",
    "timing_error",
    "track_rows",
]

# convergence: this many frames in a row with |timing error| below this
_SETTLED_FRAMES, _SETTLED_ERROR = 5, 0.02
# lags searched on either side of a guard's on-time peak, in symbols
_PAD = 4
# symbols a row holds past the pad and the interpolator for the delay
# the loop applies; the largest |injected + correction| measured was
# 2.33 samples (0.58 symbol at 4 samples per symbol) over 480 runs: the
# three shipped multipath profiles, 40 seeds, injected 0, 0.3, -0.45, 0.5
_DRIFT_MARGIN = 2


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
    r = np.abs(convolve(rx, kernel[::-1], mode="valid"))
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


def track_rows(n_chips: int, n_upsam: int) -> tuple[int, int]:
    """Guard offset and width of the rows :func:`str_track` reads: each
    guard's correlation kernel span with the loop's ``pad`` lags, the
    interpolator's half-length and ``_DRIFT_MARGIN`` symbols on either
    side."""
    reach = (_PAD + _DRIFT_MARGIN) * n_upsam + INTERP_TAPS // 2
    return reach, n_upsam * (n_chips - 1) + 1 + 2 * reach


def str_track(
    rows: np.ndarray,
    pn: PnSequence,
    state: StrLoopState,
    n_upsam: int,
    guard_offset: int,
    injected: float = 0.0,
) -> StrLoopState:
    """Track the PN correlation peak over the frames of a stream arriving
    ``injected`` samples late, one row of ``rows`` per frame with the
    frame's guard at index ``guard_offset`` (:func:`track_rows`).

    Per frame: read the correlation window from the frame's row delayed
    by ``injected + phase_estimate``, locate the peak, form the sidelobe
    timing error, and update ``phase_estimate -= loop_gain * error``.
    Convergence is declared after ``_SETTLED_FRAMES`` frames in a row
    with |error| < ``_SETTLED_ERROR``.  A peak on the window's edge
    gives no error and ends tracking, and so does a delay that would
    read past the row.  A loop that did not converge is flagged in the
    returned state, not fatal.  The state's ``epsilon_hat`` is the
    sampling phase the loop held: the integer peak offset minus the
    correction ``phase_estimate``, in symbols, wrapped.
    """
    pad = _PAD * n_upsam
    half = INTERP_TAPS // 2
    # a guard's correlation kernel span and ``pad`` lags on either side
    window = guard_offset + np.arange(n_upsam * (pn.chips.size - 1) + 1 + 2 * pad) - pad
    ok_streak = 0
    state.converged = False

    for row in rows:
        d = injected + state.phase_estimate
        shift = round(d)
        if window[0] - shift - half < 0 or window[-1] - shift + half >= row.size:
            break
        trace = correlate_pn(delay(row, d, window), pn, n_upsam)
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
