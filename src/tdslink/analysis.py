"""Link-budget theory and sampling-phase selection criteria.

One error model serves every constellation: a symbol is one Gray-coded
PAM decision per quadrature axis (BPSK is 2-level PAM on one axis,
square M-QAM is sqrt(M)-level PAM on two).  ``theoretical_ser`` is the
average per-axis decision error rate across subcarriers and
``theoretical_ber`` divides it by the bits one axis carries; the
Monte-Carlo counters in :mod:`tdslink.montecarlo` estimate exactly these
quantities, so theory and simulation converge to the same numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .channel import EquivResponse
from .dsp import qfunc
from .frame import _LEVELS

__all__ = [
    "CriterionResult",
    "PhaseGrid",
    "awgn_phase_criterion",
    "band_power_criterion",
    "chernoff_objective",
    "default_phase_grid",
    "rolloff_band",
    "theoretical_ber",
    "theoretical_ser",
]


@dataclass(frozen=True)
class PhaseGrid:
    """Sorted, distinct sampling phases to search over."""

    phases: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=float)
        if phases.size == 0:
            raise ValueError("phase grid is empty")
        if np.any(np.diff(phases) <= 0):
            raise ValueError("phases must be strictly increasing")
        object.__setattr__(self, "phases", phases)

    def __len__(self) -> int:
        return self.phases.size


def default_phase_grid(n: int = 128) -> PhaseGrid:
    """n uniformly spaced phases covering [-0.5, 0.5); contains 0 for even n."""
    if n < 1:
        raise ValueError("grid size must be positive")
    return PhaseGrid((np.arange(n) - n // 2) / n)


def rolloff_band(n_fft: int, alpha: float) -> tuple[int, int]:
    """Inclusive subcarrier index range of the roll-off band.

    ceil(0.5 N (1 - alpha)) .. floor(0.5 N (1 + alpha)), with a tiny
    snap so exact integer boundaries are not lost to float rounding.
    """
    snap = 1e-9
    n_lo = math.ceil(0.5 * n_fft * (1.0 - alpha) - snap)
    n_hi = math.floor(0.5 * n_fft * (1.0 + alpha) + snap)
    if n_hi < n_lo:
        raise ValueError(
            f"roll-off band is empty for n_fft={n_fft}, alpha={alpha}"
        )
    return n_lo, n_hi


def _levels(order: int) -> int:
    if order not in _LEVELS:
        raise ValueError(f"order must be one of {tuple(_LEVELS)}, got {order}")
    return _LEVELS[order]


def _qam_params(order: int) -> tuple[float, float]:
    """(lambda, eta/gamma_b): prefactor and SNR coefficient of kappa-level
    PAM, kappa the levels per axis."""
    kappa = _levels(order)
    lam = 2.0 * (kappa - 1) / kappa
    coeff = 6.0 * math.log2(kappa) / (kappa**2 - 1)
    return lam, coeff


def _magsq(response: EquivResponse | np.ndarray) -> np.ndarray:
    if isinstance(response, EquivResponse):
        return response.magnitude_sq
    return np.abs(np.asarray(response)) ** 2


def theoretical_ser(
    response: EquivResponse | np.ndarray, ebn0_db: float, order: int
) -> float:
    """Average per-axis symbol error rate of Gray PAM per quadrature axis.

    (1/N) sum_n lambda Q(sqrt(|H_n|^2 coeff Eb/N0)) with
    lambda = 2(kappa-1)/kappa and coeff = 6 log2(kappa)/(kappa^2 - 1),
    kappa the PAM levels per axis (sqrt(M) for square M-QAM, 2 for
    BPSK, which gives Q(sqrt(2 |H_n|^2 Eb/N0))).  This is the decision
    error rate of one PAM branch, the quantity the Monte-Carlo harness
    counts.
    """
    magsq = _magsq(response)
    lam, coeff = _qam_params(order)
    gamma = 10.0 ** (ebn0_db / 10.0)
    return float(np.mean(lam * qfunc(np.sqrt(magsq * coeff * gamma))))


def theoretical_ber(ser: float, order: int) -> float:
    """Gray-map BER from the per-axis symbol error rate: ``ser`` divided
    by the bits one axis carries, log2(kappa) (1 for BPSK)."""
    return ser / math.log2(_levels(order))


def chernoff_objective(
    response: EquivResponse | np.ndarray, ebn0_db: float, order: int
) -> float:
    """Exponential surrogate (1/N) sum_n lambda exp(-|H_n|^2 eta).

    Used only to rank sampling phases; it is not asserted to bound the
    true error rate.
    """
    magsq = _magsq(response)
    lam, coeff = _qam_params(order)
    eta = coeff * 10.0 ** (ebn0_db / 10.0)
    return float(np.mean(lam * np.exp(-magsq * eta)))


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of a phase-selection rule evaluated on a grid."""

    chosen: float
    phases: np.ndarray
    objective: np.ndarray
    band: tuple[int, int]


def _argbest(phases: np.ndarray, objective: np.ndarray, maximize: bool) -> float:
    """Grid phase optimizing the objective; exact ties go to smallest |phase|."""
    best = np.max(objective) if maximize else np.min(objective)
    candidates = phases[objective == best]
    order = np.lexsort((candidates, np.abs(candidates)))
    return float(candidates[order[0]])


def awgn_phase_criterion(alpha: float, n_fft: int, grid: PhaseGrid) -> CriterionResult:
    """Ideal-channel phase rule on the roll-off band, in closed form.

    Over an ideal channel the band's subcarriers have
    |H_n|^2 = cos^2(pi eps) + sin^2(pi eps) sin^2((pi/alpha)(0.5 - n/N))
    (:func:`~tdslink.channel.awgn_response`), so the band power is
    n_band cos^2(pi eps) + S sin^2(pi eps), S the band's sum of the
    second sine squared; it is maximized over the grid.
    """
    n_lo, n_hi = rolloff_band(n_fft, alpha)
    f_band = np.arange(n_lo, n_hi + 1) / n_fft
    s = np.sum(np.sin(np.pi / alpha * (0.5 - f_band)) ** 2)
    eps = grid.phases
    objective = f_band.size * np.cos(np.pi * eps) ** 2 + s * np.sin(np.pi * eps) ** 2
    chosen = _argbest(eps, objective, maximize=True)
    return CriterionResult(
        chosen=chosen, phases=eps.copy(), objective=objective, band=(n_lo, n_hi)
    )


def band_power_criterion(
    responses: Mapping[float, EquivResponse], alpha: float, n_fft: int
) -> CriterionResult:
    """General phase rule: maximize roll-off-band power sum_n |H_n|^2.

    Works on any channel given each phase's equivalent response, keyed by
    phase (analytic or PN-estimated); ties resolve toward the smallest |phase|.
    """
    items = sorted(responses.items())
    if not items:
        raise ValueError("no responses supplied")
    n_lo, n_hi = rolloff_band(n_fft, alpha)
    phases = np.array([eps for eps, _ in items], dtype=float)
    objective = np.empty(phases.size)
    for i, (_, resp) in enumerate(items):
        if resp.n_fft != n_fft:
            raise ValueError("responses must share the same FFT length")
        objective[i] = np.sum(resp.magnitude_sq[n_lo : n_hi + 1])
    chosen = _argbest(phases, objective, maximize=True)
    return CriterionResult(
        chosen=chosen, phases=phases, objective=objective, band=(n_lo, n_hi)
    )
