"""Scenario-driven Monte-Carlo BER engine and analytic curve runners.

The receiver implemented here is the idealized one the closed-form BER
model assumes: perfect frame alignment, known guard contribution removed
before demodulation, and each OFDM block's filter tails folded back into
its window so the symbol-rate channel acts circularly on the block.
Per-subcarrier gains then match the analytic equivalent response to the
shaping-filter truncation floor, which is what makes theory-vs-simulation
comparisons meaningful.

A burst's frames form a ring: the noiseless chain is one circular
convolution of the frames with the phase's symbol-rate impulse response,
so every frame has neighbours on both sides and every frame is measured,
with one fold, FFT, slice and bit count per burst.  The oversampled
path (shaping -> channel -> matched filter) runs once per scenario, on one
unit symbol, when first needed; noisy streams (timing-recovery baseline,
PN estimator) are convolved with that response, and each phase reads it
only at the symbol instants used: a response's support, or guard windows.

Symbol errors are counted per quadrature axis (each square-QAM symbol is
two Gray-coded PAM decisions), the same quantity
:func:`tdslink.analysis.theoretical_ser` computes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.signal import fftconvolve

from .analysis import (
    CriterionResult,
    PhaseGrid,
    band_power_criterion,
    chernoff_objective,
    theoretical_ber,
    theoretical_ser,
)
from .channel import (
    EquivResponse,
    ImageSum,
    apply_channel,
    estimate_complex_response_from_pn,
    estimate_response_from_pn,
)
from .config import ScenarioConfig
from .dsp import INTERP_TAPS, delay, srrc_taps
from .frame import build_frames, detect_labels
from .str_sync import StrLoopState, str_track

__all__ = [
    "BerCurve",
    "BerPoint",
    "CriterionReport",
    "Source",
    "grid_search_ber_oracle",
    "measure_chain_response",
    "run_criterion",
    "run_mc_ber",
    "run_str_baseline",
    "run_theory",
]

_POPCOUNT8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)


class Source(Enum):
    THEORY = "theory"
    CHERNOFF = "chernoff"
    MONTE_CARLO = "mc"


@dataclass(frozen=True)
class BerPoint:
    """One (Eb/N0, phase) result; ``ser`` is the per-axis decision error
    rate, ``ber`` = errors / bits exactly for Monte-Carlo points."""

    ebn0_db: float
    epsilon: float
    modulation: str
    ser: float
    ber: float
    bits: int = 0
    errors: int = 0
    source: Source = Source.MONTE_CARLO
    axes: int = 0
    axis_errors: int = 0
    exhausted: bool = False

    def csv_row(self) -> str:
        return (
            f"{self.ebn0_db:.10g},{self.epsilon:.10g},{self.modulation},"
            f"{self.ser:.10g},{self.ber:.10g},{self.bits},{self.errors},"
            f"{self.source.value}"
        )


CSV_HEADER = "ebn0_db,epsilon,modulation,ser,ber,bits,errors,source"
_STR_FRAMES, _STR_LOOP_GAIN = 40, 0.5  # timing-recovery baseline defaults


@dataclass
class BerCurve:
    points: list[BerPoint]
    wall_time_s: float = 0.0

    @property
    def flagged(self) -> bool:
        return any(p.exhausted for p in self.points)


class _Chain:
    """Precomputed per-scenario state shared by all bursts."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        f = cfg.frame
        self.taps = srrc_taps(cfg.srrc)
        self.pn = f.pn
        self.const = f.constellation()
        self.k = self.const.bits_per_symbol
        self.N = f.n_fft
        self.G = f.guard_len
        self.L = f.n_upsam
        self.F = f.frame_len
        max_delay = int(math.ceil(float(np.max(cfg.channel.delays))))
        # two-sided tail of the equivalent symbol-rate channel
        self.tail = 2 * cfg.srrc_span + max_delay + 10
        # zeros the oversampled path puts around its unit symbol
        self.pad = self.tail + 2
        # index of the symbol in :attr:`response`: the padding plus the
        # delays of the shaping and matched filters
        self.origin = self.pad * self.L + self.taps.size - 1
        # one frame period of a guards-only ring
        self.guard_spectrum = np.fft.fft(
            build_frames(np.zeros((1, self.N)), self.pn, f)[0]
        )

    def draw_frames(
        self, rng: np.random.Generator, n_frames: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Random (n_frames, N) symbol labels from MSB-first random bits,
        and the (n_frames, F) block of frames that carries them."""
        k = self.k
        bits = rng.integers(0, 2, size=(n_frames, self.N * k), dtype=np.int64)
        weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
        labels = bits.reshape(n_frames, self.N, k) @ weights
        return labels, build_frames(self.const.points[labels], self.pn, self.cfg.frame)

    @cached_property
    def images(self) -> ImageSum:
        """The aliased sum behind the known equalizer, built on first use."""
        return ImageSum(self.cfg.channel, self.cfg.frame.alpha, self.N)

    @cached_property
    def response(self) -> np.ndarray:
        """Noiseless oversampled response of the front end to one unit
        symbol, at index :attr:`origin`: the explicit shaping -> channel
        -> matched filter path run on the symbol zero-padded by ``pad``
        on both sides."""
        up = np.zeros((2 * self.pad + 1) * self.L, dtype=np.complex128)
        up[self.pad * self.L] = 1.0
        tx = fftconvolve(up, self.taps)
        if not self.cfg.channel.is_identity:
            tx = apply_channel(tx, self.cfg.channel, self.L)
        return fftconvolve(tx, self.taps)

    def front_end(
        self,
        symbols: np.ndarray,
        ebn0_db: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Shape, propagate and matched-filter a symbol stream, its first
        symbol at index :attr:`origin`: the stream convolved with
        :attr:`response`, the explicit path's output on the stream
        zero-padded like it.

        With ``ebn0_db`` set, :meth:`noise` is drawn from ``rng`` for
        every channel output sample of that path and added through the
        matched filter.
        """
        up = np.zeros((symbols.size - 1) * self.L + 1, dtype=np.complex128)
        up[:: self.L] = symbols
        y = fftconvolve(up, self.response)
        if ebn0_db is not None:
            noise = self.noise(rng, y.size - self.taps.size + 1, ebn0_db)
            y += fftconvolve(noise, self.taps)
        return y

    def sample(self, rx: np.ndarray, epsilon: float, at: np.ndarray) -> np.ndarray:
        """Symbol-rate samples of a matched-filter output taken
        ``epsilon`` symbols late, at the symbol indices ``at`` (index 0 at
        :attr:`origin`; any shape)."""
        at = self.origin + np.asarray(at) * self.L
        return delay(rx, -epsilon * self.L, at)

    def symbol_response(self, epsilon: float) -> np.ndarray:
        """Symbol-rate impulse response of the noiseless front end sampled
        at phase ``epsilon``: odd length, lag 0 in the middle.

        The chain upsample -> shaping -> channel -> matched filter ->
        sample at ``epsilon`` is linear and time-invariant at the symbol
        rate, so a ring of symbols filtered by :meth:`ring_response` of
        this response equals the front end run on the ring extended
        cyclically past the response's support, sampled at ``epsilon``.
        It is :attr:`response` read at the symbol instants.  The support
        holds both shaping filters, the channel's largest shift and two
        interpolators (the channel taps' fractional delays, then the
        sampler's), plus the phase offset.
        """
        L = self.L
        pre = 2 * self.cfg.srrc_span * L + 2 * (INTERP_TAPS // 2)
        post = pre + float(np.max(self.cfg.channel.delays)) * L
        reach = math.ceil(max(pre + epsilon * L, post - epsilon * L) / L) + 1
        return self.sample(self.response, epsilon, np.arange(-reach, reach + 1))

    @staticmethod
    def ring_response(g: np.ndarray, n: int) -> np.ndarray:
        """DFT of a :meth:`symbol_response` wrapped onto a ring of ``n``
        symbols: ``ifft(fft(ring) * ring_response(g, ring.size))`` is the
        circular convolution of the ring with ``g``, indexed like it."""
        wrapped = np.zeros(n, dtype=np.complex128)
        np.add.at(wrapped, (np.arange(g.size) - g.size // 2) % n, g)
        return np.fft.fft(wrapped)

    def noise_var(self, ebn0_db: float) -> float:
        """Complex noise variance per sample, at the symbol rate or the
        oversampled rate alike.

        White noise at the receiver input keeps its variance through the
        unit-energy matched filter, and the filter pair's combined
        response has symbol-spaced correlation zeros, so the demodulator
        sees white per-subcarrier noise of this variance.  The body's
        symbol-rate power is 1/n_fft, whence 1/(N k 10^(Eb/N0/10)).  At
        ``L`` samples per symbol the shaped body's power per sample is
        1/(N L) and a symbol spans ``L`` samples, so the noise drawn per
        oversampled sample before the matched filter has the same
        variance.
        """
        gamma = 10.0 ** (ebn0_db / 10.0)
        return 1.0 / (self.N * self.k * gamma)

    def noise(self, rng: np.random.Generator, shape, ebn0_db: float) -> np.ndarray:
        """Circular complex Gaussian noise of variance :meth:`noise_var`."""
        sigma = math.sqrt(self.noise_var(ebn0_db) / 2.0)
        return sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    def estimation_windows(self, rows: np.ndarray) -> np.ndarray:
        """Guard window of each frame row used for PN channel estimation
        (second copy when the guard is doubled, since the first copy
        shields it)."""
        off = self.G - self.cfg.frame.pn_len
        return rows[:, off : off + self.cfg.frame.pn_len]


def _zf_equalize(Y: np.ndarray, h: np.ndarray) -> np.ndarray:
    small = np.abs(h) < 1e-12
    return np.where(small, 0.0, Y / np.where(small, 1.0, h))


def _simulate_burst(
    chain: _Chain,
    seed_key: list[int],
    ring_h: np.ndarray,
    ebn0_db: float,
    h_eq: np.ndarray | None,
    pn_ref: np.ndarray,
    n_frames: int,
) -> tuple[int, int, int, int]:
    """One independent burst; returns (bit_errors, bits, axis_errors, axes).

    The burst's frames form a ring: the noiseless waveform chain is the
    circular convolution of the frames with the phase's symbol-rate
    response, whose :meth:`_Chain.ring_response` over the whole burst is
    ``ring_h``, so every frame has a neighbour on either side and every
    frame is measured.  Calibrated white noise enters per demodulation
    window at the symbol rate, which is exactly what it looks like after
    the matched filter anyway and keeps the restored blocks at the
    per-subcarrier noise level the analytic model uses.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    k, N, G = chain.k, chain.N, chain.G

    tx_labels, frames = chain.draw_frames(rng, n_frames)
    rows = np.fft.ifft(np.fft.fft(frames.ravel()) * ring_h).reshape(frames.shape)

    if h_eq is None:  # estimated-equalizer mode
        windows = chain.estimation_windows(rows)
        windows = windows + chain.noise(rng, windows.shape, ebn0_db)
        h_eq = estimate_complex_response_from_pn(
            windows, chain.pn, N, chain.cfg.frame.guard_amplitude
        )

    # fold into each body the `margin` symbols before it (the end of its
    # own guard) and after it (the start of the next frame's guard),
    # restoring the circular convolution the per-subcarrier model assumes
    margin = min(chain.tail, max(0, G - chain.tail))
    data = rows - pn_ref
    body = data[:, G:].copy()
    body[:, N - margin :] += data[:, G - margin : G]
    body[:, :margin] += np.roll(data[:, :margin], -1, axis=0)
    Y = np.fft.fft(body + chain.noise(rng, (n_frames, N), ebn0_db), axis=1)
    rx_labels = detect_labels(_zf_equalize(Y, h_eq), chain.const)
    diff = tx_labels ^ rx_labels
    # per-axis decisions: the in-phase half of the label, then the
    # quadrature half (BPSK has one axis, the whole label)
    kb = k // 2
    axis_errors = int(np.count_nonzero(diff >> kb))
    axis_errors += int(np.count_nonzero(diff & ((1 << kb) - 1)))
    symbols = n_frames * N
    return int(_POPCOUNT8[diff].sum()), symbols * k, axis_errors, symbols * min(k, 2)


def _run_point(
    chain: _Chain,
    epsilon: float,
    ebn0_db: float,
    ebn0_idx: int,
    phase_idx: int,
) -> BerPoint:
    cfg = chain.cfg
    mc = cfg.mc
    B = mc.frames_per_burst
    g = chain.symbol_response(epsilon)
    # a guards-only ring repeats every frame, so one frame period of it
    # is the guard reference of every row
    pn_ref = np.fft.ifft(chain.guard_spectrum * chain.ring_response(g, chain.F))
    ring_h = chain.ring_response(g, B * chain.F)
    h_eq = None  # estimated from each burst's guards
    if mc.equalizer == "known":
        h_eq = chain.images.response(epsilon).h

    bit_errors = bits = axis_errors = axes = 0
    for idx in range(mc.max_frames // B):
        be, b, ae, a = _simulate_burst(
            chain, [cfg.seed, ebn0_idx, phase_idx, idx], ring_h, ebn0_db, h_eq, pn_ref, B
        )
        bit_errors += be
        bits += b
        axis_errors += ae
        axes += a
        met = bits >= mc.min_bits and bit_errors >= mc.min_errors
        # the budget stops a point only after a whole chunk of bursts
        if met and (idx + 1) % mc.chunk_bursts == 0:
            break
    exhausted = not met

    return BerPoint(
        ebn0_db=ebn0_db,
        epsilon=epsilon,
        modulation=cfg.frame.modulation,
        ser=axis_errors / axes if axes else 0.0,
        ber=bit_errors / bits if bits else 0.0,
        bits=bits,
        errors=bit_errors,
        source=Source.MONTE_CARLO,
        axes=axes,
        axis_errors=axis_errors,
        exhausted=exhausted,
    )


def run_mc_ber(
    cfg: ScenarioConfig,
    epsilon: float | None = None,
    phase_index: int = 0,
) -> BerCurve:
    """Monte-Carlo BER sweep at one sampling phase.

    Each point runs its bursts one after another, each with a generator
    derived from (seed, ebn0 index, phase index, burst index), and stops
    at the first multiple of ``chunk_bursts`` bursts that meets the
    budget (or at ``max_frames``), so the counts depend on the scenario
    alone.
    """
    t0 = time.perf_counter()
    chain = _Chain(cfg)
    eps = cfg.epsilon if epsilon is None else epsilon
    points = [
        _run_point(chain, eps, ebn0, e_idx, phase_index)
        for e_idx, ebn0 in enumerate(cfg.ebn0_sweep)
    ]
    return BerCurve(points=points, wall_time_s=time.perf_counter() - t0)


def measure_chain_response(cfg: ScenarioConfig, epsilon: float) -> np.ndarray:
    """Per-subcarrier gains of the noiseless simulated chain.

    This is H_chain: the DFT of the phase's symbol-rate impulse response
    wrapped onto one block, which is what the receiver sees when the fold
    covers that response's support.  Directly comparable to the analytic
    equivalent response.
    """
    chain = _Chain(cfg)
    return chain.ring_response(chain.symbol_response(epsilon), chain.N)


def _responses(cfg: ScenarioConfig, epsilons) -> list[EquivResponse]:
    """Analytic equivalent response at each phase: the aliased-image sum,
    on every channel."""
    images = ImageSum(cfg.channel, cfg.frame.alpha, cfg.frame.n_fft)
    return [images.response(eps) for eps in epsilons]


def run_theory(
    cfg: ScenarioConfig,
    epsilons: list[float] | None = None,
    include_chernoff: bool = False,
) -> BerCurve:
    """Analytic BER/SER curves from the equivalent channel response.

    Every row is one error model applied to the aliased-image response:
    ``theoretical_ser`` (or, for the surrogate rows, ``chernoff_objective``)
    followed by ``theoretical_ber``, for every constellation.
    """
    t0 = time.perf_counter()
    eps_list = [cfg.epsilon] if epsilons is None else list(epsilons)
    order = cfg.frame.constellation().order
    rates = [(Source.THEORY, theoretical_ser)]
    if include_chernoff:
        rates.append((Source.CHERNOFF, chernoff_objective))
    points: list[BerPoint] = []
    for eps, resp in zip(eps_list, _responses(cfg, eps_list)):
        for ebn0 in cfg.ebn0_sweep:
            for source, rate in rates:
                ser = rate(resp, ebn0, order)
                points.append(
                    BerPoint(
                        ebn0_db=ebn0,
                        epsilon=eps,
                        modulation=cfg.frame.modulation,
                        ser=ser,
                        ber=theoretical_ber(ser, order),
                        source=source,
                    )
                )
    return BerCurve(points=points, wall_time_s=time.perf_counter() - t0)


def grid_search_ber_oracle(
    cfg: ScenarioConfig, grid: PhaseGrid | None = None
) -> tuple[float, dict[float, BerPoint]]:
    """Brute-force BER over a phase grid at the reference Eb/N0.

    Returns the phase with the smallest measured BER (ties toward the
    smallest |phase|) and every phase's point.
    """
    return _grid_search(_Chain(cfg), cfg.grid() if grid is None else grid)


def _grid_search(chain: _Chain, grid: PhaseGrid) -> tuple[float, dict[float, BerPoint]]:
    ref = chain.cfg.ref_ebn0
    e_idx = len(chain.cfg.ebn0_sweep)  # distinct from sweep indices, fixed
    results: dict[float, BerPoint] = {}
    for p_idx, eps in enumerate(grid.phases):
        results[float(eps)] = _run_point(chain, float(eps), ref, e_idx, 1 + p_idx)
    bers = np.array([results[float(e)].ber for e in grid.phases])
    best = bers.min()
    cand = grid.phases[bers == best]
    order = np.lexsort((cand, np.abs(cand)))
    return float(cand[order[0]]), results


def run_str_baseline(
    cfg: ScenarioConfig,
    n_frames: int = _STR_FRAMES,
    loop_gain: float = _STR_LOOP_GAIN,
    injected_epsilon: float | None = None,
) -> StrLoopState:
    """Track the PN correlation loop over a noisy realization.

    The stream carries random data frames over the scenario channel at
    the reference Eb/N0, with the waveform delayed by
    ``injected_epsilon`` symbol periods (defaults to the scenario
    phase).  The returned state's ``epsilon_hat`` is the sampling phase
    the loop settled on, i.e. the phase a receiver aligned with the loop
    would hand to the demodulator; over an ideal channel it recovers the
    injected delay.
    """
    eps = cfg.epsilon if injected_epsilon is None else injected_epsilon
    return _str_baseline(_Chain(cfg), eps, n_frames, loop_gain)


def _str_baseline(chain, eps: float, n_frames: int, loop_gain: float) -> StrLoopState:
    cfg = chain.cfg
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x57D]))
    _, frames = chain.draw_frames(rng, n_frames)
    rx = chain.front_end(frames.ravel(), cfg.ref_ebn0, rng)
    return str_track(rx, chain.pn, StrLoopState(loop_gain=loop_gain), n_frames, chain.L,
                     cfg.frame.frame_len, guard_offset=chain.origin, injected=eps * chain.L)


@dataclass
class CriterionReport:
    """Phase chosen by the band-power rule plus the baselines it beats."""

    criterion: CriterionResult
    chosen_point: BerPoint | None = None
    str_report: StrLoopState | None = None
    str_point: BerPoint | None = None
    oracle_phase: float | None = None
    oracle_points: dict[float, BerPoint] | None = None

    @property
    def chosen_phase(self) -> float:
        return self.criterion.chosen

    def csv_points(self) -> list[BerPoint]:
        pts = []
        if self.chosen_point:
            pts.append(self.chosen_point)
        if self.str_point:
            pts.append(self.str_point)
        if self.oracle_points:
            pts.extend(self.oracle_points.values())
        return pts


def _pn_estimated_responses(
    chain: _Chain, grid: PhaseGrid
) -> dict[float, EquivResponse]:
    """Estimate |H| per candidate phase from one noisy realization."""
    cfg = chain.cfg
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xE57]))
    B = max(cfg.mc.frames_per_burst, 4)
    _, frames = chain.draw_frames(rng, B)
    rx = chain.front_end(frames.ravel(), cfg.ref_ebn0, rng)
    # stream indices of the inner frames' estimation windows
    at = chain.estimation_windows(np.arange(B * chain.F).reshape(B, chain.F)[1:-1])

    out: dict[float, EquivResponse] = {}
    for eps in grid.phases:
        windows = chain.sample(rx, float(eps), at)
        out[float(eps)] = estimate_response_from_pn(
            windows, chain.pn, chain.N, guard_amplitude=cfg.frame.guard_amplitude
        )
    return out


def run_criterion(cfg: ScenarioConfig) -> CriterionReport:
    """Pick a sampling phase by roll-off-band power and benchmark it.

    Builds per-phase responses (analytic, or PN-estimated from a noisy
    realization), applies the band-power rule, then optionally measures
    the chosen phase, the timing-recovery baseline's converged phase,
    and the full grid-search oracle at the reference Eb/N0.
    """
    grid = cfg.grid()
    # one chain for every part of the run; its scenario has the one-point
    # sweep at the reference Eb/N0 the measured points use
    chain = _Chain(replace(cfg, ebn0_sweep=(cfg.ref_ebn0,)))
    if cfg.criterion.estimator == "pn":
        responses = _pn_estimated_responses(chain, grid)
    else:
        phases = [float(eps) for eps in grid.phases]
        responses = dict(zip(phases, _responses(cfg, phases)))
    crit = band_power_criterion(responses, cfg.frame.alpha, cfg.frame.n_fft)

    chosen_point = _run_point(chain, crit.chosen, cfg.ref_ebn0, 0, 9001)

    report = CriterionReport(criterion=crit, chosen_point=chosen_point)

    if cfg.criterion.with_str:
        report.str_report = _str_baseline(chain, 0.0, _STR_FRAMES, _STR_LOOP_GAIN)
        report.str_point = _run_point(
            chain, report.str_report.epsilon_hat, cfg.ref_ebn0, 0, 9002
        )
    if cfg.criterion.with_oracle:
        phase, points = _grid_search(chain, grid)
        report.oracle_phase = phase
        report.oracle_points = points
    return report
