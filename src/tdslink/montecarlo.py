"""Scenario-driven Monte-Carlo BER engine and analytic curve runners.

The receiver implemented here is the idealized one the closed-form BER
model assumes: perfect frame alignment, the known guard contribution
removed before demodulation, and each OFDM block's filter tails folded
back into its window so the symbol-rate channel acts circularly on the
block.  The chain from the symbols to the symbol-rate samples at a phase
is linear and time-invariant, so that receiver's block is exactly the
block's data symbols X times H_chain, the phase's symbol-rate impulse
response wrapped onto the block (:func:`measure_chain_response`).  Each
point computes H_chain once; a burst is then Y = X H_chain + DFT(noise),
with no waveform, and every drawn frame is measured.  Its gains match the
analytic equivalent response to the shaping-filter truncation floor,
which is what makes theory-vs-simulation comparisons meaningful.

The oversampled path (shaping -> channel -> matched filter) runs once
per scenario, on one unit symbol, when first needed.  Noisy streams
(timing-recovery baseline, PN estimator) are built only in the windows
the receiver reads: one row per frame's guard, the symbols that reach it
convolved with that response and the slice of the stream's one noise
draw that reaches it through the matched filter.  The estimated
equalizer reads its guard windows from the burst's frames as a ring,
circularly convolved with the phase's response.  Each phase reads a
response or a row only at the symbol instants used: a response's
support, or guard windows.

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

from .analysis import (
    CriterionResult,
    PhaseGrid,
    _argbest,
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
    pn_spectrum,
)
from .config import ScenarioConfig
from .dsp import INTERP_TAPS, convolve, delay, srrc_taps
from .frame import build_frames, detect_labels
from .str_sync import StrLoopState, str_track, track_rows

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
        # zeros the oversampled path puts around its unit symbol; the
        # streams' noise draw is as long as that path's output
        self.pad = 2 * cfg.srrc_span + max_delay + 12
        # index of the symbol in :attr:`response`: the padding plus the
        # delays of the shaping and matched filters
        self.origin = self.pad * self.L + self.taps.size - 1

    def draw_labels(self, rng: np.random.Generator, n_frames: int) -> np.ndarray:
        """Random (n_frames, N) symbol labels from MSB-first random bits.

        The bits are those of ``rng.integers(0, 2, (n_frames, N * k),
        dtype=np.int64)``, read straight from the bit generator's raw
        stream: numpy (2.4.6) makes each such bit the top bit of one
        32-bit output, and a 32-bit output is half of a 64-bit word, the
        low half first.  N * k is even, so the raw draw leaves the
        generator where ``integers`` leaves it.  The identity needs this
        to be the generator's first draw, since an earlier 32-bit draw
        can leave a half word for ``integers`` to use first; every caller
        draws its labels from a fresh generator.
        """
        k = self.k
        words = rng.bit_generator.random_raw(n_frames * self.N * k // 2)
        # little-endian words lay each low half before its high half
        half = words.astype("<u8", copy=False).view("<u4").reshape(n_frames, self.N, k)
        labels = half[..., 0] >> 31
        bit = np.empty_like(labels)
        for j in range(1, k):
            labels <<= 1
            labels |= np.right_shift(half[..., j], 31, out=bit)
        del words, half  # release the words before the labels are widened
        return labels.astype(np.intp)

    def draw_frames(self, rng: np.random.Generator, n_frames: int) -> np.ndarray:
        """The (n_frames, F) block of frames carrying :meth:`draw_labels`."""
        symbols = self.const.points[self.draw_labels(rng, n_frames)]
        return build_frames(symbols, self.pn, self.cfg.frame)

    @cached_property
    def images(self) -> ImageSum:
        """The aliased sum behind the known equalizer, built on first use."""
        return ImageSum(self.cfg.channel, self.cfg.frame.alpha, self.N)

    @cached_property
    def pn_dft(self) -> np.ndarray:
        """The transmitted guard's :func:`pn_spectrum`, the PN estimators'
        divisor, computed once per chain."""
        return pn_spectrum(self.pn, self.cfg.frame.guard_amplitude)

    @cached_property
    def response(self) -> np.ndarray:
        """Noiseless oversampled response of the front end to one unit
        symbol, at index :attr:`origin`: the explicit shaping -> channel
        -> matched filter path run on the symbol zero-padded by ``pad``
        on both sides."""
        up = np.zeros((2 * self.pad + 1) * self.L, dtype=np.complex128)
        up[self.pad * self.L] = 1.0
        tx = convolve(up, self.taps)
        if not self.cfg.channel.is_identity:
            tx = apply_channel(tx, self.cfg.channel, self.L)
        return convolve(tx, self.taps)

    def front_end(
        self,
        symbols: np.ndarray,
        ebn0_db: float | None,
        rng: np.random.Generator | None,
        starts,
        width: int,
    ) -> np.ndarray:
        """Windows of the shaped, propagated and matched-filtered symbol
        stream: row r of the (len(starts), width) block is the output
        over [starts[r], starts[r] + width), zero beyond its ends.

        The output, its first symbol at index :attr:`origin`, is the
        stream convolved with :attr:`response`: the explicit path's output
        on the stream zero-padded like it, (symbols.size - 1) * L +
        response.size samples long.  Each row convolves only the symbols
        that reach it.  With ``ebn0_db`` set, :meth:`noise` is drawn from
        ``rng`` for every channel output sample of that path, whatever the
        windows, and each row adds the slice of it that reaches the row
        through the matched filter.
        """
        L, h, taps = self.L, self.response, self.taps
        starts = np.asarray(starts, dtype=np.int64)[:, None]
        # the symbols whose response reaches a row: the first ends just
        # past the row's start, and n cover the row
        first = (starts - h.size) // L + 1
        n = (width + h.size - 1) // L + 1
        idx = first + np.arange(n)
        up = np.zeros((starts.shape[0], n * L), dtype=np.complex128)
        up[:, ::L] = np.where((idx >= 0) & (idx < symbols.size),
                              symbols.take(idx, mode="clip"), 0)
        out = np.take_along_axis(convolve(up, h[None]),
                                 starts - first * L + np.arange(width), axis=1)
        if ebn0_db is not None:
            size = (symbols.size - 1) * L + h.size - taps.size + 1
            noise = self.noise(rng, size, ebn0_db)
            idx = starts - taps.size + 1 + np.arange(width + taps.size - 1)
            slices = np.where((idx >= 0) & (idx < size), noise.take(idx, mode="clip"), 0)
            out += convolve(slices, taps[None], mode="valid")
        return out

    def sample(self, rx: np.ndarray, epsilon: float, at: np.ndarray) -> np.ndarray:
        """Symbol-rate samples of a matched-filter output taken
        ``epsilon`` symbols late, at the on-time sample indices ``at``
        (any shape); the symbol of :attr:`response` is on time at
        :attr:`origin`."""
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
        return self.sample(self.response, epsilon,
                           self.origin + L * np.arange(-reach, reach + 1))

    @staticmethod
    def ring_response(g: np.ndarray, n: int) -> np.ndarray:
        """DFT of a :meth:`symbol_response` wrapped onto a ring of ``n``
        symbols: ``ifft(fft(ring) * ring_response(g, ring.size))`` is the
        circular convolution of the ring with ``g``, indexed like it."""
        wrapped = np.zeros(n, dtype=np.complex128)
        np.add.at(wrapped, (np.arange(g.size) - g.size // 2) % n, g)
        return np.fft.fft(wrapped)

    def chain_response(self, epsilon: float) -> np.ndarray:
        """H_chain, the per-subcarrier gains of the noiseless chain at
        phase ``epsilon``: its :meth:`symbol_response` wrapped onto one
        block."""
        return self.ring_response(self.symbol_response(epsilon), self.N)

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
        out = np.empty(shape, dtype=np.complex128)
        # every real part is drawn, then every imaginary part
        np.multiply(rng.standard_normal(out.shape), sigma, out=out.real)
        np.multiply(rng.standard_normal(out.shape), sigma, out=out.imag)
        return out

    def estimation_windows(self, rows: np.ndarray) -> np.ndarray:
        """Guard window of each frame row used for PN channel estimation
        (second copy when the guard is doubled, since the first copy
        shields it)."""
        off = self.G - self.cfg.frame.pn_len
        return rows[:, off : off + self.cfg.frame.pn_len]


def _zf_equalize(Y: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``Y / h`` in ``Y``'s buffer, zero where ``|h| < 1e-12``."""
    small = np.abs(h) < 1e-12
    Y /= np.where(small, 1.0, h)
    Y[..., small] = 0.0
    return Y


def _simulate_burst(
    chain: _Chain,
    seed_key: list[int],
    H: np.ndarray,
    ebn0_db: float,
    h_eq: np.ndarray | None,
    ring_h: np.ndarray | None,
    n_frames: int,
) -> tuple[int, int, int, int]:
    """One independent burst; returns (bit_errors, bits, axis_errors, axes).

    With the guard removed and every block's tails folded back into it,
    the noiseless chain acts on each block's data symbols X through its
    per-subcarrier gains ``H`` (:meth:`_Chain.chain_response`), so the
    demodulator's block is Y = X H + DFT(noise).  The noise is drawn per
    block at the symbol rate, white with the variance the matched filter
    leaves, which is the per-subcarrier noise level the analytic model
    uses.

    Only the estimated equalizer (``h_eq`` None) builds the burst's frames:
    they form a ring, circularly convolved with the phase's response,
    whose DFT over the whole burst is ``ring_h``, and it averages every
    frame's guard window of that ring.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    k, N = chain.k, chain.N

    tx_labels = chain.draw_labels(rng, n_frames)
    if h_eq is None:  # estimated-equalizer mode
        frames = build_frames(chain.const.points[tx_labels], chain.pn, chain.cfg.frame)
        rows = np.fft.ifft(np.fft.fft(frames.ravel()) * ring_h).reshape(frames.shape)
        windows = chain.estimation_windows(rows)
        windows = windows + chain.noise(rng, windows.shape, ebn0_db)
        h_eq = estimate_complex_response_from_pn(windows, chain.pn_dft, N)

    # the noise first, so that fewer blocks are held at once
    Y = np.fft.fft(chain.noise(rng, (n_frames, N), ebn0_db), axis=1)
    X = chain.const.points[tx_labels]
    X *= H
    Y += X
    del X
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
    H = chain.chain_response(epsilon)
    if mc.equalizer == "known":
        h_eq, ring_h = chain.images.response(epsilon).h, None
    else:  # estimated from each burst's guards, cut from its ring
        g = chain.symbol_response(epsilon)
        h_eq, ring_h = None, chain.ring_response(g, B * chain.F)

    bit_errors = bits = axis_errors = axes = 0
    for idx in range(mc.max_frames // B):
        be, b, ae, a = _simulate_burst(
            chain, [cfg.seed, ebn0_idx, phase_idx, idx], H, ebn0_db, h_eq, ring_h, B
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
    wrapped onto one block, whatever the block's length, and the gains
    every Monte-Carlo burst applies to its data symbols.  Directly
    comparable to the analytic equivalent response.
    """
    return _Chain(cfg).chain_response(epsilon)


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
    return _argbest(grid.phases, bers, maximize=False), results


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
    if n_frames < 1:
        raise ValueError(f"n_frames must be at least 1, got {n_frames}")
    eps = cfg.epsilon if injected_epsilon is None else injected_epsilon
    if not math.isfinite(eps):
        raise ValueError(f"injected_epsilon must be finite, got {eps}")
    return _str_baseline(_Chain(cfg), eps, n_frames, loop_gain)


def _str_baseline(chain, eps: float, n_frames: int, loop_gain: float) -> StrLoopState:
    cfg = chain.cfg
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x57D]))
    frames = chain.draw_frames(rng, n_frames)
    # one row per frame, its guard at ``offset``
    offset, width = track_rows(chain.pn.chips.size, chain.L)
    starts = chain.origin + np.arange(n_frames) * chain.F * chain.L - offset
    rows = chain.front_end(frames.ravel(), cfg.ref_ebn0, rng, starts, width)
    return str_track(rows, chain.pn, StrLoopState(loop_gain=loop_gain), chain.L, offset,
                     injected=eps * chain.L)


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
    frames = chain.draw_frames(rng, B)
    L, P = chain.L, cfg.frame.pn_len
    # stream symbol index of each inner frame's estimation window
    first = chain.estimation_windows(np.arange(B * chain.F).reshape(B, chain.F)[1:-1])[:, 0]
    # one row per window, with the samples the sampler reads on either side
    reach = INTERP_TAPS // 2 + math.ceil(np.max(np.abs(grid.phases)) * L)
    width = (P - 1) * L + 1 + 2 * reach
    rows = chain.front_end(frames.ravel(), cfg.ref_ebn0, rng,
                           chain.origin + first * L - reach, width)
    # on-time instants of the windows' chips in the rows read one after another
    at = width * np.arange(first.size)[:, None] + reach + L * np.arange(P)

    out: dict[float, EquivResponse] = {}
    for eps in grid.phases:
        windows = chain.sample(rows.ravel(), float(eps), at)
        out[float(eps)] = estimate_response_from_pn(windows, chain.pn_dft, chain.N)
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
