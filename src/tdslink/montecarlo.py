"""Scenario-driven Monte-Carlo BER engine and analytic curve runners.

The receiver implemented here is the idealized one the closed-form BER
model assumes: perfect frame alignment, known guard contribution removed
before demodulation, and each OFDM block's filter tails folded back into
its window so the symbol-rate channel acts circularly on the block.
Per-subcarrier gains then match the analytic equivalent response to the
shaping-filter truncation floor, which is what makes theory-vs-simulation
comparisons meaningful.

Symbol errors are counted per quadrature axis (each square-QAM symbol is
two Gray-coded PAM decisions), the same quantity
:func:`tdslink.analysis.theoretical_ser` computes.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .analysis import (
    BerMode,
    CriterionResult,
    PhaseGrid,
    band_power_criterion,
    bpsk_theoretical_ber,
    chernoff_objective,
    theoretical_ber,
    theoretical_ser,
)
from .channel import (
    EquivResponse,
    add_awgn,
    apply_channel,
    awgn_response,
    equivalent_response,
    estimate_complex_response_from_pn,
    estimate_response_from_pn,
)
from .config import ScenarioConfig, scenario_fingerprint
from .dsp import SignalBuffer, apply_fir, delay, srrc_taps
from .frame import build_frame, detect_labels, shape_symbols
from .str_sync import StrLoopState, converged_sampling_phase, str_track

__all__ = [
    "BerCurve",
    "BerPoint",
    "CriterionReport",
    "Source",
    "StrReport",
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


@dataclass
class BerCurve:
    points: list[BerPoint]
    fingerprint: str
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
        self.pn = f.make_pn()
        self.const = f.constellation()
        self.k = self.const.bits_per_symbol
        self.N = f.n_fft
        self.G = f.guard_len
        self.L = f.n_upsam
        self.F = f.frame_len
        max_delay = int(math.ceil(float(np.max(cfg.channel.delays))))
        # two-sided tail of the equivalent symbol-rate channel
        self.tail = 2 * cfg.srrc_span + max_delay + 10
        self.pad = self.tail + 2
        # per-sample power of the shaped body at the oversampled rate
        self.body_power_ovs = 1.0 / (self.N * self.L)

    def fold_margin(self, n_frames: int) -> int:
        if n_frames == 1:
            return self.tail
        return min(self.tail, max(0, self.G - self.tail))

    def draw_labels(self, rng: np.random.Generator, n_frames: int) -> np.ndarray:
        """Random (n_frames, N) symbol labels from MSB-first random bits."""
        k = self.k
        bits = rng.integers(0, 2, size=(n_frames, self.N * k), dtype=np.int64)
        weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
        return bits.reshape(n_frames, self.N, k) @ weights

    def stream(self, data_rows: np.ndarray) -> np.ndarray:
        """Symbol stream of one frame per row of data symbols, zero-padded
        by ``pad`` on both sides; all-zero rows give the guards alone."""
        pad = np.zeros(self.pad)
        frames = [build_frame(d, self.pn, self.cfg.frame).samples for d in data_rows]
        return np.concatenate([pad, *frames, pad]).astype(np.complex128)

    def front_end(
        self,
        symbols: np.ndarray,
        ebn0_db: float | None = None,
        rng: np.random.Generator | None = None,
    ) -> SignalBuffer:
        """Shape, propagate and matched-filter a symbol stream.

        With ``ebn0_db`` set, white noise calibrated to the body power is
        drawn from ``rng`` and added before the matched filter.
        """
        tx = shape_symbols(symbols, self.L, self.taps)
        if not self.cfg.channel.is_identity:
            tx = apply_channel(tx, self.cfg.channel)
        if ebn0_db is not None:
            noisy = add_awgn(
                tx.samples, ebn0_db, self.k, self.L, rng, self.body_power_ovs
            )
            tx = SignalBuffer(noisy, tx.sps, tx.origin)
        return apply_fir(tx, self.taps)

    def sample(self, rx: SignalBuffer, epsilon: float) -> np.ndarray:
        """Symbol-rate samples of a matched-filter output taken
        ``epsilon`` symbols late, index 0 = first padding symbol."""
        arr, base = delay(rx.samples, -epsilon * self.L)
        return arr[rx.origin - base :: self.L]

    def receive(self, symbols: np.ndarray, epsilon: float) -> np.ndarray:
        """Noiseless front end sampled at phase ``epsilon``."""
        return self.sample(self.front_end(symbols), epsilon)

    def noise_var(self, ebn0_db: float) -> float:
        """Complex noise variance per symbol-rate sample.

        White noise at the receiver input keeps its variance through the
        unit-energy matched filter, and the filter pair's combined
        response has symbol-spaced correlation zeros, so the demodulator
        sees white per-subcarrier noise of this variance.  The body's
        symbol-rate power is 1/n_fft, whence 1/(N k 10^(Eb/N0/10)).
        """
        gamma = 10.0 ** (ebn0_db / 10.0)
        return 1.0 / (self.N * self.k * gamma)

    def fold_body(self, sym: np.ndarray, body_start: int, margin: int) -> np.ndarray:
        """Wrap a body window's pre/post tails back in, restoring the
        circular convolution the per-subcarrier model assumes."""
        n = self.N
        seg = sym[body_start - margin : body_start + n + margin]
        acc = seg[margin : margin + n].copy()
        if margin:
            acc[n - margin :] += seg[:margin]
            post = seg[margin + n :]
            acc[: post.size] += post
        return acc

    def estimation_window_start(self, frame_idx: int) -> int:
        """Guard window used for PN channel estimation (second copy when
        the guard is doubled, since the first copy shields it)."""
        off = self.cfg.frame.pn_len if self.cfg.frame.dual_pn else 0
        return self.pad + frame_idx * self.F + off


def _zf_equalize(Y: np.ndarray, h: np.ndarray) -> np.ndarray:
    small = np.abs(h) < 1e-12
    safe = np.where(small, 1.0, h)
    out = Y / safe
    out[small] = 0.0
    return out


def _simulate_burst(
    chain: _Chain,
    seed_key: list[int],
    epsilon: float,
    ebn0_db: float,
    h_eq: np.ndarray | None,
    pn_ref: np.ndarray,
    n_frames: int,
) -> tuple[int, int, int, int]:
    """One independent burst; returns (bit_errors, bits, axis_errors, axes).

    The waveform chain runs noiselessly; calibrated white noise enters
    per demodulation window at the symbol rate, which is exactly what it
    looks like after the matched filter anyway and keeps the restored
    blocks at the per-subcarrier noise level the analytic model uses.
    """
    cfg = chain.cfg
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    k, N = chain.k, chain.N

    tx_labels = chain.draw_labels(rng, n_frames)
    sym = chain.receive(chain.stream(chain.const.points[tx_labels]), epsilon)
    data_sym = sym[: pn_ref.size] - pn_ref

    measured = range(1, n_frames - 1)
    margin = chain.fold_margin(n_frames)
    sigma = math.sqrt(chain.noise_var(ebn0_db) / 2.0)

    def noise(size: int) -> np.ndarray:
        return sigma * (rng.standard_normal(size) + 1j * rng.standard_normal(size))

    if h_eq is None:  # estimated-equalizer mode
        starts = [chain.estimation_window_start(j) for j in measured]
        pn_len = cfg.frame.pn_len
        windows = np.stack([sym[s : s + pn_len] + noise(pn_len) for s in starts])
        h_eq = estimate_complex_response_from_pn(
            windows, chain.pn, N, cfg.frame.guard_amplitude
        )

    bit_errors = 0
    axis_errors = 0
    for j in measured:
        body_start = chain.pad + j * chain.F + chain.G
        acc = chain.fold_body(data_sym, body_start, margin) + noise(N)
        Y = np.fft.fft(acc)
        eq = _zf_equalize(Y, h_eq)
        rx_labels = detect_labels(eq, chain.const)
        diff = tx_labels[j] ^ rx_labels
        bit_errors += int(_POPCOUNT8[diff].sum())
        if k == 1:
            axis_errors += int(np.count_nonzero(diff))
        else:
            kb = k // 2
            mask = (1 << kb) - 1
            axis_errors += int(
                np.count_nonzero((tx_labels[j] >> kb) != (rx_labels >> kb))
            )
            axis_errors += int(
                np.count_nonzero((tx_labels[j] & mask) != (rx_labels & mask))
            )
    total_bits = len(measured) * N * k
    total_axes = len(measured) * N * (1 if k == 1 else 2)
    return bit_errors, total_bits, axis_errors, total_axes


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
    pn_ref = chain.receive(chain.stream(np.zeros((B, chain.N))), epsilon)
    h_eq = None  # estimated from each burst's guards
    if mc.equalizer == "known":
        h_eq = equivalent_response(cfg.channel, cfg.frame.alpha, epsilon, chain.N).h

    bit_errors = bits = axis_errors = axes = 0
    burst_idx = 0
    exhausted = False
    max_bursts = max(1, mc.max_frames // B)

    def job(idx: int):
        return _simulate_burst(
            chain,
            [cfg.seed, ebn0_idx, phase_idx, idx],
            epsilon,
            ebn0_db,
            h_eq,
            pn_ref,
            B,
        )

    with ThreadPoolExecutor(max_workers=mc.workers) as pool:
        while True:
            n = min(mc.chunk_bursts, max_bursts - burst_idx)
            if n <= 0:
                exhausted = not (bits >= mc.min_bits and bit_errors >= mc.min_errors)
                break
            results = list(pool.map(job, range(burst_idx, burst_idx + n)))
            burst_idx += n
            for be, b, ae, a in results:
                bit_errors += be
                bits += b
                axis_errors += ae
                axes += a
            if bits >= mc.min_bits and bit_errors >= mc.min_errors:
                break

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

    Deterministic in the scenario seed regardless of worker count:
    per-burst generators derive from (seed, ebn0 index, phase index,
    burst index) and counts reduce by summation.
    """
    t0 = time.perf_counter()
    chain = _Chain(cfg)
    eps = cfg.epsilon if epsilon is None else epsilon
    points = [
        _run_point(chain, eps, ebn0, e_idx, phase_index)
        for e_idx, ebn0 in enumerate(cfg.ebn0_sweep)
    ]
    return BerCurve(
        points=points,
        fingerprint=scenario_fingerprint(cfg),
        wall_time_s=time.perf_counter() - t0,
    )


def measure_chain_response(cfg: ScenarioConfig, epsilon: float) -> np.ndarray:
    """Per-subcarrier gains of the noiseless simulated chain.

    Sends one isolated frame of known symbols and returns DFT(received
    body)/DFT(sent data), directly comparable to the analytic equivalent
    response.
    """
    chain = _Chain(cfg)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xC0DE]))
    labels = rng.integers(0, chain.const.order, size=chain.N)
    data = chain.const.points[labels]

    sym = chain.receive(chain.stream(data[None]), epsilon)
    pn_ref = chain.receive(chain.stream(np.zeros((1, chain.N))), epsilon)
    data_sym = sym[: pn_ref.size] - pn_ref
    acc = chain.fold_body(data_sym, chain.pad + chain.G, chain.fold_margin(1))
    return np.fft.fft(acc) / data


def _response_for(cfg: ScenarioConfig, epsilon: float) -> EquivResponse:
    if cfg.channel.is_identity:
        f = np.arange(cfg.frame.n_fft) / cfg.frame.n_fft
        return EquivResponse(
            h=awgn_response(cfg.frame.alpha, epsilon, f),
            epsilon=epsilon,
            alpha=cfg.frame.alpha,
            profile_name="awgn",
        )
    return equivalent_response(cfg.channel, cfg.frame.alpha, epsilon, cfg.frame.n_fft)


def run_theory(
    cfg: ScenarioConfig,
    epsilons: list[float] | None = None,
    include_chernoff: bool = False,
) -> BerCurve:
    """Analytic BER/SER curves from the equivalent channel response.

    Ideal channels use the closed-form branch response; multipath
    profiles use the aliased-image sum.
    """
    t0 = time.perf_counter()
    eps_list = [cfg.epsilon] if epsilons is None else list(epsilons)
    order = cfg.frame.constellation().order
    points: list[BerPoint] = []
    for eps in eps_list:
        resp = _response_for(cfg, eps)
        for ebn0 in cfg.ebn0_sweep:
            if order == 2:
                ber = bpsk_theoretical_ber(resp, ebn0)
                ser = ber
            else:
                ser = theoretical_ser(resp, ebn0, order)
                ber = theoretical_ber(ser, order, cfg.ber_mode)
            points.append(
                BerPoint(
                    ebn0_db=ebn0,
                    epsilon=eps,
                    modulation=cfg.frame.modulation,
                    ser=ser,
                    ber=ber,
                    source=Source.THEORY,
                )
            )
            if include_chernoff and order != 2:
                surr = chernoff_objective(resp, ebn0, order)
                div = (
                    math.log2(math.isqrt(order))
                    if cfg.ber_mode is BerMode.BITS_PER_AXIS
                    else math.log2(order)
                )
                points.append(
                    BerPoint(
                        ebn0_db=ebn0,
                        epsilon=eps,
                        modulation=cfg.frame.modulation,
                        ser=surr,
                        ber=surr / div,
                        source=Source.CHERNOFF,
                    )
                )
    return BerCurve(
        points=points,
        fingerprint=scenario_fingerprint(cfg),
        wall_time_s=time.perf_counter() - t0,
    )


def grid_search_ber_oracle(
    cfg: ScenarioConfig, grid: PhaseGrid | None = None
) -> tuple[float, dict[float, BerPoint]]:
    """Brute-force BER over a phase grid at the reference Eb/N0.

    Returns the phase with the smallest measured BER (ties toward the
    smallest |phase|) and every phase's point.
    """
    grid = cfg.grid() if grid is None else grid
    chain = _Chain(cfg)
    ref = cfg.ref_ebn0
    e_idx = len(cfg.ebn0_sweep)  # distinct from sweep indices, fixed
    results: dict[float, BerPoint] = {}
    for p_idx, eps in enumerate(grid.phases):
        results[float(eps)] = _run_point(chain, float(eps), ref, e_idx, 1 + p_idx)
    bers = np.array([results[float(e)].ber for e in grid.phases])
    best = bers.min()
    cand = grid.phases[bers == best]
    order = np.lexsort((cand, np.abs(cand)))
    return float(cand[order[0]]), results


@dataclass
class StrReport:
    state: StrLoopState
    epsilon_hat: float
    n_frames: int

    @property
    def converged(self) -> bool:
        return self.state.converged


def run_str_baseline(
    cfg: ScenarioConfig,
    n_frames: int = 40,
    loop_gain: float = 0.5,
    injected_epsilon: float | None = None,
) -> StrReport:
    """Track the PN correlation loop over a noisy realization.

    The stream carries random data frames over the scenario channel at
    the reference Eb/N0, with the waveform delayed by
    ``injected_epsilon`` symbol periods (defaults to the scenario
    phase).  The report's ``epsilon_hat`` is the sampling phase the loop
    settled on, i.e. the phase a receiver aligned with the loop would
    hand to the demodulator; over an ideal channel it recovers the
    injected delay.
    """
    chain = _Chain(cfg)
    eps = cfg.epsilon if injected_epsilon is None else injected_epsilon
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x57D]))
    labels = chain.draw_labels(rng, n_frames)
    rx = chain.front_end(chain.stream(chain.const.points[labels]), cfg.ref_ebn0, rng)
    # the injected phase delays the waveform seen by the tracker
    arr, base = delay(rx.samples, eps * chain.L)
    if base:
        arr = np.roll(arr, base)
        if base > 0:
            arr[:base] = 0.0
        else:
            arr[base:] = 0.0

    state = StrLoopState(loop_gain=loop_gain)
    state = str_track(
        arr,
        chain.pn,
        state,
        n_frames,
        chain.L,
        cfg.frame.frame_len,
        guard_offset=rx.origin + chain.pad * chain.L,
    )
    return StrReport(
        state=state,
        epsilon_hat=converged_sampling_phase(state, chain.L),
        n_frames=n_frames,
    )


@dataclass
class CriterionReport:
    """Phase chosen by the band-power rule plus the baselines it beats."""

    criterion: CriterionResult
    chosen_point: BerPoint | None = None
    str_report: StrReport | None = None
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
    cfg: ScenarioConfig, grid: PhaseGrid
) -> dict[float, EquivResponse]:
    """Estimate |H| per candidate phase from one noisy realization."""
    chain = _Chain(cfg)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xE57]))
    B = max(cfg.mc.frames_per_burst, 4)
    labels = chain.draw_labels(rng, B)
    rx = chain.front_end(chain.stream(chain.const.points[labels]), cfg.ref_ebn0, rng)

    starts = [chain.estimation_window_start(j) for j in range(1, B - 1)]
    out: dict[float, EquivResponse] = {}
    for eps in grid.phases:
        sym = chain.sample(rx, float(eps))
        windows = np.stack([sym[s : s + cfg.frame.pn_len] for s in starts])
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
    if cfg.criterion.estimator == "pn":
        responses = _pn_estimated_responses(cfg, grid)
    else:
        responses = {
            float(eps): _response_for(cfg, float(eps)) for eps in grid.phases
        }
    crit = band_power_criterion(responses, cfg.frame.alpha, cfg.frame.n_fft)

    point_cfg = replace(cfg, ebn0_sweep=(cfg.ref_ebn0,))
    chain = _Chain(point_cfg)
    chosen_point = _run_point(chain, crit.chosen, cfg.ref_ebn0, 0, 9001)

    report = CriterionReport(criterion=crit, chosen_point=chosen_point)

    if cfg.criterion.with_str:
        report.str_report = run_str_baseline(cfg, injected_epsilon=0.0)
        report.str_point = _run_point(
            chain, report.str_report.epsilon_hat, cfg.ref_ebn0, 0, 9002
        )
    if cfg.criterion.with_oracle:
        phase, points = grid_search_ber_oracle(point_cfg, grid)
        report.oracle_phase = phase
        report.oracle_points = points
    return report
