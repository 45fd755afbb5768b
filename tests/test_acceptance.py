"""Acceptance gate: one test per exit criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines inline.  Every tolerance is pinned here; the Monte-Carlo budgets
keep every point at or above the 100-error publishable floor with a few
hundred errors accumulated.
"""

import time

import numpy as np
import pytest

from tdslink.analysis import (
    awgn_phase_criterion,
    band_power_criterion,
    default_phase_grid,
    rolloff_band,
    theoretical_ber,
    theoretical_ser,
)
from tdslink.channel import (
    AWGN_PROFILE,
    ChannelProfile,
    awgn_response,
    equivalent_response,
    load_profile,
)
from tdslink.config import McConfig, ScenarioConfig
from tdslink.dsp import SrrcSpec, raised_cosine_response, srrc_taps
from tdslink.frame import FrameConfig, generate_pn
from tdslink.montecarlo import (
    grid_search_ber_oracle,
    measure_chain_response,
    run_mc_ber,
    run_str_baseline,
)
from tdslink.str_sync import correlate_pn

ALPHA = 0.05
PROFILE_DIR = __import__("pathlib").Path(__file__).resolve().parent.parent / "configs" / "profiles"


def _verdict(num: int, ok: bool, name: str, detail: str) -> str:
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {name}: {detail}"
    print("\n" + line)
    return line


def _crossing_db(ebn0, ber, target):
    """Eb/N0 where a monotone-decreasing curve crosses the target BER
    (log-linear interpolation between sweep points)."""
    xs = np.asarray(ebn0, dtype=float)
    ys = np.asarray(ber, dtype=float)
    keep = ys > 0
    xs, ys = xs[keep], np.log(ys[keep])
    t = np.log(target)
    for i in range(xs.size - 1):
        if (ys[i] - t) * (ys[i + 1] - t) <= 0:
            return float(
                xs[i] + (t - ys[i]) * (xs[i + 1] - xs[i]) / (ys[i + 1] - ys[i])
            )
    return None


def test_criterion_1_closed_form_matches_aliased_sum():
    """Branch response equals the image-sum response to 1e-9 on a
    33-phase x 1024-bin grid, in under a second."""
    t0 = time.perf_counter()
    n = 1024
    f = np.arange(n) / n
    worst = 0.0
    for eps in np.linspace(-0.5, 0.5, 33):
        direct = awgn_response(ALPHA, float(eps), f)
        summed = equivalent_response(AWGN_PROFILE, ALPHA, float(eps), n).h
        worst = max(worst, float(np.max(np.abs(direct - summed))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    line = _verdict(1, ok, "closed-form vs aliased sum",
                    f"max |diff| = {worst:.2e}, {elapsed:.2f} s")
    assert ok, line


def test_criterion_2_chain_matches_equivalent_response():
    """Noiseless simulated per-bin gains match the analytic equivalent
    response within -50 dB for ideal and two-ray channels."""
    t0 = time.perf_counter()
    tworay = load_profile(PROFILE_DIR / "tworay.txt")
    results = []
    for profile in (AWGN_PROFILE, tworay):
        for eps in (0.0, 0.25, 0.5):
            cfg = ScenarioConfig(
                frame=FrameConfig(n_fft=1024, pn_len=128, modulation="qam16"),
                srrc_span=64,
                channel=profile,
                ebn0_sweep=(10.0,),
                seed=1,
            )
            measured = measure_chain_response(cfg, eps)
            ref = equivalent_response(profile, ALPHA, eps, 1024).h
            err_db = 20 * np.log10(
                np.linalg.norm(measured - ref) / np.linalg.norm(ref)
            )
            results.append((profile.name, eps, err_db))
    elapsed = time.perf_counter() - t0
    worst = max(r[2] for r in results)
    ok = worst < -50.0 and elapsed < 30.0
    line = _verdict(2, ok, "end-to-end response consistency",
                    f"worst error {worst:.1f} dB (limit -50), {elapsed:.1f} s")
    assert ok, line + f" details={results}"


def test_criterion_3_theory_matches_monte_carlo():
    """Measured per-axis SER and BER match the analytic curves within
    3 binomial sigma at every point carrying at least 100 errors.

    The sweep sits in the mid-SNR band where the Gray-map bit-error
    relation is tight (it is an approximation: multi-bit symbol errors
    bias it upward a few percent at the low-SNR end and, for the
    half-period phase, at the erased-subcarrier-dominated high-SNR end).
    Budgets target a few hundred errors per point, well above the
    100-error publishable floor.
    """
    t0 = time.perf_counter()
    rows = []
    ok = True
    for mod, order, sweep in [
        ("qam16", 16, (4.5, 5.5, 6.5)),
        ("qam64", 64, (6.0, 7.0, 8.0)),
    ]:
        for eps in (0.0, 0.375, 0.5):
            cfg = ScenarioConfig(
                frame=FrameConfig(n_fft=1024, pn_len=128, modulation=mod),
                srrc_span=48,
                epsilon=eps,
                ebn0_sweep=sweep,
                mc=McConfig(min_bits=10_000, min_errors=300,
                            max_frames=120_000, frames_per_burst=3,
                            chunk_bursts=2),
                seed=1001,
            )
            resp = awgn_response(ALPHA, eps, np.arange(1024) / 1024)
            for point in run_mc_ber(cfg).points:
                ser_t = theoretical_ser(resp, point.ebn0_db, order)
                ber_t = theoretical_ber(ser_t, order)
                assert point.axis_errors >= 100 and point.errors >= 100
                z_ser = (point.ser - ser_t) / np.sqrt(
                    ser_t * (1 - ser_t) / point.axes
                )
                z_ber = (point.ber - ber_t) / np.sqrt(
                    ber_t * (1 - ber_t) / point.bits
                )
                rows.append(
                    f"{mod} eps={eps} {point.ebn0_db:.1f}dB "
                    f"z_ser={z_ser:+.2f} z_ber={z_ber:+.2f}"
                )
                ok &= abs(z_ser) <= 3.0 and abs(z_ber) <= 3.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600.0
    worst = max(
        abs(float(r.split("=")[-1])) for r in rows
    )
    line = _verdict(3, ok, "theory vs simulation agreement",
                    f"18 points, worst |z_ber| = {worst:.2f}, {elapsed:.0f} s")
    assert ok, line + "\n" + "\n".join(rows)


def test_criterion_4_bpsk_phase_gap_at_1e3():
    """Horizontal Eb/N0 gap between the best (0) and worst (0.5) phase
    BPSK curves at BER 1e-3, required to be 3 +/- 0.7 dB."""
    t0 = time.perf_counter()

    def measure(eps, sweep):
        cfg = ScenarioConfig(
            frame=FrameConfig(n_fft=1024, pn_len=128, modulation="bpsk"),
            srrc_span=32,
            epsilon=eps,
            ebn0_sweep=sweep,
            mc=McConfig(min_bits=150_000, min_errors=300,
                        max_frames=120_000, frames_per_burst=3),
            seed=20240816,
        )
        pts = run_mc_ber(cfg).points
        return _crossing_db([p.ebn0_db for p in pts], [p.ber for p in pts], 1e-3)

    best = measure(0.0, (5.0, 6.0, 7.0, 8.0))
    worst = measure(0.5, (16.0, 18.0, 20.0, 22.0))
    elapsed = time.perf_counter() - t0
    gap = worst - best
    ok = abs(gap - 3.0) <= 0.7 and elapsed < 600.0
    line = _verdict(4, ok, "bpsk best-vs-worst gap at 1e-3",
                    f"measured {gap:.2f} dB (required 3.0 +/- 0.7), {elapsed:.0f} s")
    assert ok, line


def test_criterion_5_qam_theory_gap_at_3e3():
    """Analytic best-vs-worst phase gap at BER 3e-3 for 16QAM and 64QAM,
    required to be 2.5 +/- 0.5 dB each."""
    t0 = time.perf_counter()
    n = 4096
    f = np.arange(n) / n
    h_best = awgn_response(ALPHA, 0.0, f)
    h_worst = awgn_response(ALPHA, 0.5, f)

    def gap_for(order):
        def curve(h):
            def ber(db):
                return theoretical_ber(theoretical_ser(h, db, order), order)
            return ber

        sweep = np.linspace(4.0, 24.0, 81)
        b = [curve(h_best)(db) for db in sweep]
        w = [curve(h_worst)(db) for db in sweep]
        return _crossing_db(sweep, w, 3e-3) - _crossing_db(sweep, b, 3e-3)

    gap16 = gap_for(16)
    gap64 = gap_for(64)
    elapsed = time.perf_counter() - t0
    ok = abs(gap16 - 2.5) <= 0.5 and abs(gap64 - 2.5) <= 0.5 and elapsed < 1.0
    line = _verdict(5, ok, "qam theory gap at 3e-3",
                    f"16QAM {gap16:.2f} dB, 64QAM {gap64:.2f} dB "
                    f"(required 2.5 +/- 0.5 each), {elapsed:.2f} s")
    assert ok, line


def test_criterion_6_phase_criteria_pick_zero_on_ideal_channel():
    """Both selection rules return exactly phase 0 on the default
    128-point grid over an ideal channel."""
    grid = default_phase_grid(128)
    trig = awgn_phase_criterion(ALPHA, 4096, grid, 10.0, 16)
    responses = {
        float(e): equivalent_response(AWGN_PROFILE, ALPHA, float(e), 1024)
        for e in grid.phases
    }
    general = band_power_criterion(responses, ALPHA, 1024)
    ok = trig.chosen == 0.0 and general.chosen == 0.0
    line = _verdict(6, ok, "ideal-channel criterion optimum",
                    f"trig rule -> {trig.chosen}, band-power rule -> {general.chosen}")
    assert ok, line


def test_criterion_7_multipath_near_optimality():
    """On three multipath profiles the band-power phase's measured BER
    sits within 3 sigma of the grid-search minimum and no worse than the
    timing-recovery baseline's phase plus 3 sigma.

    The search grid is reduced from 128 to 32 phases to keep the
    runtime desk-scale; the criterion and the oracle share the grid, so
    the comparison is unaffected.
    """
    t0 = time.perf_counter()
    grid = default_phase_grid(32)
    cases = [("tworay", 8.0), ("threeray", 13.0), ("longecho", 13.0)]
    details = []
    ok = True
    for name, ebn0 in cases:
        profile = load_profile(PROFILE_DIR / f"{name}.txt")
        cfg = ScenarioConfig(
            frame=FrameConfig(n_fft=1024, pn_len=128, modulation="qam16"),
            srrc_span=16,
            channel=profile,
            ebn0_sweep=(ebn0,),
            reference_ebn0=ebn0,
            mc=McConfig(min_bits=60_000, min_errors=250,
                        max_frames=40_000, frames_per_burst=3),
            seed=20240817,
        )
        responses = {
            float(e): equivalent_response(profile, ALPHA, float(e), 1024)
            for e in grid.phases
        }
        chosen = band_power_criterion(responses, ALPHA, 1024).chosen

        oracle_phase, oracle_points = grid_search_ber_oracle(cfg, grid)
        crit_point = oracle_points[chosen]  # criterion phase is on the grid
        oracle_point = oracle_points[oracle_phase]

        str_report = run_str_baseline(cfg, injected_epsilon=0.0)
        str_curve = run_mc_ber(cfg, epsilon=str_report.epsilon_hat,
                               phase_index=777)
        str_point = str_curve.points[0]

        def sigma(p):
            return np.sqrt(max(p.ber, 1e-12) * (1 - p.ber) / p.bits)

        s_oracle = 3 * np.sqrt(sigma(crit_point) ** 2 + sigma(oracle_point) ** 2)
        s_str = 3 * np.sqrt(sigma(crit_point) ** 2 + sigma(str_point) ** 2)
        near_opt = crit_point.ber <= oracle_point.ber + s_oracle
        beats_str = crit_point.ber <= str_point.ber + s_str
        ok &= near_opt and beats_str and str_report.converged
        details.append(
            f"{name}: crit {chosen:+.4f} ber {crit_point.ber:.2e} | "
            f"oracle {oracle_phase:+.4f} ber {oracle_point.ber:.2e} | "
            f"str {str_report.epsilon_hat:+.4f} ber {str_point.ber:.2e}"
        )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1800.0
    line = _verdict(7, ok, "multipath near-optimality (32-phase grid)",
                    f"3 profiles OK, {elapsed:.0f} s")
    assert ok, line + "\n" + "\n".join(details)


def test_criterion_8_invariant_suite():
    """Condensed invariant sweep: Nyquist identity of the shaping
    response, phase periodicity and even symmetry of |H|, argmax scale
    invariance, correlation shift covariance, loop convergence, and
    Monte-Carlo determinism across worker counts."""
    t0 = time.perf_counter()
    checks = {}

    # Nyquist identity of the combined response across the roll-off band
    u = np.linspace(0.0, 1.0, 501)
    f = 0.5 * (1 - ALPHA) + u * ALPHA
    total = raised_cosine_response(f, ALPHA) + raised_cosine_response(1 - f, ALPHA)
    checks["nyquist"] = bool(np.max(np.abs(total - 1.0)) < 1e-12)

    # |H| periodicity and even symmetry in the sampling phase
    per, even = [], []
    for eps in np.linspace(-0.5, 0.5, 11):
        a = np.abs(equivalent_response(AWGN_PROFILE, ALPHA, float(eps), 512).h)
        b = np.abs(equivalent_response(AWGN_PROFILE, ALPHA, float(eps) + 1, 512).h)
        c = np.abs(equivalent_response(AWGN_PROFILE, ALPHA, -float(eps), 512).h)
        per.append(np.max(np.abs(a - b)))
        even.append(np.max(np.abs(a - c)))
    checks["periodicity"] = bool(max(per) < 1e-9)
    checks["even_symmetry"] = bool(max(even) < 1e-12)

    # argmax invariance under positive scaling
    grid = default_phase_grid(16)
    p = ChannelProfile(delays=[0.0, 0.5], gains=[1.0, 0.6])
    responses = {
        float(e): equivalent_response(p, ALPHA, float(e), 256)
        for e in grid.phases
    }
    base = band_power_criterion(responses, ALPHA, 256).chosen
    scaled = {
        eps: type(r)(h=5.0 * r.h, epsilon=r.epsilon, alpha=r.alpha)
        for eps, r in responses.items()
    }
    checks["argmax_scaling"] = (
        band_power_criterion(scaled, ALPHA, 256).chosen == base
    )

    # correlation shift covariance
    pn = generate_pn(128)
    taps = srrc_taps(SrrcSpec(ALPHA, 16, 4))
    syms = np.concatenate([np.zeros(32), pn.chips, np.zeros(32)])
    up = np.zeros(syms.size * 4, dtype=complex)
    up[::4] = syms
    rx = np.convolve(np.convolve(up, taps), taps)
    p0 = correlate_pn(rx, pn, 4).peak_index
    checks["shift_covariance"] = all(
        correlate_pn(np.concatenate([np.zeros(d, dtype=complex), rx]), pn, 4
                     ).peak_index == p0 + d
        for d in (1, 5, 9)
    )

    # loop convergence at 10 dB over a representative offset set
    conv = []
    for offset in (-0.3, 0.3):
        cfg = ScenarioConfig(
            frame=FrameConfig(n_fft=512, pn_len=512, dual_pn=False,
                              modulation="qam16"),
            srrc_span=16,
            ebn0_sweep=(10.0,),
            seed=5,
        )
        rep = run_str_baseline(cfg, n_frames=40, injected_epsilon=offset / 4)
        conv.append(rep.converged)
    checks["loop_convergence"] = all(conv)

    # Monte-Carlo determinism under varying stop-check groupings, with a
    # budget out of reach so every grouping runs the same bursts
    def run_with(chunk_bursts):
        cfg = ScenarioConfig(
            frame=FrameConfig(n_fft=256, pn_len=64, modulation="qam16"),
            srrc_span=16,
            ebn0_sweep=(8.0,),
            mc=McConfig(min_bits=10**9, min_errors=10**6, max_frames=40,
                        chunk_bursts=chunk_bursts),
            seed=99,
        )
        pt = run_mc_ber(cfg).points[0]
        return (pt.bits, pt.errors, pt.axis_errors)

    checks["mc_determinism"] = run_with(1) == run_with(2) == run_with(4)

    elapsed = time.perf_counter() - t0
    ok = all(checks.values()) and elapsed < 120.0
    failed = [k for k, v in checks.items() if not v]
    line = _verdict(8, ok, "invariant suite",
                    f"{len(checks)} checks, {elapsed:.0f} s"
                    + (f", failed: {failed}" if failed else ""))
    assert ok, line
