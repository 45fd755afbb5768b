"""Tests for the correlation-based timing recovery baseline."""

import numpy as np
import pytest

from tdslink.analysis import band_power_criterion, default_phase_grid
from tdslink.channel import ChannelProfile, equivalent_response, wrap_phase
from tdslink.config import McConfig, ScenarioConfig
from tdslink.dsp import SrrcSpec, delay, srrc_taps
from tdslink.frame import FrameConfig, generate_pn
from tdslink.montecarlo import run_str_baseline
from tdslink.str_sync import (
    CorrelationTrace,
    StrLoopState,
    correlate_pn,
    timing_error,
)

SPS = 4


def _shaped_pn(pn, span=16, pad=64):
    """Oversampled, SRRC-shaped PN burst plus the on-time peak index."""
    taps = srrc_taps(SrrcSpec(0.05, span, SPS))
    syms = np.concatenate([np.zeros(pad), pn.chips, np.zeros(pad)])
    up = np.zeros(syms.size * SPS, dtype=complex)
    up[::SPS] = syms
    shaped = np.convolve(up, taps)
    # include the matched filter so the correlation peak is the cascade's
    rx = np.convolve(shaped, taps)
    on_time = (taps.size - 1) + pad * SPS
    return rx, on_time


class TestCorrelatePn:
    def test_peak_at_group_delay(self):
        pn = generate_pn(128)
        rx, on_time = _shaped_pn(pn)
        trace = correlate_pn(rx, pn, SPS)
        assert trace.peak_index == on_time

    def test_shift_covariance(self):
        pn = generate_pn(128)
        rx, on_time = _shaped_pn(pn)
        for d in (1, 3, 7, 11):
            delayed = np.concatenate([np.zeros(d, dtype=complex), rx])
            trace = correlate_pn(delayed, pn, SPS)
            assert trace.peak_index == on_time + d

    def test_sidelobe_suppression(self):
        pn = generate_pn(512)
        rx, on_time = _shaped_pn(pn, pad=128)
        trace = correlate_pn(rx, pn, SPS)
        peak = trace.r[trace.peak_index]
        # exclude the main lobe (one symbol around the peak)
        sidelobes = trace.r.copy()
        lo = max(0, trace.peak_index - SPS)
        sidelobes[lo : trace.peak_index + SPS + 1] = 0.0
        assert peak / sidelobes.max() > 4.0

    def test_rejects_short_buffer(self):
        pn = generate_pn(128)
        with pytest.raises(ValueError):
            correlate_pn(np.zeros(64, dtype=complex), pn, SPS)


class TestTimingError:
    def test_symmetric_peak_gives_zero(self):
        pn = generate_pn(128)
        rx, _ = _shaped_pn(pn)
        trace = correlate_pn(rx, pn, SPS)
        assert abs(timing_error(trace)) < 1e-9

    def test_sign_follows_offset(self):
        # oracle: correlation of analytically delayed shaped PN
        pn = generate_pn(128)
        rx, _ = _shaped_pn(pn)
        n = np.arange(rx.size)
        late = delay(rx, 0.25, n)   # waveform arrives later
        early = delay(rx, -0.25, n)
        assert timing_error(correlate_pn(late, pn, SPS)) > 0
        assert timing_error(correlate_pn(early, pn, SPS)) < 0

    def test_odd_in_offset(self):
        pn = generate_pn(128)
        rx, _ = _shaped_pn(pn)
        n = np.arange(rx.size)
        for mu in (0.1, 0.2, 0.3):
            e_pos = timing_error(correlate_pn(delay(rx, mu, n), pn, SPS))
            e_neg = timing_error(correlate_pn(delay(rx, -mu, n), pn, SPS))
            assert e_pos == pytest.approx(-e_neg, rel=0.05)

    def test_boundary_peak_rejected(self):
        trace = CorrelationTrace(r=np.array([3.0, 2.0, 1.0]), peak_index=0)
        with pytest.raises(ValueError):
            timing_error(trace)

    def test_loop_state_validation(self):
        with pytest.raises(ValueError):
            StrLoopState(loop_gain=0.0)
        with pytest.raises(ValueError):
            StrLoopState(loop_gain=1.5)


def _scenario(channel=None, pn_len=512, ebn0=15.0, seed=5, pn_amplitude=None):
    from tdslink.channel import AWGN_PROFILE

    return ScenarioConfig(
        frame=FrameConfig(
            n_fft=512, pn_len=pn_len, dual_pn=False, modulation="qam16",
            pn_amplitude=pn_amplitude,
        ),
        srrc_span=16,
        channel=AWGN_PROFILE if channel is None else channel,
        ebn0_sweep=(ebn0,),
        seed=seed,
    )


class TestTracking:
    def test_no_offset_converges_immediately(self):
        cfg = _scenario()
        report = run_str_baseline(cfg, n_frames=20, injected_epsilon=0.0)
        assert report.converged
        assert abs(report.epsilon_hat) < 0.01

    def test_recovers_constant_fractional_offset(self):
        # injected 0.3-sample offset at the oversampled rate = 0.075 symbols
        cfg = _scenario()
        report = run_str_baseline(cfg, n_frames=20, injected_epsilon=0.3 / SPS)
        assert report.converged
        residual_samples = abs(report.epsilon_hat * SPS - 0.3)
        assert residual_samples < 0.02

    @pytest.mark.parametrize("gain", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("offset_samples", [-0.4, -0.2, 0.2, 0.4])
    def test_loop_stability_at_10db(self, gain, offset_samples):
        cfg = _scenario(ebn0=10.0)
        report = run_str_baseline(
            cfg,
            n_frames=40,
            loop_gain=gain,
            injected_epsilon=offset_samples / SPS,
        )
        assert report.converged, (
            f"gain={gain} offset={offset_samples}: no convergence"
        )

    def test_awgn_agrees_with_band_power_rule(self):
        cfg = _scenario()
        report = run_str_baseline(cfg, n_frames=30, injected_epsilon=0.0)
        grid = default_phase_grid(128)
        from tdslink.channel import AWGN_PROFILE

        responses = {
            float(e): equivalent_response(AWGN_PROFILE, 0.05, float(e), 512)
            for e in grid.phases
        }
        crit = band_power_criterion(responses, 0.05, 512)
        assert abs(report.epsilon_hat - crit.chosen) <= 1.0 / 128

    def test_peak_on_window_edge_ends_tracking_unconverged(self):
        # a guard buried in the data leaves the correlation peak anywhere
        # in the window, and on its edge there is no timing error to form
        cfg = _scenario(pn_amplitude=1e-8, seed=3)
        report = run_str_baseline(cfg, n_frames=40, injected_epsilon=0.0)
        assert not report.converged
        assert 0 < len(report.error_history) < 40
        # the phase the loop held when the edge peak ended it
        held = (report.peak_offset - report.phase_estimate) / SPS
        assert report.epsilon_hat == pytest.approx(wrap_phase(held))

    @pytest.mark.parametrize("n_frames", [0, -3])
    def test_rejects_no_frames(self, n_frames):
        with pytest.raises(ValueError, match="n_frames"):
            run_str_baseline(_scenario(), n_frames=n_frames)

    @pytest.mark.parametrize("injected", [float("nan"), float("inf")])
    def test_rejects_non_finite_injected_phase(self, injected):
        with pytest.raises(ValueError, match="injected_epsilon"):
            run_str_baseline(_scenario(), injected_epsilon=injected)

    def test_multipath_pull_away_from_direct_ray(self):
        # a strong echo drags the correlation peak off the direct path
        # timing; the tracked phase is then a compromise, not zero
        echo = ChannelProfile(delays=[0.0, 0.5], gains=[1.0, 0.6], name="echo")
        cfg = _scenario(channel=echo, ebn0=20.0)
        report = run_str_baseline(cfg, n_frames=40, injected_epsilon=0.0)
        assert report.converged
        assert abs(report.epsilon_hat) > 1.0 / 32
