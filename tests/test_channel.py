"""Tests for the channel model and the equivalent baseband response."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdslink.channel import (
    AWGN_PROFILE,
    ChannelProfile,
    apply_channel,
    awgn_response,
    equivalent_response,
    estimate_response_from_pn,
    load_profile,
    pn_spectrum,
    wrap_phase,
)
from tdslink.config import ScenarioConfig
from tdslink.frame import FrameConfig, generate_pn
from tdslink.montecarlo import _Chain

ALPHA = 0.05


class TestProfile:
    def test_power_normalized(self):
        p = ChannelProfile(delays=[0.0, 0.5], gains=[1.0, 0.6])
        assert np.sum(np.abs(p.gains) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_monotone_delays(self):
        with pytest.raises(ValueError):
            ChannelProfile(delays=[0.5, 0.5], gains=[1.0, 1.0])
        with pytest.raises(ValueError):
            ChannelProfile(delays=[-0.1, 0.5], gains=[1.0, 1.0])

    def test_rejects_non_finite_taps(self):
        for delays, gains in [([0.0, 1.5], [1.0, np.nan]),
                              ([0.0, np.inf], [1.0, 0.5]),
                              ([np.nan], [1.0]),
                              ([0.0], [complex(0.0, np.inf)])]:
            with pytest.raises(ValueError, match="finite"):
                ChannelProfile(delays=delays, gains=gains)

    def test_loader(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("# two taps\n0.0 1.0 0.0\n0.5 0.0 0.6  # echo\n\n")
        p = load_profile(f)
        assert p.name == "p"
        assert np.allclose(p.delays, [0.0, 0.5])
        assert np.sum(np.abs(p.gains) ** 2) == pytest.approx(1.0)

    def test_loader_rejects_garbage(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0.0 1.0\n")
        with pytest.raises(ValueError):
            load_profile(f)
        f.write_text("0.0 one 0\n")
        with pytest.raises(ValueError):
            load_profile(f)
        f.write_text("# only comments\n")
        with pytest.raises(ValueError):
            load_profile(f)


class TestApplyChannel:
    def test_identity_tap(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(64) + 0j
        y = apply_channel(x, AWGN_PROFILE, 4)
        assert np.allclose(y[:64], x, atol=1e-12)

    def test_integer_delay_and_rotation(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(64) + 0j
        p = ChannelProfile(delays=[2.0], gains=[1j])
        y = apply_channel(x, p, 4)
        assert np.allclose(y[8 : 8 + 64], 1j * x, atol=1e-12)
        assert np.allclose(y[:8], 0)

    def test_two_ray_comb_matches_analytic(self):
        # oracle: analytic two-ray frequency response on the oversampled
        # axis; trailing zeros make the linear delay circular-equivalent
        rng = np.random.default_rng(2)
        n, sps = 512, 4
        x = np.zeros(n, dtype=complex)
        x[: n - 8] = rng.standard_normal(n - 8) + 1j * rng.standard_normal(n - 8)
        p = ChannelProfile(delays=[0.0, 0.5], gains=[1.0, 1.0])
        y = apply_channel(x, p, sps)
        Y = np.fft.fft(y[:n])
        X = np.fft.fft(x)
        nu = np.fft.fftfreq(n)  # cycles per oversampled sample
        expected = (p.gains[0] + p.gains[1] * np.exp(-2j * np.pi * nu * 2)) * X
        err = np.abs(Y - expected) / np.abs(expected).max()
        assert np.max(err) < 1e-3


class TestAddAwgn:
    """Eb/N0-calibrated noise as the simulator draws it (`_Chain.noise`)."""

    @staticmethod
    def chain(modulation="bpsk", n_fft=64):
        frame = FrameConfig(n_fft=n_fft, pn_len=16, modulation=modulation)
        return _Chain(ScenarioConfig(frame=frame))

    def test_zero_noise_limit(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        y = x + self.chain().noise(np.random.default_rng(0), x.shape, 300.0)
        assert np.max(np.abs(y - x)) < 1e-10

    def test_variance_calibration(self):
        # BPSK, N = 64, 0 dB: the body's symbol-rate power 1/N over one
        # bit per symbol, 1/64 per complex sample, half of it per dimension
        chain = self.chain()
        noise = chain.noise(np.random.default_rng(4), 1_000_000, 0.0)
        assert chain.noise_var(0.0) == pytest.approx(1 / 64, rel=1e-12)
        assert np.var(noise.real) == pytest.approx(1 / 128, rel=0.02)
        assert np.var(noise.imag) == pytest.approx(1 / 128, rel=0.02)
        # qam16 at 10 dB: 1 / (N k 10)
        chain = self.chain("qam16", 256)
        noise = chain.noise(np.random.default_rng(5), (1000, 1000), 10.0)
        assert np.var(noise) == pytest.approx(1 / (256 * 4 * 10), rel=0.02)

    def test_determinism(self):
        chain = self.chain("qam16")
        a = chain.noise(np.random.default_rng(7), (4, 64), 10.0)
        b = chain.noise(np.random.default_rng(7), (4, 64), 10.0)
        assert a.shape == (4, 64)
        assert np.array_equal(a, b)


class TestEquivalentResponse:
    def test_ideal_channel_zero_phase_is_flat(self):
        r = equivalent_response(AWGN_PROFILE, ALPHA, 0.0, 256)
        assert np.max(np.abs(np.abs(r.h) - 1.0)) < 1e-9

    def test_half_phase_null_at_band_center(self):
        r = equivalent_response(AWGN_PROFILE, ALPHA, 0.5, 256)
        assert abs(r.h[128]) < 1e-12  # f = 0.5

    def test_passband_unaffected_by_phase(self):
        for eps in (0.1, 0.25, 0.49):
            r = equivalent_response(AWGN_PROFILE, ALPHA, eps, 256)
            f = np.arange(256) / 256
            passband = (f < 0.4) | (f > 0.6)
            assert np.max(np.abs(np.abs(r.h[passband]) - 1.0)) < 1e-9

    def test_closed_form_branch_values(self):
        val = awgn_response(ALPHA, 0.25, 0.5)
        assert abs(val) == pytest.approx(np.cos(np.pi / 4), abs=1e-9)
        f = np.arange(64) / 64
        assert np.allclose(awgn_response(ALPHA, 0.0, f), 1.0, atol=1e-15)

    def test_closed_form_matches_aliased_sum(self):
        f = np.arange(512) / 512
        for eps in (-0.5, -0.21, 0.0, 0.17, 0.375, 0.49):
            direct = awgn_response(ALPHA, eps, f)
            summed = equivalent_response(AWGN_PROFILE, ALPHA, eps, 512).h
            assert np.max(np.abs(direct - summed)) < 1e-9

    def test_rejects_frequency_outside_unit_interval(self):
        with pytest.raises(ValueError):
            awgn_response(ALPHA, 0.1, 1.0)
        with pytest.raises(ValueError):
            awgn_response(ALPHA, 0.1, -0.01)

    @given(st.floats(min_value=-0.5, max_value=0.5))
    @settings(max_examples=40, deadline=None)
    def test_magnitude_periodic_in_phase(self, eps):
        a = equivalent_response(AWGN_PROFILE, ALPHA, eps, 128)
        b = equivalent_response(AWGN_PROFILE, ALPHA, eps + 1.0, 128)
        assert np.max(np.abs(np.abs(a.h) - np.abs(b.h))) < 1e-9

    @given(st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=40, deadline=None)
    def test_magnitude_even_in_phase(self, eps):
        a = equivalent_response(AWGN_PROFILE, ALPHA, eps, 128)
        b = equivalent_response(AWGN_PROFILE, ALPHA, -eps, 128)
        assert np.max(np.abs(np.abs(a.h) - np.abs(b.h))) < 1e-12

    def test_multipath_periodicity_in_phase(self):
        p = ChannelProfile(delays=[0.0, 0.8, 2.3], gains=[1.0, 0.5j, -0.3])
        a = equivalent_response(p, ALPHA, 0.2, 128)
        b = equivalent_response(p, ALPHA, 1.2, 128)
        assert np.max(np.abs(np.abs(a.h) - np.abs(b.h))) < 1e-9

    def test_band_center_magnitude_decreases_with_phase(self):
        eps = np.linspace(0.0, 0.5, 21)
        mags = [abs(awgn_response(ALPHA, e, 0.5)) for e in eps]
        assert np.all(np.diff(mags) < 0)
        assert np.allclose(mags, np.abs(np.cos(np.pi * eps)), atol=1e-12)

    def test_wrap_phase(self):
        assert wrap_phase(0.5) == -0.5
        assert wrap_phase(-0.5) == -0.5
        assert wrap_phase(1.25) == pytest.approx(0.25)
        assert wrap_phase(0.1) == pytest.approx(0.1)


class TestPnEstimation:
    def _ideal_windows(self, profile, eps, pn, n_avg, amplitude=1.0):
        """Noiseless guard observations: circular convolution of the PN
        with the equivalent channel restricted to the guard length."""
        L = pn.chips.size
        resp = equivalent_response(profile, ALPHA, eps, L)
        rx = np.fft.ifft(np.fft.fft(amplitude * pn.chips) * resp.h)
        return np.tile(rx, (n_avg, 1))

    def test_ideal_channel_estimate_is_flat(self):
        pn = generate_pn(128)
        windows = self._ideal_windows(AWGN_PROFILE, 0.0, pn, 1)
        est = estimate_response_from_pn(windows, pn_spectrum(pn), 1024)
        assert np.max(np.abs(np.abs(est.h) - 1.0)) < 1e-6

    def test_two_ray_estimate_tracks_analytic(self):
        p = ChannelProfile(delays=[0.0, 0.5], gains=[1.0, 0.6])
        pn = generate_pn(128)
        windows = self._ideal_windows(p, 0.25, pn, 1)
        est = estimate_response_from_pn(windows, pn_spectrum(pn), 1024)
        ref = equivalent_response(p, ALPHA, 0.25, 1024)
        err = np.linalg.norm(np.abs(est.h) - np.abs(ref.h)) / np.linalg.norm(
            np.abs(ref.h)
        )
        assert err < 0.02

    def test_variance_shrinks_with_averaging(self):
        # oracle: Monte-Carlo variance of the estimator at 10 dB chip SNR
        pn = generate_pn(128)
        rng = np.random.default_rng(11)
        sigma = np.sqrt(10 ** (-10 / 10) / 2)
        variances = {}
        for n_avg in (1, 4, 16):
            errs = []
            for _ in range(40):
                clean = self._ideal_windows(AWGN_PROFILE, 0.0, pn, n_avg)
                noisy = clean + sigma * (
                    rng.standard_normal(clean.shape)
                    + 1j * rng.standard_normal(clean.shape)
                )
                est = estimate_response_from_pn(noisy, pn_spectrum(pn), 128)
                errs.append(np.mean((np.abs(est.h) - 1.0) ** 2))
            variances[n_avg] = np.mean(errs)
        assert variances[4] == pytest.approx(variances[1] / 4, rel=0.4)
        assert variances[16] == pytest.approx(variances[4] / 4, rel=0.4)

    def test_rejects_wrong_window_length(self):
        pn = generate_pn(128)
        with pytest.raises(ValueError):
            estimate_response_from_pn(np.zeros((1, 64)), pn_spectrum(pn), 1024)
