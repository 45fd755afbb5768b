"""Tests for PN generation, QAM mapping, and frame assembly."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdslink.dsp import SrrcSpec, srrc_taps
from tdslink.frame import (
    FrameConfig,
    build_frame,
    detect_labels,
    generate_pn,
    make_constellation,
    shape_symbols,
)


def _reference_lfsr_bits(poly: int, seed: int, length: int) -> list[int]:
    """Independent Fibonacci-form generator used as the test oracle."""
    degree = poly.bit_length() - 1
    # state bits s[0..degree-1]; recurrence from the polynomial terms
    taps = [i for i in range(degree) if (poly >> i) & 1]
    state = [(seed >> i) & 1 for i in range(degree)]
    out = []
    for _ in range(length):
        out.append(state[0])
        fb = 0
        for t in taps:
            fb ^= state[t]
        state = state[1:] + [fb]
    return out


class TestPnGeneration:
    def test_msequence_autocorrelation(self):
        pn = generate_pn(7, poly=0b1011, seed=0b001)
        chips = pn.chips
        assert np.all(np.abs(chips) == 1)
        corr = [np.dot(chips, np.roll(chips, k)) for k in range(7)]
        assert corr[0] == pytest.approx(7)
        assert np.allclose(corr[1:], -1)

    def test_deterministic(self):
        a = generate_pn(64, poly=0b10000011, seed=3)
        b = generate_pn(64, poly=0b10000011, seed=3)
        assert np.array_equal(a.chips, b.chips)

    def test_degree9_extended_balance(self):
        # oracle: plain enumeration of the first full period
        pn = generate_pn(512, poly=0b1000010001, seed=1)
        period = pn.chips[:511]
        minus = int(np.sum(period == -1))
        plus = int(np.sum(period == 1))
        assert {minus, plus} == {256, 255}
        # cyclic extension repeats the sequence start
        assert pn.chips[511] == pn.chips[0]

    def test_matches_independent_lfsr(self):
        # the Galois form must produce a shift of the same m-sequence the
        # Fibonacci oracle generates; compare autocorrelation fingerprints
        poly, degree = 0b100101, 5
        mine = generate_pn(2**degree - 1, poly=poly, seed=1).chips
        ref_bits = _reference_lfsr_bits(poly, 1, 2**degree - 1)
        ref = 1.0 - 2.0 * np.array(ref_bits)
        # both are maximal-length: identical two-valued autocorrelation
        for seq in (mine, ref):
            corr = [np.dot(seq, np.roll(seq, k)) for k in range(seq.size)]
            assert corr[0] == pytest.approx(seq.size)
            assert np.allclose(corr[1:], -1)

    def test_rejects_zero_seed(self):
        with pytest.raises(ValueError):
            generate_pn(16, poly=0b10011, seed=0)

    def test_default_poly_periods(self):
        for length in (16, 64, 128, 256, 512):
            pn = generate_pn(length)
            assert pn.chips.size == length
            # spectrum must be usable for channel estimation
            mag = np.abs(np.fft.fft(pn.chips))
            assert mag.min() > 1e-3 * mag.mean()


class TestConstellations:
    @pytest.mark.parametrize("name", ["bpsk", "qam16", "qam64", "qam256"])
    def test_unit_average_energy(self, name):
        const = make_constellation(name)
        assert np.mean(np.abs(const.points) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert np.unique(const.points).size == const.order

    def test_bpsk_convention(self):
        const = make_constellation("bpsk")
        assert const.points[0] == 1.0 + 0.0j
        assert const.points[1] == -1.0 + 0.0j

    @pytest.mark.parametrize("name", ["qam16", "qam64", "qam256"])
    def test_gray_axis_adjacency(self, name):
        # brute force: nearest neighbors along each axis differ in one bit
        const = make_constellation(name)
        pts = const.points
        kappa = const.levels_per_axis
        step = 2.0 / np.sqrt(2.0 * (const.order - 1) / 3.0)
        for label, p in enumerate(pts):
            for delta in (step, -step, 1j * step, -1j * step):
                q = p + delta
                matches = np.where(np.isclose(pts, q, atol=step / 10))[0]
                if matches.size:
                    other = int(matches[0])
                    assert bin(label ^ other).count("1") == 1

    def test_16qam_labels_distinct_unit_power(self):
        const = make_constellation("qam16")
        syms = const.points[np.arange(16)]
        assert np.unique(syms).size == 16
        assert np.mean(np.abs(syms) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["bpsk", "qam16", "qam64", "qam256"])
    def test_modulate_demodulate_round_trip(self, name):
        const = make_constellation(name)
        labels = np.arange(const.order)
        assert np.array_equal(detect_labels(const.points[labels], const), labels)

    def test_perturbation_robustness(self):
        const = make_constellation("qam16")
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 16, 200)
        syms = const.points[labels]
        jitter = 0.04 * np.exp(2j * np.pi * rng.random(200))
        assert np.array_equal(detect_labels(syms + jitter, const), labels)

    def test_midpoint_tie_goes_to_lower_label(self):
        const = make_constellation("qam16")
        pts = const.points
        # midway between two horizontally adjacent points
        d = np.abs(pts[:, None] - pts[None, :])
        min_d = d[d > 0].min()
        i, j = np.argwhere(np.isclose(d, min_d))[0]
        mid = (pts[i] + pts[j]) / 2
        assert detect_labels(np.array([mid]), const)[0] == min(i, j)

    def test_rejects_unknown_modulation(self):
        with pytest.raises(ValueError):
            make_constellation("qam32")

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_bits_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        const = make_constellation("qam64")
        labels = rng.integers(0, const.order, 50)
        assert np.array_equal(detect_labels(const.points[labels], const), labels)


class TestFrameAssembly:
    def _cfg(self, **kw):
        defaults = dict(n_fft=8, pn_len=16, dual_pn=False, modulation="bpsk")
        defaults.update(kw)
        return FrameConfig(**defaults)

    def test_flat_spectrum_gives_impulse_body(self):
        cfg = self._cfg()
        pn = cfg.make_pn()
        frame = build_frame(np.ones(8, dtype=complex), pn, cfg)
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        assert np.allclose(frame.body, expected, atol=1e-14)

    def test_dual_pn_length(self):
        cfg = FrameConfig(n_fft=64, pn_len=16, dual_pn=True, modulation="bpsk")
        pn = cfg.make_pn()
        frame = build_frame(np.ones(64, dtype=complex), pn, cfg)
        assert len(frame) == 64 + 2 * 16
        assert np.array_equal(frame.guard[:16], frame.guard[16:])

    def test_frame_energy_identity(self):
        cfg = self._cfg(n_fft=64)
        pn = cfg.make_pn()
        rng = np.random.default_rng(1)
        data = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        frame = build_frame(data, pn, cfg)
        guard_energy = np.sum(np.abs(frame.guard) ** 2)
        expected = guard_energy + np.sum(np.abs(data) ** 2) / 64
        assert np.sum(np.abs(frame.samples) ** 2) == pytest.approx(expected, rel=1e-12)

    def test_rejects_length_mismatch(self):
        cfg = self._cfg()
        with pytest.raises(ValueError):
            build_frame(np.ones(4, dtype=complex), cfg.make_pn(), cfg)

    def test_rejects_non_power_of_two_fft(self):
        for n_fft in (12, 7):
            with pytest.raises(ValueError, match="power of two"):
                FrameConfig(n_fft=n_fft)

    def test_guard_amplitude_default_balances_power(self):
        cfg = FrameConfig(n_fft=256, pn_len=32)
        assert cfg.guard_amplitude == pytest.approx(1 / 16)


class TestTransmitChain:
    def test_impulse_response_is_tap_vector(self):
        spec = SrrcSpec(0.05, 8, 4)
        taps = srrc_taps(spec)
        impulse = np.zeros(16, dtype=complex)
        impulse[0] = 2.0
        out = shape_symbols(impulse, 4, taps)
        assert np.allclose(out.samples[: taps.size], 2.0 * taps, atol=1e-12)
        assert out.origin == (taps.size - 1) // 2

    def test_output_length(self):
        cfg = FrameConfig(n_fft=64, pn_len=16, dual_pn=False, modulation="bpsk")
        spec = SrrcSpec(0.05, 8, 4)
        pn = cfg.make_pn()
        frame = build_frame(np.ones(64, dtype=complex), pn, cfg)
        symbols = np.concatenate([frame.samples, frame.samples])
        out = shape_symbols(symbols, cfg.n_upsam, srrc_taps(spec))
        n_syms = 2 * len(frame)
        assert len(out) == 4 * n_syms + spec.n_taps - 1

    def test_out_of_band_power_suppressed(self):
        cfg = FrameConfig(n_fft=4096, pn_len=512, dual_pn=False, modulation="qam16")
        spec = SrrcSpec(0.05, 16, 4)
        rng = np.random.default_rng(2)
        const = cfg.constellation()
        data = const.points[rng.integers(0, 16, 4096)]
        frame = build_frame(data, cfg.make_pn(), cfg)
        out = shape_symbols(frame.samples, cfg.n_upsam, srrc_taps(spec))
        # oracle: periodogram split at the roll-off edge
        spectrum = np.abs(np.fft.fft(out.samples)) ** 2
        f = np.fft.fftfreq(out.samples.size) * 4  # cycles per symbol
        edge = 0.5 * (1 + cfg.alpha)
        oob = np.sum(spectrum[np.abs(f) > edge])
        total = np.sum(spectrum)
        assert 10 * np.log10(oob / total) < -35.0
