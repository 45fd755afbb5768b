"""Tests for the core DSP primitives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from tdslink.dsp import (
    INTERP_TAPS,
    SrrcSpec,
    _interp_taps,
    convolve,
    delay,
    qfunc,
    raised_cosine_response,
    srrc_taps,
)

ALPHA = 0.05


# ---------------------------------------------------------------------------
# combined shaping response
# ---------------------------------------------------------------------------


class TestRaisedCosineResponse:
    def test_passband_value(self):
        assert raised_cosine_response(0.0, ALPHA) == 1.0

    def test_band_edge_midpoint(self):
        # sin(0) at f = 0.5 leaves exactly half amplitude
        assert raised_cosine_response(0.5, ALPHA) == pytest.approx(0.5, abs=1e-15)

    def test_stopband(self):
        assert raised_cosine_response(0.6, ALPHA) == 0.0

    def test_rejects_bad_rolloff(self):
        for alpha in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                raised_cosine_response(0.1, alpha)

    def test_continuity_at_edges(self):
        lo, hi = 0.5 * (1 - ALPHA), 0.5 * (1 + ALPHA)
        eps = 1e-9
        assert raised_cosine_response(lo - eps, ALPHA) == pytest.approx(1.0, abs=1e-6)
        assert raised_cosine_response(lo, ALPHA) == pytest.approx(1.0, abs=1e-12)
        assert raised_cosine_response(hi - eps, ALPHA) == pytest.approx(0.0, abs=1e-6)
        assert raised_cosine_response(hi, ALPHA) == 0.0

    def test_monotone_nonincreasing(self):
        f = np.linspace(0.0, 0.5 + ALPHA / 2, 4001)
        vals = raised_cosine_response(f, ALPHA)
        assert np.all(np.diff(vals) <= 1e-15)

    @given(
        f=st.floats(min_value=-2.0, max_value=2.0),
        alpha=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_even_in_frequency(self, f, alpha):
        assert raised_cosine_response(f, alpha) == raised_cosine_response(-f, alpha)

    @given(alpha=st.floats(min_value=0.01, max_value=1.0), u=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_nyquist_identity_in_rolloff_band(self, alpha, u):
        # complementary points of the roll-off band sum to one, which is
        # what makes the shaping cascade a Nyquist pulse
        f = 0.5 * (1 - alpha) + u * alpha * 0.5  # lower half of the band
        total = raised_cosine_response(f, alpha) + raised_cosine_response(
            1.0 - f, alpha
        )
        assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# time-domain taps
# ---------------------------------------------------------------------------


class TestSrrcTaps:
    def test_even_symmetry(self):
        taps = srrc_taps(SrrcSpec(ALPHA, 16, 4))
        assert np.allclose(taps, taps[::-1], atol=0, rtol=0)

    def test_unit_energy(self):
        taps = srrc_taps(SrrcSpec(ALPHA, 16, 4))
        assert np.sum(taps**2) == pytest.approx(1.0, abs=1e-12)

    def test_odd_length(self):
        assert srrc_taps(SrrcSpec(ALPHA, 16, 4)).size == 2 * 16 * 4 + 1

    @pytest.mark.parametrize("span,tol", [(32, 1.2e-3), (48, 1e-3)])
    def test_spectrum_matches_analytic_root_response(self, span, tol):
        # oracle: long zero-padded DFT of the taps against the square
        # root of the analytic combined response; the unit-energy taps
        # carry a sqrt(samples_per_symbol) spectral scale.  At this
        # narrow roll-off the span-32 truncation ripple at f=0.25 is
        # 1.06e-3, hence the measured bound there.
        sps = 4
        taps = srrc_taps(SrrcSpec(ALPHA, span, sps))
        nfft = 1 << 16
        spectrum = np.abs(np.fft.fft(taps, nfft)) / np.sqrt(sps)
        f_probe = 0.25
        idx = round(f_probe / sps * nfft)
        expected = np.sqrt(raised_cosine_response(f_probe, ALPHA))
        assert spectrum[idx] == pytest.approx(expected, abs=tol)

    def test_cascade_is_nyquist(self):
        # symbol-spaced zeros of the shaping cascade; the slow alpha=0.05
        # tails need a span-64 truncation to push every symbol-spaced
        # sidelobe under 1e-3 of the peak
        sps = 4
        taps = srrc_taps(SrrcSpec(ALPHA, 64, sps))
        cascade = np.convolve(taps, taps)
        center = cascade.size // 2
        symbol_spaced = cascade[center::sps]
        peak = symbol_spaced[0]
        assert np.max(np.abs(symbol_spaced[1:])) < 1e-3 * peak

    def test_cascade_sidelobes_shrink_with_span(self):
        sps = 4

        def worst(span):
            taps = srrc_taps(SrrcSpec(ALPHA, span, sps))
            cascade = np.convolve(taps, taps)
            ss = cascade[cascade.size // 2 :: sps]
            return np.max(np.abs(ss[1:])) / ss[0]

        levels = [worst(s) for s in (16, 32, 64)]
        assert levels[0] > levels[1] > levels[2]

    def test_singularity_grid_point(self):
        # alpha=0.05 puts the 1/(4 alpha) singularity exactly on the
        # t = 5 symbol grid point; it must come out finite
        taps = srrc_taps(SrrcSpec(0.05, 16, 4))
        assert np.all(np.isfinite(taps))

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            SrrcSpec(alpha=0.0)
        with pytest.raises(ValueError):
            SrrcSpec(alpha=0.05, span_symbols=2)
        with pytest.raises(ValueError):
            SrrcSpec(alpha=0.05, samples_per_symbol=1)


# ---------------------------------------------------------------------------
# fractional delay
# ---------------------------------------------------------------------------


class TestFractionalDelay:
    def test_zero_delay_is_exact(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        assert np.max(np.abs(delay(x, 0.0, np.arange(x.size)) - x)) < 1e-9

    def test_tone_phase_shift(self):
        # oracle: a delayed complex exponential picks up -2 pi f mu phase
        f0, mu = 0.1, 0.25
        n = np.arange(512)
        x = np.exp(2j * np.pi * f0 * n)
        y = delay(x, mu, n)
        expected = x * np.exp(-2j * np.pi * f0 * mu)
        interior = slice(40, 472)
        assert np.max(np.abs(y[interior] - expected[interior])) < 1e-3

    def test_cascade_cancels(self):
        rng = np.random.default_rng(3)
        # band-limit the probe to the interpolator's accurate region
        X = np.zeros(512, dtype=complex)
        keep = 180  # |f| < 0.35
        X[:keep] = rng.standard_normal(keep) + 1j * rng.standard_normal(keep)
        X[-keep:] = rng.standard_normal(keep) + 1j * rng.standard_normal(keep)
        x = np.fft.ifft(X)
        n = np.arange(x.size)
        y = delay(delay(x, 0.25, n), -0.25, n)
        interior = slice(40, 472)
        assert np.max(np.abs(y[interior] - x[interior])) < 1e-3

    def test_energy_preserved_for_bandlimited_input(self):
        # interior energy only: reading z over x's own span loses the
        # outermost half-filter of tails, which is edge truncation, not
        # dispersion
        rng = np.random.default_rng(4)
        n = 16384
        X = np.zeros(n, dtype=complex)
        half = int(0.4 * n)  # occupied band |f| < 0.4
        X[:half] = rng.standard_normal(half) + 1j * rng.standard_normal(half)
        X[-half:] = rng.standard_normal(half) + 1j * rng.standard_normal(half)
        x = np.fft.ifft(X)
        interior = slice(100, n - 100)
        for mu in (-0.5, -0.25, 0.1, 0.5):
            y = delay(x, mu, np.arange(n))
            ratio = np.sum(np.abs(y[interior]) ** 2) / np.sum(
                np.abs(x[interior]) ** 2
            )
            assert abs(ratio - 1.0) < 1e-3


class TestDelay:
    @given(st.integers(min_value=-50, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_integer_delay_is_a_pure_index_shift(self, d):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        for whole in (d, float(d)):
            assert np.array_equal(delay(x, whole, np.arange(64) + d), x)
            assert np.array_equal(delay(x, whole, [d - 1, d + 64]), [0, 0])

    @given(st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=60, deadline=None)
    def test_bandlimited_pulse_peak_moves_by_delay(self, d):
        # a Gaussian pulse of 3-sample width has no content above ~0.3 of
        # the sample rate; its energy centroid is its peak
        n = np.arange(128)
        centre, width = 60.0, 3.0
        x = np.exp(-0.5 * ((n - centre) / width) ** 2)
        y = delay(x, d, n)
        expected = np.exp(-0.5 * ((n - centre - d) / width) ** 2)
        assert np.max(np.abs(y - expected)) < 1e-5
        power = np.abs(y) ** 2
        peak = np.sum(n * power) / np.sum(power)
        assert peak == pytest.approx(centre + d, abs=1e-9)


    @given(st.floats(min_value=-0.5, max_value=0.5))
    @settings(max_examples=40, deadline=None)
    def test_interpolator_taps_are_cached_and_read_only(self, mu):
        # the cached taps are the ones the formula gives, bit for bit
        lags = np.arange(INTERP_TAPS) - INTERP_TAPS // 2
        fresh = np.sinc(lags - mu) * np.blackman(INTERP_TAPS)
        taps = _interp_taps(mu)
        assert np.array_equal(taps, fresh / fresh.sum())
        assert _interp_taps(mu) is taps
        assert not taps.flags.writeable


# ---------------------------------------------------------------------------
# linear convolution
# ---------------------------------------------------------------------------


def _complex_arrays(shape):
    parts = st.floats(-1.0, 1.0, allow_subnormal=False)
    return st.tuples(
        hnp.arrays(np.float64, shape, elements=parts),
        hnp.arrays(np.float64, shape, elements=parts),
    ).map(lambda ri: ri[0] + 1j * ri[1])


class TestConvolve:
    @given(data=st.data(), n=st.integers(1, 80), m=st.integers(1, 80),
           rows=st.none() | st.integers(1, 4), real_b=st.booleans(),
           mode=st.sampled_from(["full", "valid"]))
    @settings(max_examples=80, deadline=None)
    def test_matches_np_convolve(self, data, n, m, rows, real_b, mode):
        # one pair, or ``rows`` pairs batched along the last axis with
        # ``b`` broadcast from a single row half the time
        lead = () if rows is None else (rows,)
        a = data.draw(_complex_arrays(lead + (n,)))
        b_rows = () if rows is None else (data.draw(st.sampled_from([1, rows])),)
        b = data.draw(_complex_arrays(b_rows + (m,)))
        if real_b:
            b = b.real
        got = convolve(a, b, mode=mode)
        a2, b2 = np.atleast_2d(a), np.atleast_2d(b)
        want = np.array([np.convolve(x, y, mode=mode)
                         for x, y in zip(a2, np.broadcast_to(b2, (a2.shape[0], m)))])
        assert got.shape == (want[0].shape if rows is None else want.shape)
        assert np.max(np.abs(got - want.reshape(got.shape))) <= 1e-12

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            convolve(np.ones(4), np.ones(2), mode="same")


# ---------------------------------------------------------------------------
# Gaussian tail
# ---------------------------------------------------------------------------


class TestQfunc:
    def test_at_zero(self):
        assert qfunc(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_against_numerical_integration(self):
        # oracle: high-precision quadrature of the Gaussian tail
        def tail(x):
            val, _ = quad(
                lambda u: np.exp(-(u**2) / 2) / np.sqrt(2 * np.pi), x, np.inf
            )
            return val

        assert qfunc(2.8284) == pytest.approx(0.002339, abs=1e-6)
        for x in (0.5, 1.0, 2.0, 2.8284, 4.0, 6.0, 8.0):
            assert qfunc(x) == pytest.approx(tail(x), rel=1e-10)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=60, deadline=None)
    def test_reflection(self, x):
        assert qfunc(x) == pytest.approx(1.0 - qfunc(-x), abs=1e-12)

    def test_strictly_decreasing_and_bounded(self):
        x = np.linspace(0.0, 8.0, 1001)
        vals = qfunc(x)
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals > 0)
        assert np.all(vals <= 0.5)
