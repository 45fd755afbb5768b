"""Tests for BER theory and the phase-selection criteria."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdslink.analysis import (
    PhaseGrid,
    awgn_phase_criterion,
    band_power_criterion,
    chernoff_objective,
    default_phase_grid,
    rolloff_band,
    theoretical_ber,
    theoretical_ser,
)
from tdslink.channel import (
    AWGN_PROFILE,
    ChannelProfile,
    EquivResponse,
    equivalent_response,
)
from tdslink.dsp import qfunc, raised_cosine_response

ALPHA = 0.05


class TestRolloffBand:
    def test_matches_printed_limits(self):
        assert rolloff_band(4096, 0.05) == (1946, 2150)
        n_lo, n_hi = rolloff_band(1024, 0.05)
        assert n_lo == math.ceil(0.5 * 1024 * 0.95)
        assert n_hi == math.floor(0.5 * 1024 * 1.05)

    def test_exact_integer_boundaries(self):
        # 0.5*640*0.95 = 304 exactly; float fuzz must not shift the ceil
        assert rolloff_band(640, 0.05) == (304, 336)

    def test_empty_band_rejected(self):
        with pytest.raises(ValueError):
            rolloff_band(5, 0.05)


class TestTheoreticalSer:
    def test_flat_channel_16qam(self):
        # oracle: direct high-precision tail-probability evaluation
        h = np.ones(1024)
        expected = 1.5 * qfunc(np.sqrt(8.0))
        assert expected == pytest.approx(0.003509, abs=1e-6)
        assert theoretical_ser(h, 10.0, 16) == pytest.approx(expected, rel=1e-12)

    def test_dead_channel(self):
        for order, kappa in [(2, 2), (16, 4), (64, 8), (256, 16)]:
            ser = theoretical_ser(np.zeros(64), 10.0, order)
            assert ser == pytest.approx((kappa - 1) / kappa, rel=1e-12)

    def test_gain_halving_equals_3db_shift(self):
        rng = np.random.default_rng(0)
        h = rng.uniform(0.3, 1.0, 256)
        a = theoretical_ser(h / np.sqrt(2.0), 10.0, 16)
        b = theoretical_ser(h, 10.0 - 10 * np.log10(2.0), 16)
        assert a == pytest.approx(b, rel=1e-12)

    def test_monotone_in_snr_and_gain(self):
        h = np.ones(64)
        sers = [theoretical_ser(h, db, 64) for db in (6, 8, 10, 12)]
        assert all(x > y for x, y in zip(sers, sers[1:]))
        assert theoretical_ser(0.8 * h, 10.0, 64) > theoretical_ser(h, 10.0, 64)

    def test_rejects_non_square_order(self):
        with pytest.raises(ValueError):
            theoretical_ser(np.ones(8), 10.0, 32)
        with pytest.raises(ValueError):
            theoretical_ber(0.01, 32)

    def test_accepts_response_object(self):
        resp = equivalent_response(AWGN_PROFILE, ALPHA, 0.0, 256)
        assert theoretical_ser(resp, 10.0, 16) == pytest.approx(
            1.5 * qfunc(np.sqrt(8.0)), rel=1e-9
        )


# complex gains of a drawn response, and an Eb/N0 in dB
gains = st.lists(
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=64,
).map(np.array)
ebn0s = st.floats(-10.0, 30.0)


class TestBpskIsTwoLevelPam:
    @given(gains, ebn0s)
    @settings(max_examples=200, deadline=None)
    def test_ser_is_the_written_out_q_sum(self, h, ebn0_db):
        gamma = 10.0 ** (ebn0_db / 10.0)
        expected = float(np.mean(qfunc(np.sqrt(2.0 * np.abs(h) ** 2 * gamma))))
        assert theoretical_ser(h, ebn0_db, 2) == expected

    @given(gains, ebn0s)
    @settings(max_examples=200, deadline=None)
    def test_chernoff_is_the_written_out_exponential(self, h, ebn0_db):
        gamma = 10.0 ** (ebn0_db / 10.0)
        expected = float(np.mean(np.exp(-2.0 * np.abs(h) ** 2 * gamma)))
        assert chernoff_objective(h, ebn0_db, 2) == expected


class TestTheoreticalBer:
    def test_axis_mode(self):
        # 0.003509 / 2, quoted to the same four significant digits
        assert theoretical_ber(0.003509, 16) == pytest.approx(0.001754, abs=1e-6)

    def test_zero_in_zero_out(self):
        assert theoretical_ber(0.0, 64) == 0.0

    def test_bpsk_branch(self):
        # one bit per axis: the BER is the per-axis SER, Q(sqrt(2 Eb/N0))
        h = np.ones(128)
        ber = theoretical_ber(theoretical_ser(h, 8.0, 2), 2)
        assert ber == pytest.approx(float(qfunc(np.sqrt(2 * 10 ** 0.8))), rel=1e-12)


class TestChernoffObjective:
    def test_flat_channel_value(self):
        # eta = 8 at 10 dB for 16QAM
        expected = 1.5 * math.exp(-8.0)
        assert expected == pytest.approx(5.032e-4, abs=1e-7)
        assert chernoff_objective(np.ones(512), 10.0, 16) == pytest.approx(
            expected, rel=1e-9
        )

    def test_dead_channel(self):
        assert chernoff_objective(np.zeros(16), 10.0, 16) == pytest.approx(1.5)

    def test_decreasing_in_each_gain(self):
        rng = np.random.default_rng(1)
        h = rng.uniform(0.2, 1.0, 64)
        base = chernoff_objective(h, 10.0, 16)
        for idx in rng.integers(0, 64, 8):
            bumped = h.copy()
            bumped[idx] *= 1.1
            assert chernoff_objective(bumped, 10.0, 16) < base


class TestPhaseGrid:
    def test_default_contains_zero(self):
        grid = default_phase_grid(128)
        assert len(grid) == 128
        assert 0.0 in grid.phases
        assert grid.phases[0] == -0.5
        assert grid.phases[-1] < 0.5

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            PhaseGrid(np.array([0.1, 0.1]))
        with pytest.raises(ValueError):
            PhaseGrid(np.array([]))


class TestAwgnCriterion:
    def test_grid_with_zero_selects_zero(self):
        result = awgn_phase_criterion(ALPHA, 4096, default_phase_grid(128))
        assert result.chosen == 0.0
        assert result.band == (1946, 2150)

    def test_exponential_form_agrees_at_zero(self):
        # the exponential surrogate over the roll-off band is smallest where
        # the band power is largest
        grid = default_phase_grid(64)
        result = awgn_phase_criterion(ALPHA, 1024, grid)
        n_lo, n_hi = result.band
        surrogate = [
            chernoff_objective(r.h[n_lo : n_hi + 1], 10.0, 16)
            for r in (equivalent_response(AWGN_PROFILE, ALPHA, float(e), 1024)
                      for e in grid.phases)
        ]
        assert result.chosen == 0.0
        assert grid.phases[int(np.argmin(surrogate))] == 0.0

    def test_degenerate_grid(self):
        grid = PhaseGrid(np.array([0.3]))
        result = awgn_phase_criterion(ALPHA, 1024, grid)
        assert result.chosen == 0.3

    def test_objective_even_in_phase(self):
        grid = default_phase_grid(32)
        result = awgn_phase_criterion(ALPHA, 1024, grid)
        phases = result.phases
        for i, eps in enumerate(phases):
            if eps > 0 and -eps in phases:
                j = int(np.where(phases == -eps)[0][0])
                assert result.objective[i] == result.objective[j]


def _brute_force_band_power(profile, alpha, eps, n_fft):
    """Independent re-evaluation of the roll-off band power from the raw
    aliased-sum definition (no shared code with the criterion path)."""
    n_lo = math.ceil(0.5 * n_fft * (1 - alpha))
    n_hi = math.floor(0.5 * n_fft * (1 + alpha))
    total = 0.0
    for n in range(n_lo, n_hi + 1):
        f = n / n_fft
        h = 0.0 + 0.0j
        for k in (-2, -1, 0, 1, 2):
            fk = f - k
            rc = raised_cosine_response(fk, alpha)
            hc = np.sum(profile.gains * np.exp(-2j * np.pi * fk * profile.delays))
            h += hc * rc * np.exp(2j * np.pi * fk * eps)
        total += abs(h) ** 2
    return total


class TestBandPowerCriterion:
    def test_ideal_channel_selects_zero(self):
        grid = default_phase_grid(128)
        responses = {
            float(e): equivalent_response(AWGN_PROFILE, ALPHA, float(e), 1024)
            for e in grid.phases
        }
        result = band_power_criterion(responses, ALPHA, 1024)
        assert result.chosen == 0.0

    def test_scaling_invariance(self):
        grid = default_phase_grid(16)
        p = ChannelProfile(delays=[0.0, 0.5], gains=[1.0, 0.6])
        responses = {
            float(e): equivalent_response(p, ALPHA, float(e), 256)
            for e in grid.phases
        }
        base = band_power_criterion(responses, ALPHA, 256)
        scaled = {eps: EquivResponse(3.7 * r.h) for eps, r in responses.items()}
        again = band_power_criterion(scaled, ALPHA, 256)
        assert again.chosen == base.chosen

    def test_two_ray_matches_brute_force(self):
        grid = default_phase_grid(32)
        p = ChannelProfile(delays=[0.0, 0.5], gains=[1.0, 0.6])
        responses = {
            float(e): equivalent_response(p, ALPHA, float(e), 512)
            for e in grid.phases
        }
        result = band_power_criterion(responses, ALPHA, 512)
        brute = [
            _brute_force_band_power(p, ALPHA, float(e), 512) for e in grid.phases
        ]
        assert result.chosen == grid.phases[int(np.argmax(brute))]
        assert np.allclose(result.objective, brute, rtol=1e-9)

    def test_reduces_to_trig_form_on_ideal_channel(self):
        grid = default_phase_grid(16)
        responses = {
            float(e): equivalent_response(AWGN_PROFILE, ALPHA, float(e), 1024)
            for e in grid.phases
        }
        general = band_power_criterion(responses, ALPHA, 1024)
        trig = awgn_phase_criterion(ALPHA, 1024, grid)
        assert np.allclose(general.objective, trig.objective, atol=1e-9)

    def test_tie_breaks_toward_smallest_magnitude(self):
        flat = equivalent_response(AWGN_PROFILE, ALPHA, 0.0, 256)
        responses = {-0.25: flat, 0.1: flat, 0.25: flat}
        result = band_power_criterion(responses, ALPHA, 256)
        assert result.chosen == 0.1

    def test_empty_band_rejected(self):
        flat = equivalent_response(AWGN_PROFILE, ALPHA, 0.0, 5)
        with pytest.raises(ValueError):
            band_power_criterion({0.0: flat}, 0.05, 5)


class TestChernoffPhaseOrdering:
    def test_surrogate_minimized_at_zero_phase(self):
        grid = default_phase_grid(64)
        values = [
            chernoff_objective(
                equivalent_response(AWGN_PROFILE, ALPHA, float(e), 1024), 10.0, 16
            )
            for e in grid.phases
        ]
        assert grid.phases[int(np.argmin(values))] == 0.0

    @given(st.floats(min_value=0.02, max_value=0.5))
    @settings(max_examples=20, deadline=None)
    def test_surrogate_prefers_zero_to_any_offset(self, eps):
        at_zero = chernoff_objective(
            equivalent_response(AWGN_PROFILE, ALPHA, 0.0, 256), 10.0, 16
        )
        offset = chernoff_objective(
            equivalent_response(AWGN_PROFILE, ALPHA, eps, 256), 10.0, 16
        )
        assert at_zero <= offset
