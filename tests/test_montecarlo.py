"""Tests for the Monte-Carlo engine and analytic curve runners."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdslink.analysis import default_phase_grid
from tdslink.channel import AWGN_PROFILE, ChannelProfile, awgn_response
from tdslink.config import McConfig, ScenarioConfig
from tdslink.dsp import qfunc
from tdslink.frame import FrameConfig
from tdslink.montecarlo import (
    Source,
    _Chain,
    grid_search_ber_oracle,
    measure_chain_response,
    run_criterion,
    run_mc_ber,
    run_theory,
)


def _cfg(**kw):
    defaults = dict(
        frame=FrameConfig(n_fft=256, pn_len=64, modulation="qam16"),
        srrc_span=16,
        ebn0_sweep=(8.0,),
        mc=McConfig(min_bits=60_000, min_errors=60, max_frames=1500),
        seed=7,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestDeterminism:
    def test_identical_runs(self):
        a = run_mc_ber(_cfg())
        b = run_mc_ber(_cfg())
        assert a.points[0].errors == b.points[0].errors
        assert a.points[0].bits == b.points[0].bits
        assert a.points[0].ser == b.points[0].ser

    def test_worker_count_does_not_change_results(self):
        counts = []
        for workers in (1, 2, 3):
            cfg = _cfg(mc=McConfig(min_bits=60_000, min_errors=60,
                                   max_frames=1500, workers=workers))
            p = run_mc_ber(cfg).points[0]
            counts.append((p.bits, p.errors, p.axis_errors))
        assert counts[0] == counts[1] == counts[2]

    def test_seed_changes_results(self):
        a = run_mc_ber(_cfg(seed=7)).points[0]
        b = run_mc_ber(_cfg(seed=8)).points[0]
        assert (a.errors, a.bits) != (b.errors, b.bits)


class TestAccounting:
    def test_ber_is_exact_ratio(self):
        p = run_mc_ber(_cfg()).points[0]
        assert p.ber == p.errors / p.bits
        assert p.ser == p.axis_errors / p.axes
        assert p.errors >= 60 and p.bits >= 60_000
        assert not p.exhausted

    def test_zero_noise_gives_zero_errors(self):
        cfg = _cfg(ebn0_sweep=(300.0,),
                   mc=McConfig(min_bits=20_000, min_errors=1, max_frames=12))
        p = run_mc_ber(cfg).points[0]
        assert p.errors == 0
        assert p.ber == 0.0
        assert p.exhausted  # min_errors can never be met noiselessly

    def test_exhausted_flag_on_tiny_budget(self):
        cfg = _cfg(mc=McConfig(min_bits=10**9, min_errors=10**6, max_frames=8))
        curve = run_mc_ber(cfg)
        assert curve.points[0].exhausted
        assert curve.flagged

    def test_frames_per_burst_must_leave_measured_frames(self):
        cfg = _cfg(mc=McConfig(min_bits=1000, min_errors=1, max_frames=10,
                               frames_per_burst=3))
        p = run_mc_ber(cfg).points[0]
        assert p.bits > 0  # burst of 3 measures its middle frame


class TestAgainstTheory:
    def test_bpsk_awgn_point(self):
        # closed-form BPSK tail probability at 8 dB
        cfg = _cfg(
            frame=FrameConfig(n_fft=1024, pn_len=128, modulation="bpsk"),
            ebn0_sweep=(8.0,),
            mc=McConfig(min_bits=2_000_000, min_errors=150, max_frames=6000),
        )
        p = run_mc_ber(cfg).points[0]
        expected = float(qfunc(np.sqrt(2 * 10**0.8)))
        sigma = np.sqrt(expected * (1 - expected) / p.bits)
        assert abs(p.ber - expected) < 3 * sigma

    def test_qam16_matches_per_axis_theory(self):
        cfg = _cfg(
            mc=McConfig(min_bits=400_000, min_errors=300, max_frames=8000),
            srrc_span=32,
        )
        t = run_theory(cfg).points[0]
        m = run_mc_ber(cfg).points[0]
        sigma = np.sqrt(t.ser * (1 - t.ser) / m.axes)
        assert abs(m.ser - t.ser) < 3 * sigma

    def test_phase_periodicity_at_system_level(self):
        cfg = _cfg(
            epsilon=0.25,
            mc=McConfig(min_bits=200_000, min_errors=200, max_frames=4000),
        )
        a = run_mc_ber(cfg, epsilon=0.25).points[0]
        b = run_mc_ber(cfg, epsilon=1.25).points[0]
        sigma = np.sqrt(a.ber * (1 - a.ber) * (1 / a.bits + 1 / b.bits))
        assert abs(a.ber - b.ber) < 3 * sigma


class TestTheoryRunner:
    def test_flat_channel_textbook_values(self):
        cfg = _cfg(ebn0_sweep=(6.0, 10.0))
        pts = run_theory(cfg).points
        for p in pts:
            gamma = 10 ** (p.ebn0_db / 10)
            expected = 1.5 * float(qfunc(np.sqrt(0.8 * gamma)))
            assert p.ser == pytest.approx(expected, rel=1e-9)
            assert p.ber == pytest.approx(expected / 2, rel=1e-9)
            assert p.source is Source.THEORY

    def test_opposite_phases_coincide(self):
        cfg = _cfg(ebn0_sweep=(8.0, 12.0))
        for eps in (0.3125, 0.375, 0.4375, 0.5):
            a = run_theory(cfg, epsilons=[eps]).points
            b = run_theory(cfg, epsilons=[-eps]).points
            for pa, pb in zip(a, b):
                assert pa.ser == pytest.approx(pb.ser, rel=1e-12)

    def test_chernoff_rows_emitted(self):
        cfg = _cfg()
        pts = run_theory(cfg, include_chernoff=True).points
        sources = {p.source for p in pts}
        assert sources == {Source.THEORY, Source.CHERNOFF}

    def test_multipath_uses_aliased_sum(self):
        from tdslink.analysis import theoretical_ser
        from tdslink.channel import equivalent_response

        p = ChannelProfile(delays=[0.0, 0.5], gains=[1.0, 0.6])
        cfg = _cfg(channel=p, epsilon=0.2)
        pts = run_theory(cfg).points
        resp = equivalent_response(p, 0.05, 0.2, 256)
        assert pts[0].ser == pytest.approx(
            theoretical_ser(resp, 8.0, 16), rel=1e-12
        )
        flat = run_theory(_cfg()).points
        assert pts[0].ser != pytest.approx(flat[0].ser, rel=1e-6)


class TestChainResponse:
    def test_matches_analytic_on_ideal_channel(self):
        cfg = _cfg(srrc_span=64, frame=FrameConfig(n_fft=256, pn_len=64))
        for eps in (0.0, 0.25):
            measured = measure_chain_response(cfg, eps)
            ref = awgn_response(0.05, eps, np.arange(256) / 256)
            err = np.linalg.norm(measured - ref) / np.linalg.norm(ref)
            assert 20 * np.log10(err) < -50.0


@pytest.fixture(scope="module")
def noisy_front_end():
    cfg = _cfg(channel=ChannelProfile(delays=[0.0, 0.8], gains=[1.0, 0.4j]))
    chain = _Chain(cfg)
    rng = np.random.default_rng(3)
    data = chain.const.points[chain.draw_labels(rng, 3)]
    return chain, chain.front_end(chain.stream(data), 10.0, rng)


class TestPhaseSampling:
    @given(st.integers(min_value=-64, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_one_symbol_later_is_one_index_later(self, noisy_front_end, k):
        chain, rx = noisy_front_end
        eps = k / 128  # dyadic, so eps * L and (eps + 1) * L are exact
        assert np.array_equal(chain.sample(rx, eps + 1), chain.sample(rx, eps)[1:])


class TestEstimatedEqualizer:
    def test_tracks_known_equalizer(self):
        known = _cfg(
            ebn0_sweep=(8.0,),
            mc=McConfig(min_bits=150_000, min_errors=100, max_frames=4000),
        )
        est = dataclasses.replace(
            known,
            mc=McConfig(min_bits=150_000, min_errors=100, max_frames=4000,
                        equalizer="estimated"),
        )
        p_known = run_mc_ber(known).points[0]
        p_est = run_mc_ber(est).points[0]
        # guard-based estimation costs SNR but stays the same order
        assert p_known.ber < p_est.ber < 4 * p_known.ber


class TestGridSearchOracle:
    def test_zero_noise_tie_breaks_to_smallest_phase(self):
        from tdslink.channel import equivalent_response

        cfg = _cfg(
            ebn0_sweep=(300.0,),
            mc=McConfig(min_bits=10_000, min_errors=1, max_frames=8),
        )
        grid = default_phase_grid(8)
        phase, points = grid_search_ber_oracle(cfg, grid)
        assert phase == 0.0
        # phases whose response stays clear of the decision boundaries
        # decode perfectly without noise; a half-period offset erases the
        # band-center subcarrier outright and keeps a noiseless error floor
        for eps, p in points.items():
            h = equivalent_response(AWGN_PROFILE, 0.05, eps, 256).h
            if np.min(np.abs(h)) > 0.1:
                assert p.ber == 0.0
        assert points[-0.5].ber > 0.0

    def test_oracle_returns_point_per_phase(self):
        cfg = _cfg(mc=McConfig(min_bits=20_000, min_errors=20, max_frames=600))
        grid = default_phase_grid(4)
        phase, points = grid_search_ber_oracle(cfg, grid)
        assert set(points) == {float(e) for e in grid.phases}
        assert phase in points


class TestCriterionRunner:
    def test_ideal_channel_chooses_zero(self):
        cfg = _cfg(
            mc=McConfig(min_bits=20_000, min_errors=20, max_frames=600),
        )
        report = run_criterion(cfg)
        assert report.chosen_phase == 0.0
        assert report.str_report is not None
        assert abs(report.str_report.epsilon_hat) < 0.02
        assert report.chosen_point is not None

    def test_pn_estimator_close_to_analytic_choice(self):
        p = ChannelProfile(delays=[0.0, 0.5], gains=[1.0, 0.6], name="echo")
        base = _cfg(
            channel=p,
            ebn0_sweep=(16.0,),
            mc=McConfig(min_bits=20_000, min_errors=20, max_frames=600),
        )
        analytic = dataclasses.replace(
            base,
            criterion=dataclasses.replace(base.criterion, grid_size=16,
                                          with_str=False),
        )
        estimated = dataclasses.replace(
            base,
            criterion=dataclasses.replace(base.criterion, grid_size=16,
                                          estimator="pn", with_str=False),
        )
        a = run_criterion(analytic)
        e = run_criterion(estimated)
        assert abs(a.chosen_phase - e.chosen_phase) <= 2.0 / 16
