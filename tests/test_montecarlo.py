"""Tests for the Monte-Carlo engine and analytic curve runners."""

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdslink import montecarlo, str_sync
from tdslink.analysis import default_phase_grid
from tdslink.channel import (
    AWGN_PROFILE,
    ChannelProfile,
    apply_channel,
    awgn_response,
)
from tdslink.config import McConfig, ScenarioConfig
from scipy.signal import fftconvolve

from tdslink.dsp import _interp_taps, qfunc
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
from tdslink.str_sync import correlate_pn


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

    def test_chunking_does_not_change_results(self, monkeypatch):
        # a budget only max_frames can stop: 7 bursts whatever the grouping
        calls = []

        def recording(*args):
            calls.append(args)
            return simulate_burst(*args)

        simulate_burst = montecarlo._simulate_burst
        monkeypatch.setattr(montecarlo, "_simulate_burst", recording)
        counts = []
        for chunk_bursts in (1, 3, 8):
            cfg = _cfg(mc=McConfig(min_bits=10**9, min_errors=10**6, max_frames=28,
                                   chunk_bursts=chunk_bursts))
            p = run_mc_ber(cfg).points[0]
            counts.append((p.bits, p.errors, p.axis_errors, p.axes))
        assert counts[0] == counts[1] == counts[2]
        assert len(calls) == 3 * 7
        # every burst draws from its own generator: run one by one,
        # last burst first, they sum to the same counts
        bursts = [simulate_burst(*args) for args in reversed(calls[:7])]
        be, b, ae, a = map(sum, zip(*bursts))
        assert counts[0] == (b, be, ae, a)

    def test_no_thread_is_started(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a Monte-Carlo point started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = _cfg(mc=McConfig(min_bits=1, min_errors=1, max_frames=8))
        assert run_mc_ber(cfg).points[0].bits > 0

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

    @pytest.mark.parametrize("frames_per_burst", [1, 3, 4])
    def test_every_frame_is_measured(self, frames_per_burst):
        # a budget no point can meet, so the point stops at max_frames
        cfg = _cfg(mc=McConfig(min_bits=10**9, min_errors=10**6, max_frames=10,
                               frames_per_burst=frames_per_burst, chunk_bursts=3))
        p = run_mc_ber(cfg).points[0]
        frames = (10 // frames_per_burst) * frames_per_burst
        assert p.exhausted
        assert p.bits == frames * 256 * 4
        assert p.axes == frames * 256 * 2


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

    @pytest.mark.parametrize("modulation", ["bpsk", "qam16", "qam64", "qam256"])
    def test_awgn_matches_the_closed_form(self, modulation):
        # the image sum on an ideal channel against the independent
        # closed-form branch response
        from tdslink.analysis import chernoff_objective, theoretical_ber, theoretical_ser

        cfg = _cfg(frame=FrameConfig(n_fft=256, pn_len=64, modulation=modulation),
                   ebn0_sweep=(4.0, 10.0, 16.0))
        order = cfg.frame.constellation().order
        phases = [0.0, 0.125, -0.3, 0.5]
        pts = iter(run_theory(cfg, epsilons=phases, include_chernoff=True).points)
        for eps in phases:
            h = awgn_response(0.05, eps, np.arange(256) / 256)
            for ebn0 in cfg.ebn0_sweep:
                for source, rate in ((Source.THEORY, theoretical_ser),
                                     (Source.CHERNOFF, chernoff_objective)):
                    p = next(pts)
                    expected = rate(h, ebn0, order)
                    assert (p.source, p.epsilon, p.ebn0_db) == (source, eps, ebn0)
                    assert p.ser == pytest.approx(expected, rel=1e-12, abs=0)
                    assert p.ber == pytest.approx(theoretical_ber(expected, order),
                                                  rel=1e-12, abs=0)
        assert next(pts, None) is None

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


def explicit_front_end(chain, symbols, ebn0_db=None, rng=None):
    """The oversampled path written out stage by stage: zero-pad by
    ``pad``, zero-stuff, shape, propagate, add noise, matched-filter.
    Returns the output and the index of the first stream symbol."""
    L, taps = chain.L, chain.taps
    padded = np.pad(np.asarray(symbols, dtype=complex), chain.pad)
    up = np.zeros(padded.size * L, dtype=complex)
    up[::L] = padded
    tx = fftconvolve(up, taps)
    if not chain.cfg.channel.is_identity:
        tx = apply_channel(tx, chain.cfg.channel, L)
    if ebn0_db is not None:
        # the shaped body's power per oversampled sample is P = 1/(N L);
        # per real dimension, sigma^2 = P L / (2 k 10^(Eb/N0 / 10))
        power = 1.0 / (chain.N * L)
        var = power * L / (2 * chain.k * 10 ** (ebn0_db / 10))
        tx = tx + np.sqrt(var) * (rng.standard_normal(tx.size)
                                  + 1j * rng.standard_normal(tx.size))
    return fftconvolve(tx, taps), chain.pad * L + taps.size - 1


def explicit_delay(x, d):
    """``x`` delayed by ``d`` samples, written out: the rest of ``d``
    after rounding as a full convolution with the interpolator's taps,
    the whole part as an index shift.  Returns the delayed buffer and
    the offset ``off`` with ``z[n]`` at index ``n + off``."""
    base = round(d)
    taps = np.ones(1) if abs(d - base) < 1e-12 else _interp_taps(d - base)
    return np.convolve(x, taps), taps.size // 2 - base


class TestFrontEnd:
    @pytest.mark.parametrize("profile, n_upsam", [
        (ChannelProfile(delays=[0.0, 0.8, 3.25], gains=[1.0, 0.4j, -0.3]), 4),
        (ChannelProfile(delays=[0.3, 5.5], gains=[1.0, 0.5]), 2),
        (AWGN_PROFILE, 4),
    ])
    @pytest.mark.parametrize("ebn0_db", [None, 10.0])
    def test_cached_response_equals_explicit_path(self, profile, n_upsam, ebn0_db):
        chain = _Chain(_cfg(channel=profile,
                            frame=FrameConfig(n_fft=128, pn_len=32, n_upsam=n_upsam)))
        stream = chain.draw_frames(np.random.default_rng(2), 3)[1].ravel()
        fast = chain.front_end(stream, ebn0_db, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        ref, origin = explicit_front_end(chain, stream, ebn0_db, rng)
        assert (chain.origin, fast.size) == (origin, ref.size)
        assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.fixture(scope="module")
def noisy_front_end():
    cfg = _cfg(channel=ChannelProfile(delays=[0.0, 0.8], gains=[1.0, 0.4j]))
    chain = _Chain(cfg)
    rng = np.random.default_rng(3)
    _, frames = chain.draw_frames(rng, 3)
    return chain, chain.front_end(frames.ravel(), 10.0, rng)


def _readable(chain, z, off):
    """First and last symbol index whose sample the delayed buffer ``z``
    (``z[n]`` at index ``n + off``) holds."""
    lo = -((chain.origin + off) // chain.L)
    return lo, lo + (z.size - 1 - (chain.origin + off + lo * chain.L)) // chain.L


class TestPhaseSampling:
    @given(st.integers(min_value=-64, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_one_symbol_later_is_one_index_later(self, noisy_front_end, k):
        chain, rx = noisy_front_end
        eps = k / 128  # dyadic, so eps * L and (eps + 1) * L are exact
        # every symbol index of the buffer, and a few past both of its ends
        at = np.arange(-(chain.origin // chain.L) - 2, rx.size // chain.L + 2)
        assert np.array_equal(chain.sample(rx, eps + 1, at), chain.sample(rx, eps, at + 1))

    @given(eps=st.floats(-0.5, 0.5) | st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5]),
           ends=st.lists(st.integers(0, 40), min_size=1, max_size=20),
           middle=st.lists(st.integers(0, 10**6), max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_equals_full_stream_delay(self, noisy_front_end, eps, ends, middle):
        chain, rx = noisy_front_end
        z, off = explicit_delay(rx, -eps * chain.L)
        lo, hi = _readable(chain, z, off)
        # indices near both ends of the buffer, and anywhere between
        at = np.array([lo + e for e in ends] + [hi - e for e in ends]
                      + [lo + m % (hi - lo + 1) for m in middle])
        full = z[chain.origin + off + at * chain.L]
        got = chain.sample(rx, eps, at)
        if (eps * chain.L).is_integer():  # whole samples: read, not computed
            assert np.array_equal(got, full)
        else:
            assert np.max(np.abs(got - full)) <= 1e-12 * np.max(np.abs(rx))


_profiles = st.lists(
    st.tuples(st.floats(0.0, 12.0),
              st.complex_numbers(min_magnitude=0.05, max_magnitude=1.0)),
    min_size=1, max_size=5, unique_by=lambda tap: tap[0],
).map(lambda taps: ChannelProfile(delays=[d for d, _ in sorted(taps)],
                                  gains=[g for _, g in sorted(taps)]))


class TestSymbolResponse:
    @given(profile=_profiles, eps=st.floats(-0.5, 0.5),
           n_upsam=st.sampled_from([2, 4, 8]), span=st.sampled_from([8, 16, 32]),
           n_frames=st.sampled_from([1, 2, 3]))
    @settings(max_examples=40, deadline=None)
    def test_equals_full_path_where_the_receiver_reads(self, profile, eps, n_upsam,
                                                        span, n_frames):
        cfg = _cfg(channel=profile, srrc_span=span,
                   frame=FrameConfig(n_fft=128, pn_len=32, n_upsam=n_upsam))
        chain = _Chain(cfg)
        rng = np.random.default_rng(5)
        ring = chain.draw_frames(rng, n_frames)[1].ravel()
        g = chain.symbol_response(eps)
        # the ring repeated past the response's support on both sides, sent
        # through the explicit oversampled path and sampled in full
        ext = g.size
        rx, origin = explicit_front_end(chain, np.pad(ring, ext, mode="wrap"))
        z, off = explicit_delay(rx, -eps * chain.L)
        full = z[origin + off + ext * chain.L :: chain.L][: ring.size]
        fast = np.fft.ifft(np.fft.fft(ring) * chain.ring_response(g, ring.size))
        assert np.max(np.abs(fast - full)) <= 1e-12 * np.max(np.abs(full))


class TestTimingLoopWindows:
    @pytest.mark.parametrize("injected", [0.0, 0.3, -0.45])
    def test_window_is_the_delayed_stream(self, monkeypatch, injected):
        # every correlation the loop forms is correlate_pn of its frame's
        # window, read from the whole stream delayed by the injected phase
        # plus the loop's correction at that frame
        streams, traces = [], []
        front_end = _Chain.front_end
        monkeypatch.setattr(_Chain, "front_end", lambda self, *a: streams.append(
            front_end(self, *a)) or streams[-1])
        monkeypatch.setattr(str_sync, "correlate_pn", lambda *a: traces.append(
            correlate_pn(*a)) or traces[-1])
        cfg = _cfg(channel=ChannelProfile(delays=[0.0, 0.8], gains=[1.0, 0.4j]),
                   ebn0_sweep=(15.0,))
        state = montecarlo.run_str_baseline(cfg, n_frames=8, injected_epsilon=injected)
        chain, (rx,) = _Chain(cfg), streams
        L, pad = chain.L, 4 * chain.L
        window = np.arange(L * (chain.pn.chips.size - 1) + 1 + 2 * pad) - pad
        assert len(traces) == len(state.error_history) > 1
        correction = 0.0
        for i, (trace, err) in enumerate(zip(traces, state.error_history)):
            z, off = explicit_delay(rx, injected * L + correction)
            ref = correlate_pn(z[chain.origin + i * chain.F * L + off + window], chain.pn, L)
            assert np.max(np.abs(trace.r - ref.r)) <= 1e-12 * np.max(ref.r)
            correction -= state.loop_gain * err


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
