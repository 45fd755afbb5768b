"""Tests for the Monte-Carlo engine and analytic curve runners."""

import copy
import dataclasses
import inspect
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from tdslink import montecarlo, str_sync
from tdslink.analysis import PhaseGrid, default_phase_grid
from tdslink.channel import (
    AWGN_PROFILE,
    ChannelProfile,
    apply_channel,
    awgn_response,
    load_profile,
)
from tdslink.config import McConfig, ScenarioConfig
from scipy.signal import fftconvolve

from tdslink.dsp import _interp_taps, convolve, qfunc
from tdslink.frame import FrameConfig, build_frames
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

    def test_block_shorter_than_the_response(self):
        # 32 symbols under one 128-chip guard: the phase's response is longer
        # than the block and wraps onto it, and a burst at a budget where
        # theory expects ~380 axis errors reads the per-axis theory
        cfg = _cfg(frame=FrameConfig(n_fft=32, pn_len=128, dual_pn=False),
                   srrc_span=32,
                   mc=McConfig(min_bits=40_000, min_errors=150, max_frames=4000))
        assert measure_chain_response(cfg, 0.25).shape == (32,)
        t = run_theory(cfg).points[0]
        m = run_mc_ber(cfg).points[0]
        assert t.ser * m.axes >= 100
        sigma = np.sqrt(t.ser * (1 - t.ser) / m.axes)
        assert abs(m.ser - t.ser) < 3 * sigma


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


def whole_front_end(chain, symbols, ebn0_db=None, rng=None):
    """The front end's output on ``symbols`` as one window over all of it."""
    width = (symbols.size - 1) * chain.L + chain.response.size
    return chain.front_end(symbols, ebn0_db, rng, [0], width)[0]


_front_end_profiles = [
    (ChannelProfile(delays=[0.0, 0.8, 3.25], gains=[1.0, 0.4j, -0.3]), 4),
    (ChannelProfile(delays=[0.3, 5.5], gains=[1.0, 0.5]), 2),
    (AWGN_PROFILE, 4),
]


class TestFrontEnd:
    @pytest.mark.parametrize("profile, n_upsam", _front_end_profiles)
    @pytest.mark.parametrize("ebn0_db", [None, 10.0])
    def test_cached_response_equals_explicit_path(self, profile, n_upsam, ebn0_db):
        chain = _Chain(_cfg(channel=profile,
                            frame=FrameConfig(n_fft=128, pn_len=32, n_upsam=n_upsam)))
        stream = chain.draw_frames(np.random.default_rng(2), 3).ravel()
        fast = whole_front_end(chain, stream, ebn0_db, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        ref, origin = explicit_front_end(chain, stream, ebn0_db, rng)
        assert (chain.origin, fast.size) == (origin, ref.size)
        assert np.max(np.abs(fast - ref)) <= 1e-12 * np.max(np.abs(ref))

    @given(case=st.sampled_from(_front_end_profiles), noisy=st.booleans(),
           width=st.integers(1, 700),
           starts=st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_windows_equal_explicit_path(self, case, noisy, width, starts):
        # windows anywhere, hanging over either end of the output or past
        # it altogether, read as the explicit path's output zero-extended
        profile, n_upsam = case
        chain = _Chain(_cfg(channel=profile,
                            frame=FrameConfig(n_fft=128, pn_len=32, n_upsam=n_upsam)))
        stream = chain.draw_frames(np.random.default_rng(2), 2).ravel()
        ebn0_db = 10.0 if noisy else None
        ref, _ = explicit_front_end(chain, stream, ebn0_db, np.random.default_rng(3))
        starts = [round(f * ref.size) - width // 2 for f in starts]
        got = chain.front_end(stream, ebn0_db, np.random.default_rng(3), starts, width)
        pad = ref.size + width
        ext = np.pad(ref, pad)
        expected = np.array([ext[pad + s : pad + s + width] for s in starts])
        assert got.shape == (len(starts), width)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(ref))


@pytest.fixture(scope="module")
def noisy_front_end():
    cfg = _cfg(channel=ChannelProfile(delays=[0.0, 0.8], gains=[1.0, 0.4j]))
    chain = _Chain(cfg)
    rng = np.random.default_rng(3)
    frames = chain.draw_frames(rng, 3)
    return chain, whole_front_end(chain, frames.ravel(), 10.0, rng)


def _readable(chain, z, off):
    """First and last symbol index whose sample the delayed buffer ``z``
    (``z[n]`` at index ``n + off``) holds."""
    lo = -((chain.origin + off) // chain.L)
    return lo, lo + (z.size - 1 - (chain.origin + off + lo * chain.L)) // chain.L


class TestConvolveCalls:
    def test_every_call_equals_fftconvolve(self, monkeypatch):
        # the unit-symbol response, the front end's signal and noise rows
        # and the timing loop's correlation, on the benchmark's frame geometry,
        # give scipy's numbers bit for bit
        calls = []

        def spy(a, b, mode="full"):
            calls.append((a, b, mode))
            return convolve(a, b, mode)

        monkeypatch.setattr(montecarlo, "convolve", spy)
        monkeypatch.setattr(str_sync, "convolve", spy)
        chain = _Chain(_cfg(channel=_front_end_profiles[0][0],
                            frame=FrameConfig(n_fft=1024, pn_len=128)))
        montecarlo._pn_estimated_responses(chain, default_phase_grid(8))
        montecarlo._str_baseline(chain, 0.0, 8, 0.5)
        assert {(a.ndim, mode) for a, _, mode in calls} == {
            (1, "full"), (2, "full"), (2, "valid"), (1, "valid")}
        for a, b, mode in calls:
            assert np.array_equal(convolve(a, b, mode), fftconvolve(a, b, mode, axes=-1))


class TestPhaseSampling:
    @given(st.integers(min_value=-64, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_one_symbol_later_is_one_index_later(self, noisy_front_end, k):
        chain, rx = noisy_front_end
        eps = k / 128  # dyadic, so eps * L and (eps + 1) * L are exact
        # every symbol instant of the buffer, and a few past both of its ends
        L = chain.L
        at = chain.origin + L * np.arange(-(chain.origin // L) - 2, rx.size // L + 2)
        assert np.array_equal(chain.sample(rx, eps + 1, at), chain.sample(rx, eps, at + L))

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
        got = chain.sample(rx, eps, chain.origin + at * chain.L)
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
        ring = chain.draw_frames(rng, n_frames).ravel()
        g = chain.symbol_response(eps)
        # the ring repeated past the response's support on both sides, sent
        # through the explicit oversampled path and sampled in full
        ext = g.size
        rx, origin = explicit_front_end(chain, np.pad(ring, ext, mode="wrap"))
        z, off = explicit_delay(rx, -eps * chain.L)
        full = z[origin + off + ext * chain.L :: chain.L][: ring.size]
        fast = np.fft.ifft(np.fft.fft(ring) * chain.ring_response(g, ring.size))
        assert np.max(np.abs(fast - full)) <= 1e-12 * np.max(np.abs(full))


def folded_ring_burst(chain, labels, epsilon):
    """The demodulator blocks of a noiseless burst written out in the time
    domain: the frames as a ring, circularly convolved with ``g_eps``,
    minus the guards-only ring; then each body with the whole support of
    ``g_eps`` on either side of it folded back onto it, and its DFT."""
    g = chain.symbol_response(epsilon)
    c, (B, N), G, F = g.size // 2, labels.shape, chain.G, chain.F

    def ring(frames):
        x = frames.ravel()
        return np.convolve(np.pad(x, c, mode="wrap"), g, mode="valid")

    frame_cfg = chain.cfg.frame
    data = (ring(build_frames(chain.const.points[labels], chain.pn, frame_cfg))
            - ring(build_frames(np.zeros((B, N)), chain.pn, frame_cfg)))
    # symbols -c .. N + c - 1 of each body, counted from its first symbol
    lags = np.arange(-c, N + c)
    reach = data[(F * np.arange(B)[:, None] + G + lags) % data.size]
    body = np.zeros((B, N), dtype=complex)
    np.add.at(body.T, lags % N, reach.T)
    return np.fft.fft(body, axis=1)


def burst_spectrum(chain, seed_key, H, n_frames):
    """The noiseless demodulator blocks of one known-equaliser burst, as
    :func:`montecarlo._simulate_burst` computes them: an infinite Eb/N0
    draws zero noise, and a unit equaliser hands them to the slicer."""
    seen = []

    def record(z, const):
        seen.append(z)
        return np.zeros(z.shape, dtype=np.int64)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, "detect_labels", record)
        montecarlo._simulate_burst(chain, seed_key, H, math.inf, np.ones(chain.N),
                                   None, n_frames)
    return seen[0]


_PROFILES = Path(__file__).resolve().parent.parent / "configs" / "profiles"


class TestBurstSpectrum:
    @given(channel=st.sampled_from(["awgn", "threeray", "longecho"]),
           eps=st.floats(-0.5, 0.5), n_frames=st.integers(1, 4),
           n_upsam=st.sampled_from([2, 4]), span=st.sampled_from([8, 16]),
           seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_equals_the_folded_ring(self, channel, eps, n_frames, n_upsam, span, seed):
        # Y = X H_chain is the folded ring whenever the guard holds the
        # response's support on both sides of a body
        profile = (AWGN_PROFILE if channel == "awgn"
                   else load_profile(_PROFILES / f"{channel}.txt"))
        chain = _Chain(_cfg(channel=profile, srrc_span=span,
                            frame=FrameConfig(n_fft=128, pn_len=64, n_upsam=n_upsam)))
        assume(chain.G >= chain.symbol_response(eps).size - 1)
        seed_key = [seed, 0, 0, 0]
        labels = chain.draw_labels(np.random.default_rng(np.random.SeedSequence(seed_key)),
                                   n_frames)
        Y = burst_spectrum(chain, seed_key, chain.chain_response(eps), n_frames)
        ref = folded_ring_burst(chain, labels, eps)
        assert np.max(np.abs(Y - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("modulation", ["bpsk", "qam16", "qam64", "qam256"])
@pytest.mark.parametrize("n_frames", [1, 2, 3, 4])
def test_draw_labels_is_the_bounded_integer_bit_fold(modulation, n_frames):
    # draw_labels reads numpy's bounded-integer bits straight from the raw
    # stream; a numpy whose stream differs fails here before any seeded
    # count moves
    chain = _Chain(_cfg(frame=FrameConfig(n_fft=256, pn_len=64, modulation=modulation)))
    k, N = chain.k, chain.N
    seed_key = [7, 0, n_frames, 0]
    drawn = np.random.default_rng(np.random.SeedSequence(seed_key))
    ref = np.random.default_rng(np.random.SeedSequence(seed_key))
    labels = chain.draw_labels(drawn, n_frames)
    bits = ref.integers(0, 2, size=(n_frames, N * k), dtype=np.int64)
    expected = bits.reshape(n_frames, N, k) @ (1 << np.arange(k - 1, -1, -1, dtype=np.int64))
    assert labels.dtype == np.intp
    assert np.array_equal(labels, expected)
    # the noise draw that follows sees the same generator state
    assert np.array_equal(drawn.standard_normal(64), ref.standard_normal(64))


def test_burst_keeps_its_n_frames_parameter():
    # perfbench/tracer.py counts the frames of each burst by reading the
    # argument named n_frames; renaming it makes every traced operation fail
    assert "n_frames" in inspect.signature(montecarlo._simulate_burst).parameters


def _spy_whole_stream(monkeypatch):
    """Record, for every front_end call, the explicit path's whole output
    on the same symbols and noise draw."""
    streams = []
    front_end = _Chain.front_end

    def spy(self, symbols, ebn0_db, rng, starts, width):
        streams.append(explicit_front_end(self, symbols, ebn0_db, copy.deepcopy(rng))[0])
        return front_end(self, symbols, ebn0_db, rng, starts, width)

    monkeypatch.setattr(_Chain, "front_end", spy)
    return streams


class TestTimingLoopWindows:
    @pytest.mark.parametrize("injected", [0.0, 0.3, -0.45])
    def test_window_is_the_delayed_stream(self, monkeypatch, injected):
        # every correlation the loop forms is correlate_pn of its frame's
        # window, read from the whole stream delayed by the injected phase
        # plus the loop's correction at that frame
        streams, traces = _spy_whole_stream(monkeypatch), []
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

    @pytest.mark.parametrize("sign", [1, -1])
    def test_delay_past_the_margin_ends_tracking_unconverged(self, monkeypatch, sign):
        # the rows hold the drift margin and no more: a delay that rounds
        # to one sample past it ends tracking before any window is read
        reads = []
        monkeypatch.setattr(str_sync, "correlate_pn", lambda *a: reads.append(
            correlate_pn(*a)) or reads[-1])
        cfg = _cfg(ebn0_sweep=(15.0,))
        margin = str_sync._DRIFT_MARGIN * cfg.frame.n_upsam
        inside = montecarlo.run_str_baseline(
            cfg, n_frames=8, injected_epsilon=sign * (margin + 0.4) / cfg.frame.n_upsam)
        assert len(inside.error_history) == len(reads) > 0
        reads.clear()
        past = montecarlo.run_str_baseline(
            cfg, n_frames=8, injected_epsilon=sign * (margin + 0.6) / cfg.frame.n_upsam)
        assert (past.converged, past.error_history, reads) == (False, [], [])


class TestPnWindows:
    @pytest.mark.parametrize("profile, n_upsam", _front_end_profiles)
    def test_windows_equal_full_stream_samples(self, monkeypatch, profile, n_upsam):
        # each phase's guard windows, sampled from the rows, equal the
        # whole stream sampled at the inner frames' estimation windows
        streams = _spy_whole_stream(monkeypatch)
        windows = []
        monkeypatch.setattr(montecarlo, "estimate_response_from_pn",
                            lambda w, *a, **kw: windows.append(w))
        chain = _Chain(_cfg(channel=profile,
                            frame=FrameConfig(n_fft=128, pn_len=32, n_upsam=n_upsam)))
        grid = PhaseGrid(np.array([-0.5, -0.3, 0.0, 0.2, 0.5]))
        montecarlo._pn_estimated_responses(chain, grid)
        (rx,), B, F = streams, 4, chain.F
        at = chain.estimation_windows(np.arange(B * F).reshape(B, F)[1:-1])
        assert len(windows) == len(grid)
        for eps, got in zip(grid.phases, windows):
            full = chain.sample(rx, eps, chain.origin + at * chain.L)
            assert got.shape == full.shape
            assert np.max(np.abs(got - full)) <= 1e-12 * np.max(np.abs(rx))


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
