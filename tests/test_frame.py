"""Tests for PN generation, QAM mapping, and frame assembly."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tdslink.config import ScenarioConfig
from tdslink.frame import (
    FrameConfig,
    build_frames,
    detect_labels,
    generate_pn,
    make_constellation,
)
from tdslink.montecarlo import _Chain


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


def _nearest_label(symbol: complex, points: np.ndarray) -> int:
    """Brute-force reference decision: the lowest label among the points
    nearest to ``symbol``, with distances in exact rational arithmetic on
    the floating-point values so that ties are exact."""
    x, y = Fraction(symbol.real), Fraction(symbol.imag)
    d2 = [(x - Fraction(p.real)) ** 2 + (y - Fraction(p.imag)) ** 2 for p in points]
    return d2.index(min(d2))


def _searchsorted_labels(symbols: np.ndarray, const) -> np.ndarray:
    """The slicer the arithmetic one replaced, kept as a reference: a
    binary search of twice each coordinate in the rounded sums of adjacent
    levels, ties settled by the exact sum; BPSK is the sign test."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    if const.order == 2:
        return (symbols.real < 0).astype(np.int64)
    kappa = const.levels_per_axis
    code = np.arange(kappa) ^ (np.arange(kappa) >> 1)
    axis_bits = const.bits_per_symbol // 2
    lev = const.points[code << axis_bits].real
    sums = np.append(lev[:-1] + lev[1:], np.inf)
    up = np.zeros(kappa, dtype=bool)
    for p in range(kappa - 1):
        rest = Fraction(lev[p]) + Fraction(lev[p + 1]) - Fraction(sums[p])
        up[p] = rest < 0 or (rest == 0 and code[p + 1] < code[p])

    def axis(x):
        x2 = 2.0 * x
        level = np.searchsorted(sums, x2)
        level += (sums[level] == x2) & up[level]
        return code[level]

    return (axis(symbols.real) << axis_bits) | axis(symbols.imag)


def _slicer_edges(const) -> list[float]:
    """Every axis midpoint (half the rounded sum of adjacent levels) and
    the floats on either side of it, plus +-inf and +-1e300."""
    lev = np.unique(const.points.real)
    mids = (lev[:-1] + lev[1:]) / 2
    edges = [float(x) for m in mids
             for x in (np.nextafter(m, -np.inf), m, np.nextafter(m, np.inf))]
    return edges + [np.inf, -np.inf, 1e300, -1e300]


def _complex_grid(re, im) -> np.ndarray:
    # built part by part: complex arithmetic would turn inf into nan
    z = np.empty((len(re), len(im)), dtype=np.complex128)
    z.real = np.asarray(re)[:, None]
    z.imag = np.asarray(im)[None, :]
    return z


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

    @pytest.mark.parametrize("name", ["bpsk", "qam16", "qam64", "qam256"])
    def test_one_read_only_table_per_modulation(self, name):
        const = make_constellation(name)
        assert make_constellation(name.upper()) is const
        with pytest.raises(ValueError, match="read-only"):
            const.points[0] = 0

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

    @pytest.mark.parametrize("name", ["bpsk", "qam16", "qam64", "qam256"])
    def test_levels_per_axis_counts_the_axis_levels(self, name):
        const = make_constellation(name)
        assert const.levels_per_axis == np.unique(const.points.real).size

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

    @pytest.mark.parametrize(
        "name, direction",
        [("bpsk", "horizontal")]
        + [(n, d) for n in ("qam16", "qam64", "qam256") for d in ("horizontal", "vertical")],
    )
    def test_midpoint_tie_goes_to_lower_label(self, name, direction):
        const = make_constellation(name)
        pts = const.points
        # neighbours straddling zero along the direction: exact midpoints
        along, across = pts.real, pts.imag
        if direction == "vertical":
            along, across = across, along
        inner = np.min(np.abs(along))
        pairs = [(i, j) for i in np.flatnonzero(along == -inner)
                 for j in np.flatnonzero(along == inner) if across[i] == across[j]]
        assert len(pairs) == (1 if name == "bpsk" else const.levels_per_axis)
        mids = np.array([(pts[i] + pts[j]) / 2 for i, j in pairs])
        assert np.array_equal(detect_labels(mids, const), [min(i, j) for i, j in pairs])

    @pytest.mark.parametrize("name", ["bpsk", "qam16", "qam64", "qam256"])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_slicing_matches_brute_force_nearest_point(self, name, data):
        const = make_constellation(name)
        lev = np.unique(const.points.real)
        k = lev.size
        midpoint = st.integers(0, k - 2).map(lambda p: (lev[p] + lev[p + 1]) / 2)
        beyond = st.floats(0.0, 2.0)  # distance past the outermost level
        coordinate = st.one_of(
            st.integers(0, k - 1).map(lambda p: lev[p]),
            midpoint,
            beyond.map(lambda t: lev[-1] + t),
            beyond.map(lambda t: lev[0] - t),
            st.floats(lev[0] - 0.1, lev[-1] + 0.1),
        )
        syms = [data.draw(st.builds(complex, midpoint, midpoint))]
        syms += data.draw(st.lists(st.builds(complex, coordinate, coordinate),
                                   min_size=1, max_size=8))
        expected = [_nearest_label(s, const.points) for s in syms]
        assert detect_labels(np.array(syms), const).tolist() == expected

    @pytest.mark.parametrize("name", ["bpsk", "qam16", "qam64", "qam256"])
    def test_arithmetic_slicer_matches_searchsorted_at_every_edge(self, name):
        const = make_constellation(name)
        edges = _slicer_edges(const)
        grid = _complex_grid(edges, edges)
        with np.errstate(over="ignore"):
            assert np.array_equal(detect_labels(grid, const),
                                  _searchsorted_labels(grid, const))

    @pytest.mark.parametrize("name", ["bpsk", "qam16", "qam64", "qam256"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_slicer_matches_searchsorted(self, name, data):
        const = make_constellation(name)
        lev = np.unique(const.points.real)
        coordinate = st.one_of(
            st.sampled_from(_slicer_edges(const)),
            st.floats(lev[0] - 1.0, lev[-1] + 1.0),
            st.floats(allow_nan=False),
        )
        pairs = data.draw(st.lists(st.tuples(coordinate, coordinate),
                                   min_size=1, max_size=32))
        syms = np.array([complex(x, y) for x, y in pairs])
        with np.errstate(over="ignore"):
            assert np.array_equal(detect_labels(syms, const),
                                  _searchsorted_labels(syms, const))

    @pytest.mark.parametrize("name", ["bpsk", "qam16", "qam64", "qam256"])
    def test_nan_is_rejected(self, name):
        const = make_constellation(name)
        bad = [complex(np.nan, 0.0)]
        if name != "bpsk":  # BPSK decides on the real part alone
            bad += [complex(0.0, np.nan)]
        for z in bad:
            with pytest.raises(ValueError, match="not finite"):
                detect_labels(np.array([const.points[0], z]), const)

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
        data = np.ones((3, 8), dtype=complex)
        data[1] *= -2.0
        frames = build_frames(data, cfg.pn, cfg)
        assert frames.shape == (3, 16 + 8)
        expected = np.zeros((3, 8), dtype=complex)
        expected[:, 0] = [1.0, -2.0, 1.0]
        assert np.allclose(frames[:, 16:], expected, atol=1e-14)
        guard = cfg.guard_amplitude * cfg.pn.chips
        assert all(np.array_equal(row[:16], guard) for row in frames)

    def test_dual_pn_length(self):
        cfg = FrameConfig(n_fft=64, pn_len=16, dual_pn=True, modulation="bpsk")
        frames = build_frames(np.ones((2, 64), dtype=complex), cfg.pn, cfg)
        assert frames.shape == (2, 64 + 2 * 16)
        assert np.array_equal(frames[:, :16], frames[:, 16:32])
        assert np.array_equal(frames[0, :32], frames[1, :32])

    def test_frame_energy_identity(self):
        cfg = self._cfg(n_fft=64)
        rng = np.random.default_rng(1)
        data = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        frames = build_frames(data, cfg.pn, cfg)
        guard_energy = np.sum(np.abs(frames[:, : cfg.guard_len]) ** 2, axis=1)
        expected = guard_energy + np.sum(np.abs(data) ** 2, axis=1) / 64
        energy = np.sum(np.abs(frames) ** 2, axis=1)
        assert energy == pytest.approx(expected, rel=1e-12)

    def test_rejects_length_mismatch(self):
        cfg = self._cfg()
        for shape in [(2, 4), (2, 16), (8,), (2, 2, 8)]:  # wrong rows; not 2-D
            with pytest.raises(ValueError, match="rows of 8 data symbols"):
                build_frames(np.ones(shape, dtype=complex), cfg.pn, cfg)

    @given(n_fft=st.sampled_from([8, 64, 1024]), dual_pn=st.booleans(),
           rows=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_block_is_rows_built_one_at_a_time(self, n_fft, dual_pn, rows, seed):
        cfg = self._cfg(n_fft=n_fft, dual_pn=dual_pn)
        rng = np.random.default_rng(seed)
        shape = (rows, n_fft)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        block = build_frames(data, cfg.pn, cfg)
        stacked = np.concatenate([build_frames(d[None], cfg.pn, cfg) for d in data])
        assert block.shape == (rows, cfg.frame_len)
        assert block.tobytes() == stacked.tobytes()

    def test_rejects_non_power_of_two_fft(self):
        for n_fft in (12, 7):
            with pytest.raises(ValueError, match="power of two"):
                FrameConfig(n_fft=n_fft)

    def test_guard_amplitude_default_balances_power(self):
        cfg = FrameConfig(n_fft=256, pn_len=32)
        assert cfg.guard_amplitude == pytest.approx(1 / 16)


class TestTransmitChain:
    def test_out_of_band_power_suppressed(self):
        cfg = FrameConfig(n_fft=4096, pn_len=512, dual_pn=False, modulation="qam16")
        chain = _Chain(ScenarioConfig(frame=cfg, srrc_span=16))
        rng = np.random.default_rng(2)
        const = cfg.constellation()
        data = const.points[rng.integers(0, 16, (1, 4096))]
        frame = build_frames(data, cfg.pn, cfg)[0]
        # the whole output: shaped, ideal channel, matched filter
        out = chain.front_end(frame, None, None, [0],
                              (frame.size - 1) * cfg.n_upsam + chain.response.size)[0]
        # oracle: periodogram split at the roll-off edge
        spectrum = np.abs(np.fft.fft(out)) ** 2
        f = np.fft.fftfreq(out.size) * cfg.n_upsam  # cycles per symbol
        edge = 0.5 * (1 + cfg.alpha)
        oob = np.sum(spectrum[np.abs(f) > edge])
        total = np.sum(spectrum)
        assert 10 * np.log10(oob / total) < -35.0
