"""Frame construction: PN guards and Gray-mapped QAM.

A frame is a PN guard interval (one or two copies of the same sequence)
followed by a time-domain OFDM block, all at symbol rate.  Frames are
built as one (rows, frame_len) block, one frame per row; the block read
row after row is the symbol stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

__all__ = [
    "Constellation",
    "FrameConfig",
    "PnSequence",
    "build_frames",
    "detect_labels",
    "generate_pn",
    "make_constellation",
]

# Primitive polynomials (coefficient masks, x^d .. x^0) for the default
# maximal-length generators, degree 3..11.
PRIMITIVE_POLYS = {
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
}


@dataclass(frozen=True)
class PnSequence:
    """Bipolar (+/-1) pseudo-noise chips and the generator that made them."""

    chips: np.ndarray
    poly: int
    seed: int


def default_pn_poly(length: int) -> int:
    """Generator polynomial whose period best matches ``length``.

    Power-of-two guard lengths get the one-short maximal sequence plus a
    single chip of cyclic extension (512 -> degree 9), mirroring common
    broadcast practice; anything else rounds to the nearest degree.
    """
    degree = min(max(round(math.log2(max(length, 8))), 3), 11)
    return PRIMITIVE_POLYS[degree]


def generate_pn(length: int, poly: int | None = None, seed: int = 1) -> PnSequence:
    """Maximal-length sequence from a Galois LFSR, bipolar, length chips.

    Deterministic in (poly, seed).  When ``length`` exceeds the sequence
    period the output continues cyclically.  Bit 0 maps to +1, bit 1
    to -1.
    """
    if length < 1:
        raise ValueError("PN length must be positive")
    if poly is None:
        poly = default_pn_poly(length)
    degree = poly.bit_length() - 1
    if degree < 2:
        raise ValueError(f"PN polynomial 0x{poly:x} has degree < 2")
    if not 0 < seed < 2**degree:
        raise ValueError(f"PN seed must be a nonzero {degree}-bit state, got {seed}")
    taps = poly >> 1
    state = seed
    chips = np.empty(length)
    for i in range(length):
        bit = state & 1
        chips[i] = 1.0 - 2.0 * bit
        state >>= 1
        if bit:
            state ^= taps
    return PnSequence(chips=chips, poly=poly, seed=seed)


def _gray_decode(g: int) -> int:
    b = 0
    while g:
        b ^= g
        g >>= 1
    return b


@dataclass(frozen=True)
class Constellation:
    """Unit-average-energy constellation indexed by its bit labels.

    ``points[label]`` is the symbol whose label integer (MSB-first bits)
    is ``label``.  Square QAM splits the label into an in-phase half
    followed by a quadrature half, each Gray-coded along its axis, so
    nearest neighbors along either axis differ in exactly one bit.
    """

    name: str
    order: int
    points: np.ndarray

    @property
    def bits_per_symbol(self) -> int:
        return int(round(math.log2(self.order)))

    @property
    def levels_per_axis(self) -> int:
        return _LEVELS[self.order]

    @cached_property
    def _axis_bounds(self) -> np.ndarray:
        """Per-axis decision table of a square QAM constellation: a
        coordinate decides a level above ``p`` exactly when it exceeds
        ``bound[p]``.

        ``bound[p]`` is the largest float whose nearest level is ``p`` or
        below: the exact midpoint of levels ``p`` and ``p + 1`` rounded
        down, or one float below it when the midpoint is a float and
        level ``p + 1`` has the lower Gray axis label.  A +inf sentinel
        ends the table.
        """
        kappa = self.levels_per_axis
        code = np.arange(kappa) ^ (np.arange(kappa) >> 1)
        axis_bits = self.bits_per_symbol // 2
        lev = self.points[code << axis_bits].real  # in-phase level values
        bound = np.full(kappa, np.inf)
        for p in range(kappa - 1):
            mid = (Fraction(lev[p]) + Fraction(lev[p + 1])) / 2
            b = float(mid)
            if Fraction(b) > mid or (Fraction(b) == mid and code[p + 1] < code[p]):
                b = np.nextafter(b, -np.inf)
            bound[p] = b
        return bound


_MODULATION_ORDERS = {"bpsk": 2, "qam16": 16, "qam64": 64, "qam256": 256}
# PAM levels per quadrature axis: BPSK is 2-level PAM, square M-QAM sqrt(M)
_LEVELS = {2: 2, 16: 4, 64: 8, 256: 16}


def make_constellation(name: str) -> Constellation:
    """One of the supported constellations: bpsk, qam16/64/256.  Each is
    built once per process and shared, its ``points`` read-only."""
    key = name.lower()
    if key not in _MODULATION_ORDERS:
        raise ValueError(f"unknown modulation {name!r}")
    return _constellation(key)


def _axis_scale(order: int) -> float:
    """The divisor that gives square QAM unit average energy: level p of
    an axis sits at (2p - (sqrt(order) - 1)) / scale."""
    return math.sqrt(2.0 * (order - 1) / 3.0)


@cache
def _constellation(key: str) -> Constellation:
    order = _MODULATION_ORDERS[key]
    if order == 2:
        # bit 0 -> +1, bit 1 -> -1 on the real axis
        points = np.array([1.0 + 0.0j, -1.0 + 0.0j])
        points.flags.writeable = False
        return Constellation(name=key, order=2, points=points)
    kappa = _LEVELS[order]
    axis_bits = int(round(math.log2(kappa)))
    scale = _axis_scale(order)
    points = np.empty(order, dtype=np.complex128)
    for label in range(order):
        i_label = label >> axis_bits
        q_label = label & (kappa - 1)
        pi = _gray_decode(i_label)
        pq = _gray_decode(q_label)
        points[label] = complex(2 * pi - (kappa - 1), 2 * pq - (kappa - 1)) / scale
    points.flags.writeable = False
    return Constellation(name=key, order=order, points=points)


def detect_labels(symbols: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Hard decisions: label of the nearest constellation point.

    BPSK is a sign test on the real part.  Square QAM is sliced one axis
    at a time: the squared distance splits into an in-phase and a
    quadrature term, so the nearest point pairs the nearest Gray PAM
    level of each axis.  Each axis level is first estimated by
    arithmetic, at most one below the exact level, then made exact by
    one comparison with the midpoint table.  Decisions are exact for the
    floating-point input (+-inf goes to the outer levels); a symbol
    exactly equidistant from several points goes to the lowest label,
    i.e. the lower axis label on each tied axis.  NaN raises ValueError.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    if constellation.order == 2:
        if np.isnan(np.max(symbols.real, initial=0.0)):
            raise ValueError("cannot slice symbols that are not finite: NaN found")
        return (symbols.real < 0).astype(np.int64)
    kappa = constellation.levels_per_axis
    bound = constellation._axis_bounds
    half_scale = _axis_scale(constellation.order) / 2

    def axis(x: np.ndarray) -> np.ndarray:
        # level p sits where x * scale / 2 + (kappa - 1) / 2 = p, so the
        # exact level is that position rounded and clipped; the position
        # clipped and truncated is the exact level or one below, with half
        # a level of margin for rounding error on either side
        est = x * half_scale
        est += (kappa - 1) / 2
        np.clip(est, 0, kappa - 1, out=est)
        if np.isnan(est.sum()):
            raise ValueError("cannot slice symbols that are not finite: NaN found")
        level = est.astype(np.intp)
        level += bound.take(level, out=est, mode="clip") < x  # clip: no copy
        del est  # released before the Gray step allocates
        level ^= level >> 1  # Gray axis label
        return level

    flat = symbols.reshape(-1)
    labels = axis(flat.real)
    labels <<= constellation.bits_per_symbol // 2
    labels |= axis(flat.imag)
    return labels.reshape(symbols.shape)


@dataclass(frozen=True)
class FrameConfig:
    """Geometry and modulation of one transmitted frame; ``pn``, the
    guard sequence, is built from it and checked with it."""

    n_fft: int = 1024
    pn_len: int = 128
    dual_pn: bool = True
    modulation: str = "qam16"
    n_upsam: int = 4
    alpha: float = 0.05
    pn_poly: int | None = None
    pn_seed: int = 1
    pn_amplitude: float | None = None

    def __post_init__(self):
        # each message names its field first: "field: problem"
        if self.n_fft < 2 or (self.n_fft & (self.n_fft - 1)):
            raise ValueError(f"n_fft: must be a power of two, got {self.n_fft}")
        if self.pn_len < 16:
            raise ValueError(f"pn_len: guard PN length must be at least 16, got {self.pn_len}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha: roll-off must be in (0, 1], got {self.alpha}")
        if self.n_upsam < 2:
            raise ValueError(f"n_upsam: upsampling factor must be >= 2, got {self.n_upsam}")
        if self.modulation.lower() not in _MODULATION_ORDERS:
            raise ValueError(f"modulation: unknown modulation {self.modulation!r}")
        if self.pn_amplitude is not None and not self.pn_amplitude > 0:
            raise ValueError(f"pn_amplitude: must be positive, got {self.pn_amplitude}")
        try:
            pn = generate_pn(self.pn_len, self.pn_poly, self.pn_seed)
        except ValueError as exc:  # the seed must fit the generator's degree
            raise ValueError(f"pn_poly, pn_seed: {exc}") from exc
        object.__setattr__(self, "pn", pn)

    @property
    def guard_len(self) -> int:
        return self.pn_len * (2 if self.dual_pn else 1)

    @property
    def frame_len(self) -> int:
        return self.n_fft + self.guard_len

    @property
    def guard_amplitude(self) -> float:
        """Guard chip amplitude; default equalizes guard and body power.

        The body is a plain inverse DFT of unit-average-energy symbols,
        so its per-sample power is 1/n_fft; matching that keeps the two
        frame segments at equal average power per sample.
        """
        if self.pn_amplitude is not None:
            return self.pn_amplitude
        return 1.0 / math.sqrt(self.n_fft)

    def constellation(self) -> Constellation:
        return make_constellation(self.modulation)


def build_frames(data_rows: np.ndarray, pn: PnSequence, cfg: FrameConfig) -> np.ndarray:
    """A (rows, frame_len) block, one frame per row of ``n_fft`` data
    symbols: the guard, then the IDFT of the row.  All-zero rows give the
    guards alone."""
    data_rows = np.asarray(data_rows, dtype=np.complex128)
    if data_rows.ndim != 2 or data_rows.shape[1] != cfg.n_fft:
        raise ValueError(
            f"expected rows of {cfg.n_fft} data symbols, got shape {data_rows.shape}"
        )
    if pn.chips.size != cfg.pn_len:
        raise ValueError(
            f"PN length {pn.chips.size} does not match config {cfg.pn_len}"
        )
    frames = np.empty((data_rows.shape[0], cfg.frame_len), dtype=np.complex128)
    guard = cfg.guard_amplitude * pn.chips
    frames[:, : cfg.guard_len] = np.tile(guard, 2) if cfg.dual_pn else guard
    frames[:, cfg.guard_len :] = np.fft.ifft(data_rows, axis=1)
    return frames
