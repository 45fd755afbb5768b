"""Frame construction: PN guards, Gray-mapped QAM, and transmit shaping.

A frame is a PN guard interval (one or two copies of the same sequence)
followed by a time-domain OFDM block, all at symbol rate.  The shaped
transmit stream is the zero-stuffed, SRRC-filtered concatenation of
frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsp import SignalBuffer, apply_fir, upsample

__all__ = [
    "Constellation",
    "FrameConfig",
    "PnSequence",
    "TdsFrame",
    "build_frame",
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

    @property
    def period(self) -> int:
        return 2 ** (self.poly.bit_length() - 1) - 1


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
        raise ValueError(f"polynomial 0x{poly:x} has degree < 2")
    if not 0 < seed < 2**degree:
        raise ValueError(f"seed must be a nonzero {degree}-bit state, got {seed}")
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
        return int(round(math.sqrt(self.order)))


_MODULATION_ORDERS = {"bpsk": 2, "qam16": 16, "qam64": 64, "qam256": 256}


def make_constellation(name: str) -> Constellation:
    """Build one of the supported constellations: bpsk, qam16/64/256."""
    key = name.lower()
    if key not in _MODULATION_ORDERS:
        raise ValueError(f"unknown modulation {name!r}")
    order = _MODULATION_ORDERS[key]
    if order == 2:
        # bit 0 -> +1, bit 1 -> -1 on the real axis
        points = np.array([1.0 + 0.0j, -1.0 + 0.0j])
        return Constellation(name=key, order=2, points=points)
    kappa = int(round(math.sqrt(order)))
    axis_bits = int(round(math.log2(kappa)))
    scale = math.sqrt(2.0 * (order - 1) / 3.0)
    points = np.empty(order, dtype=np.complex128)
    for label in range(order):
        i_label = label >> axis_bits
        q_label = label & (kappa - 1)
        pi = _gray_decode(i_label)
        pq = _gray_decode(q_label)
        points[label] = complex(2 * pi - (kappa - 1), 2 * pq - (kappa - 1)) / scale
    return Constellation(name=key, order=order, points=points)


def detect_labels(symbols: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Hard decisions: index of the nearest constellation point.

    Exact ties (a symbol equidistant from several points) resolve to the
    lowest label index, which argmin over the label-ordered table gives
    for free.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    points = constellation.points
    out = np.empty(symbols.size, dtype=np.int64)
    chunk = 1 << 14
    for lo in range(0, symbols.size, chunk):
        part = symbols[lo : lo + chunk]
        d2 = np.abs(part[:, None] - points[None, :]) ** 2
        out[lo : lo + chunk] = np.argmin(d2, axis=1)
    return out


@dataclass(frozen=True)
class FrameConfig:
    """Geometry and modulation of one transmitted frame."""

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
        if self.n_fft < 2 or (self.n_fft & (self.n_fft - 1)):
            raise ValueError(f"n_fft must be a power of two, got {self.n_fft}")
        if self.pn_len < 16:
            raise ValueError("guard PN length must be at least 16")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"roll-off must be in (0, 1], got {self.alpha}")
        if self.n_upsam < 2:
            raise ValueError("upsampling factor must be >= 2")
        if self.modulation.lower() not in _MODULATION_ORDERS:
            raise ValueError(f"unknown modulation {self.modulation!r}")

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

    def make_pn(self) -> PnSequence:
        return generate_pn(self.pn_len, self.pn_poly, self.pn_seed)

    def constellation(self) -> Constellation:
        return make_constellation(self.modulation)


@dataclass(frozen=True)
class TdsFrame:
    """Guard followed by the time-domain OFDM block, at symbol rate."""

    guard: np.ndarray
    body: np.ndarray

    @property
    def samples(self) -> np.ndarray:
        return np.concatenate([self.guard, self.body])

    def __len__(self) -> int:
        return self.guard.size + self.body.size


def build_frame(
    data_syms: np.ndarray, pn: PnSequence, cfg: FrameConfig
) -> TdsFrame:
    """Assemble guard + IDFT body for one frame."""
    data_syms = np.asarray(data_syms, dtype=np.complex128)
    if data_syms.size != cfg.n_fft:
        raise ValueError(
            f"expected {cfg.n_fft} data symbols, got {data_syms.size}"
        )
    if pn.chips.size != cfg.pn_len:
        raise ValueError(
            f"PN length {pn.chips.size} does not match config {cfg.pn_len}"
        )
    body = np.fft.ifft(data_syms)
    one_guard = cfg.guard_amplitude * pn.chips
    guard = np.tile(one_guard, 2) if cfg.dual_pn else one_guard
    return TdsFrame(guard=guard.astype(np.complex128), body=body)


def shape_symbols(symbols: np.ndarray, n_upsam: int, taps: np.ndarray) -> SignalBuffer:
    """Zero-stuff a symbol sequence and shape it with the given FIR taps."""
    buf = SignalBuffer(np.asarray(symbols, dtype=np.complex128))
    return apply_fir(upsample(buf, n_upsam), taps)

