"""Transmit chain and observation synthesis: Gray-mapped alphabets, comb-pilot
OFDM frames, secondary preamble framing, and the noisy receive paths.

Two receive paths produce the same frequency-domain samples y from what one
channel realization holds: a direct per-subcarrier model for synchronized
operation, from the composite response (`frequency_domain_rx`), and a full
sample-level path that also injects a secondary symbol timing error. The
sample path comes in two halves: the direct and backscattered streams (IDFT,
cyclic prefix, tap convolutions, tag gating), which no timing error changes
(`sample_level_streams`), and per timing error their sum with the
backscatter delayed, the noise, CP removal and DFT (`sample_level_rx`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from srofdm.channel import ChannelRealization
from srofdm.numerics import ScenarioError

__all__ = [
    "QamAlphabet",
    "PskAlphabet",
    "SystemConfig",
    "default_preamble",
    "modulate_primary",
    "secondary_frame",
    "frequency_domain_rx",
    "sample_level_streams",
    "sample_level_rx",
]

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _gray(x: np.ndarray) -> np.ndarray:
    return x ^ (x >> 1)


@dataclass(frozen=True)
class QamAlphabet:
    """Square QAM with unit average power and independent Gray coding of the
    I and Q rails. Symbol index i = (row * sqrt(M) + col); labels carry the
    Gray bits used for bit-error counting."""

    order: int
    points: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, order: int) -> "QamAlphabet":
        m = math.isqrt(max(order, 0))  # exact for a Python int of any size
        if m * m != order or order < 4 or (order & (order - 1)):
            raise ScenarioError(f"square QAM order must be a power of 4, got {order}")
        levels = 2.0 * np.arange(m) - (m - 1)
        levels /= np.sqrt(2.0 * (order - 1) / 3.0)  # unit average symbol power
        half_bits = m.bit_length() - 1
        rail_labels = _gray(np.arange(m))
        re_idx, im_idx = np.divmod(np.arange(order), m)
        points = levels[re_idx] + 1j * levels[im_idx]
        labels = (rail_labels[re_idx] << half_bits) | rail_labels[im_idx]
        return cls(order=order, points=points, labels=labels.astype(np.int64))

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

    def detect(self, z: np.ndarray) -> np.ndarray:
        """Nearest-point decision; rail slicing, exact for the square grid.
        Each rail is clip(rint((x * scale + m - 1) / 2), 0, m - 1), worked
        in place in one buffer."""
        z = np.asarray(z)
        if z.ndim == 0:  # ufuncs return scalars there, which take no out=
            return self.detect(z[None])[0]
        m = int(round(np.sqrt(self.order)))
        scale = np.sqrt(2.0 * (self.order - 1) / 3.0)
        idx = self._rail(z.real, scale, m)
        idx *= m
        idx += self._rail(z.imag, scale, m)
        return idx.astype(np.int64)

    @staticmethod
    def _rail(x: np.ndarray, scale: float, m: int) -> np.ndarray:
        r = np.multiply(x, scale)
        r += m - 1
        r *= 0.5  # exactly / 2
        np.rint(r, out=r)
        return np.clip(r, 0, m - 1, out=r)

    def bit_errors(self, tx_idx: np.ndarray, rx_idx: np.ndarray) -> np.ndarray:
        return _POPCOUNT[self.labels[tx_idx] ^ self.labels[rx_idx]]


@dataclass(frozen=True)
class PskAlphabet:
    """M-ary PSK on the unit circle with Gray labels; index i sits at angle
    2*pi*i/M."""

    order: int
    points: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, order: int) -> "PskAlphabet":
        if order < 2 or (order & (order - 1)):
            raise ScenarioError(f"PSK order must be a power of two >= 2, got {order}")
        idx = np.arange(order)
        points = np.exp(2j * np.pi * idx / order)
        return cls(order=order, points=points, labels=_gray(idx).astype(np.int64))

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

    def detect(self, z: np.ndarray) -> np.ndarray:
        """Nearest-point decision; angle quantization, exact on the circle."""
        z = np.asarray(z)
        sector = np.rint(np.angle(z) * self.order / (2.0 * np.pi))
        return np.mod(sector, self.order).astype(np.int64)

    def bit_errors(self, tx_idx: np.ndarray, rx_idx: np.ndarray) -> np.ndarray:
        return _POPCOUNT[self.labels[tx_idx] ^ self.labels[rx_idx]]


def default_preamble(t: int) -> tuple:
    """Zero-sum unit-modulus preamble: T-th roots of unity."""
    if t < 2:
        raise ScenarioError("preamble needs at least two symbols")
    return tuple(np.exp(2j * np.pi * np.arange(t) / t))


MAX_ORDER = 4096  # largest m_s and m_c: an alphabet is built as an array of its points
MAX_FRAME_SAMPLES = 2**16  # largest n_max * (n + n_cp): a range draws and receives this per trial


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SystemConfig:
    """Everything the link needs beyond the channel: frame geometry, pilot
    comb, alphabets, transmit and noise power (linear watts). The comb is n_p
    pilots of symbol 1 on every (n/n_p)-th subcarrier from 0."""

    n: int = 64
    n_cp: int = 16
    n_p: int = 8
    m_s: int = 16
    m_c: int = 8
    t_preamble: int = 2
    preamble: tuple = ()
    n_max: int = 10
    p_t: float = 1.0
    sigma2: float = 1.0

    def __post_init__(self):
        # the sizes first, since the preamble and every array below are built from them
        if self.n < 1:
            raise ScenarioError(f"n = {self.n}: need at least one subcarrier")
        if self.n_cp < 0:
            raise ScenarioError(f"n_cp = {self.n_cp} is negative")
        if self.n_p < 1 or self.n % self.n_p:
            raise ScenarioError(f"n_p = {self.n_p} pilots do not divide n = {self.n} subcarriers evenly")
        for key in ("m_s", "m_c"):
            if getattr(self, key) > MAX_ORDER:
                raise ScenarioError(f"{key} = {getattr(self, key)} exceeds the largest alphabet, {MAX_ORDER} points")
        if self.t_preamble < 2:
            raise ScenarioError("preamble length must be >= 2")
        if self.n_max <= self.t_preamble:
            raise ScenarioError(f"n_max = {self.n_max} leaves no data symbols after"
                                f" the t_preamble = {self.t_preamble} preamble symbols")
        if self.n_max * self.symbol_period > MAX_FRAME_SAMPLES:
            raise ScenarioError(f"n_max * (n + n_cp) = {self.n_max} * {self.symbol_period} samples"
                                f" exceeds the largest frame, {MAX_FRAME_SAMPLES} samples")
        if not self.preamble:
            pre = (1.0 + 0j, -1.0 + 0j) if self.t_preamble == 2 else default_preamble(self.t_preamble)
            object.__setattr__(self, "preamble", pre)
        pre = np.asarray(self.preamble)
        if pre.shape != (self.t_preamble,):
            raise ScenarioError("preamble length must equal t_preamble")
        if not np.max(np.abs(np.abs(pre) - 1)) <= 1e-12:  # also NaN
            raise ScenarioError("preamble symbols must have unit modulus")
        if not abs(pre.sum()) <= 1e-9:
            raise ScenarioError("preamble symbols must sum to zero")
        if not (0 < self.p_t < float("inf") and 0 <= self.sigma2 < float("inf")):  # also NaN
            raise ScenarioError("powers must be positive and finite (noise may be zero)")
        self.qam, self.psk  # built once, here, which checks their orders

    @cached_property
    def pilot_indices(self) -> np.ndarray:
        return _read_only(np.arange(self.n_p, dtype=np.int64) * (self.n // self.n_p))

    @cached_property
    def data_indices(self) -> np.ndarray:
        mask = np.ones(self.n, dtype=bool)
        mask[self.pilot_indices] = False
        return _read_only(np.flatnonzero(mask))

    @property
    def n_data(self) -> int:
        return self.n - self.n_p

    @cached_property
    def qam(self) -> QamAlphabet:
        return QamAlphabet.build(self.m_s)

    @cached_property
    def psk(self) -> PskAlphabet:
        return PskAlphabet.build(self.m_c)

    @property
    def n_data_symbols(self) -> int:
        """Secondary symbols carrying data (preamble excluded)."""
        return self.n_max - self.t_preamble

    @property
    def symbol_period(self) -> int:
        return self.n + self.n_cp


def modulate_primary(data_indices, cfg: SystemConfig) -> np.ndarray:
    """Build frame symbol vectors: pilots at the comb positions, Gray QAM at
    the rest. Returns s_values shaped (..., n_sym, n).

    The comb is every (n/n_p)-th subcarrier from 0, so the frame is filled as
    n_p rows of n/n_p subcarriers: the pilot in column 0 of each row and
    that row's n/n_p - 1 data symbols after it."""
    data_indices = np.asarray(data_indices)
    batch = data_indices.shape[:-1]
    step = cfg.n // cfg.n_p
    s = np.empty(batch + (cfg.n,), dtype=complex)
    rows = s.reshape(batch + (cfg.n_p, step))
    rows[..., 0] = 1
    rows[..., 1:] = cfg.qam.points[data_indices.reshape(batch + (cfg.n_p, step - 1))]
    return s


def secondary_frame(c_indices, cfg: SystemConfig) -> np.ndarray:
    """Preamble followed by Gray PSK data symbols. Returns c_values shaped
    (..., n_max)."""
    c_indices = np.asarray(c_indices)
    c = np.empty(c_indices.shape[:-1] + (cfg.n_max,), dtype=complex)
    c[..., : cfg.t_preamble] = np.asarray(cfg.preamble)
    c[..., cfg.t_preamble :] = cfg.psk.points[c_indices]
    return c


def _noise_or_zero(noise, cfg: SystemConfig):
    if noise is not None:
        return noise
    if cfg.sigma2 > 0:
        raise ValueError("need explicit noise when sigma2 > 0")
    return 0.0


def frequency_domain_rx(s_values, h, cfg: SystemConfig, noise=None) -> np.ndarray:
    """Synchronized received samples straight from the per-subcarrier model:
    Y(n) = sqrt(P) * diag(s(n)) * H(n) + U(n), where h holds the composite
    response H(n) = H_d + c(n) H_b (`composite_response`) that every point
    of one realization shares."""
    return np.sqrt(cfg.p_t) * np.asarray(s_values) * h + _noise_or_zero(noise, cfg)


def _tap_convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Causal FIR along the last axis, output truncated to the input length.
    Tap vectors are short (a handful of entries), so an explicit shift-and-add
    beats generic convolution and broadcasts over batch dimensions."""
    out = np.zeros(np.broadcast_shapes(x.shape[:-1], taps.shape[:-1]) + x.shape[-1:], dtype=complex)
    t = x.shape[-1]
    for l in range(taps.shape[-1]):
        out[..., l:] += taps[..., l : l + 1] * x[..., : t - l]
    return out


def _delay(x: np.ndarray, samples: int) -> np.ndarray:
    if samples == 0:
        return x
    pad = [(0, 0)] * (x.ndim - 1) + [(samples, 0)]
    return np.pad(x, pad)[..., : x.shape[-1]]


def tag_emitted_stream(x_stream, c_values, cfg: SystemConfig):
    """Waveform leaving the tag: incident samples gated by the secondary
    symbol of their symbol period. A secondary timing error delays this
    whole product, so the first xi samples of each period then still carry
    the previous secondary symbol."""
    period = cfg.symbol_period
    t = np.arange(x_stream.shape[-1])
    gate_idx = t // period
    gate = np.asarray(c_values)[..., gate_idx]
    return x_stream * gate


def sample_level_streams(s_values, c_values, realization: ChannelRealization, cfg: SystemConfig):
    """The half of the sample path that no timing error changes, as a pair
    (direct, back) over the IDFT + CP sample stream x: direct = h_d * x and
    back = delay(g * (gate . (b * x)), d_b), or None without backscatter,
    where * is the causal tap convolution and gate holds each sample's c(n).
    Neither depends on p_t, so every point of one realization shares them.

    A delay commutes with a causal tap convolution, so back delayed by xi
    has the bytes of the gated stream delayed by xi before g."""
    s_values = np.asarray(s_values)
    n, n_cp = cfg.n, cfg.n_cp
    x = np.fft.ifft(s_values, axis=-1) * np.sqrt(n)
    x_cp = np.concatenate([x[..., n - n_cp :], x], axis=-1)
    frame_len = cfg.n_max * cfg.symbol_period
    x_stream = x_cp.reshape(x_cp.shape[:-2] + (frame_len,))

    direct = _tap_convolve(x_stream, realization.h_d)
    if not np.any(realization.h_b):
        return direct, None
    gated = tag_emitted_stream(_tap_convolve(x_stream, realization.b), c_values, cfg)
    return direct, _delay(_tap_convolve(gated, realization.g), realization.d_b)


def sample_level_rx(streams, cfg: SystemConfig, xi: int, noise=None) -> np.ndarray:
    """Received samples of the full time-domain path at secondary timing
    error xi, from the (direct, back) pair of `sample_level_streams`, which
    every point of one realization shares: rx = direct + delay(back, xi),
    its sqrt(P) scale, white time-domain noise, CP removal and DFT.

    With xi = 0 and the same noise samples this reproduces the frequency
    domain path exactly; with xi > 0 the backscattered waveform (tag gating
    included) lands xi samples late, which is what stretches the composite
    response and eventually breaks the cyclic-prefix protection.
    """
    if not 0 <= xi < cfg.n + cfg.n_cp:
        raise ValueError(f"sync error {xi} outside [0, {cfg.n + cfg.n_cp})")
    direct, back = streams
    rx = direct if back is None else direct + _delay(back, xi)
    rx = np.sqrt(cfg.p_t) * rx + _noise_or_zero(noise, cfg)

    blocks = rx.reshape(rx.shape[:-1] + (cfg.n_max, cfg.symbol_period))[..., cfg.n_cp :]
    return np.fft.fft(blocks, axis=-1) / np.sqrt(cfg.n)
