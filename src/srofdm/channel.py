"""Frequency-selective channel draws for the direct, forward (to the tag) and
backward (tag to receiver) links, plus the derived per-subcarrier responses."""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from srofdm.numerics import RandomStream, draw_cn

__all__ = [
    "ChannelConfig",
    "ChannelRealization",
    "pathloss",
    "draw_link_taps",
    "fading_tap_count",
    "scale_link_taps",
    "realization_from_taps",
    "composite_tap_count",
    "composite_response",
]

DIRECT_MODELS = ("rayleigh", "none")
BACKSCATTER_MODELS = ("cascade", "rayleigh", "awgn", "none")


# a gain must be a finite float of the normal range: below its smallest value
# an underflow has taken the gain's digits, and squared taps read as 0
_MIN_GAIN = sys.float_info.min
_GAIN_RULE = f"it must be positive, finite and at least {_MIN_GAIN:g}"


def pathloss(dist: float, exponent: float, ref: float) -> float:
    """Large-scale gain ref * dist^(-exponent); dist in meters. A gain that
    is not positive, or that overflows or underflows, raises ValueError."""
    if dist <= 0:
        raise ValueError(f"distance must be positive, got {dist}")
    try:
        gain = ref * dist ** (-exponent)
    except OverflowError:
        gain = math.inf
    if not _MIN_GAIN <= gain < math.inf:  # draws call this per trial: no message unless it fails
        raise ValueError(f"path gain {ref:g} * {dist:g} m ^ -{exponent:g} is {gain:g}; {_GAIN_RULE}")
    return gain


def _checked_gain(what: str, gain: float) -> float:
    if not _MIN_GAIN <= gain < math.inf:
        raise ValueError(f"{what} is {gain:g}; {_GAIN_RULE}")
    return gain


@dataclass(frozen=True)
class ChannelConfig:
    """Static channel geometry and small-scale model selection.

    Tap counts are l_d for the direct link and l_1/l_2 for the two backscatter
    hops; the cascaded backscatter response has l_1 + l_2 - 1 taps and is
    additionally delayed by delay_b whole samples. The tag sits on the line
    between transmitter and receiver, so dist_bwd defaults to
    dist_direct - dist_fwd.

    backscatter_model:
      cascade  - both hops Rayleigh, tag response = convolution (default)
      rayleigh - single Rayleigh response with l_1 + l_2 - 1 i.i.d. taps
      awgn     - single deterministic tap carrying the full backscatter gain
      none     - backscatter path removed
    direct_model: rayleigh (default) or none (blocked direct path).
    """

    l_d: int = 4
    l_1: int = 1
    l_2: int = 2
    d_b: int = 1
    dist_direct: float = 200.0
    dist_fwd: float = 3.83
    dist_bwd: Optional[float] = None
    exp_direct: float = 2.5
    exp_fwd: float = 2.0
    exp_bwd: float = 2.0
    pathloss_ref: float = 1e-3
    direct_model: str = "rayleigh"
    backscatter_model: str = "cascade"
    # overrides the product-path gain when sweeping the SNR ratio directly
    beta_backscatter_override: Optional[float] = None

    def __post_init__(self):
        if min(self.l_d, self.l_1, self.l_2) < 1:
            raise ValueError("tap counts must be >= 1")
        if self.d_b < 0:
            raise ValueError("backscatter delay must be >= 0")
        if self.direct_model not in DIRECT_MODELS:
            raise ValueError(f"unknown direct_model {self.direct_model!r}")
        if self.backscatter_model not in BACKSCATTER_MODELS:
            raise ValueError(f"unknown backscatter_model {self.backscatter_model!r}")
        if self.dist_bwd is None:
            object.__setattr__(self, "dist_bwd", self.dist_direct - self.dist_fwd)
        if self.dist_bwd <= 0 or self.dist_fwd <= 0:
            raise ValueError("tag must sit strictly between the endpoints")

    @property
    def beta_direct(self) -> float:
        if self.direct_model == "none":
            return 0.0
        return pathloss(self.dist_direct, self.exp_direct, self.pathloss_ref)

    @property
    def beta_fwd(self) -> float:
        return pathloss(self.dist_fwd, self.exp_fwd, self.pathloss_ref)

    @property
    def beta_bwd(self) -> float:
        return pathloss(self.dist_bwd, self.exp_bwd, self.pathloss_ref)

    @property
    def beta_backscatter(self) -> float:
        """Total average power of the cascaded tag path."""
        if self.backscatter_model == "none":
            return 0.0
        if self.beta_backscatter_override is not None:
            return self.beta_backscatter_override
        return self.beta_fwd * self.beta_bwd

    @property
    def l_b(self) -> int:
        """Tap count of the backscatter response (before the delay shift)."""
        if self.backscatter_model == "none":
            return 0
        if self.backscatter_model == "awgn":
            return 1
        return self.l_1 + self.l_2 - 1

    def check_gains(self):
        """Raise ValueError unless every large-scale gain that
        `scale_link_taps` scales unit taps by is positive, finite and normal."""
        if self.direct_model != "none":
            _checked_gain("the direct gain", self.beta_direct)
        if self.backscatter_model == "none":
            return
        beta_b = _checked_gain("the backscatter gain", self.beta_backscatter)
        if self.backscatter_model == "cascade":  # an override rescales the first hop
            hops = _checked_gain("the two-hop gain product", self.beta_fwd * self.beta_bwd)
            _checked_gain("the rescaled first-hop gain", beta_b / hops * self.beta_fwd)

    @property
    def snr_ratio(self) -> float:
        """Backscatter to direct average SNR ratio (linear)."""
        return self.beta_backscatter / self.beta_direct


def composite_tap_count(cfg: ChannelConfig, xi: int = 0) -> int:
    """Tap count of the combined response seen by the receiver.

    Grows with the secondary symbol timing error xi because the whole
    backscattered waveform arrives that many samples late.
    """
    if cfg.backscatter_model == "none":
        return cfg.l_d
    return max(cfg.l_d, cfg.l_b + cfg.d_b + xi)


@dataclass(frozen=True)
class ChannelRealization:
    """One block-fading draw; reused unchanged for a whole secondary frame.

    All tap arrays may carry leading batch dimensions. H_b includes the
    delay_b leading-zero shift of the cascaded taps, so the composite response
    during symbol n is exactly H_d + c(n) * H_b.
    """

    h_d: np.ndarray
    b: np.ndarray
    g: np.ndarray
    h_b: np.ndarray = field(repr=False)
    H_d: np.ndarray = field(repr=False)
    H_b: np.ndarray = field(repr=False)
    d_b: int = 0


def _fft_padded(taps: np.ndarray, n: int, shift: int = 0) -> np.ndarray:
    taps = np.asarray(taps, dtype=complex)
    if shift:
        pad = [(0, 0)] * (taps.ndim - 1) + [(shift, 0)]
        taps = np.pad(taps, pad)
    if taps.shape[-1] > n:
        raise ValueError(f"{taps.shape[-1]} taps do not fit {n} subcarriers")
    return np.fft.fft(taps, n=n, axis=-1)


def realization_from_taps(h_d, b, g, d_b: int, n: int) -> ChannelRealization:
    """Assemble the derived responses from explicit tap vectors.

    h_b is the linear convolution of b and g; the per-subcarrier backscatter
    response equals the product of the two hop responses times the delay_b
    phase ramp, which the tests verify against a direct padded DFT.
    """
    h_d = np.asarray(h_d, dtype=complex)
    b = np.asarray(b, dtype=complex)
    g = np.asarray(g, dtype=complex)
    l_b = b.shape[-1] + g.shape[-1] - 1
    # batched linear convolution of the two short tap vectors
    h_b = np.zeros(b.shape[:-1] + (l_b,), dtype=complex)
    for i in range(b.shape[-1]):
        h_b[..., i : i + g.shape[-1]] += b[..., i : i + 1] * g
    return ChannelRealization(
        h_d=h_d,
        b=b,
        g=g,
        h_b=h_b,
        H_d=_fft_padded(h_d, n),
        H_b=_fft_padded(h_b, n, shift=d_b),
        d_b=d_b,
    )


def _fading_tap_counts(cfg: ChannelConfig):
    """CN(0, 1) taps a realization draws, in draw order: direct link, then
    the forward hop (or the whole Rayleigh backscatter response), then the
    backward hop."""
    n_direct = cfg.l_d if cfg.direct_model == "rayleigh" else 0
    if cfg.backscatter_model == "cascade":
        return n_direct, cfg.l_1, cfg.l_2
    if cfg.backscatter_model == "rayleigh":
        return n_direct, cfg.l_b, 0
    return n_direct, 0, 0


def fading_tap_count(cfg: ChannelConfig) -> int:
    """Number of CN(0, 1) taps one realization draws; no sweep axis changes it."""
    return sum(_fading_tap_counts(cfg))


def scale_link_taps(cfg: ChannelConfig, unit):
    """The three tap vectors (h_d, b, g) from CN(0, 1) draws `unit` shaped
    (..., fading_tap_count(cfg)): i.i.d. Rayleigh taps with equal power per
    tap, total power per link equal to its large-scale gain. Deterministic
    links take no draws."""
    n_direct, n_fwd, _ = _fading_tap_counts(cfg)
    lead = unit.shape[:-1]
    if n_direct:
        h_d = unit[..., :n_direct] * np.sqrt(cfg.beta_direct / cfg.l_d)
    else:
        h_d = np.zeros(lead + (cfg.l_d,), dtype=complex)

    beta_b = cfg.beta_backscatter
    g = np.ones(lead + (1,), dtype=complex)
    if cfg.backscatter_model == "cascade":
        scale = 1.0 if cfg.beta_backscatter_override is None else (
            beta_b / (cfg.beta_fwd * cfg.beta_bwd)
        )
        b = unit[..., n_direct : n_direct + n_fwd] * np.sqrt(scale * cfg.beta_fwd / cfg.l_1)
        g = unit[..., n_direct + n_fwd :] * np.sqrt(cfg.beta_bwd / cfg.l_2)
    elif cfg.backscatter_model == "rayleigh":
        b = unit[..., n_direct:] * np.sqrt(beta_b / cfg.l_b)
    elif cfg.backscatter_model == "awgn":
        b = np.full(lead + (1,), np.sqrt(beta_b), dtype=complex)
    else:  # none
        b = np.zeros(lead + (1,), dtype=complex)
    return h_d, b, g


def draw_link_taps(cfg: ChannelConfig, stream: RandomStream):
    """Draw the three tap vectors (h_d, b, g) for one realization, as
    `scale_link_taps` of one `draw_cn` call. The response derivation is
    deferred so Monte Carlo batches can stack taps before one vectorized
    transform."""
    unit = draw_cn(stream, fading_tap_count(cfg), 1.0)
    h_d, b, g = scale_link_taps(cfg, unit[None])
    return h_d[0], b[0], g[0]


def composite_response(h_d, h_b, c_values) -> np.ndarray:
    """Combined per-subcarrier response H_d + c(n) H_b during each secondary
    symbol n, shaped (..., n_sym, n) from (..., n) responses and (..., n_sym)
    symbol values."""
    h_d, h_b, c_values = np.asarray(h_d), np.asarray(h_b), np.asarray(c_values)
    return h_d[..., None, :] + c_values[..., :, None] * h_b[..., None, :]
