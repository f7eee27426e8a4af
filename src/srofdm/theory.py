"""Closed-form performance expressions: per-subcarrier QAM error rates with
perfect and pilot-estimated channel knowledge, secondary-link SNRs under both
data-aided re-estimation methods, and the averaged BPSK backscatter BER with
its diversity behaviour.

Conventions: SNRs are linear; "display" error rates follow the per-subcarrier
square-QAM symbol-error expression; exact Gray-coded bit error rates are
available alongside for bit-level accounting.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, isqrt

import numpy as np

from srofdm.channel import composite_response
from srofdm.numerics import q_function
from srofdm.txchain import QamAlphabet, SystemConfig

__all__ = [
    "ConstellationMoments",
    "qam_moments",
    "qam_error_rates",
    "ber_psk_from_snr",
    "composite_snr",
    "snr_from_gain",
    "primary_rates_perfect",
    "snr_primary_estimated_grid",
    "primary_rates_estimated",
    "ber_secondary_perfect",
    "snr_secondary_method1",
    "snr_secondary_method2",
    "avg_ber_secondary",
    "fit_diversity_slope",
    "eq_noise_moment_predictions",
]


@dataclass(frozen=True)
class ConstellationMoments:
    """Inverse-power moments of a unit-average-power alphabet."""

    gamma1: float  # E[|1/S|^2]
    gamma2: float  # E[|1/S|^4]


def qam_moments(m_s: int) -> ConstellationMoments:
    """Exact moments by enumeration over the Gray QAM alphabet, built once
    per order (`_qam_moments`; this stays a plain function, which the
    benchmark's tracer can wrap)."""
    return _qam_moments(m_s)


@lru_cache(maxsize=None)
def _qam_moments(m_s: int) -> ConstellationMoments:
    points = QamAlphabet.build(m_s).points
    inv2 = 1.0 / np.abs(points) ** 2
    return ConstellationMoments(gamma1=float(inv2.mean()), gamma2=float((inv2**2).mean()))


@lru_cache(maxsize=None)
def _folded_rail(m_s: int):
    """(x, a_ber, a_ser) of square Gray M-QAM, built once per order.

    On one PAM rail of m = sqrt(M) levels, the distance from level i to edge
    k is the odd multiple 2(k - i) + 1 of half the level spacing, so every
    Gaussian tail of the decision regions is Q(+-x_j), x_j = (2j + 1) times
    that half spacing, j = 0 .. m - 2. Writing Q(-x) = 1 - Q(x) folds the
    integer Hamming (bit) and identity (symbol) weights of the telescoped
    region sums onto the m - 1 magnitudes; their constant terms cancel to
    exactly 0. a_ber carries the 1/(m log2 m) and a_ser the 1/m average; the
    Hamming table is the alphabet's first row, whose labels are the rail's."""
    m = isqrt(m_s)
    offset = 2 * (np.arange(m - 1) - np.arange(m)[:, None]) + 1  # (m, m-1), odd
    j = (np.abs(offset) - 1) // 2
    level = np.arange(m)

    def fold(table):  # sum_e q_ie (w_{i,e+1} - w_ie) over the levels, by magnitude
        w = np.sign(offset) * (table[:, 1:] - table[:, :-1])
        return np.bincount(j.ravel(), weights=w.ravel(), minlength=m - 1)

    bits_per_rail = m.bit_length() - 1
    a_ber = fold(QamAlphabet.build(m_s).bit_errors(level[:, None], level)) / (m * bits_per_rail)
    a_ser = fold(np.eye(m)) / m
    x = (2.0 * np.arange(m - 1) + 1.0) / np.sqrt(2.0 * (m_s - 1) / 3.0)
    for shared in (x, a_ber, a_ser):  # every caller gets these same arrays
        shared.setflags(write=False)
    return x, a_ber, a_ser


def qam_error_rates(snr, m_s: int):
    """Symbol- and bit-error rates of square Gray QAM in AWGN at linear SNR.

    Both come from the per-rail PAM decision regions, in the folded form of
    K. Cho and D. Yoon, IEEE Trans. Commun. 50(7), 2002: one Gaussian tail
    Q(x_j sqrt(2 snr)) per edge-to-level distance x_j, weighted by integer
    Gray/Hamming counts (`_folded_rail`). The bit rate is the exact
    Gray-coded one and matches bit-counting Monte Carlo to sampling noise at
    any SNR. The rail error is r = 2 (sqrt(M) - 1)/sqrt(M) Q(x_0 sqrt(2 snr))
    and the symbol rate the standard 1 - (1 - r)^2 display, computed as
    r (2 - r).

    No term of the sums is a Q(-x) close to 1, so nothing cancels: both
    rates are relatively accurate (to 1e-12 against 50-digit arithmetic for
    M = 4 to 256) down to where Q underflows, and exactly non-negative and
    non-increasing in snr.
    """
    x, a_ber, a_ser = _folded_rail(m_s)
    with np.errstate(over="ignore"):  # 2 snr is inf above half the largest float, and Q(inf) = 0
        t = np.sqrt(2.0 * np.asarray(snr, dtype=float))
    arg = np.empty(t.shape + x.shape)  # (..., m-1), one contiguous pass over t per tail
    for j, x_j in enumerate(x):
        np.multiply(t, x_j, out=arg[..., j])
    q = q_function(arg)
    rail_err = -(q @ a_ser)
    return rail_err * (2.0 - rail_err), q @ a_ber


def ber_psk_from_snr(snr, m_c: int):
    """Gray PSK bit error rate at linear post-combining SNR.

    High-SNR approximation (2/log2 M) Q(sqrt(2 sin^2(pi/M) snr)); for BPSK the
    prefactor is 1 (the generic prefactor would double-count the single bit).
    """
    snr = np.asarray(snr, dtype=float)
    arg = np.sqrt(2.0 * np.sin(np.pi / m_c) ** 2 * snr)
    if m_c == 2:
        return q_function(arg)
    return (2.0 / np.log2(m_c)) * q_function(arg)


def composite_snr(h_d, h_b, c_values, cfg: SystemConfig):
    """Per (symbol, data subcarrier) SNR of the composite link, perfect CSI:
    the grid both primary-rate companions take, so that a caller evaluating
    both over one batch builds it once. Pass the realized c sequence to
    condition on one frame, or the PSK points to average over the alphabet."""
    h = np.take(composite_response(h_d, h_b, c_values), cfg.data_indices, axis=-1)
    return snr_from_gain(np.abs(h) ** 2, cfg)


def snr_from_gain(gain, cfg: SystemConfig):
    """Received SNR P |H|^2 / sigma^2 of the power gains |H|^2: a caller
    holding the gains scales them to each transmit power without rebuilding
    `composite_snr`'s response."""
    return cfg.p_t * gain / cfg.sigma2


def _grid_means(rates, rows):
    """Each rate's mean over the (symbol, data subcarrier) grid, gathered
    back to that grid first where `rows` indexes rows of it."""
    if rows is not None:
        rates = tuple(r[rows] for r in rates)
    return tuple(r.mean(axis=(-2, -1)) for r in rates)


def primary_rates_perfect(snr, cfg: SystemConfig, rows=None):
    """(symbol, bit) primary error rates with perfect composite-channel
    knowledge, averaged over the (symbol, data subcarrier) grid of the
    `composite_snr` snr.

    With `rows`, an integer array shaped (..., symbol), snr is shaped
    (row, data subcarrier) and holds only some rows of that grid, rows[..., n]
    being the one of symbol n: the rates are computed on those rows alone
    and gathered back to the grid before the average, which gives the bytes
    of the full-grid call."""
    return _grid_means(qam_error_rates(snr, cfg.m_s), rows)


def snr_primary_estimated_grid(snr, cfg: SystemConfig, taps: int):
    """Post-equalization SNR per (symbol, data subcarrier) when the composite
    response comes from the comb-pilot least squares with `taps` coefficients;
    snr is the perfect-CSI `composite_snr`.

    Channel-estimation noise both perturbs the equalizer and adds a residual
    term, so the effective noise grows by (N_p + L)/N_p plus an SNR-dependent
    correction: on the comb every subcarrier's pilot leverage
    f_k^H (F_p^H F_p)^{-1} f_k is L/N_p."""
    lev = taps / cfg.n_p
    return snr / (lev + 1.0 + lev / snr)


def primary_rates_estimated(snr, cfg: SystemConfig, taps: int, rows=None):
    """(symbol, bit) primary error rates at the pilot-estimated-CSI SNR of
    the `composite_snr` snr; `rows` as in `primary_rates_perfect`."""
    return _grid_means(qam_error_rates(snr_primary_estimated_grid(snr, cfg, taps), cfg.m_s), rows)


def _hb_energy(h_b) -> np.ndarray:
    return np.sum(np.abs(np.asarray(h_b)) ** 2, axis=-1)


def ber_secondary_perfect(h_b, cfg: SystemConfig):
    """Secondary BER lower bound: perfect link CSI and perfectly detected
    primary symbols; the spreading gain shows up as the full subcarrier-sum
    backscatter energy inside the Q argument."""
    moments = qam_moments(cfg.m_s)
    snr = cfg.p_t * _hb_energy(h_b) / (moments.gamma1 * cfg.sigma2)
    return ber_psk_from_snr(snr, cfg.m_c)


def snr_secondary_method1(h_b, cfg: SystemConfig) -> np.ndarray:
    """Effective secondary SNR with per-subcarrier data-aided re-estimation."""
    moments = qam_moments(cfg.m_s)
    e = cfg.p_t * _hb_energy(h_b)
    g1, g2 = moments.gamma1, moments.gamma2
    denom = 2.0 * g1 + cfg.n * (2.0 * g1**2 + g2) * cfg.sigma2 / (4.0 * e)
    return e / (cfg.sigma2 * denom)


def snr_secondary_method2(h_b, cfg: SystemConfig, taps: int) -> np.ndarray:
    """Effective secondary SNR with tap-domain data-aided re-estimation
    (unit-modulus primary symbols assumed)."""
    e = cfg.p_t * _hb_energy(h_b)
    denom = 2.0 + 3.0 * taps * cfg.sigma2 / (4.0 * e)
    return e / (cfg.sigma2 * denom)


def avg_ber_secondary(gamma_b: float, l_b: int):
    """Average BPSK secondary BER over l_b i.i.d. Rayleigh backscatter taps
    at per-tap average SNR gamma_b (already divided by the primary
    constellation's gamma1).

    Returns (exact, high_snr_approx). The exact branch is the standard
    chi-square average of the Q-function; the approximation decays like
    gamma_b^(-l_b), i.e. the link enjoys a frequency diversity order equal to
    its tap count.
    """
    mu = float(np.sqrt(gamma_b / (1.0 + gamma_b)))
    if l_b < 1:
        raise ValueError("need at least one tap")
    terms = sum(
        comb(l_b - 1 + l, l) * ((1.0 + mu) / 2.0) ** l for l in range(l_b)
    )
    exact = ((1.0 - mu) / 2.0) ** l_b * terms
    approx = comb(2 * l_b - 1, l_b) / (4.0 * gamma_b) ** l_b
    return float(exact), float(approx)


def fit_diversity_slope(snr_db, ber) -> float:
    """Regression slope of -log10(BER) per decade of SNR; equals the diversity
    order in the high-SNR regime."""
    snr_db = np.asarray(snr_db, dtype=float)
    ber = np.asarray(ber, dtype=float)
    keep = ber > 0
    if np.sum(keep) < 2:
        raise ValueError("need at least two nonzero BER points")
    return float(-np.polyfit(snr_db[keep] / 10.0, np.log10(ber[keep]), 1)[0])


def eq_noise_moment_predictions(taps: int, sigma2: float, p_t: float) -> dict:
    """Moments of the tap-domain re-estimation error used by the secondary
    SNR derivation: same-symbol norm, cross-symbol product, and mean energy."""
    return {
        "same_symbol_sq": (taps**2 + taps) * sigma2**2 / p_t**2,
        "cross_symbol_sq": taps * sigma2**2 / p_t**2,
        "mean_energy": taps * sigma2 / p_t,
    }
