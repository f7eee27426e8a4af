"""Reference implementations the tests check the package against, and the
frame builders the tests share.

The references are written the long way on purpose: an explicit composite
response per symbol value and in the tap domain, the classic closed-form QAM
symbol error rate, a Monte Carlo of the method-1 secondary error
expectation, and the method-2 tap fit by a batched QR of the full N x L
system. The package itself never calls them.
"""
import numpy as np

from srofdm.channel import ChannelRealization
from srofdm.numerics import RandomStream, SingularSystemError, draw_cn, partial_fourier, q_function
from srofdm.txchain import SystemConfig, modulate_primary, secondary_frame


def composite_cfr(real: ChannelRealization, c) -> np.ndarray:
    """Per-subcarrier combined response H_d + c * H_b for secondary symbol c."""
    c = np.asarray(c)
    if np.any(np.abs(c) > 1 + 1e-12):
        raise ValueError("reflection coefficient magnitude must not exceed 1")
    return real.H_d + c[..., None] * real.H_b if c.ndim else real.H_d + c * real.H_b


def composite_cir(real: ChannelRealization, c, taps: int, xi: int = 0) -> np.ndarray:
    """Time-domain combined response: padded direct taps plus the backscatter
    taps shifted by the propagation delay and the timing error xi."""
    l_d = real.h_d.shape[-1]
    l_b = real.h_b.shape[-1]
    shift = real.d_b + xi
    if taps < max(l_d, l_b + shift):
        raise ValueError(f"{taps} taps cannot hold the composite response")
    c = np.asarray(c)
    batch = np.broadcast_shapes(real.h_d.shape[:-1], c.shape)
    h = np.zeros(batch + (taps,), dtype=complex)
    h[..., :l_d] += real.h_d
    h[..., shift : shift + l_b] += c[..., None] * real.h_b
    return h


def ser_qam_awgn(snr, m_s: int):
    """Per-subcarrier square-QAM symbol error rate at linear SNR."""
    snr = np.asarray(snr, dtype=float)
    q = q_function(np.sqrt(3.0 * snr / (m_s - 1)))
    rail = 2.0 * (1.0 - 1.0 / np.sqrt(m_s)) * q
    return 1.0 - (1.0 - rail) ** 2


def mc_ber_secondary_method1(
    h_b,
    cfg: SystemConfig,
    n_draws: int,
    stream: RandomStream,
) -> float:
    """Monte Carlo of the conditional-error expectation for BPSK secondary
    detection with per-subcarrier re-estimation (unit-modulus primary).

    Draws the frame-level separation errors, evaluates the conditional
    Q-expression (real part of the projected statistic over the per-symbol
    noise deviation), and averages. Brackets the closed-form approximation at
    high SNR."""
    h_b = np.asarray(h_b)
    n = h_b.shape[-1]
    var_entry = cfg.sigma2 / cfg.p_t  # unit-modulus per-symbol estimation error
    eps_d = draw_cn(stream, n_draws * n, var_entry / 2.0).reshape(n_draws, n)
    eps_b = draw_cn(stream, n_draws * n, var_entry / 2.0).reshape(n_draws, n)
    hb_eff = h_b + eps_b
    numer = np.real(np.einsum("dk,dk->d", hb_eff.conj(), h_b - eps_d))
    denom = np.sqrt(
        cfg.sigma2 / (2.0 * cfg.p_t)
        * (np.sum(np.abs(h_b) ** 2, axis=-1) + np.sum(np.abs(eps_b) ** 2, axis=-1))
    )
    return float(np.mean(q_function(numer / denom)))


def qr_reestimate_method2(
    y: np.ndarray, s_hat: np.ndarray, cfg: SystemConfig, taps: int
) -> np.ndarray:
    """Data-aided estimate through the tap domain: least squares over `taps`
    coefficients using every subcarrier, then expanded back. Solved by a
    batched QR factorization; the tap system sees all N rows so it stays well
    conditioned for any nonzero symbol decisions."""
    if taps > cfg.n:
        raise SingularSystemError(f"{taps} taps exceed {cfg.n} subcarriers")
    f_l = partial_fourier(cfg.n, taps)
    a = np.asarray(s_hat)[..., None] * f_l
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    if np.min(diag) < 1e-12:
        raise SingularSystemError("data-aided tap system is rank deficient")
    rhs = np.einsum("...ij,...i->...j", q.conj(), np.asarray(y) / np.sqrt(cfg.p_t))
    h = np.linalg.solve(r, rhs[..., None])[..., 0]
    return h @ f_l.T


def draw_primary(cfg: SystemConfig, stream: RandomStream):
    """One frame of uniform primary QAM indices from one `integers` call;
    returns (s_values, indices)."""
    idx = stream.integers(0, cfg.m_s, size=(cfg.n_max, cfg.n_data))
    return modulate_primary(idx, cfg), idx


def draw_secondary(cfg: SystemConfig, stream: RandomStream):
    """One frame of uniform secondary PSK indices from one `integers` call;
    returns (c_values, indices)."""
    idx = stream.integers(0, cfg.m_c, size=cfg.n_data_symbols)
    return secondary_frame(idx, cfg), idx


def draw_noise(cfg: SystemConfig, stream: RandomStream, shape):
    """CN(0, sigma2) receive noise of the given shape from one `draw_cn`
    call, or 0.0 for a noise-free link (nothing is drawn then)."""
    if cfg.sigma2 <= 0:
        return 0.0
    return draw_cn(stream, int(np.prod(shape)), cfg.sigma2).reshape(shape)
