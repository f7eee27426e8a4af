"""Reference implementations the tests check the package against, and the
frame builders the tests share.

The references are written the long way on purpose: an explicit composite
response per symbol value and in the tap domain, the classic closed-form QAM
symbol error rate, the Gray-QAM error rates as telescoped sums over every
level and decision edge (`telescoped_qam_error_rates`), a Monte Carlo of the method-1 secondary error
expectation, the method-2 tap fit by a batched QR of the full N x L
system and through a lag-gathered Gram with a Cholesky rank check
(`gathered_reestimate_method2`), the general least-squares solves that the comb and the zero-sum
preamble reduce to closed forms (`qr_pilot_gain`, `gram_pilot_leverage`,
`lstsq_separate_links`), the two-rail QAM slicer worked in fresh arrays
(`rail_slicer`), the ML metric as an exhaustive scan over the QAM alphabet
(`exhaustive_ml_symbol_metrics`), the receivers composed by flags, each rerunning its whole chain
(`flag_run_algorithm1`, `flag_run_ml_benchmark`), which the stage chains of
`srofdm.harness.RECEIVERS` must reproduce bit for bit, and a frame batch
drawn and received one trial and one point at a time with one `draw_cn` per
draw (`per_trial_draw_frame_batch`, `per_trial_link_taps`), which the
sweep's draw-once split (`draw_trials`, then `observe_trials` per point)
must reproduce bit for bit, and the comb and companion kernels as they were
written with fancy-index gathers and a broadcast tail argument
(`gather_modulate_primary`, `gather_detect_primary`,
`broadcast_qam_error_rates`), whose bytes the contiguous versions must
keep, and the primary companions over every (symbol, data subcarrier) of
a batch (`full_grid_primary_sums`), whose bytes the sweep's distinct-row
evaluation must keep, and the sample-level receive path in one pass with
the timing error applied to the gated stream before the backward taps
(`reference_sample_level_rx`), whose bytes its split into held streams and
a per-point half must keep, and the backscatter response a timing error
gives, as its phase ramp (`timing_phased_backscatter`), which the harness's
observation must carry. Among the frame builders, `draw_channel` draws
one realization and `observe` receives explicit frames through it, with the
observation assembled as the harness assembles it from drawn trials. The
package itself never calls them.
"""
import numpy as np
from scipy.special import erfc

from srofdm.channel import ChannelConfig, ChannelRealization, composite_response, draw_link_taps, realization_from_taps
from srofdm.numerics import RandomStream, SingularSystemError, draw_cn, partial_fourier, q_function
from srofdm.receiver import (
    ERASURE_THRESHOLD,
    DetectionOutput,
    FrameObservation,
    PilotEstimator,
    detect_primary,
    detect_secondary,
    full_symbol_vector,
    ml_candidates,
    ml_symbol_metrics,
    reestimate_method1,
    reestimate_method2,
    separate_links,
)
from srofdm.theory import _folded_rail, composite_snr, primary_rates_estimated, primary_rates_perfect
from srofdm.txchain import (
    SystemConfig,
    _gray,
    frequency_domain_rx,
    modulate_primary,
    sample_level_rx,
    sample_level_streams,
    secondary_frame,
)

ESTIMATOR_KINDS = ("pilot_only", "method1", "method2")
QAM_ORDERS = (4, 16, 64, 256, 1024, 4096)  # every square Gray order up to MAX_ORDER
# every comb SystemConfig accepts up to 256 subcarriers, n_p = 1 and n_p = n included
COMBS = tuple((n, n_p) for n in range(1, 257) for n_p in range(1, n + 1) if n % n_p == 0)


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


def telescoped_qam_error_rates(snr, m_s: int):
    """Symbol- and bit-error rates of square Gray QAM in AWGN at linear SNR,
    as `srofdm.theory.qam_error_rates` computed them before the folded form:
    one Gaussian tail per (level, edge) pair, with the Q(-x) ~ 1 terms added
    and taken away again, which leaves an absolute floor near 1e-16."""
    snr = np.asarray(snr, dtype=float)
    m = int(round(np.sqrt(m_s)))
    levels = (2.0 * np.arange(m) - (m - 1)) / np.sqrt(2.0 * (m_s - 1) / 3.0)
    labels = _gray(np.arange(m))
    hamming = np.array(
        [[bin(int(a) ^ int(b)).count("1") for b in labels] for a in labels], dtype=float
    )
    edges = (levels[:-1] + levels[1:]) / 2.0
    inv_sigma = np.sqrt(2.0 * snr)[..., None, None]
    q_edges = q_function((edges - levels[:, None]) * inv_sigma)  # (..., m, m-1)
    # telescoped region sums: sum_j (tail_j - tail_{j+1}) w_ij
    #   = w_i0 + sum_e q_ie (w_{i,e+1} - w_ie)
    bits_per_rail = m.bit_length() - 1
    w_ber = hamming[:, 1:] - hamming[:, :-1]
    ber = (hamming[:, 0].sum() + np.einsum("...ie,ie->...", q_edges, w_ber)) / (
        m * bits_per_rail
    )
    ident = np.eye(m)
    w_ser = ident[:, 1:] - ident[:, :-1]
    rail_err = 1.0 - (1.0 + np.einsum("...ie,ie->...", q_edges, w_ser)) / m
    ser = 1.0 - (1.0 - rail_err) ** 2
    return ser, ber


def broadcast_qam_error_rates(snr, m_s: int):
    """`srofdm.theory.qam_error_rates` with its tail arguments built as one
    broadcast product, t[..., None] * x, whose inner loop runs m - 1 long, and
    Q as 0.5 * erfc(z / sqrt(2)) in a fresh array."""
    x, a_ber, a_ser = _folded_rail(m_s)
    z = np.sqrt(2.0 * np.asarray(snr, dtype=float))[..., None] * x  # (..., m-1)
    q = 0.5 * erfc(np.asarray(z) / np.sqrt(2.0))
    rail_err = -(q @ a_ser)
    return rail_err * (2.0 - rail_err), q @ a_ber


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


def gathered_reestimate_method2(
    y: np.ndarray, s_hat: np.ndarray, cfg: SystemConfig, taps: int
) -> np.ndarray:
    """Method 2 through the L x L normal equations, with the Gram gathered
    lag by lag into a (..., L, L) array and its rank checked by a Cholesky
    factorization. `reestimate_method2` must reproduce it byte for byte, and
    its Levinson prediction errors must be this Cholesky diagonal squared."""
    if taps > cfg.n:
        raise SingularSystemError(f"{taps} taps exceed {cfg.n} subcarriers")
    s_hat = np.asarray(s_hat)
    lags = (np.arange(taps)[None, :] - np.arange(taps)[:, None]) % cfg.n
    gram = np.fft.fft(np.abs(s_hat) ** 2, axis=-1)[..., lags]
    # an exactly singular Gram can leave Cholesky pivots of rounding size,
    # far above 1e-12, so the nonzero count is checked first
    rank_deficient = np.min(np.count_nonzero(s_hat, axis=-1)) < taps
    if not rank_deficient:
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            rank_deficient = True
        else:
            rank_deficient = np.min(np.diagonal(chol, axis1=-2, axis2=-1).real) < 1e-12
    if rank_deficient:
        raise SingularSystemError("data-aided tap system is rank deficient")
    f_l = partial_fourier(cfg.n, taps)
    rhs = (np.conj(s_hat) * np.asarray(y) / np.sqrt(cfg.p_t)) @ np.conj(f_l)
    h = np.linalg.solve(gram, rhs[..., None])[..., 0]
    return h @ f_l.T


def gather_modulate_primary(data_indices, cfg: SystemConfig) -> np.ndarray:
    """`srofdm.txchain.modulate_primary` with the pilots and the QAM points
    scattered through the comb's index arrays."""
    data_indices = np.asarray(data_indices)
    s = np.empty(data_indices.shape[:-1] + (cfg.n,), dtype=complex)
    s[..., cfg.pilot_indices] = 1
    s[..., cfg.data_indices] = cfg.qam.points[data_indices]
    return s


def gather_detect_primary(y: np.ndarray, h_tilde: np.ndarray, cfg: SystemConfig):
    """`srofdm.receiver.detect_primary` with the data subcarriers of y and
    H~ gathered by fancy indexing."""
    y_d = np.asarray(y)[..., cfg.data_indices]
    h_d = np.asarray(h_tilde)[..., cfg.data_indices]
    power = np.abs(h_d) ** 2
    erased = power < ERASURE_THRESHOLD**2
    safe = np.where(erased, 1.0, power)
    z = np.conj(h_d) * y_d / (safe * np.sqrt(cfg.p_t))
    idx = cfg.qam.detect(z)
    idx = np.where(erased, 0, idx)
    return idx, erased


def qr_pilot_gain(cfg: SystemConfig, taps: int) -> np.ndarray:
    """The (taps, n_p) least-squares map from the pilot observations to the
    taps, min_h || sqrt(P) F_p h - y_p ||, by a QR of the pilot system with a
    rank check; valid for any pilot layout."""
    a = np.sqrt(cfg.p_t) * partial_fourier(cfg.n, taps)[cfg.pilot_indices, :]
    q, r = np.linalg.qr(a)
    diag = np.abs(np.diagonal(r))
    if np.min(diag) < 1e-12 * max(np.max(diag), 1.0):
        raise SingularSystemError("pilot system is rank deficient")
    return np.linalg.solve(r, q.conj().T)


def gram_pilot_leverage(cfg: SystemConfig, taps: int) -> np.ndarray:
    """f_k^H (F_p^H F_p)^{-1} f_k for every subcarrier k, by a Gram solve."""
    f_l = partial_fourier(cfg.n, taps)
    f_p = f_l[cfg.pilot_indices, :]
    sol = np.linalg.solve(f_p.conj().T @ f_p, f_l.conj().T)
    return np.real(np.einsum("kl,lk->k", f_l, sol))


def lstsq_separate_links(h_hat: np.ndarray, preamble):
    """Direct and backscatter responses from the preamble estimates by the
    general 2x2 least squares on [[T, sum(c)], [sum(c)*, sum(|c|^2)]]; valid
    for any preamble whose design matrix is regular."""
    h_hat = np.asarray(h_hat)
    pre = np.asarray(preamble)
    t = pre.shape[0]
    s1 = pre.sum()
    s2 = np.sum(np.abs(pre) ** 2)
    det = t * s2 - abs(s1) ** 2
    if abs(det) < 1e-12:
        raise SingularSystemError("preamble design matrix is singular")
    r0 = h_hat.sum(axis=-2)
    r1 = (np.conj(pre)[:, None] * h_hat).sum(axis=-2)
    return (s2 * r0 - s1 * r1) / det, (t * r1 - np.conj(s1) * r0) / det


def rail_slicer(qam, z):
    """QamAlphabet.detect as two rails, each worked in fresh arrays."""
    z = np.asarray(z)
    m = int(round(np.sqrt(qam.order)))
    scale = np.sqrt(2.0 * (qam.order - 1) / 3.0)
    re_idx = np.clip(np.rint((z.real * scale + (m - 1)) / 2.0), 0, m - 1)
    im_idx = np.clip(np.rint((z.imag * scale + (m - 1)) / 2.0), 0, m - 1)
    return (re_idx * m + im_idx).astype(np.int64)


def exhaustive_ml_symbol_metrics(y, cands, cfg):
    """Reference ML metric on the terms of `ml_candidates`: scan every QAM
    point for every candidate and keep the first strict minimum, which leaves
    index 0 where every point ties. ml_symbol_metrics must reproduce it bit
    for bit."""
    y = np.asarray(y)
    y_d = y[..., cands.searched]
    batch = np.broadcast_shapes(y.shape[:-1], cands.a_d.shape[:-2])
    totals = np.empty(batch + (len(cands.values),))
    s_out = np.empty(batch + cands.a_d.shape[-2:], dtype=np.int64)
    for ci in range(len(cands.values)):
        a_d = cands.a_d[..., ci, :]
        best = np.full(batch + y_d.shape[-1:], np.inf)
        best_idx = np.zeros(best.shape, dtype=np.int64)
        for si, s in enumerate(cfg.qam.points):
            d = np.abs(y_d - a_d * s) ** 2
            better = d < best
            best = np.where(better, d, best)
            best_idx = np.where(better, si, best_idx)
        totals[..., ci] = best.sum(axis=-1)
        s_out[..., ci, :] = best_idx
    if cands.pilots.size:  # the pilot symbols are 1, for every candidate in one sum
        totals += np.sum(np.abs(y[..., None, cands.pilots] - cands.a_p) ** 2, axis=-1)
    return totals, s_out


def assert_same_metrics(got, want):
    assert got[0].shape == want[0].shape and got[0].dtype == want[0].dtype
    assert got[1].shape == want[1].shape and got[1].dtype == want[1].dtype
    assert np.array_equal(got[0], want[0])  # totals, bit for bit
    assert np.array_equal(got[1], want[1])


def timing_phased_backscatter(real: ChannelRealization, xi: int) -> np.ndarray:
    """The backscatter response a secondary timing error of xi samples gives:
    subcarrier k of H_b turned by exp(-2j pi k xi / n), or H_b itself at 0."""
    if xi == 0:
        return real.H_b
    n = real.H_b.shape[-1]
    return real.H_b * np.exp(-2j * np.pi * np.arange(n) * xi / n)


def flag_run_algorithm1(
    obs: FrameObservation,
    cfg: SystemConfig,
    method: str = "method2",
    *,
    taps: int,
    genie_primary: bool = False,
    perfect_csi: bool = False,
    detect_c: bool = True,
) -> DetectionOutput:
    """Joint primary/secondary detection over one frame.

    Per symbol: estimate the composite response from the comb pilots, detect
    the primary symbols against it, then re-estimate the composite response
    from the full detected symbol vector (method1 per subcarrier, method2 in
    the tap domain, pilot_only skips re-estimation). The preamble estimates
    split into direct and backscatter responses, after which each data
    symbol's secondary value is detected by projection.

    taps is the receiver's model order for the composite response. When the
    comb is too short for it, the pilot stage runs with its maximum
    resolvable order instead (estimates alias), which is the over-delay
    failure regime.
    genie_primary feeds true symbols to the re-estimation stage;
    perfect_csi detects the primary against the true composite response and
    uses the true split responses for secondary detection (noise still limits
    the per-symbol composite extraction).
    """
    if method not in ESTIMATOR_KINDS:
        raise ValueError(f"method must be one of {ESTIMATOR_KINDS}, got {method!r}")
    y = obs.y
    real = obs.realization
    if perfect_csi:
        h_tilde = composite_response(real.H_d, obs.H_b, obs.c_values)
        s_idx, erased = detect_primary(y, h_tilde, cfg)
        # per-symbol composite extraction with known symbols; noise remains
        h_hat = reestimate_method1(y, obs.s_values, cfg)
        batch = h_tilde.shape[:-2] + (cfg.n,)
        h_d = np.broadcast_to(real.H_d, batch)
        h_b = np.broadcast_to(obs.H_b, batch)
    else:
        pilot_taps = min(taps, cfg.n_p)
        est = PilotEstimator(cfg, pilot_taps)
        h_tilde = est.estimate_cfr(y)
        s_idx, erased = detect_primary(y, h_tilde, cfg)
        s_full = obs.s_values if genie_primary else full_symbol_vector(s_idx, cfg)
        if method == "pilot_only":
            h_hat = h_tilde
        elif method == "method1":
            h_hat = reestimate_method1(y, s_full, cfg)
        else:
            h_hat = reestimate_method2(y, s_full, cfg, taps)
        h_d, h_b = separate_links(h_hat[..., : cfg.t_preamble, :], cfg.preamble)

    c_hat = (
        detect_secondary(h_hat[..., cfg.t_preamble :, :], h_d, h_b, cfg)
        if detect_c
        else None
    )
    return DetectionOutput(
        s_hat=s_idx,
        c_hat=c_hat,
        H_tilde=h_tilde,
        H_hat=h_hat,
        H_hat_d=h_d,
        H_hat_b=h_b,
        n_erased=np.sum(erased, axis=(-2, -1)),
    )



def flag_run_ml_benchmark(
    obs: FrameObservation,
    cfg: SystemConfig,
    *,
    csi: str = "perfect",
    pilot_structure: bool = True,
    taps: int,
) -> DetectionOutput:
    """Two-step ML receiver: joint per-symbol search over the secondary
    candidate and per-subcarrier QAM symbols.

    csi selects the link responses: "perfect" uses the realization's truth,
    "estimated" runs the method-2 pipeline with model order taps first and
    reuses its separated estimates. With pilot_structure the
    comb symbols are fixed in the metric and the preamble symbols are known;
    without it every subcarrier is searched and every symbol's secondary
    value is a free candidate (which leaves a sign ambiguity when the direct
    path is absent).
    """
    if csi == "perfect":
        h_d, h_b = obs.realization.H_d, obs.realization.H_b
    elif csi == "estimated":
        pipeline = flag_run_algorithm1(obs, cfg, "method2", taps=taps)
        h_d, h_b = pipeline.H_hat_d, pipeline.H_hat_b
    else:
        raise ValueError(f"csi must be 'perfect' or 'estimated', got {csi!r}")

    y = obs.y
    n_sym = y.shape[-2]
    batch = y.shape[:-2]
    s_hat = np.empty(batch + (n_sym, cfg.n_data), dtype=np.int64)
    c_dec = np.empty(batch + (n_sym,), dtype=np.int64)
    c_val = np.empty(batch + (n_sym,), dtype=complex)
    for m in range(n_sym):
        if pilot_structure and m < cfg.t_preamble:
            cands = np.asarray([cfg.preamble[m]])
        else:
            cands = cfg.psk.points
        # the candidate terms are rebuilt for every symbol
        terms = ml_candidates(h_d, h_b, cfg, pilot_structure=pilot_structure, candidates=cands)
        totals, s_idx = ml_symbol_metrics(y[..., m, :], terms, cfg)
        pick = np.argmin(totals, axis=-1)
        c_dec[..., m] = pick if len(cands) > 1 else -1
        chosen = np.take_along_axis(s_idx, pick[..., None, None], axis=-2)[..., 0, :]
        if not pilot_structure:
            # keep only the data positions for error accounting
            keep = np.isin(np.arange(cfg.n), cfg.data_indices)
            chosen = chosen[..., keep]
        s_hat[..., m, :] = chosen
        c_val[..., m] = cands[pick]
    h_hat = composite_response(h_d, h_b, c_val)
    c_hat = c_dec[..., cfg.t_preamble :]
    return DetectionOutput(
        s_hat=s_hat,
        c_hat=c_hat,
        H_tilde=h_hat,
        H_hat=h_hat,
        H_hat_d=np.broadcast_to(np.asarray(h_d), batch + (cfg.n,)),
        H_hat_b=np.broadcast_to(np.asarray(h_b), batch + (cfg.n,)),
        n_erased=np.zeros(batch, dtype=np.int64),
    )


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


def per_trial_link_taps(cfg: ChannelConfig, stream: RandomStream):
    """Draw the three tap vectors (h_d, b, g) for one realization: i.i.d.
    Rayleigh taps with equal power per tap, total power per link equal to its
    large-scale gain. All fading taps come from one generator call; the
    response derivation is deferred so Monte Carlo batches can stack taps
    before one vectorized transform."""
    n_direct = cfg.l_d if cfg.direct_model == "rayleigh" else 0
    if cfg.backscatter_model == "cascade":
        n_fwd, n_bwd = cfg.l_1, cfg.l_2
    elif cfg.backscatter_model == "rayleigh":
        n_fwd, n_bwd = cfg.l_b, 0
    else:
        n_fwd = n_bwd = 0
    total = n_direct + n_fwd + n_bwd
    unit = draw_cn(stream, total, 1.0) if total else np.empty(0, dtype=complex)

    if n_direct:
        h_d = unit[:n_direct] * np.sqrt(cfg.beta_direct / cfg.l_d)
    else:
        h_d = np.zeros(cfg.l_d, dtype=complex)

    beta_b = cfg.beta_backscatter
    if cfg.backscatter_model == "cascade":
        scale = 1.0 if cfg.beta_backscatter_override is None else (
            beta_b / (cfg.beta_fwd * cfg.beta_bwd)
        )
        b = unit[n_direct : n_direct + n_fwd] * np.sqrt(scale * cfg.beta_fwd / cfg.l_1)
        g = unit[n_direct + n_fwd :] * np.sqrt(cfg.beta_bwd / cfg.l_2)
    elif cfg.backscatter_model == "rayleigh":
        b = unit[n_direct:] * np.sqrt(beta_b / cfg.l_b)
        g = np.ones(1, dtype=complex)
    elif cfg.backscatter_model == "awgn":
        b = np.array([np.sqrt(beta_b)], dtype=complex)
        g = np.ones(1, dtype=complex)
    else:  # none
        b = np.zeros(1, dtype=complex)
        g = np.ones(1, dtype=complex)
    return h_d, b, g


def draw_channel(cfg: ChannelConfig, stream: RandomStream, n: int) -> ChannelRealization:
    """Draw one realization for n subcarriers and derive its responses."""
    h_d, b, g = draw_link_taps(cfg, stream)
    return realization_from_taps(h_d, b, g, cfg.d_b, n)


def observe(s_values, c_values, real: ChannelRealization, cfg: SystemConfig, *,
            noise=None, xi=None) -> FrameObservation:
    """The observation of explicit frames through one realization, composed
    of the package's receive functions as `srofdm.harness._receive`
    assembles it from drawn trials: the frequency path, with the composite
    response it received through, when xi is None, else the sample path at
    timing error xi, with the backscatter response of
    `timing_phased_backscatter`."""
    s_values, c_values = np.asarray(s_values), np.asarray(c_values)
    if xi is None:
        h = composite_response(real.H_d, real.H_b, c_values)
        y = frequency_domain_rx(s_values, h, cfg, noise=noise)
        return FrameObservation(y=y, s_values=s_values, c_values=c_values, realization=real,
                                H_b=real.H_b, H=h)
    y = sample_level_rx(sample_level_streams(s_values, c_values, real, cfg), cfg, xi, noise=noise)
    return FrameObservation(y=y, s_values=s_values, c_values=c_values, realization=real,
                            H_b=timing_phased_backscatter(real, xi))


def per_trial_draw_frame_batch(
    system: SystemConfig,
    chan: ChannelConfig,
    master_seed: int,
    trial_ids,
    xi: int = 0,
    path: str = "frequency",
) -> tuple[FrameObservation, np.ndarray, np.ndarray]:
    """Draw a batch of independent trials, one stream per trial id, and run
    them through the requested receive path in one vectorized call. Returns
    (observation, primary indices, secondary indices).

    Per-trial draw order is fixed (channel taps, primary indices, secondary
    indices, noise), which is what the reproducibility contract rests on.
    """
    trial_ids = list(trial_ids)
    batch = len(trial_ids)
    noise_len = (
        system.n_max * system.symbol_period if path == "sample" else system.n_max * system.n
    )
    h_d = np.empty((batch, chan.l_d), dtype=complex)
    b = np.empty((batch, chan.l_1 if chan.backscatter_model == "cascade" else max(chan.l_b, 1)), dtype=complex)
    g = np.empty((batch, chan.l_2 if chan.backscatter_model == "cascade" else 1), dtype=complex)
    s_idx = np.empty((batch, system.n_max, system.n_data), dtype=np.int64)
    c_idx = np.empty((batch, system.n_data_symbols), dtype=np.int64)
    noise = np.empty((batch, noise_len), dtype=complex) if system.sigma2 > 0 else None
    stream = RandomStream(master_seed)  # rewound per trial; cheaper than a new one
    for i, tid in enumerate(trial_ids):
        stream.reset(master_seed, tid)
        h_d[i], b[i], g[i] = per_trial_link_taps(chan, stream)
        s_idx[i] = stream.integers(0, system.m_s, size=(system.n_max, system.n_data))
        c_idx[i] = stream.integers(0, system.m_c, size=system.n_data_symbols)
        if noise is not None:
            noise[i] = draw_cn(stream, noise_len, system.sigma2)

    real = realization_from_taps(h_d, b, g, chan.d_b, system.n)
    s_values = modulate_primary(s_idx, system)
    c_values = secondary_frame(c_idx, system)
    if path == "sample":
        return observe(s_values, c_values, real, system, noise=noise, xi=xi), s_idx, c_idx
    if noise is not None:
        noise = noise.reshape(batch, system.n_max, system.n)
    return observe(s_values, c_values, real, system, noise=noise), s_idx, c_idx


def full_grid_primary_sums(real: ChannelRealization, c_values, cfg: SystemConfig, taps: int):
    """(perfect, estimated) primary companion sums of a batch, under the
    CSV's theory keys: `composite_snr` over every symbol of every frame,
    then `primary_rates_perfect` and `primary_rates_estimated` on that full
    grid; estimated is empty where the comb cannot resolve `taps`."""
    snr = composite_snr(real.H_d, real.H_b, c_values, cfg)

    def sums(rates):
        ser, ber = rates
        return {"primary_ser_theory": float(np.sum(ser)), "primary_ber_theory": float(np.sum(ber))}

    estimated = sums(primary_rates_estimated(snr, cfg, taps)) if taps <= cfg.n_p else {}
    return sums(primary_rates_perfect(snr, cfg)), estimated


def _reference_tap_convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    out = np.zeros(np.broadcast_shapes(x.shape[:-1], taps.shape[:-1]) + x.shape[-1:], dtype=complex)
    t = x.shape[-1]
    for l in range(taps.shape[-1]):
        out[..., l:] += taps[..., l : l + 1] * x[..., : t - l]
    return out


def _reference_delay(x: np.ndarray, samples: int) -> np.ndarray:
    if samples == 0:
        return x
    pad = [(0, 0)] * (x.ndim - 1) + [(samples, 0)]
    return np.pad(x, pad)[..., : x.shape[-1]]


def reference_sample_level_rx(s_values, c_values, realization: ChannelRealization, cfg: SystemConfig,
                              xi: int = 0, *, noise=None) -> FrameObservation:
    """`srofdm.txchain.sample_level_rx` in one pass, as it was written
    before its timing-error-free half was split off: IDFT + CP, the direct
    taps, the backward taps after the tag's gate, with the whole gated
    stream xi samples late, the sqrt(P) scale and noise, CP removal and DFT."""
    s_values = np.asarray(s_values)
    c_values = np.asarray(c_values)
    n, n_cp = cfg.n, cfg.n_cp
    x = np.fft.ifft(s_values, axis=-1) * np.sqrt(n)
    x_cp = np.concatenate([x[..., n - n_cp :], x], axis=-1)
    frame_len = cfg.n_max * cfg.symbol_period
    x_stream = x_cp.reshape(x_cp.shape[:-2] + (frame_len,))

    rx = _reference_tap_convolve(x_stream, realization.h_d)
    if np.any(realization.h_b):
        incident = _reference_tap_convolve(x_stream, realization.b)
        gate = c_values[..., np.arange(frame_len) // cfg.symbol_period]
        emitted = _reference_delay(incident * gate, xi)
        rx = rx + _reference_delay(_reference_tap_convolve(emitted, realization.g), realization.d_b)
    rx = np.sqrt(cfg.p_t) * rx + (0.0 if noise is None else noise)

    blocks = rx.reshape(rx.shape[:-1] + (cfg.n_max, cfg.symbol_period))[..., n_cp:]
    y = np.fft.fft(blocks, axis=-1) / np.sqrt(n)
    return FrameObservation(y=y, s_values=s_values, c_values=c_values, realization=realization,
                            H_b=timing_phased_backscatter(realization, xi))
