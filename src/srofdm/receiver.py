"""Joint detection pipeline: per-symbol pilot channel estimation, primary QAM
detection, data-aided channel re-estimation (per-subcarrier or time-domain),
direct/backscatter separation from the preamble, secondary PSK detection, and
a two-step maximum-likelihood benchmark receiver. A receiver is a chain of
these stages, named in order and run by `run_algorithm1`.

All operations broadcast over leading batch dimensions so a whole block of
Monte Carlo trials runs through one call.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from srofdm.channel import ChannelRealization, composite_response
from srofdm.numerics import SingularSystemError, partial_fourier
from srofdm.txchain import SystemConfig, modulate_primary

__all__ = [
    "FrameObservation",
    "UndetectableSecondaryError",
    "DetectionOutput",
    "PilotEstimator",
    "detect_primary",
    "full_symbol_vector",
    "reestimate_method1",
    "reestimate_method2",
    "separate_links",
    "detect_secondary",
    "run_algorithm1",
    "run_ml_benchmark",
    "MlCandidates",
    "ml_candidates",
    "ml_symbol_metrics",
]

ERASURE_THRESHOLD = 1e-12


class UndetectableSecondaryError(ValueError):
    """Backscatter response estimate is zero; projection undefined."""


@dataclass(frozen=True)
class FrameObservation:
    """Frequency-domain receiver samples y for one secondary frame (or a
    batch) plus the sent values and the channel that made them, which the
    genie stages read; the harness assembles it. H_b is the backscatter
    response y went through: the realization's, times the phase ramp of a
    secondary symbol timing error if there is one. H is the composite
    response H_d + c(n) H_b the frequency path received y through (None on
    the sample path)."""

    y: np.ndarray = field(repr=False)
    s_values: np.ndarray = field(repr=False)  # (..., n_max, n) including pilots
    c_values: np.ndarray = field(repr=False)  # (..., n_max) preamble + data
    realization: ChannelRealization
    H_b: np.ndarray = field(repr=False)  # (..., n)
    H: Optional[np.ndarray] = field(default=None, repr=False)  # (..., n_max, n)


@dataclass(frozen=True)
class DetectionOutput:
    """Everything the detector produced for one frame (or batch of frames)."""

    s_hat: np.ndarray = field(repr=False)  # (..., n_max, n_data) alphabet indices
    c_hat: Optional[np.ndarray] = field(repr=False)  # (..., n_max - T) or None
    H_tilde: np.ndarray = field(repr=False)  # pilot-based composite estimate
    H_hat: np.ndarray = field(repr=False)  # re-estimated composite response
    H_hat_d: np.ndarray = field(repr=False)
    H_hat_b: np.ndarray = field(repr=False)
    n_erased: np.ndarray = 0  # equalizer nulls encountered per frame


class PilotEstimator:
    """Least-squares tap estimator from the comb pilots, in closed form.

    The comb is every (N/N_p)-th subcarrier from 0 and taps <= N_p, so
    F_p^H F_p = N_p I and min_h || sqrt(P) F_p h - y_p || is solved by the
    scaled adjoint F_p^H / (N_p sqrt(P)); it and the tap-to-subcarrier
    expansion are cached so per-symbol application is a single matmul.
    """

    def __init__(self, cfg: SystemConfig, taps: int):
        if taps > cfg.n_p:
            raise SingularSystemError(
                f"{taps} taps exceed {cfg.n_p} pilot subcarriers"
            )
        f_l = partial_fourier(cfg.n, taps)
        self.gain = f_l[cfg.pilot_indices, :].conj().T / (cfg.n_p * np.sqrt(cfg.p_t))  # (taps, n_p)
        self.f_l = f_l
        self.pilot_indices = cfg.pilot_indices

    def estimate_cir(self, y_pilot: np.ndarray) -> np.ndarray:
        return y_pilot @ self.gain.T

    def estimate_cfr(self, y: np.ndarray) -> np.ndarray:
        """Composite response on all subcarriers from one symbol's pilots."""
        h = self.estimate_cir(np.take(y, self.pilot_indices, axis=-1))
        return h @ self.f_l.T


def detect_primary(y: np.ndarray, h_tilde: np.ndarray, cfg: SystemConfig):
    """Single-tap equalization then nearest-QAM decision on data subcarriers.

    Returns (indices, erased) where erased flags subcarriers whose channel
    estimate was an exact null (decision forced to index 0). h_tilde has the
    shape of y or broadcasts to it. Each step writes into a buffer of the
    gathers, with the ufuncs and operand order of
    conj(h_d) * y_d / (where(erased, 1, |h_d| ** 2) * sqrt(P)).
    """
    h_d = np.take(h_tilde, cfg.data_indices, axis=-1)
    power = np.abs(h_d)
    np.square(power, out=power)
    erased = power < ERASURE_THRESHOLD**2
    power[erased] = 1.0  # the safe divisor
    power *= np.sqrt(cfg.p_t)
    z = np.take(y, cfg.data_indices, axis=-1)
    np.multiply(np.conjugate(h_d, out=h_d), z, out=z)
    z /= power
    del h_d, power  # freed before the slicer's buffers
    idx = cfg.qam.detect(z)
    np.copyto(idx, 0, where=erased)
    return idx, erased


def full_symbol_vector(s_idx: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Recompose the full per-subcarrier symbol vector: known pilots at the
    comb, detected (or genie) QAM everywhere else."""
    return modulate_primary(s_idx, cfg)


def reestimate_method1(y: np.ndarray, s_hat: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Per-subcarrier data-aided estimate: invert each symbol individually."""
    s_hat = np.asarray(s_hat)
    if np.any(s_hat == 0):  # a zero of either sign; a NaN or inf decision is not one
        raise ValueError("method 1 needs nonzero symbol decisions everywhere")
    return np.asarray(y) / (np.sqrt(cfg.p_t) * s_hat)


def _prediction_errors(row: np.ndarray) -> np.ndarray:
    """Levinson-Durbin recursion over a batch of Hermitian Toeplitz matrices
    given by their first rows, laid out batch-last as (L, ...): the
    prediction errors of orders 0 to L - 1, which are the squared diagonal of
    each matrix's Cholesky factor (Golub & Van Loan, Matrix Computations,
    4.7). A matrix that is not positive definite gives an error <= 0 or NaN."""
    err = np.empty(row.shape)
    pred = np.zeros_like(row)  # the predictor of the current order, pred[0] = 1
    pred[0] = 1
    err[0] = row[0].real
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in range(1, len(row)):
            refl = -np.sum(pred[:m] * row[m:0:-1], axis=0) / err[m - 1]
            pred[: m + 1] += refl * np.conj(pred[m::-1])
            err[m] = err[m - 1] * (1 - np.abs(refl) ** 2)
    return err


def reestimate_method2(
    y: np.ndarray, s_hat: np.ndarray, cfg: SystemConfig, taps: int
) -> np.ndarray:
    """Data-aided estimate through the tap domain: least squares over `taps`
    coefficients using every subcarrier, then expanded back.

    Solved through the L x L normal equations: the Gram F_L^H diag(|s|^2) F_L
    is Hermitian Toeplitz, entry (l, l') = fft(|s|^2)[(l' - l) mod N], and the
    right-hand side is F_L^H (conj(s) y) / sqrt(P). With all N rows present
    its eigenvalues lie in N [min |s|^2, max |s|^2], so nonzero symbol
    decisions keep it well conditioned (condition number at most 9 for
    16-QAM, 49 for 64-QAM). SingularSystemError marks a rank-deficient
    system: fewer than `taps` nonzero decisions (diag(s) F_L has rank
    min(nonzeros, L), its rows being powers of distinct roots of unity), or a
    Levinson-Durbin prediction error on the Gram's first row below 1e-24 (a
    Cholesky diagonal entry, |diag R| of a QR of diag(s) F_L, below 1e-12).
    The solve reads the Gram as a sliding window over the 2L - 1 lags
    -(L - 1)..L - 1, so no (..., L, L) gather is built."""
    if taps > cfg.n:
        raise SingularSystemError(f"{taps} taps exceed {cfg.n} subcarriers")
    s_hat = np.asarray(s_hat)
    spectrum = np.fft.fft(np.abs(s_hat) ** 2, axis=-1)
    first_row = np.ascontiguousarray(np.moveaxis(spectrum[..., :taps], -1, 0))  # batch-last
    # an exactly singular Gram can leave prediction errors of rounding size,
    # above 1e-24, so the nonzero count is checked first; NaN fails the test
    if (np.min(np.count_nonzero(s_hat, axis=-1)) < taps
            or not np.min(_prediction_errors(first_row)) >= 1e-24):
        raise SingularSystemError("data-aided tap system is rank deficient")
    lags = np.concatenate([spectrum[..., cfg.n - taps + 1 :], spectrum[..., :taps]], axis=-1)
    gram = np.lib.stride_tricks.sliding_window_view(lags, taps, axis=-1)[..., ::-1, :]
    f_l = partial_fourier(cfg.n, taps)
    rhs = (np.conj(s_hat) * np.asarray(y) / np.sqrt(cfg.p_t)) @ np.conj(f_l)
    h = np.linalg.solve(gram, rhs[..., None])[..., 0]
    return h @ f_l.T


def separate_links(h_hat: np.ndarray, preamble):
    """Split composite estimates over the preamble into direct and backscatter
    responses.

    The preamble must be zero-sum and unit-modulus (ValueError otherwise);
    the split is then the plain average pair, which is the minimum-variance
    estimator. T=2 with symbols (1, -1) reduces to the half-sum /
    half-difference.
    """
    h_hat = np.asarray(h_hat)
    pre = np.asarray(preamble)
    if h_hat.shape[-2] != pre.shape[0]:
        raise ValueError("need one composite estimate per preamble symbol")
    if not (abs(pre.sum()) < 1e-9 and np.max(np.abs(np.abs(pre) - 1)) < 1e-12):
        raise ValueError("preamble violates the zero-sum unit-modulus conditions")
    return h_hat.mean(axis=-2), (np.conj(pre)[:, None] * h_hat).mean(axis=-2)


def detect_secondary(h_hat_n: np.ndarray, h_hat_d: np.ndarray, h_hat_b: np.ndarray, cfg: SystemConfig):
    """Project the composite-minus-direct estimate onto the backscatter
    response and take the nearest PSK point.

    h_hat_n may carry an extra symbol axis just before the subcarrier axis,
    in which case one decision per symbol comes back.
    """
    h_n = np.asarray(h_hat_n)
    h_d = np.asarray(h_hat_d)
    h_b = np.asarray(h_hat_b)
    norm2 = np.sum(np.abs(h_b) ** 2, axis=-1)
    if np.any(norm2 == 0):
        raise UndetectableSecondaryError("backscatter response estimate is zero")
    if h_n.ndim == h_d.ndim + 1:  # per-symbol stack
        h_d = h_d[..., None, :]
        h_b = h_b[..., None, :]
        norm2 = norm2[..., None]
    z = np.sum(np.conj(h_b) * (h_n - h_d), axis=-1) / norm2
    return cfg.psk.detect(z)


@dataclass(frozen=True)
class MlCandidates:
    """The terms of an ML search that do not depend on the received symbol,
    for one set of secondary candidates: a = sqrt(P)(H_d + c H_b) on the
    searched and the pilot subcarriers, the entries where every QAM point
    ties, and the divisor of the slicer. Built by `ml_candidates`."""

    values: np.ndarray = field(repr=False)  # (n_cand,) the candidates c
    searched: np.ndarray = field(repr=False)  # subcarriers of the QAM search
    pilots: np.ndarray = field(repr=False)  # comb subcarriers in the metric, if any
    a_d: np.ndarray = field(repr=False)  # (..., n_cand, n_searched)
    a_p: np.ndarray = field(repr=False)  # (..., n_cand, n_pilots)
    tied: np.ndarray = field(repr=False)  # |a_d| zero or subnormal
    divisor: np.ndarray = field(repr=False)  # a_d, 1 where tied


def ml_candidates(
    h_d: np.ndarray,
    h_b: np.ndarray,
    cfg: SystemConfig,
    *,
    pilot_structure: bool = True,
    candidates: Optional[np.ndarray] = None,
) -> MlCandidates:
    """The search terms of the secondary candidates (the PSK alphabet by
    default) against the responses h_d and h_b. With pilot_structure the
    comb carries its known symbol; without it every subcarrier is searched."""
    values = cfg.psk.points if candidates is None else np.asarray(candidates)
    searched = cfg.data_indices if pilot_structure else np.arange(cfg.n)
    pilots = cfg.pilot_indices if pilot_structure else cfg.pilot_indices[:0]
    a = np.sqrt(cfg.p_t) * composite_response(h_d, h_b, values)  # (..., n_cand, n)
    a_d = np.take(a, searched, axis=-1)
    tied = np.abs(a_d) < np.finfo(float).tiny
    a_p = np.take(a, pilots, axis=-1)
    return MlCandidates(values, searched, pilots, a_d, a_p, tied, np.where(tied, 1, a_d))


def ml_symbol_metrics(y: np.ndarray, cands: MlCandidates, cfg: SystemConfig):
    """Two-step ML metric for one OFDM symbol (batched over leading dims).

    For every secondary candidate c the per-subcarrier minimum over the QAM
    alphabet of |Y_k - a_k S|^2, a_k = sqrt(P)(H_d,k + c H_b,k), is
    accumulated; pilot subcarriers contribute their known symbol instead of a
    search. Returns (totals, s_idx) with totals shaped (..., n_candidates)
    and s_idx the per-candidate decisions on the searched subcarriers.

    The minimiser is the rail slicer on Y_k / a_k, and the distance is
    recomputed from the sliced point, so totals and decisions are those of an
    exhaustive first-index scan over the alphabet. Where |a_k| is zero or
    subnormal every point ties in floating point and index 0 is kept. (Only
    |a_k| below about 1e-11 |Y_k|, a fade some 220 dB deep, can leave the
    scan's rounded distances tied where the slicer still separates them.)
    """
    y = np.asarray(y)
    y_d = np.take(y, cands.searched, axis=-1)[..., None, :]
    with np.errstate(over="ignore"):
        s_idx = cfg.qam.detect(y_d / cands.divisor)
    np.copyto(s_idx, 0, where=cands.tied)
    # |y_d - a_d S|^2 in one buffer, summed over its contiguous subcarrier
    # axis (numpy's pairwise sum, as in the scan). np.multiply, not *, keeps
    # a_d the first factor: numpy's fused complex product rounds differently
    # with the operands swapped, which operator temporaries of 256 KiB and
    # more would do
    err = np.take(cfg.qam.points, s_idx)
    np.multiply(cands.a_d, err, out=err)
    np.subtract(y_d, err, out=err)
    dist = np.abs(err)
    totals = np.sum(np.square(dist, out=dist), axis=-1)
    if cands.pilots.size:  # the pilot symbols are 1
        y_p = np.take(y, cands.pilots, axis=-1)[..., None, :]
        totals += np.sum(np.abs(y_p - cands.a_p) ** 2, axis=-1)
    return totals, s_idx


def run_ml_benchmark(
    y: np.ndarray,
    cfg: SystemConfig,
    h_d: np.ndarray,
    h_b: np.ndarray,
    *,
    pilot_structure: bool = True,
) -> DetectionOutput:
    """Two-step ML receiver: joint per-symbol search over the secondary
    candidate and per-subcarrier QAM symbols, against the direct and
    backscatter responses h_d and h_b (the truth, or estimates).

    With pilot_structure the comb symbols are fixed in the metric and the
    preamble symbols are known; without it every subcarrier is searched and
    every symbol's secondary value is a free candidate (which leaves a sign
    ambiguity when the direct path is absent). Each candidate set's terms
    (the PSK alphabet, or one known preamble value) are built once per call.
    """
    y = np.asarray(y)
    n_sym = y.shape[-2]
    batch = y.shape[:-2]
    s_hat = np.empty(batch + (n_sym, cfg.n_data), dtype=np.int64)
    c_dec = np.empty(batch + (n_sym,), dtype=np.int64)
    c_val = np.empty(batch + (n_sym,), dtype=complex)
    free = ml_candidates(h_d, h_b, cfg, pilot_structure=pilot_structure)
    known = ([ml_candidates(h_d, h_b, cfg, candidates=[c]) for c in cfg.preamble]
             if pilot_structure else [])  # one candidate per known preamble symbol
    for m in range(n_sym):
        cands = known[m] if m < len(known) else free
        totals, s_idx = ml_symbol_metrics(y[..., m, :], cands, cfg)
        pick = np.argmin(totals, axis=-1)
        c_dec[..., m] = pick if len(cands.values) > 1 else -1
        chosen = np.take_along_axis(s_idx, pick[..., None, None], axis=-2)[..., 0, :]
        if not pilot_structure:  # keep only the data positions for error accounting
            chosen = np.take(chosen, cfg.data_indices, axis=-1)
        s_hat[..., m, :] = chosen
        c_val[..., m] = cands.values[pick]
    h_hat = composite_response(h_d, h_b, c_val)
    return DetectionOutput(
        s_hat=s_hat,
        c_hat=c_dec[..., cfg.t_preamble :],
        H_tilde=h_hat,
        H_hat=h_hat,
        H_hat_d=np.broadcast_to(np.asarray(h_d), batch + (cfg.n,)),
        H_hat_b=np.broadcast_to(np.asarray(h_b), batch + (cfg.n,)),
        n_erased=np.zeros(batch, dtype=np.int64),
    )


def _stage(stage: str, obs: FrameObservation, cfg: SystemConfig, taps: int, st: dict) -> dict:
    """What one receiver stage adds to st, the values of the stages before it,
    named as the fields of DetectionOutput (s_full: the symbols the
    re-estimate divides out). The functions above are looked up at call time,
    so a wrapper installed on a module name (a profiler's, say) sees each call."""
    y, real = obs.y, obs.realization
    if stage == "pilot_ls":  # a comb short of the model order runs at its own, aliasing
        return {"H_tilde": PilotEstimator(cfg, min(taps, cfg.n_p)).estimate_cfr(y)}
    if stage == "true_composite":  # the response y was received through, where the path kept it
        if obs.H is not None:
            return {"H_tilde": obs.H}
        return {"H_tilde": composite_response(real.H_d, obs.H_b, obs.c_values)}
    if stage == "primary":
        s_idx, erased = detect_primary(y, st["H_tilde"], cfg)
        return {"s_hat": s_idx, "n_erased": np.sum(erased, axis=(-2, -1))}
    if stage == "decided":
        return {"s_full": full_symbol_vector(st["s_hat"], cfg)}
    if stage == "genie":
        return {"s_full": obs.s_values}
    if stage == "method1":
        return {"H_hat": reestimate_method1(y, st["s_full"], cfg)}
    if stage == "method2":  # more taps than subcarriers (a sync error near a symbol) run at order n
        return {"H_hat": reestimate_method2(y, st["s_full"], cfg, min(taps, cfg.n))}
    if stage == "no_reestimate":
        return {"H_hat": st["H_tilde"]}
    if stage == "split":
        h_d, h_b = separate_links(st["H_hat"][..., : cfg.t_preamble, :], cfg.preamble)
        return {"H_hat_d": h_d, "H_hat_b": h_b}
    if stage == "true_links":  # with the timing-error phase
        batch = y.shape[:-2] + (cfg.n,)
        return {"H_hat_d": np.broadcast_to(real.H_d, batch), "H_hat_b": np.broadcast_to(obs.H_b, batch)}
    if stage == "raw_links":  # without it
        return {"H_hat_d": real.H_d, "H_hat_b": real.H_b}
    if stage == "project":
        h_n = st["H_hat"][..., cfg.t_preamble :, :]
        return {"c_hat": detect_secondary(h_n, st["H_hat_d"], st["H_hat_b"], cfg)}
    if stage in ("ml_search", "ml_search_nopilot"):
        return vars(run_ml_benchmark(y, cfg, st["H_hat_d"], st["H_hat_b"],
                                     pilot_structure=stage == "ml_search"))
    raise ValueError(f"unknown receiver stage {stage!r}")


def run_algorithm1(obs: FrameObservation, cfg: SystemConfig, stages: tuple, *, taps: int,
                   detect_c: bool = True, memo: Optional[dict] = None) -> DetectionOutput:
    """Run a receiver's chain of stages over a frame (or batch of frames).

    stages names one variant of each step, in order: composite estimate
    ("pilot_ls", "true_composite"), primary decisions ("primary"), symbols for
    re-estimation ("decided", "genie"), re-estimate ("method1", "method2",
    "no_reestimate"), links ("split", "true_links", "raw_links") and secondary
    ("project", "ml_search", "ml_search_nopilot"); the ML benchmark needs only
    links and a search. The paper's Algorithm 1 is ("pilot_ls", "primary",
    "decided", "method2", "split", "project"). taps is the receiver's model
    order. detect_c=False (no backscatter link) skips the projection and
    returns no secondary decisions. memo maps each stage prefix to its values:
    receivers run with one memo over the same frames share their prefixes.
    """
    memo = {} if memo is None else memo
    stages = tuple(s for s in stages if detect_c or s != "project")
    st = {}
    for i, stage in enumerate(stages):
        key = stages[: i + 1]
        if key not in memo:
            memo[key] = {**st, **_stage(stage, obs, cfg, taps, st)}
        st = memo[key]
    out = DetectionOutput(**{f.name: st.get(f.name) for f in fields(DetectionOutput)})
    return out if detect_c else replace(out, c_hat=None)
