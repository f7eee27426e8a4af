"""Deterministic Monte Carlo BER engine.

Each trial owns a counter-based random stream keyed by (master_seed,
trial_index), so results are bit-identical for any chunking or worker count.
No sweep axis changes what a trial draws (unit taps, symbol indices, noise),
only how the taps are scaled and how the frame is received. So a sweep's
unit of work is one fixed range of trials over every point: the range is
drawn once (`draw_trials`), stacked into arrays, and each point scales those
draws and runs the whole receive/detect chain batched through numpy
(`observe_trials`). Points that differ only in transmit power or sync
error share one channel configuration, and with it what a chunk derives
once for it: the realization, and the composite response on the
frequency path or the sample path's timing-error-free streams.

`RECEIVERS` is a table of `ReceiverSpec` entries, one per curve: its CSI
label, its stage tuple and the companions the paper pairs with it. Adding a
receiver means adding one entry; a chunk runs each stage prefix once.
"""
from __future__ import annotations

import ctypes
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from functools import cache
from numbers import Integral
from typing import Callable, Optional

import numpy as np

from srofdm import theory
from srofdm.channel import (
    ChannelConfig,
    ChannelRealization,
    composite_response,
    composite_tap_count,
    fading_tap_count,
    realization_from_taps,
    scale_link_taps,
)
from srofdm.numerics import RandomStream, cn_from_normals
from srofdm.receiver import FrameObservation, run_algorithm1
from srofdm.txchain import (
    SystemConfig,
    frequency_domain_rx,
    modulate_primary,
    sample_level_rx,
    sample_level_streams,
    secondary_frame,
)

__all__ = [
    "RECEIVERS",
    "ReceiverSpec",
    "Scenario",
    "ScenarioError",
    "SweepSpec",
    "PointResult",
    "BerCurve",
    "transmit_power",
    "from_db",
    "apply_axis",
    "TrialDraws",
    "draw_trials",
    "observe_trials",
    "draw_frame_batch",
    "run_trial",
    "run_sweep",
]

CHUNK_TRIALS = 256  # fixed block size; results never depend on it

# each sweep axis, with the channel models whose gain it sets or scales: with
# such a model at "none" the axis would divide by a zero gain or do nothing
SWEEP_AXES = {
    "direct_snr_db": ("direct_model",),
    "snr_ratio_db": ("direct_model", "backscatter_model"),
    "stx_distance_m": (),
    "sync_error_samples": (),
    "backscatter_snr_db": ("backscatter_model",),
}


class ScenarioError(ValueError):
    """Configuration problem: a bad scenario value, or an axis the scenario
    cannot sweep."""


# Closed-form companions, conditioned on the drawn realizations (the analytic
# curve is the average of per-realization evaluations over exactly the
# simulated channels). Each maps (input, system, taps) to the sums of a batch
# under the CSV's theory keys, or nothing where its formula does not apply.
# A primary companion's input, which both share, is (snr, rows): the
# perfect-CSI `theory.composite_snr` on the chunk's distinct (trial, c(n))
# rows, and each symbol's row (`_distinct_rows`); a secondary one's is the
# backscatter response H_b.
def _primary_perfect(grid, system, taps):
    snr, rows = grid
    ser, ber = theory.primary_rates_perfect(snr, system, rows=rows)
    return {"primary_ser_theory": float(np.sum(ser)), "primary_ber_theory": float(np.sum(ber))}


def _primary_estimated(grid, system, taps):
    if system.n_p < taps:  # the comb cannot resolve the composite response
        return {}
    snr, rows = grid
    ser, ber = theory.primary_rates_estimated(snr, system, taps, rows=rows)
    return {"primary_ser_theory": float(np.sum(ser)), "primary_ber_theory": float(np.sum(ber))}


def _secondary_perfect(h_b, system, taps):  # eq. 15, the lower bound
    return {"secondary_ber_theory": float(np.sum(theory.ber_secondary_perfect(h_b, system)))}


def _secondary_method1(h_b, system, taps):
    snr = theory.snr_secondary_method1(h_b, system)
    return {"secondary_ber_theory": float(np.sum(theory.ber_psk_from_snr(snr, system.m_c)))}


def _secondary_method2(h_b, system, taps):  # at min(taps, n), the order the method2 stage runs
    snr = theory.snr_secondary_method2(h_b, system, min(taps, system.n))
    return {"secondary_ber_theory": float(np.sum(theory.ber_psk_from_snr(snr, system.m_c)))}


@dataclass(frozen=True)
class ReceiverSpec:
    """One receiver curve. `stages` names its detection chain in order, as
    `receiver.run_algorithm1` runs it; the primary companion maps
    ((composite_snr rows, row index), system, taps) and the secondary one
    (H_b, system, taps) to theory sums, and None marks a curve the paper
    gives no closed form for."""

    csi: str
    stages: tuple
    primary_theory: Optional[Callable] = None
    secondary_theory: Optional[Callable] = None


_PILOT = ("pilot_ls", "primary")  # comb-pilot estimate, primary decisions against it
RECEIVERS = {
    # per-symbol composite extraction with the true symbols: noise still limits it
    "perfect_csi": ReceiverSpec(
        "perfect", ("true_composite", "primary", "genie", "method1", "true_links", "project"),
        _primary_perfect, _secondary_perfect),
    "proposed_m1": ReceiverSpec("estimated", _PILOT + ("decided", "method1", "split", "project"),
                                _primary_estimated, _secondary_method1),
    "proposed_m2": ReceiverSpec("estimated", _PILOT + ("decided", "method2", "split", "project"),
                                _primary_estimated, _secondary_method2),
    "proposed_m1_genie": ReceiverSpec("estimated", _PILOT + ("genie", "method1", "split", "project"),
                                      _primary_estimated, _secondary_method1),
    "proposed_m2_genie": ReceiverSpec("estimated", _PILOT + ("genie", "method2", "split", "project"),
                                      _primary_estimated, _secondary_method2),
    "pilot_only": ReceiverSpec("estimated", _PILOT + ("no_reestimate", "split", "project"),
                               _primary_estimated),
    "ml_perfect": ReceiverSpec("perfect", ("raw_links", "ml_search")),
    "ml_estimated": ReceiverSpec("estimated", _PILOT + ("decided", "method2", "split", "ml_search")),
    "ml_nopilot": ReceiverSpec("perfect", ("raw_links", "ml_search_nopilot")),
}


@dataclass(frozen=True)
class Scenario:
    """Resolved simulation scenario: link geometry plus the anchor SNRs that
    pin the transmit power when an axis does not sweep it directly."""

    system: SystemConfig
    chan: ChannelConfig
    direct_snr_db: float = 20.0
    backscatter_snr_db: Optional[float] = None
    sync_error: int = 0

    def __post_init__(self):
        """Joint feasibility: the taps fit the CP, the pilot comb resolves the
        synchronized composite response, the sync error lies in a symbol,
        and data subcarriers remain beside the comb."""
        system, chan = self.system, self.chan
        if chan.l_d > system.n_cp:
            raise ScenarioError(f"direct taps {chan.l_d} exceed CP length {system.n_cp}")
        if chan.l_b + chan.d_b > system.n_cp:
            raise ScenarioError(f"backscatter span {chan.l_b}+{chan.d_b} exceeds CP length {system.n_cp}")
        taps = composite_tap_count(chan)
        if system.n_p < taps:
            raise ScenarioError(f"{system.n_p} pilots cannot resolve {taps} composite taps")
        if not 0 <= self.sync_error < system.symbol_period:
            raise ScenarioError(f"sync error {self.sync_error} outside [0, {system.symbol_period})")
        if system.n_p == system.n:
            raise ScenarioError(f"n_p = {system.n_p} pilots leave no data subcarrier of n = {system.n}")


def transmit_power(scenario: Scenario, chan: ChannelConfig) -> float:
    """Power that realizes the anchor SNR: direct-link SNR when the direct
    path exists, otherwise the backscatter-link SNR."""
    s2 = scenario.system.sigma2
    if chan.direct_model != "none":
        return from_db(scenario.direct_snr_db) * s2 / chan.beta_direct
    if scenario.backscatter_snr_db is None or chan.backscatter_model == "none":
        raise ScenarioError("no direct link: scenario needs backscatter_snr_db and a backscatter link")
    return from_db(scenario.backscatter_snr_db) * s2 / chan.beta_backscatter


def from_db(db: float) -> float:
    """10^(db/10), or inf where that overflows a float."""
    try:
        return 10 ** (db / 10.0)
    except OverflowError:
        return float("inf")


def _positive_finite(axis: str, value: float, what: str, x: float) -> float:
    if not 0 < x < float("inf"):
        raise ScenarioError(f"axis {axis} = {value:g} gives {what} {x:g}; it must be positive and finite")
    return x


def _point_checked(axis: str, value: float, check: Callable):
    """check(), with a ValueError of the channel model (a gain that is not
    positive and finite) reported as a ScenarioError of the point."""
    try:
        return check()
    except ValueError as exc:
        raise ScenarioError(f"axis {axis} = {value:g}: {exc}") from None


def apply_axis(scenario: Scenario, axis: str, value: float):
    """Resolve one sweep point into (SystemConfig, ChannelConfig, xi)."""
    if axis not in SWEEP_AXES:
        raise ScenarioError(f"unknown sweep axis {axis!r}")
    chan = scenario.chan
    for model in SWEEP_AXES[axis]:
        if getattr(chan, model) == "none":
            raise ScenarioError(f"axis {axis} needs the link that {model} = none removes")
    xi = scenario.sync_error
    if axis == "snr_ratio_db":
        ratio = _positive_finite(axis, value, "an SNR ratio of", from_db(value))
        direct = _point_checked(axis, value, lambda: chan.beta_direct)
        chan = replace(chan, beta_backscatter_override=ratio * direct)
    elif axis == "stx_distance_m":
        if not 0 < value < chan.dist_direct:
            raise ScenarioError(
                f"axis {axis} = {value:g} gives a tag position outside the"
                f" {chan.dist_direct:g} m link; it must lie strictly between the endpoints")
        chan = replace(chan, dist_fwd=float(value), dist_bwd=None)
    elif axis == "sync_error_samples":
        period = scenario.system.symbol_period
        if not -0.5 < value < period - 0.5:  # round(value) in [0, period)
            raise ScenarioError(
                f"axis {axis} = {value:g} gives a sync error outside [0, {period}) samples")
        xi = int(round(value))

    _point_checked(axis, value, chan.check_gains)
    s2 = scenario.system.sigma2
    if axis == "direct_snr_db":
        p_t = from_db(value) * s2 / chan.beta_direct
    elif axis == "backscatter_snr_db":
        p_t = from_db(value) * s2 / chan.beta_backscatter
    else:
        p_t = transmit_power(scenario, chan)
    p_t = _positive_finite(axis, value, "a transmit power of", p_t)
    system = replace(scenario.system, p_t=p_t)
    return system, chan, xi


def _check_receivers(receivers):
    for i, r in enumerate(receivers):
        if r not in RECEIVERS:
            raise ScenarioError(f"unknown receiver {r!r}")
        if r in receivers[:i]:
            raise ScenarioError(f"receiver {r!r} is listed twice")


@dataclass(frozen=True)
class SweepSpec:
    """One experiment: an axis, its points, and the receiver curves to run."""

    axis: str
    points: tuple
    trials_per_point: int
    receivers: tuple = ("perfect_csi", "proposed_m1", "proposed_m2")
    with_theory: bool = True  # attach per-realization analytic companions

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ScenarioError(f"unknown sweep axis {self.axis!r}")
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0 or not np.all(np.isfinite(pts)) or np.any(np.diff(pts) <= 0):
            raise ScenarioError("sweep points must be finite and strictly increasing")
        if not isinstance(self.trials_per_point, Integral):
            raise ScenarioError(f"trials per point must be an integer, got {self.trials_per_point!r}")
        if self.trials_per_point < 10**3:
            raise ScenarioError(
                f"need at least 10^3 trials per point, got {self.trials_per_point}")
        _check_receivers(self.receivers)


@dataclass
class PointResult:
    """Accumulated counts for one receiver at one sweep point."""

    point: float
    trials: int = 0
    primary_bits: int = 0
    primary_bit_errors: int = 0
    primary_symbols: int = 0
    primary_symbol_errors: int = 0
    secondary_bits: int = 0
    secondary_bit_errors: int = 0
    erasures: int = 0
    theory_sums: dict = field(default_factory=dict)

    @staticmethod
    def _rate(errors, total):
        return errors / total if total else float("nan")

    @staticmethod
    def _halfwidth(rate, total):
        if not total:
            return float("nan")
        return 1.96 * np.sqrt(rate * (1.0 - rate) / total)

    @property
    def ber_primary(self):
        return self._rate(self.primary_bit_errors, self.primary_bits)

    @property
    def ci_primary(self):
        return self._halfwidth(self.ber_primary, self.primary_bits)

    @property
    def ser_primary(self):
        return self._rate(self.primary_symbol_errors, self.primary_symbols)

    @property
    def ci_ser_primary(self):
        return self._halfwidth(self.ser_primary, self.primary_symbols)

    @property
    def ber_secondary(self):
        return self._rate(self.secondary_bit_errors, self.secondary_bits)

    @property
    def ci_secondary(self):
        return self._halfwidth(self.ber_secondary, self.secondary_bits)

    def theory_mean(self, key):
        return self.theory_sums[key] / self.trials if key in self.theory_sums else None

    def merge(self, other: "PointResult"):
        for f in fields(self)[1:-1]:  # the integer counters between point and theory_sums
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        for k, v in other.theory_sums.items():
            self.theory_sums[k] = self.theory_sums.get(k, 0.0) + v


@dataclass
class BerCurve:
    receiver: str
    csi: str
    axis: str
    points: list  # of PointResult


@dataclass(frozen=True)
class TrialDraws:
    """What a range of trials draws, which no sweep point changes: each
    trial's CN(0, 1) fading taps before their large-scale gains, its symbol
    indices and values, and its receive noise, stacked over the range and
    shaped for the receive path ("frequency" or "sample") they were drawn for."""

    path: str
    unit_taps: np.ndarray = field(repr=False)  # (batch, fading_tap_count)
    s_indices: np.ndarray = field(repr=False)  # (batch, n_max, n_data)
    s_values: np.ndarray = field(repr=False)  # (batch, n_max, n)
    c_indices: np.ndarray = field(repr=False)  # (batch, n_max - T)
    c_values: np.ndarray = field(repr=False)  # (batch, n_max)
    noise: Optional[np.ndarray] = field(repr=False)  # CN(0, sigma2); None when sigma2 = 0


def draw_trials(
    system: SystemConfig,
    chan: ChannelConfig,
    master_seed: int,
    trial_ids,
    path: str = "frequency",
) -> TrialDraws:
    """Draw a batch of independent trials, one stream per trial id.

    Per-trial draw order is fixed (channel taps, primary indices, secondary
    indices, noise), which is what the reproducibility contract rests on.
    The real normals go straight into (batch, 2, count) buffers and become
    complex once per batch: the same elementwise operations as one
    `draw_cn` per trial, so the same bits.
    """
    trial_ids = list(trial_ids)
    batch = len(trial_ids)
    noise_len = system.n_max * (system.symbol_period if path == "sample" else system.n)
    tap_z = np.empty((batch, 2, fading_tap_count(chan)))
    s_idx = np.empty((batch, system.n_max, system.n_data), dtype=np.int64)
    c_idx = np.empty((batch, system.n_data_symbols), dtype=np.int64)
    noise_z = np.empty((batch, 2, noise_len)) if system.sigma2 > 0 else None
    stream = None  # keyed to the first trial, then rewound per trial; cheaper than a new one
    for i, tid in enumerate(trial_ids):
        stream = RandomStream(master_seed, tid) if stream is None else stream.reset(master_seed, tid)
        stream.normals(out=tap_z[i])
        s_idx[i] = stream.integers(0, system.m_s, size=(system.n_max, system.n_data))
        c_idx[i] = stream.integers(0, system.m_c, size=system.n_data_symbols)
        if noise_z is not None:
            stream.normals(out=noise_z[i])

    noise = None
    if noise_z is not None:
        noise = cn_from_normals(noise_z)
        noise *= np.sqrt(system.sigma2)
        if path != "sample":
            noise = noise.reshape(batch, system.n_max, system.n)
    return TrialDraws(
        path=path, unit_taps=cn_from_normals(tap_z),
        s_indices=s_idx, s_values=modulate_primary(s_idx, system),
        c_indices=c_idx, c_values=secondary_frame(c_idx, system), noise=noise,
    )


@dataclass(frozen=True)
class _Channel:
    """What every point of one ChannelConfig shares over drawn trials: the
    realization; on the frequency path the composite response H, and on the
    sample path the (direct, back) streams of `sample_level_streams`, which
    every sync error delays and adds (each None on the other path); and for
    the primary companions |H|^2 on the data subcarriers at the distinct
    rows of `_distinct_rows` with each symbol's row (both None without
    them). Its arrays are read-only."""

    realization: ChannelRealization
    H: Optional[np.ndarray]
    streams: Optional[tuple] = None
    data_gain: Optional[np.ndarray] = None
    rows: Optional[np.ndarray] = None


def _derive_channel(draws: TrialDraws, system: SystemConfig, chan: ChannelConfig,
                    distinct=None) -> _Channel:
    """The `_Channel` of drawn trials at chan's link gains; `distinct`, the
    `_distinct_rows` of the draws, asks for the companions' fields."""
    if draws.unit_taps.shape[-1] != fading_tap_count(chan):
        raise ValueError("the draws were made for other channel models or tap counts")
    real = realization_from_taps(*scale_link_taps(chan, draws.unit_taps), chan.d_b, system.n)
    h, streams = None, None
    if draws.path == "sample":
        streams = sample_level_streams(draws.s_values, draws.c_values, real, system)
    else:
        h = composite_response(real.H_d, real.H_b, draws.c_values)
    for held in (h, *(streams or ())):
        if held is not None:
            held.setflags(write=False)  # every point's receive path reads it
    if distinct is None:
        return _Channel(real, h, streams)
    first, rows = distinct  # composite_snr's grid, on the distinct rows only
    full = composite_response(real.H_d, real.H_b, draws.c_values) if h is None else h
    gain = np.abs(np.take(full.reshape(-1, system.n)[first], system.data_indices, axis=-1)) ** 2
    return _Channel(real, h, streams, gain, rows)


def _distinct_rows(c_values: np.ndarray):
    """(first, rows) over a chunk's (trial, symbol) grid: the flat index of
    the first symbol of each distinct (trial, c(n)) pair, and each symbol's
    index into them, shaped like c_values. A composite response row
    H_d + c(n) H_b is a function of that pair, so equal pairs give equal
    bytes. c(n) is keyed by its bits, so only bit-equal values share a row:
    the preamble's 1+0j is PSK point 0, but its -1+0j is not the PSK point
    -1+1.2e-16j."""
    batch, n_sym = c_values.shape
    keys = np.empty((batch, n_sym, 3), dtype=np.uint64)
    keys[..., 0] = np.arange(batch)[:, None]
    keys[..., 1:] = np.ascontiguousarray(c_values).view(np.uint64).reshape(batch, n_sym, 2)
    _, first, rows = np.unique(keys.reshape(-1, 3), axis=0, return_index=True, return_inverse=True)
    return first, rows.reshape(batch, n_sym)


def _receive(draws: TrialDraws, system: SystemConfig, channel: _Channel, xi: int) -> FrameObservation:
    """The draws through their receive path at one point of `channel`'s
    config. The one place an observation is assembled: y from the receive
    path, and beside it the drawn values, the channel that made it and the
    backscatter response H_b y went through: a sync error of xi samples
    turns subcarrier k by the phase exp(-2j pi k xi / n)."""
    if xi and draws.path != "sample":
        raise ValueError(f"a sync error of {xi} samples needs the sample path,"
                         f" and these draws are for the {draws.path} path")
    h_b = channel.realization.H_b
    if draws.path == "sample":
        y = sample_level_rx(channel.streams, system, xi, noise=draws.noise)
        if xi:
            h_b = h_b * np.exp(-2j * np.pi * np.arange(system.n) * xi / system.n)
    else:
        y = frequency_domain_rx(draws.s_values, channel.H, system, noise=draws.noise)
    return FrameObservation(y=y, s_values=draws.s_values, c_values=draws.c_values,
                            realization=channel.realization, H_b=h_b, H=channel.H)


def observe_trials(draws: TrialDraws, system: SystemConfig, chan: ChannelConfig,
                   xi: int = 0) -> FrameObservation:
    """Receive drawn trials at one point and return their observation, with
    the backscatter response its sync error gives, as `_receive` assembles
    every sweep point's: the unit taps scaled by the point's link gains and
    the draws' receive path in one vectorized call. `system` and `chan` may
    differ from the draw's only where no sweep axis changes the draws."""
    return _receive(draws, system, _derive_channel(draws, system, chan), xi)


def draw_frame_batch(
    system: SystemConfig,
    chan: ChannelConfig,
    master_seed: int,
    trial_ids,
    xi: int = 0,
    path: str = "frequency",
) -> FrameObservation:
    """Draw a batch of independent trials and run them through the requested
    receive path: `observe_trials` of `draw_trials`."""
    return observe_trials(draw_trials(system, chan, master_seed, trial_ids, path), system, chan, xi)


def _count_errors(result: PointResult, draws: TrialDraws, out, system: SystemConfig):
    """Add one receiver's decisions over a chunk to its counters, counted
    against the indices the chunk drew."""
    s_idx, c_idx = draws.s_indices, draws.c_indices
    result.trials += s_idx.shape[0]
    result.primary_symbols += s_idx.size
    result.primary_symbol_errors += int(np.sum(out.s_hat != s_idx))
    result.primary_bits += s_idx.size * system.qam.bits_per_symbol
    result.primary_bit_errors += int(np.sum(system.qam.bit_errors(s_idx, out.s_hat)))
    result.erasures += int(np.sum(out.n_erased))
    if out.c_hat is not None:
        result.secondary_bits += c_idx.size * system.psk.bits_per_symbol
        result.secondary_bit_errors += int(np.sum(system.psk.bit_errors(c_idx, out.c_hat)))


def _receive_path(axis: str, sync_error: int) -> str:
    """The receive path of every point of a sweep: only a sync error needs
    the sample-level path, and no other axis changes the scenario's."""
    return "sample" if axis == "sync_error_samples" or sync_error > 0 else "frequency"


def _run_point(draws: TrialDraws, point, channel: _Channel, receivers, with_theory) -> dict:
    """{receiver: PointResult} of one resolved point over drawn trials,
    received through the `_Channel` of its ChannelConfig."""
    value, system, chan, xi = point
    obs = _receive(draws, system, channel, xi)
    taps = composite_tap_count(chan, xi)
    with_backscatter = chan.backscatter_model != "none"
    memo = {}  # stage prefix -> its values over this chunk, while a later receiver shares it
    results = {name: PointResult(point=value) for name in receivers}
    for i, name in enumerate(receivers):  # no output outlives its counting
        _count_errors(results[name], draws, run_algorithm1(
            obs, system, RECEIVERS[name].stages, taps=taps, detect_c=with_backscatter, memo=memo), system)
        later = [RECEIVERS[r].stages for r in receivers[i + 1 :]]
        memo = {key: v for key, v in memo.items() if any(s[: len(key)] == key for s in later)}
    if not with_theory:
        return results
    primary = None  # built once for every primary companion of the point
    if channel.data_gain is not None:
        primary = (theory.snr_from_gain(channel.data_gain, system), channel.rows)
    sums = {}  # companion -> its sums over this chunk; receivers share them
    for name in receivers:
        spec = RECEIVERS[name]
        for companion, given in ((spec.primary_theory, primary),
                                 (spec.secondary_theory if with_backscatter else None,
                                  channel.realization.H_b)):
            if companion is not None:
                if companion not in sums:
                    sums[companion] = companion(given, system, taps)
                results[name].theory_sums.update(sums[companion])
    return results


# glibc's mallopt parameters and the values pinned: the ceiling of its
# dynamic mmap threshold on 64-bit builds, and twice that for trimming
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_BYTES = 32 << 20
TRIM_THRESHOLD_BYTES = 64 << 20


@cache
def _pin_heap_thresholds() -> None:
    """Keep a chunk's multi-MB temporaries on the heap. By default glibc
    serves each from a fresh mmap, or trims it back to the kernel once
    freed, until a large enough free raises its dynamic threshold; every
    chunk then faults the same pages in again. Pinning both thresholds at
    the ceiling of that dynamic rule ends this from the first chunk on.
    Once per process, for its rest; a no-op where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def _process_chunk(args) -> list:
    """One range of trials at every resolved point: [{receiver: PointResult}]
    in point order. The range is drawn once, and each run of consecutive
    points with one ChannelConfig (every point of an axis that sets only
    p_t or the sync error) derives its `_Channel` once; only one point's
    observation and one `_Channel` live at a time. The unit of work in
    process and in every pool worker, so it pins the heap thresholds first
    (`_pin_heap_thresholds`)."""
    _pin_heap_thresholds()
    (path, points, master_seed, trial_ids, receivers, with_theory) = args
    _, system, chan, _ = points[0]  # every point draws the same: see TrialDraws
    draws = draw_trials(system, chan, master_seed, trial_ids, path)
    distinct = None
    if with_theory and any(RECEIVERS[name].primary_theory for name in receivers):
        distinct = _distinct_rows(draws.c_values)
    results, held, channel = [], None, None
    for point in points:
        if point[2] != held:
            channel = None  # the last config's record goes before the next one is built
            held, channel = point[2], _derive_channel(draws, system, point[2], distinct)
        results.append(_run_point(draws, point, channel, receivers, with_theory))
    return results


def _prepare(scenario: Scenario, axis: str, values) -> tuple:
    """(receive path, points) of a run, each point its (value, SystemConfig,
    ChannelConfig, xi), after every check that can fail before a draw."""
    points = tuple((float(v), *apply_axis(scenario, axis, float(v))) for v in values)
    return _receive_path(axis, scenario.sync_error), points


def run_trial(scenario: Scenario, axis: str, value: float, trial_index: int,
              master_seed: int, receivers) -> dict:
    """One trial's error counts for each requested receiver; bitwise
    reproducible from (master_seed, trial_index)."""
    _check_receivers(receivers)
    path, points = _prepare(scenario, axis, [value])
    return _process_chunk((path, points, master_seed, [trial_index], receivers, True))[0]


def run_sweep(
    spec: SweepSpec,
    scenario: Scenario,
    master_seed: int,
    workers: int = 1,
) -> dict:
    """Run every (point, receiver) cell and return {receiver: BerCurve}.

    Every point is resolved first, so a point that cannot run fails the
    sweep before any trial is drawn. Trials then split into fixed-size
    ranges, and one task draws a range once and runs every point on it.
    The tasks run on one process pool of min(workers, ranges) processes,
    created once per sweep, or in this process when that is 1. Each point's
    ranges are reduced in index order, so error counts and companion sums
    are identical for any worker count.
    """
    if not isinstance(workers, Integral):
        raise ScenarioError(f"the worker count must be an integer, got {workers!r}")
    if workers < 1:
        raise ScenarioError(f"need at least 1 worker, got {workers}")
    path, points = _prepare(scenario, spec.axis, spec.points)
    tasks = [
        (path, points, master_seed,
         range(start, min(start + CHUNK_TRIALS, spec.trials_per_point)),
         tuple(spec.receivers), spec.with_theory)
        for start in range(0, spec.trials_per_point, CHUNK_TRIALS)
    ]
    totals = {
        name: {value: PointResult(point=value) for value, *_ in points}
        for name in spec.receivers
    }
    # one pool for the whole sweep, no larger than the work; map yields in submission order
    processes = min(workers, len(tasks))
    with ProcessPoolExecutor(max_workers=processes) if processes > 1 else nullcontext() as pool:
        outputs = pool.map(_process_chunk, tasks, chunksize=1) if pool else map(_process_chunk, tasks)
        for per_point in outputs:  # fixed range order
            for (value, *_), results in zip(points, per_point):
                for name in spec.receivers:
                    totals[name][value].merge(results[name])
    return {
        name: BerCurve(receiver=name, csi=RECEIVERS[name].csi, axis=spec.axis,
                       points=list(totals[name].values()))
        for name in spec.receivers
    }
