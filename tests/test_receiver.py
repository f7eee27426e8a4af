import warnings
import weakref
from dataclasses import fields, replace
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    COMBS,
    QAM_ORDERS,
    assert_same_metrics,
    draw_channel,
    draw_noise,
    draw_primary,
    draw_secondary,
    exhaustive_ml_symbol_metrics,
    flag_run_algorithm1,
    flag_run_ml_benchmark,
    gather_detect_primary,
    gathered_reestimate_method2,
    lstsq_separate_links,
    observe,
    qr_pilot_gain,
    qr_reestimate_method2,
    ser_qam_awgn,
)
from srofdm.channel import (
    ChannelConfig,
    composite_response,
    composite_tap_count,
)
from srofdm.cli import load_scenario_file, resolve_scenario
from srofdm.harness import CHUNK_TRIALS, RECEIVERS, Scenario, apply_axis, draw_frame_batch
from srofdm.numerics import RandomStream, SingularSystemError, draw_cn, partial_fourier, q_function
from srofdm.receiver import (
    DetectionOutput,
    FrameObservation,
    PilotEstimator,
    UndetectableSecondaryError,
    _prediction_errors,
    detect_primary,
    detect_secondary,
    ml_candidates,
    ml_symbol_metrics,
    reestimate_method1,
    reestimate_method2,
    run_algorithm1,
    separate_links,
)
from srofdm.txchain import SystemConfig, modulate_primary


def cfg_with(**kw) -> SystemConfig:
    base = dict(
        n=64,
        n_cp=16,
        n_p=8,
        m_s=16,
        m_c=8,
        n_max=10,
        p_t=1.0,
        sigma2=1e-3,
    )
    base.update(kw)
    return SystemConfig(**base)


def noise_free_obs(seed=1, ms=16, mc=8, ch=None):
    cfg = cfg_with(sigma2=0.0, m_s=ms, m_c=mc)
    ch = ch or ChannelConfig()
    real = draw_channel(ch, RandomStream(seed, 0), cfg.n)
    s, si = draw_primary(cfg, RandomStream(seed, 1))
    c, ci = draw_secondary(cfg, RandomStream(seed, 2))
    obs = observe(s, c, real, cfg)
    return cfg, ch, obs, si, ci


class TestPilotEstimation:
    def test_impulse_channel_recovered(self):
        cfg = cfg_with()
        taps = 4
        f_p = partial_fourier(cfg.n, taps)[cfg.pilot_indices, :]
        h_true = np.zeros(taps, dtype=complex)
        h_true[0] = 1.0
        y_p = np.sqrt(cfg.p_t) * (f_p @ h_true)  # the pilot symbols are 1
        h = PilotEstimator(cfg, taps).estimate_cir(y_p)
        np.testing.assert_allclose(h, h_true, atol=1e-10)

    def test_equally_spaced_comb_is_matched_filter(self):
        # F_p^H F_p = N_p I, so the estimator collapses to a scaled adjoint
        cfg = cfg_with()
        taps = 4
        est = PilotEstimator(cfg, taps)
        f_p = partial_fourier(cfg.n, taps)[cfg.pilot_indices, :]
        np.testing.assert_allclose(f_p.conj().T @ f_p, cfg.n_p * np.eye(taps), atol=1e-10)
        expected_gain = f_p.conj().T / (cfg.n_p * np.sqrt(cfg.p_t))
        np.testing.assert_allclose(est.gain, expected_gain, atol=1e-10)

    @pytest.mark.parametrize("n, n_ps", [(16, (1, 2, 4, 8, 16)), (64, (2, 4, 8, 16, 32))])
    def test_closed_form_is_the_qr_least_squares(self, n, n_ps):
        for n_p in n_ps:
            cfg = cfg_with(n=n, n_p=n_p, p_t=2.5)
            for taps in range(1, n_p + 1):
                np.testing.assert_allclose(PilotEstimator(cfg, taps).gain, qr_pilot_gain(cfg, taps),
                                           rtol=0, atol=1e-12)

    def test_too_many_taps_rejected(self):
        with pytest.raises(SingularSystemError):
            PilotEstimator(cfg_with(), taps=9).estimate_cir(np.ones(8))

    def test_noisy_tap_error_variance(self):
        # per-tap error variance sigma^2 / (N_p P_T)
        cfg = cfg_with(p_t=2.0, sigma2=0.05)
        taps = 4
        est = PilotEstimator(cfg, taps)
        trials = 10**5
        u = draw_cn(RandomStream(40, 0), trials * cfg.n_p, cfg.sigma2).reshape(trials, cfg.n_p)
        err = est.estimate_cir(u)  # zero channel: estimate = filtered noise
        var = np.mean(np.abs(err) ** 2)
        assert var == pytest.approx(cfg.sigma2 / (cfg.n_p * cfg.p_t), rel=0.03)


class TestCirToCfr:
    def test_unit_first_tap(self):
        h = np.array([1.0 + 0j])
        np.testing.assert_allclose(h @ partial_fourier(8, 1).T, np.ones(8))

    def test_second_tap_is_second_column(self):
        h = np.array([0.0, 1.0], dtype=complex)
        np.testing.assert_allclose(h @ partial_fourier(8, 2).T, partial_fourier(8, 2)[:, 1], atol=1e-12)

    def test_matches_zero_padded_fft(self):
        h = draw_cn(RandomStream(41, 0), 5, 1.0)
        np.testing.assert_allclose(h @ partial_fourier(64, 5).T, np.fft.fft(h, n=64), atol=1e-9)


class TestDetectPrimary:
    def test_noise_free_zero_errors(self):
        cfg, ch, obs, si, ci = noise_free_obs()
        h = obs.realization.H_d[None, :] + obs.c_values[:, None] * obs.realization.H_b[None, :]
        idx, erased = detect_primary(obs.y, h, cfg)
        np.testing.assert_array_equal(idx, si)
        assert not erased.any()

    def test_common_scaling_invariance(self):
        cfg, ch, obs, _, _ = noise_free_obs(seed=2)
        h = obs.realization.H_d[None, :] + obs.c_values[:, None] * obs.realization.H_b[None, :]
        alpha = 0.37 - 1.91j
        a, _ = detect_primary(obs.y, h, cfg)
        b, _ = detect_primary(alpha * obs.y, alpha * h, cfg)
        np.testing.assert_array_equal(a, b)

    def test_null_subcarrier_marked_erased(self):
        cfg = cfg_with(sigma2=0.0)
        h = np.ones(cfg.n, dtype=complex)
        h[cfg.data_indices[3]] = 0.0
        y = np.sqrt(cfg.p_t) * np.ones(cfg.n, dtype=complex) * h
        idx, erased = detect_primary(y, h, cfg)
        assert erased.sum() == 1 and idx[3] == 0

    def test_single_subcarrier_ser_matches_formula(self):
        # flat unit channel at 20 dB, the pilot on subcarrier 0 and the QAM
        # symbol on subcarrier 1; exact conditional symbol error rate
        cfg = SystemConfig(
            n=2, n_cp=0, n_p=1, m_s=16, m_c=2, n_max=3, t_preamble=2, p_t=100.0, sigma2=1.0
        )
        trials = 4 * 10**6
        stream = RandomStream(42, 0)
        s_idx = stream.integers(0, 16, size=trials)
        y = np.sqrt(cfg.p_t) * modulate_primary(s_idx[:, None], cfg)
        y[:, 1] += draw_cn(stream, trials, cfg.sigma2)
        idx, _ = detect_primary(y, np.ones(cfg.n, dtype=complex), cfg)
        ser = np.mean(idx[:, 0] != s_idx)
        want = ser_qam_awgn(cfg.p_t / cfg.sigma2, 16)
        se = np.sqrt(want * (1 - want) / trials)
        assert abs(ser - want) <= 3 * se


class TestDetectPrimaryOracle:
    """detect_primary's contiguous gathers byte for byte against the fancy
    index, with H~ spanning the erasure threshold and exact nulls."""

    @staticmethod
    def check(comb, m_s, batch, seed):
        n, n_p = comb
        cfg = SystemConfig(n=n, n_cp=0, n_p=n_p, m_s=m_s, m_c=2, n_max=3, p_t=2.0)
        rng = np.random.default_rng(seed)
        shape = batch + (n,)
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.integers(-14, 2, shape)
        h.reshape(-1)[::7] = 0
        got, want = detect_primary(y, h, cfg), gather_detect_primary(y, h, cfg)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape == batch + (cfg.n_data,)
            assert g.tobytes() == w.tobytes(), (comb, m_s, batch)

    def test_every_comb(self):
        for k, comb in enumerate(COMBS):
            self.check(comb, QAM_ORDERS[k % len(QAM_ORDERS)], (2, 3), k)

    @given(st.sampled_from(COMBS), st.sampled_from(QAM_ORDERS),
           st.sampled_from([(), (3,), (4, 10)]), st.integers(0, 2**32 - 1))
    @example((256, 1), 4096, (4, 10), 0)
    @example((256, 256), 4, (3,), 1)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_random_batches(self, comb, m_s, batch, seed):
        self.check(comb, m_s, batch, seed)


class TestReestimation:
    def test_method1_noise_free_exact(self):
        cfg, ch, obs, _, _ = noise_free_obs(seed=3)
        h = reestimate_method1(obs.y, obs.s_values, cfg)
        expect = obs.realization.H_d[None, :] + obs.c_values[:, None] * obs.realization.H_b[None, :]
        np.testing.assert_allclose(h, expect, atol=1e-10)

    def test_method1_all_ones_returns_y(self):
        cfg = cfg_with(p_t=1.0)
        y = draw_cn(RandomStream(43, 0), cfg.n, 1.0)
        np.testing.assert_array_equal(reestimate_method1(y, np.ones(cfg.n), cfg), y)

    def test_method1_rejects_exact_zero_decisions_only(self):
        # a zero of either sign is a zero; a subnormal, inf or NaN decision is not
        cfg = cfg_with(p_t=1.0)
        y = draw_cn(RandomStream(45, 0), cfg.n, 1.0)
        for zero in (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
            s = np.ones(cfg.n, dtype=complex)
            s[5] = zero
            with pytest.raises(ValueError, match="nonzero symbol decisions"):
                reestimate_method1(y, s, cfg)
        for kept in (5e-324 + 0j, complex(-0.0, 5e-324), complex(np.inf, 0.0), complex(np.nan, 0.0)):
            s = np.ones(cfg.n, dtype=complex)
            s[5] = kept
            with np.errstate(over="ignore", invalid="ignore"):
                h = reestimate_method1(y, s, cfg)
            np.testing.assert_array_equal(np.delete(h, 5), np.delete(y, 5))

    def test_method1_error_variance_gamma1(self):
        # error per subcarrier = U / (sqrt(P) S): variance Gamma1 sigma^2 / P
        from srofdm.theory import qam_moments

        cfg = cfg_with(p_t=4.0, sigma2=0.02)
        trials = 10**5
        stream = RandomStream(44, 0)
        s_idx = stream.integers(0, 16, size=(trials, cfg.n))
        s = cfg.qam.points[s_idx]
        u = draw_cn(stream, trials * cfg.n, cfg.sigma2).reshape(trials, cfg.n)
        err = reestimate_method1(u, s, cfg)
        want = qam_moments(16).gamma1 * cfg.sigma2 / cfg.p_t
        assert np.mean(np.abs(err) ** 2) == pytest.approx(want, rel=0.03)

    def test_method2_noise_free_exact(self):
        cfg, ch, obs, _, _ = noise_free_obs(seed=4)
        taps = composite_tap_count(ch)
        h = reestimate_method2(obs.y, obs.s_values, cfg, taps)
        expect = obs.realization.H_d[None, :] + obs.c_values[:, None] * obs.realization.H_b[None, :]
        np.testing.assert_allclose(h, expect, atol=1e-9)

    def test_method2_qpsk_equals_simplified_matched_filter(self):
        # unit-modulus symbols: general QR solve == F^H S^H / (N sqrt(P)) map
        cfg = cfg_with(m_s=4, p_t=2.0)
        taps = 5
        stream = RandomStream(45, 0)
        s = cfg.qam.points[stream.integers(0, 4, size=cfg.n)]
        y = draw_cn(stream, cfg.n, 1.0)
        got = reestimate_method2(y, s, cfg, taps)
        f_l = partial_fourier(cfg.n, taps)
        simplified = f_l @ (f_l.conj().T @ (np.conj(s) * y)) / (cfg.n * np.sqrt(cfg.p_t))
        np.testing.assert_allclose(got, simplified, atol=1e-10)

    def test_method2_error_variance(self):
        # unit-modulus symbols: per-subcarrier error variance L sigma^2/(N P)
        cfg = cfg_with(m_s=4, p_t=2.0, sigma2=0.05)
        taps = 5
        trials = 10**5
        stream = RandomStream(46, 0)
        s = cfg.qam.points[stream.integers(0, 4, size=(trials, cfg.n))]
        u = draw_cn(stream, trials * cfg.n, cfg.sigma2).reshape(trials, cfg.n)
        err = reestimate_method2(u, s, cfg, taps)
        want = taps * cfg.sigma2 / (cfg.n * cfg.p_t)
        assert np.mean(np.abs(err) ** 2) == pytest.approx(want, rel=0.03)

    def test_method2_too_many_taps_rejected(self):
        cfg = cfg_with()
        with pytest.raises(SingularSystemError):
            reestimate_method2(np.ones(cfg.n), np.ones(cfg.n), cfg, cfg.n + 1)


class TestMethod2Oracle:
    """The normal-equation solve against the QR fit of the full N x L system,
    and byte for byte against the same solve on a lag-gathered Gram with a
    Cholesky rank check."""

    @staticmethod
    def frames(cfg, shape, seed):
        rng = np.random.default_rng(seed)
        for taps in (1, 4, 7, 23, cfg.n_p, cfg.n):  # taps = N: the circulant case
            s = cfg.qam.points[rng.integers(0, cfg.m_s, shape + (cfg.n,))]
            y = rng.standard_normal(shape + (cfg.n,)) + 1j * rng.standard_normal(shape + (cfg.n,))
            yield y, s, taps

    @pytest.mark.parametrize("shape", [(), (3,), (256, 10)], ids=str)
    @pytest.mark.parametrize("m_s", [4, 16, 64])
    def test_matches_gathered_gram_bytes(self, m_s, shape):
        cfg = cfg_with(m_s=m_s, p_t=2.0)
        for y, s, taps in self.frames(cfg, shape, m_s + len(shape)):
            got = reestimate_method2(y, s, cfg, taps)
            want = gathered_reestimate_method2(y, s, cfg, taps)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), taps

    @pytest.mark.parametrize("shape", [(), (3,), (256, 10)], ids=str)
    @pytest.mark.parametrize("m_s", [4, 16, 64])
    def test_prediction_errors_are_cholesky_diagonal(self, m_s, shape):
        cfg = cfg_with(m_s=m_s)
        for _, s, taps in self.frames(cfg, shape, m_s + len(shape)):
            spectrum = np.fft.fft(np.abs(s) ** 2, axis=-1)
            lags = (np.arange(taps)[None, :] - np.arange(taps)[:, None]) % cfg.n
            chol = np.linalg.cholesky(spectrum[..., lags])
            want = np.abs(np.diagonal(chol, axis1=-2, axis2=-1)) ** 2
            got = np.moveaxis(_prediction_errors(np.moveaxis(spectrum[..., :taps], -1, 0).copy()), 0, -1)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shape", [(), (3,), (256, 10)], ids=str)
    @pytest.mark.parametrize("m_s", [4, 16, 64])
    def test_matches_qr(self, m_s, shape):
        cfg = cfg_with(m_s=m_s, p_t=2.0)
        for y, s, taps in self.frames(cfg, shape, m_s + len(shape)):
            got = reestimate_method2(y, s, cfg, taps)
            want = qr_reestimate_method2(y, s, cfg, taps)
            assert got.shape == want.shape == shape + (cfg.n,)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rank_deficient_systems_rejected(self):
        cfg = cfg_with()
        rng = np.random.default_rng(5)
        y = rng.standard_normal(cfg.n) + 1j * rng.standard_normal(cfg.n)
        s = cfg.qam.points[rng.integers(0, cfg.m_s, cfg.n)]
        few = np.zeros(cfg.n, dtype=complex)
        few[rng.choice(cfg.n, 6, replace=False)] = s[:6]
        comb = np.zeros(cfg.n, dtype=complex)
        comb[::16] = s[::16]  # 4 nonzeros: 8 taps alias onto 4
        cases = [
            (s, cfg.n + 1),
            (np.zeros(cfg.n), 4),
            (few, 7),
            (comb, 8),
            # 32 nonzeros, 33 taps: an exactly singular Gram, which the
            # nonzero count rejects first; a factorization of it can end on a
            # rounding-size pivot instead (Cholesky's diagonal: near 1e-7)
            (np.tile([1.0, 0.0], cfg.n // 2), 33),
            (np.stack([s, few]), 7),  # one deficient frame fails the batch
            # every nonzero, every prediction error 64e-26 < 1e-24 (every
            # |diag R| of the QR 8e-13 < 1e-12)
            (np.full(cfg.n, 1e-13), 4),
        ]
        for s_hat, taps in cases:
            for solve in (reestimate_method2, qr_reestimate_method2):
                with pytest.raises(SingularSystemError):
                    solve(y, s_hat, cfg, taps)
        tiny = np.full(cfg.n, 1e-11)  # prediction errors 64e-22: accepted
        for solve in (reestimate_method2, qr_reestimate_method2):
            assert np.all(np.isfinite(solve(y, tiny, cfg, 4)))


class TestSeparateLinks:
    def test_noise_free_exact(self):
        real = draw_channel(ChannelConfig(), RandomStream(47, 0), 64)
        pre = np.array([1.0, -1.0])
        h = real.H_d[None, :] + pre[:, None] * real.H_b[None, :]
        h_d, h_b = separate_links(h, pre)
        np.testing.assert_allclose(h_d, real.H_d, atol=1e-12)
        np.testing.assert_allclose(h_b, real.H_b, atol=1e-12)

    def test_t2_reduces_to_half_sum_difference(self):
        h = draw_cn(RandomStream(48, 0), 2 * 64, 1.0).reshape(2, 64)
        h_d, h_b = separate_links(h, np.array([1.0, -1.0]))
        np.testing.assert_allclose(h_d, (h[0] + h[1]) / 2, atol=1e-14)
        np.testing.assert_allclose(h_b, (h[0] - h[1]) / 2, atol=1e-14)

    def test_t4_error_variance_quarter(self):
        # compliant T=4 preamble: per-entry error variance sigma_eps^2 / T
        pre = np.array([1.0, 1.0j, -1.0, -1.0j])
        sig_eps = 0.3
        trials = 10**5
        n = 16
        eps = draw_cn(RandomStream(49, 0), trials * 4 * n, sig_eps).reshape(trials, 4, n)
        h_d, h_b = separate_links(eps, pre)  # zero channel: outputs are error
        assert np.mean(np.abs(h_d) ** 2) == pytest.approx(sig_eps / 4, rel=0.05)
        assert np.mean(np.abs(h_b) ** 2) == pytest.approx(sig_eps / 4, rel=0.05)

    def test_average_pair_is_the_2x2_least_squares(self):
        h = draw_cn(RandomStream(52, 0), 3 * 4 * 16, 1.0).reshape(3, 4, 16)
        for pre in ([1.0, -1.0], [1.0, 1j, -1.0, -1j], [1j, -1j, -1.0, 1.0], np.exp(2j * np.pi * np.arange(3) / 3)):
            t = len(pre)
            for got, want in zip(separate_links(h[:, :t], pre), lstsq_separate_links(h[:, :t], pre)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_noncompliant_preamble_needs_flag_and_is_worse(self):
        pre_bad = np.array([1.0, 1.0j])  # sums to 1 + j
        with pytest.raises(ValueError):
            separate_links(np.zeros((2, 8), dtype=complex), pre_bad)
        sig_eps = 0.5
        trials = 4 * 10**4
        n = 16
        eps = draw_cn(RandomStream(50, 0), trials * 2 * n, sig_eps).reshape(trials, 2, n)
        d_ok, b_ok = separate_links(eps, np.array([1.0, -1.0]))
        d_bad, b_bad = lstsq_separate_links(eps, pre_bad)
        trace_ok = np.mean(np.abs(d_ok) ** 2 + np.abs(b_ok) ** 2)
        trace_bad = np.mean(np.abs(d_bad) ** 2 + np.abs(b_bad) ** 2)
        assert trace_bad > 1.5 * trace_ok


class TestDetectSecondary:
    def test_noise_free_every_symbol(self):
        cfg = cfg_with(sigma2=0.0)
        real = draw_channel(ChannelConfig(), RandomStream(51, 0), cfg.n)
        for k, c in enumerate(cfg.psk.points):
            h_n = real.H_d + c * real.H_b
            assert detect_secondary(h_n, real.H_d, real.H_b, cfg) == k

    def test_joint_scaling_invariance(self):
        cfg = cfg_with()
        real = draw_channel(ChannelConfig(), RandomStream(52, 0), cfg.n)
        c = cfg.psk.points[3]
        h_n = real.H_d + c * real.H_b
        a = detect_secondary(h_n, real.H_d, real.H_b, cfg)
        alpha = 2.5
        b = detect_secondary(real.H_d + c * (alpha * real.H_b), real.H_d, alpha * real.H_b, cfg)
        assert a == b == 3

    def test_zero_backscatter_raises(self):
        cfg = cfg_with()
        with pytest.raises(UndetectableSecondaryError):
            detect_secondary(np.ones(cfg.n), np.ones(cfg.n), np.zeros(cfg.n), cfg)

    def test_bpsk_ber_matches_q_formula(self):
        # genie extraction, perfect link CSI, QPSK primary (unit modulus so the
        # conditional statistic is exactly Gaussian)
        cfg = cfg_with(m_s=4, m_c=2, p_t=1.0, sigma2=1.0)
        real = draw_channel(ChannelConfig(dist_fwd=0.12), RandomStream(53, 0), cfg.n)
        hb2 = np.sum(np.abs(real.H_b) ** 2)
        # scale power so the Q argument sits near BER ~ 1e-3
        p_t = 4.77 / hb2
        cfg = cfg_with(m_s=4, m_c=2, p_t=p_t, sigma2=1.0)
        trials = 10**6
        errors = 0
        stream = RandomStream(54, 0)
        for start in range(0, trials, 10**5):
            blk = 10**5
            c_idx = stream.integers(0, 2, size=blk)
            c = cfg.psk.points[c_idx]
            s = cfg.qam.points[stream.integers(0, 4, size=(blk, cfg.n))]
            u = draw_cn(stream, blk * cfg.n, cfg.sigma2).reshape(blk, cfg.n)
            y = np.sqrt(cfg.p_t) * s * (real.H_d + c[:, None] * real.H_b) + u
            h_hat = y / (np.sqrt(cfg.p_t) * s)
            dec = detect_secondary(
                h_hat[:, None, :], np.broadcast_to(real.H_d, (blk, cfg.n)),
                np.broadcast_to(real.H_b, (blk, cfg.n)), cfg,
            )[:, 0]
            errors += int(np.sum(cfg.psk.bit_errors(c_idx, dec)))
        ber = errors / trials
        want = float(q_function(np.sqrt(2 * cfg.p_t * hb2 / cfg.sigma2)))
        se = np.sqrt(want * (1 - want) / trials)
        assert abs(ber - want) <= 3 * se


def run_chains(obs, cfg, chains, taps):
    """The outputs of one run_algorithm1 call over chains, in chain order."""
    outs = []

    def take(i, out):
        assert i == len(outs)
        outs.append(out)

    run_algorithm1(obs, cfg, chains, taps=taps, take=take)
    return outs


def detect(receiver, obs, cfg, taps):
    """One receiver of the table, by name, over obs."""
    [out] = run_chains(obs, cfg, [RECEIVERS[receiver].stages], taps)
    return out


class TestAlgorithm1:
    @pytest.mark.parametrize("receiver", [
        pytest.param("pilot_only", id="pilot_only"),
        pytest.param("proposed_m1", id="method1"),
        pytest.param("proposed_m2", id="method2"),
    ])
    def test_noise_free_end_to_end(self, receiver):
        cfg, ch, obs, si, ci = noise_free_obs(seed=5)
        out = detect(receiver, obs, cfg, composite_tap_count(ch))
        np.testing.assert_array_equal(out.s_hat, si)
        np.testing.assert_array_equal(out.c_hat, ci)

    def test_no_direct_link_decoupled(self):
        cfg, ch, obs, si, ci = noise_free_obs(seed=6, ch=ChannelConfig(direct_model="none"))
        out = detect("proposed_m2", obs, cfg, composite_tap_count(ch))
        np.testing.assert_array_equal(out.s_hat, si)
        np.testing.assert_array_equal(out.c_hat, ci)

    def test_perfect_csi_noise_free(self):
        cfg, ch, obs, si, ci = noise_free_obs(seed=7)
        out = detect("perfect_csi", obs, cfg, composite_tap_count(ch))
        np.testing.assert_array_equal(out.s_hat, si)
        np.testing.assert_array_equal(out.c_hat, ci)

    def test_method2_not_worse_than_method1(self):
        # shared observations; small sweep, loose statistical assertion
        sysc = cfg_with(sigma2=10 ** (-80 / 10) * 1e-3)
        chan = ChannelConfig(dist_fwd=0.12)
        scen = Scenario(system=sysc, chan=chan, direct_snr_db=20.0)
        from srofdm.harness import SweepSpec, run_sweep

        spec = SweepSpec(
            axis="direct_snr_db", points=(12.0, 18.0, 24.0, 30.0, 36.0),
            trials_per_point=3000, receivers=("proposed_m1", "proposed_m2"),
            with_theory=False,
        )
        curves = run_sweep(spec, scen, master_seed=60)
        for p1, p2 in zip(curves["proposed_m1"].points, curves["proposed_m2"].points):
            slack = p1.ci_secondary + p2.ci_secondary
            assert p2.ber_secondary <= p1.ber_secondary + slack

    def test_genie_bounds_real_pipeline_low_snr_only(self):
        sysc = cfg_with(sigma2=10 ** (-80 / 10) * 1e-3)
        chan = ChannelConfig(dist_fwd=0.12)
        scen = Scenario(system=sysc, chan=chan)
        from srofdm.harness import SweepSpec, run_sweep

        spec = SweepSpec(
            axis="direct_snr_db", points=(6.0, 30.0), trials_per_point=4000,
            receivers=("proposed_m2", "proposed_m2_genie"), with_theory=False,
        )
        curves = run_sweep(spec, scen, master_seed=61)
        low_real = curves["proposed_m2"].points[0]
        low_genie = curves["proposed_m2_genie"].points[0]
        assert low_genie.ber_secondary < 0.7 * low_real.ber_secondary
        hi_real = curves["proposed_m2"].points[1]
        hi_genie = curves["proposed_m2_genie"].points[1]
        slack = 3 * (hi_real.ci_secondary + hi_genie.ci_secondary)
        assert abs(hi_real.ber_secondary - hi_genie.ber_secondary) <= slack

    def test_estimator_nesting_degenerate_comb(self):
        # pilots on every subcarrier: pilot-based and method-2 estimates agree
        cfg = SystemConfig(n=16, n_cp=8, n_p=16, m_s=4, m_c=2, n_max=3, p_t=2.0, sigma2=0.1)
        taps = 4
        y = draw_cn(RandomStream(62, 0), 16, 1.0)
        pilot_est = PilotEstimator(cfg, taps).estimate_cfr(y)
        m2 = reestimate_method2(y, np.ones(cfg.n, dtype=complex), cfg, taps)  # the pilot symbols
        np.testing.assert_allclose(pilot_est, m2, atol=1e-10)

    def test_unknown_stage_rejected(self):
        cfg, ch, obs, _, _ = noise_free_obs(seed=5)
        with pytest.raises(ValueError, match="unknown receiver stage 'bogus'"):
            run_chains(obs, cfg, [("pilot_ls", "bogus")], composite_tap_count(ch))

    def test_receiver_model_order_cap(self):
        # over-length composite response: pilot stage caps at N_p and aliases,
        # tap-domain stage keeps the full order
        cfg, ch, obs, _, _ = noise_free_obs(seed=8)
        out = detect("proposed_m2", obs, cfg, 12)
        assert out.H_hat.shape[-1] == cfg.n
        # with the cap the pilot-based estimate is off, but data-aided
        # re-estimation over 64 subcarriers still nails the response
        expect = obs.realization.H_d[None, :] + obs.c_values[:, None] * obs.realization.H_b[None, :]
        np.testing.assert_allclose(out.H_hat, expect, atol=1e-8)


class TestNoiseMomentIdentities:
    def test_tap_domain_error_moments(self):
        # moments of the re-estimation error used in the SNR derivations
        from srofdm.theory import eq_noise_moment_predictions

        cfg = cfg_with(m_s=4, p_t=2.0, sigma2=0.3)
        taps = 4
        trials = 10**5
        stream = RandomStream(63, 0)
        s = cfg.qam.points[stream.integers(0, 4, size=(trials, cfg.n))]
        u0 = draw_cn(stream, trials * cfg.n, cfg.sigma2).reshape(trials, cfg.n)
        un = draw_cn(stream, trials * cfg.n, cfg.sigma2).reshape(trials, cfg.n)
        e0 = reestimate_method2(u0, s, cfg, taps)
        en = reestimate_method2(un, s, cfg, taps)
        want = eq_noise_moment_predictions(taps, cfg.sigma2, cfg.p_t)
        same = np.abs(np.einsum("tk,tk->t", e0.conj(), e0)) ** 2
        cross = np.abs(np.einsum("tk,tk->t", e0.conj(), en)) ** 2
        energy = np.real(np.einsum("tk,tk->t", e0.conj(), e0))
        assert same.mean() == pytest.approx(want["same_symbol_sq"], rel=0.03)
        assert cross.mean() == pytest.approx(want["cross_symbol_sq"], rel=0.03)
        assert energy.mean() == pytest.approx(want["mean_energy"], rel=0.01)


class TestMlBenchmark:
    def test_noise_free_joint_recovery(self):
        cfg, ch, obs, si, ci = noise_free_obs(seed=9, ms=4, mc=2)
        out = detect("ml_perfect", obs, cfg, composite_tap_count(ch))
        np.testing.assert_array_equal(out.s_hat, si)
        np.testing.assert_array_equal(out.c_hat, ci)

    def test_estimated_csi_noise_free(self):
        cfg, ch, obs, si, ci = noise_free_obs(seed=10, ms=4, mc=2)
        out = detect("ml_estimated", obs, cfg, composite_tap_count(ch))
        np.testing.assert_array_equal(out.s_hat, si)
        np.testing.assert_array_equal(out.c_hat, ci)

    def test_sign_ambiguity_metric_tie_without_pilot_structure(self):
        # absent direct path + BPSK secondary: (c, S) and (-c, -S) explain the
        # observation identically, so the candidate totals tie exactly
        cfg = SystemConfig(
            n=16, n_cp=4, n_p=8, m_s=4, m_c=2,
            n_max=3, t_preamble=2, p_t=1.0, sigma2=0.01,
        )
        real = draw_channel(
            ChannelConfig(direct_model="none", l_d=2, l_1=1, l_2=2, d_b=0),
            RandomStream(64, 0), cfg.n,
        )
        s, _ = draw_primary(cfg, RandomStream(64, 1))
        c, _ = draw_secondary(cfg, RandomStream(64, 2))
        u = draw_noise(cfg, RandomStream(64, 3), s.shape)
        obs = observe(s, c, real, cfg, noise=u)
        for m in range(cfg.n_max):
            cands = ml_candidates(real.H_d, real.H_b, cfg, pilot_structure=False)
            totals, _ = ml_symbol_metrics(obs.y[m], cands, cfg)
            assert totals[0] == totals[1]  # exact tie, bit for bit

    def test_proposed_within_half_db_of_ml_perfect_csi(self):
        # QPSK primary, BPSK secondary, shared trials: SNR at primary BER
        # 1e-3 differs by at most 0.5 dB between the proposed receiver and
        # the joint ML search when both get perfect CSI
        from srofdm.harness import Scenario, SweepSpec, run_sweep

        sysc = cfg_with(m_s=4, m_c=2, sigma2=10 ** (-80 / 10) * 1e-3)
        scen = Scenario(system=sysc, chan=ChannelConfig(dist_fwd=0.12, backscatter_model="rayleigh"))
        points = tuple(np.arange(18.0, 29.0, 2.0))
        spec = SweepSpec(
            axis="direct_snr_db", points=points, trials_per_point=2 * 10**4,
            receivers=("perfect_csi", "ml_perfect"), with_theory=False,
        )
        curves = run_sweep(spec, scen, master_seed=70, workers=2)
        thresholds = {}
        for name in ("perfect_csi", "ml_perfect"):
            bers = [p.ber_primary for p in curves[name].points]
            thresholds[name] = np.interp(
                -3, np.log10(bers)[::-1], np.asarray(points)[::-1]
            )
        assert abs(thresholds["perfect_csi"] - thresholds["ml_perfect"]) <= 0.5

    def test_pilot_structure_breaks_the_tie(self):
        # noise 60 dB below the (path-loss-scaled) backscatter signal
        cfg = cfg_with(sigma2=1e-18, m_s=4, m_c=2)
        real = draw_channel(ChannelConfig(direct_model="none"), RandomStream(65, 0), cfg.n)
        s, si = draw_primary(cfg, RandomStream(65, 1))
        c, ci = draw_secondary(cfg, RandomStream(65, 2))
        u = draw_noise(cfg, RandomStream(65, 3), s.shape)
        obs = observe(s, c, real, cfg, noise=u)
        taps = composite_tap_count(ChannelConfig(direct_model="none"))
        out = detect("ml_perfect", obs, cfg, taps)
        np.testing.assert_array_equal(out.s_hat, si)
        np.testing.assert_array_equal(out.c_hat, ci)


def random_ml_symbol(rng, cfg, shape):
    """Rayleigh direct and (10 dB weaker) backscatter responses and one
    received symbol per batch entry, at cfg's P and noise power."""
    def cn(scale=1.0):
        size = shape + (cfg.n,)
        return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)

    h_d, h_b = cn(), cn(np.sqrt(0.1))
    s = cfg.qam.points[rng.integers(0, cfg.m_s, shape + (cfg.n,))]
    c = cfg.psk.points[rng.integers(0, cfg.m_c, shape)][..., None]
    y = np.sqrt(cfg.p_t) * (h_d + c * h_b) * s + cn(np.sqrt(cfg.sigma2))
    return y, h_d, h_b


class TestMlSearchOracle:
    # (300,) makes every per-candidate array larger than 256 KiB, where numpy
    # starts reusing operator temporaries in place
    SHAPES = [(), (1,), (2, 3), (300,)]

    @pytest.mark.parametrize("pilot_structure", [True, False])
    @pytest.mark.parametrize("m_s", [4, 16, 64])
    def test_matches_exhaustive_scan(self, m_s, pilot_structure):
        rng = np.random.default_rng(m_s + 100 * pilot_structure)
        for snr_db in (-10, 0, 10, 20, 30, 40):
            cfg = cfg_with(m_s=m_s, p_t=10 ** (snr_db / 10), sigma2=1.0)
            for shape in self.SHAPES:
                y, h_d, h_b = random_ml_symbol(rng, cfg, shape)
                if snr_db == -10:  # noise-dominated: the slicer clips
                    z = y / (np.sqrt(cfg.p_t) * h_d)
                    assert np.mean(np.abs(z.real) > np.max(cfg.qam.points.real)) > 0.2
                for values in (None, cfg.psk.points[[3]]):
                    cands = ml_candidates(h_d, h_b, cfg, pilot_structure=pilot_structure,
                                          candidates=values)
                    assert_same_metrics(
                        ml_symbol_metrics(y, cands, cfg),
                        exhaustive_ml_symbol_metrics(y, cands, cfg),
                    )

    @pytest.mark.parametrize("m_s", [4, 16, 64])
    def test_shared_search_matches_exhaustive_scan_and_each_structure_alone(self, m_s):
        rng = np.random.default_rng(m_s + 7)
        for snr_db in (-10, 10, 40):
            cfg = cfg_with(m_s=m_s, p_t=10 ** (snr_db / 10), sigma2=1.0)
            for shape in self.SHAPES:
                y, h_d, h_b = random_ml_symbol(rng, cfg, shape)
                h_d[..., 5] = h_b[..., 5] = 0  # a = 0 for every candidate: tied on a pilot-less subcarrier
                cands = ml_candidates(h_d, h_b, cfg, pilot_structure=(True, False))
                got = ml_symbol_metrics(y, cands, cfg)
                assert_same_metrics(got, exhaustive_ml_symbol_metrics(y, cands, cfg))
                alone = [ml_symbol_metrics(y, ml_candidates(h_d, h_b, cfg, pilot_structure=p), cfg)
                         for p in (True, False)]
                assert np.array_equal(got[0], np.concatenate([alone[0][0], alone[1][0]], axis=-1))
                assert np.array_equal(got[1][..., cfg.data_indices], alone[0][1])
                assert np.array_equal(got[1], alone[1][1])

    @pytest.mark.parametrize("pilot_structure", [True, False])
    def test_candidate_terms_are_the_composite_response(self, pilot_structure):
        # the scan above reads a from these terms, so they are checked here
        # against sqrt(P)(H_d + c H_b) built the long way
        cfg = cfg_with(p_t=2.0, sigma2=1.0)
        _, h_d, h_b = random_ml_symbol(np.random.default_rng(11), cfg, (4,))
        h_d[:, 5] = h_b[:, 5] = 0  # a = 0 for every candidate
        searched = cfg.data_indices if pilot_structure else np.arange(cfg.n)
        pilots = cfg.pilot_indices if pilot_structure else []
        for values in (cfg.psk.points, cfg.psk.points[[3]]):
            cands = ml_candidates(h_d, h_b, cfg, pilot_structure=pilot_structure,
                                  candidates=None if len(values) > 1 else values)
            a = np.stack([np.sqrt(cfg.p_t) * (h_d + c * h_b) for c in values], axis=-2)
            tied = np.abs(a[..., searched]) < np.finfo(float).tiny
            assert np.array_equal(cands.values, values)
            assert np.array_equal(cands.searched, searched) and np.array_equal(cands.pilots, pilots)
            assert np.array_equal(cands.a_d, a[..., searched])
            assert np.array_equal(cands.a_p, a[..., pilots])
            assert np.array_equal(cands.tied, tied) and np.all(tied[..., list(searched).index(5)])
            assert np.array_equal(cands.divisor, np.where(tied, 1, a[..., searched]))

    @pytest.mark.parametrize("pilot_structure", [True, False])
    def test_null_and_subnormal_gains_keep_index_0(self, pilot_structure):
        # every point ties in floating point where a = sqrt(P)(H_d + c H_b)
        # is zero or subnormal; y / a alone would be inf or nan there
        cfg = cfg_with(p_t=2.0, sigma2=1.0)
        y, h_d, h_b = random_ml_symbol(np.random.default_rng(7), cfg, (5,))
        h_d[:, 3] = h_b[:, 3] = 0  # a = 0 for every candidate
        y[:, 3] = 0
        h_d[:, 10] = -h_b[:, 10]  # a = 0 for c = 1 only
        h_d[:, 20], h_b[:, 20] = 5e-324, 0  # smallest subnormal
        h_d[:, 21], h_b[:, 21] = 1e-310 - 2e-310j, 3e-311j
        h_d[:, 22], h_b[:, 22] = 5e-324, 0
        y[:, 22] = 1j  # zero real part: the complex quotient would be nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cands = ml_candidates(h_d, h_b, cfg, pilot_structure=pilot_structure)
            got = ml_symbol_metrics(y, cands, cfg)
        assert_same_metrics(got, exhaustive_ml_symbol_metrics(y, cands, cfg))
        searched = list(cfg.data_indices if pilot_structure else range(cfg.n))
        assert np.all(got[1][..., [searched.index(k) for k in (3, 20, 21, 22)]] == 0)
        assert np.all(got[1][:, 0, searched.index(10)] == 0)

    @pytest.mark.parametrize("search", [
        pytest.param("ml_search", id="True"), pytest.param("ml_search_nopilot", id="False")])
    @pytest.mark.parametrize("links", [
        pytest.param(("raw_links",), id="perfect"),
        pytest.param(RECEIVERS["proposed_m2"].stages[:-1], id="estimated"),
    ])
    def test_chunk_matches_exhaustive_scan(self, monkeypatch, links, search):
        scen = Scenario(system=cfg_with(sigma2=1e-11), chan=ChannelConfig())
        system, chan, _ = apply_axis(scen, "direct_snr_db", 12.0)
        obs = draw_frame_batch(system, chan, master_seed=3, trial_ids=range(256))
        chains, taps = [links + (search,)], composite_tap_count(chan)
        [got] = run_chains(obs, system, chains, taps)
        calls = []

        def scan(*args):
            calls.append(args)
            return exhaustive_ml_symbol_metrics(*args)

        monkeypatch.setattr("srofdm.receiver.ml_symbol_metrics", scan)
        [want] = run_chains(obs, system, chains, taps)
        assert len(calls) == system.n_max  # one search per symbol, none bypassing the module name
        for name in ("s_hat", "c_hat", "H_tilde", "H_hat", "H_hat_d", "H_hat_b", "n_erased"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_shared_chunk_matches_exhaustive_scan(self, monkeypatch):
        # both structures on the true links in one call, as a sweep runs them:
        # one search per free symbol serves both
        scen = Scenario(system=cfg_with(sigma2=1e-11), chan=ChannelConfig())
        system, chan, _ = apply_axis(scen, "direct_snr_db", 12.0)
        obs = draw_frame_batch(system, chan, master_seed=3, trial_ids=range(256))
        chains = [RECEIVERS[name].stages for name in ("ml_perfect", "ml_nopilot")]
        taps = composite_tap_count(chan)

        got = run_chains(obs, system, chains, taps)
        alone = [detect(name, obs, system, taps) for name in ("ml_perfect", "ml_nopilot")]
        calls = []

        def scan(*args):
            calls.append(args[1].structures)
            return exhaustive_ml_symbol_metrics(*args)

        monkeypatch.setattr("srofdm.receiver.ml_symbol_metrics", scan)
        want = run_chains(obs, system, chains, taps)
        # each free symbol's search for both structures; at a known preamble symbol its own
        # one-candidate search for the pilot structure and the free terms for the other
        free, known = system.n_max - system.t_preamble, system.t_preamble
        assert calls.count((True, False)) == free
        assert calls.count((False,)) == known and calls.count((True,)) == known
        assert len(calls) == free + 2 * known
        for g, a, w in zip(got, alone, want):
            for f in fields(DetectionOutput):
                assert np.array_equal(getattr(g, f.name), getattr(w, f.name)), f.name
                assert np.array_equal(getattr(g, f.name), getattr(a, f.name)), f.name


def _flag_algorithm1(method="method2", **flags):
    return lambda obs, cfg, taps, detect_c: flag_run_algorithm1(
        obs, cfg, method, taps=taps, detect_c=detect_c, **flags)


def _flag_ml(csi, pilot_structure=True):
    def run(obs, cfg, taps, detect_c):
        out = flag_run_ml_benchmark(obs, cfg, csi=csi, pilot_structure=pilot_structure, taps=taps)
        return out if detect_c else replace(out, c_hat=None)
    return run


# each receiver as the flags composed it, rerunning its whole chain
FLAG_RECEIVERS = {
    "perfect_csi": _flag_algorithm1(perfect_csi=True),
    "proposed_m1": _flag_algorithm1("method1"),
    "proposed_m2": _flag_algorithm1("method2"),
    "proposed_m1_genie": _flag_algorithm1("method1", genie_primary=True),
    "proposed_m2_genie": _flag_algorithm1("method2", genie_primary=True),
    "pilot_only": _flag_algorithm1("pilot_only"),
    "ml_perfect": _flag_ml("perfect"),
    "ml_estimated": _flag_ml("estimated"),
    "ml_nopilot": _flag_ml("perfect", pilot_structure=False),
}


# ChannelConfig keywords of each channel model a frame is drawn under
CHANNEL_MODELS = {
    "cascade": {},
    "rayleigh": dict(backscatter_model="rayleigh"),
    "awgn": dict(backscatter_model="awgn"),
    "no_backscatter": dict(backscatter_model="none"),
    "no_direct": dict(direct_model="none"),
}


@st.composite
def frame_sizes(draw):
    """cfg_with keywords within the bounds SystemConfig enforces: the
    alphabets, a default preamble of T symbols and 1 to 3 data symbols."""
    t = draw(st.sampled_from([2, 3, 4]))
    return dict(m_s=draw(st.sampled_from([4, 16, 64])), m_c=draw(st.sampled_from([2, 4, 8])),
                t_preamble=t, n_max=draw(st.integers(t + 1, t + 3)))


class TestStageChains:
    """The stage chains of RECEIVERS, run in one call per chunk as a sweep
    runs them, give bit for bit what the flag-composed receivers gave."""

    @pytest.mark.parametrize("chan, axis, value", [
        pytest.param(ChannelConfig(), "direct_snr_db", 12.0, id="frequency"),
        pytest.param(ChannelConfig(), "sync_error_samples", 4.0, id="sample_xi4"),
        pytest.param(ChannelConfig(direct_model="none"), "backscatter_snr_db", 20.0, id="no_direct"),
        pytest.param(ChannelConfig(backscatter_model="none"), "direct_snr_db", 20.0,
                     id="no_backscatter"),
    ])
    def test_match_flag_composition(self, chan, axis, value):
        scen = Scenario(system=cfg_with(sigma2=1e-11), chan=chan, backscatter_snr_db=20.0)
        system, chan, xi = apply_axis(scen, axis, value)
        path = "sample" if axis == "sync_error_samples" else "frequency"
        self._check(system, chan, xi, path)

    @given(sizes=frame_sizes(), model=st.sampled_from(sorted(CHANNEL_MODELS)),
           sync=st.sampled_from([None, 0, 3, 20]), value=st.integers(0, 40).map(float))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_match_flag_composition_drawn(self, sizes, model, sync, value):
        # sync None receives on the frequency path, an integer on the sample
        # path at that sync error; value is the direct SNR, or without a
        # direct link the backscatter SNR, in dB
        scen = Scenario(system=cfg_with(sigma2=1e-11, **sizes), chan=ChannelConfig(**CHANNEL_MODELS[model]),
                        backscatter_snr_db=20.0, sync_error=sync or 0)
        axis = "backscatter_snr_db" if model == "no_direct" else "direct_snr_db"
        system, chan, xi = apply_axis(scen, axis, value)
        self._check(system, chan, xi, "frequency" if sync is None else "sample")

    @staticmethod
    def _check(system, chan, xi, path):
        obs = draw_frame_batch(system, chan, master_seed=5, trial_ids=range(256), xi=xi, path=path)
        taps = composite_tap_count(chan, xi)
        with_link = chan.backscatter_model != "none"  # the config's fact; run_algorithm1 reads the frame
        assert set(FLAG_RECEIVERS) == set(RECEIVERS)
        outs = run_chains(obs, system, [RECEIVERS[name].stages for name in FLAG_RECEIVERS], taps)
        for (name, flag_receiver), got in zip(FLAG_RECEIVERS.items(), outs):
            want = flag_receiver(obs, system, taps, with_link)
            for f in fields(DetectionOutput):
                assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), (name, f.name)
            assert (got.c_hat is None) == (not with_link)


def _paper_point(axis, value):
    scenario, _ = resolve_scenario(load_scenario_file("paper_default"))
    return apply_axis(scenario, axis, value)


class TestTrueComposite:
    """The perfect-CSI composite estimate: the response the frequency path
    received y through, or on the sample path the one its timing error
    gives."""

    def test_frequency_path_reads_the_carried_response(self):
        system, chan, _ = _paper_point("direct_snr_db", 20.0)
        obs = draw_frame_batch(system, chan, master_seed=7, trial_ids=range(4))
        [out] = run_chains(obs, system, [("true_composite",)], composite_tap_count(chan))
        real = obs.realization
        want = composite_response(real.H_d, real.H_b, obs.c_values)
        assert out.H_tilde is obs.H
        assert (out.H_tilde.shape, out.H_tilde.tobytes()) == (want.shape, want.tobytes())

    @pytest.mark.parametrize("xi", [3, 20])
    def test_sample_path_builds_it_with_the_timing_phase(self, xi):
        system, chan, _ = _paper_point("sync_error_samples", xi)
        obs = draw_frame_batch(system, chan, master_seed=7, trial_ids=range(4), xi=xi, path="sample")
        assert obs.H is None
        out, links = run_chains(obs, system, [("true_composite",), ("true_links",)],
                                composite_tap_count(chan, xi))
        real = obs.realization
        phase = np.exp(-2j * np.pi * np.arange(system.n) * xi / system.n)
        want = composite_response(real.H_d, real.H_b * phase, obs.c_values)
        assert (out.H_tilde.shape, out.H_tilde.tobytes()) == (want.shape, want.tobytes())
        assert not np.array_equal(out.H_tilde, composite_response(real.H_d, real.H_b, obs.c_values))
        want_b = np.broadcast_to(real.H_b * phase, (4, system.n))
        assert (links.H_hat_b.shape, links.H_hat_b.tobytes()) == (want_b.shape, want_b.tobytes())


class TestBatchInvariance:
    """A trial's results do not depend on the chunk it runs in, so
    `srofdm single --trial k` replays exactly what a sweep counted for k."""

    def test_ml_totals_of_a_row_alone(self):
        system, chan, _ = _paper_point("direct_snr_db", 12.0)
        obs = draw_frame_batch(system, chan, master_seed=7, trial_ids=range(CHUNK_TRIALS))
        y, real = obs.y[:, 3], obs.realization  # a data symbol: every candidate searched
        totals, _ = ml_symbol_metrics(y, ml_candidates(real.H_d, real.H_b, system), system)
        for k in range(CHUNK_TRIALS):
            cands = ml_candidates(real.H_d[k : k + 1], real.H_b[k : k + 1], system)
            alone, _ = ml_symbol_metrics(y[k : k + 1], cands, system)
            assert np.array_equal(alone[0], totals[k]), k

    @pytest.mark.parametrize("axis, value", [("direct_snr_db", 12.0), ("sync_error_samples", 4.0)])
    def test_every_output_of_a_trial_alone(self, axis, value):
        system, chan, xi = _paper_point(axis, value)
        path = "sample" if xi else "frequency"
        taps = composite_tap_count(chan, xi)

        def run(trial_ids):
            obs = draw_frame_batch(system, chan, 7, trial_ids, xi=xi, path=path)
            return dict(zip(RECEIVERS, run_chains(obs, system, [s.stages for s in RECEIVERS.values()], taps)))

        chunk = run(range(CHUNK_TRIALS))
        for k in range(CHUNK_TRIALS):
            for name, alone in run([k]).items():
                for f in fields(DetectionOutput):
                    want = np.asarray(getattr(chunk[name], f.name))[k]
                    assert np.array_equal(np.asarray(getattr(alone, f.name))[0], want), (k, name, f.name)


# the frames receiver orders are checked on: the frequency path, the sample
# path at a sync error of 3 samples, a blocked direct link and no backscatter
ORDER_FRAMES = {
    "frequency": (ChannelConfig(), "direct_snr_db", 12.0),
    "sample_xi3": (ChannelConfig(), "sync_error_samples", 3.0),
    "no_direct": (ChannelConfig(direct_model="none"), "backscatter_snr_db", 20.0),
    "no_backscatter": (ChannelConfig(backscatter_model="none"), "direct_snr_db", 20.0),
}


@cache
def order_frame(name):
    """(obs, system, taps, {receiver: its output run alone}) of 8 trials
    drawn for an ORDER_FRAMES entry."""
    chan, axis, value = ORDER_FRAMES[name]
    scen = Scenario(system=cfg_with(sigma2=1e-11), chan=chan, backscatter_snr_db=20.0)
    system, chan, xi = apply_axis(scen, axis, value)
    path = "sample" if axis == "sync_error_samples" else "frequency"
    obs = draw_frame_batch(system, chan, master_seed=9, trial_ids=range(8), xi=xi, path=path)
    taps = composite_tap_count(chan, xi)
    return obs, system, taps, {r: detect(r, obs, system, taps) for r in RECEIVERS}


def as_bits(value):
    """What bit equality compares: None, or an array's dtype, shape and bytes."""
    return None if value is None else (np.asarray(value).dtype, np.shape(value), np.asarray(value).tobytes())


def with_bases(arrays):
    """The arrays and every array their views are taken of."""
    for a in arrays:
        while isinstance(a, np.ndarray):
            yield a
            a = a.base


class TestOneCall:
    """What one run_algorithm1 call over several chains shares between them
    changes no output, and holds no stage value past its last reader."""

    @given(frame=st.sampled_from(sorted(ORDER_FRAMES)), order=st.permutations(sorted(RECEIVERS)),
           count=st.integers(1, len(RECEIVERS)))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_any_order_and_subset_equals_each_alone(self, frame, order, count):
        obs, system, taps, alone = order_frame(frame)
        names = order[:count]
        for name, got in zip(names, run_chains(obs, system, [RECEIVERS[r].stages for r in names], taps)):
            for f in fields(DetectionOutput):
                assert as_bits(getattr(got, f.name)) == as_bits(getattr(alone[name], f.name)), (name, f.name)

    @pytest.mark.parametrize("receivers", [
        pytest.param(("perfect_csi", "proposed_m1", "proposed_m2"), id="headline"),
        pytest.param(("ml_perfect", "ml_estimated", "ml_nopilot"), id="ml"),
    ])
    def test_stage_values_die_with_their_last_reader(self, receivers):
        # when take(i, .) runs, output i - 1's arrays live on only where
        # output i or the observation holds them
        system, chan, _ = _paper_point("direct_snr_db", 12.0)
        obs = draw_frame_batch(system, chan, master_seed=7, trial_ids=range(16))
        held = [getattr(obs, f.name) for f in fields(FrameObservation)]
        held += [getattr(obs.realization, f.name) for f in fields(obs.realization)]
        last = []  # (field, weak reference) of the last output's arrays

        def lingering(current):
            kept = {id(a) for a in with_bases(current + held)}
            return [name for name, ref in last if ref() is not None and id(ref()) not in kept]

        def take(i, out):
            current = [getattr(out, f.name) for f in fields(DetectionOutput)]
            assert lingering(current) == [], (receivers[i - 1], "outlives its last reader")
            last[:] = [(f.name, weakref.ref(a)) for f, a in zip(fields(DetectionOutput), current)
                       if isinstance(a, np.ndarray)]

        run_algorithm1(obs, system, [RECEIVERS[r].stages for r in receivers],
                       taps=composite_tap_count(chan), take=take)
        assert lingering([]) == []
