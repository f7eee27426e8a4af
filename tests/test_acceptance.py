"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

Monte Carlo sizes are chosen so every asserted margin sits several standard
errors away from its threshold; seeds are fixed so results are repeatable.
"""
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import factorial

from oracles import draw_noise, draw_primary, draw_secondary, lstsq_separate_links
from srofdm.channel import ChannelConfig, composite_tap_count, draw_channel
from srofdm.harness import Scenario, SweepSpec, run_sweep
from srofdm.numerics import RandomStream, draw_cn, q_function
from srofdm.receiver import (
    ml_candidates,
    ml_symbol_metrics,
    reestimate_method2,
    separate_links,
)
from srofdm.theory import avg_ber_secondary, fit_diversity_slope
from srofdm.txchain import SystemConfig, frequency_domain_rx

NOISE_W = 10 ** (-80 / 10) * 1e-3  # -80 dBm
WORKERS = min(2, os.cpu_count() or 1)


def paper_system(**kw) -> SystemConfig:
    base = dict(
        n=64, n_cp=16, n_p=8,
        m_s=16, m_c=8, t_preamble=2, n_max=10, sigma2=NOISE_W,
    )
    base.update(kw)
    return SystemConfig(**base)


def report(num: int, text: str):
    print(f"\n[criterion {num:2d}] PASS - {text}")


def interp_snr_at(bers, points, level=1e-3):
    logs = np.log10(np.asarray(bers))
    return float(np.interp(np.log10(level), logs[::-1], np.asarray(points)[::-1]))


class TestAcceptance:
    def test_criterion_01_noise_free_identity(self):
        # noise 120 dB below the signal: no primary or secondary bit errors
        t0 = time.time()
        scen = Scenario(system=paper_system(), chan=ChannelConfig(), direct_snr_db=120.0)
        spec = SweepSpec(
            axis="direct_snr_db", points=(120.0,), trials_per_point=1000,
            receivers=("perfect_csi", "proposed_m1", "proposed_m2", "pilot_only"),
            with_theory=False,
        )
        curves = run_sweep(spec, scen, master_seed=1001, workers=WORKERS)
        for name, curve in curves.items():
            p = curve.points[0]
            assert p.primary_bit_errors == 0, name
            assert p.secondary_bit_errors == 0, name
        elapsed = time.time() - t0
        assert elapsed < 60.0
        report(1, f"zero errors over 1000 noise-free trials, 4 receivers, {elapsed:.1f}s")

    def test_criterion_02_theory_simulation_agreement_perfect_csi(self):
        # 5-point direct-SNR sweep at 1e5 trials/point: simulated primary
        # error rate within 4 confidence half-widths of the per-realization
        # closed form wherever it is at least 1e-4 (symbol rate against the
        # per-subcarrier display; bit rate against the exact Gray map)
        t0 = time.time()
        scen = Scenario(system=paper_system(), chan=ChannelConfig(), direct_snr_db=20.0)
        points = (14.0, 18.0, 22.0, 26.0, 30.0)
        spec = SweepSpec(
            axis="direct_snr_db", points=points, trials_per_point=10**5,
            receivers=("perfect_csi",),
        )
        curve = run_sweep(spec, scen, master_seed=1002, workers=WORKERS)["perfect_csi"]
        checked = 0
        for p in curve.points:
            ser_theory = p.theory_mean("primary_ser_theory")
            ber_theory = p.theory_mean("primary_ber_theory")
            if ser_theory >= 1e-4:
                assert abs(p.ser_primary - ser_theory) <= 4 * p.ci_ser_primary, p.point
                checked += 1
            if ber_theory >= 1e-4:
                assert abs(p.ber_primary - ber_theory) <= 4 * p.ci_primary, p.point
        assert checked == len(points)
        elapsed = time.time() - t0
        assert elapsed < 600.0
        report(2, f"5 points x 1e5 trials within 4 half-widths of the closed form, {elapsed:.0f}s")

    def test_criterion_03_backscatter_gain_3db(self):
        # SNR needed for primary BER 1e-3 drops by 3 +/- 1 dB when the
        # equal-strength backscatter path is present (i.i.d. Rayleigh
        # backscatter taps, the stochastic model behind the averaged result)
        points = tuple(np.arange(26.0, 37.0, 2.0))
        thresholds = {}
        for label, chan in (
            ("with", ChannelConfig(dist_fwd=0.12, backscatter_model="rayleigh")),
            ("without", ChannelConfig(backscatter_model="none")),
        ):
            scen = Scenario(system=paper_system(), chan=chan, direct_snr_db=points[0])
            spec = SweepSpec(
                axis="direct_snr_db", points=points, trials_per_point=10**5,
                receivers=("perfect_csi",), with_theory=False,
            )
            curve = run_sweep(spec, scen, master_seed=1003, workers=WORKERS)["perfect_csi"]
            thresholds[label] = interp_snr_at([p.ber_primary for p in curve.points], points)
        gain = thresholds["without"] - thresholds["with"]
        assert 2.0 <= gain <= 4.0
        report(3, f"backscatter gain at BER 1e-3: {gain:.2f} dB (target 3 +/- 1)")

    def test_criterion_04_method_ordering(self):
        # tap-domain re-estimation never statistically worse than the
        # per-subcarrier one on a shared-trial 6-point sweep
        scen = Scenario(
            system=paper_system(), chan=ChannelConfig(dist_fwd=0.12), direct_snr_db=20.0
        )
        points = (4.0, 8.0, 12.0, 16.0, 20.0, 24.0)
        spec = SweepSpec(
            axis="direct_snr_db", points=points, trials_per_point=5 * 10**4,
            receivers=("proposed_m1", "proposed_m2"), with_theory=False,
        )
        curves = run_sweep(spec, scen, master_seed=1004, workers=WORKERS)
        gaps = []
        for p1, p2 in zip(curves["proposed_m1"].points, curves["proposed_m2"].points):
            slack = np.hypot(p1.ci_secondary, p2.ci_secondary)
            gap = p1.ber_secondary - p2.ber_secondary
            assert gap >= -slack, p1.point
            gaps.append(gap)
        assert max(gaps) > 0  # the ordering is strict somewhere on the sweep
        report(4, "method-2 secondary BER <= method-1 at all 6 points (no significant inversion)")

    def test_criterion_05_diversity_order(self):
        # secondary diversity equals the backscatter tap count: regression
        # slope over the deepest measurable window within +/-20%, and the
        # closed-form average matches its quadrature oracle to 1e-6
        for l_b in (1, 2, 4):
            for gamma in (1.0, 10.0, 100.0):
                exact, _ = avg_ber_secondary(gamma_b=gamma, l_b=l_b)
                dens = lambda x: (
                    q_function(np.sqrt(2 * gamma * x)) * x ** (l_b - 1) * np.exp(-x)
                    / factorial(l_b - 1)
                )
                val, _ = quad(dens, 0, np.inf, limit=200)
                assert abs(exact - val) <= 1e-6

        plans = {
            1: [(-1.0, 15000), (3.0, 15000), (7.0, 15000), (11.0, 15000),
                (15.0, 15000), (19.0, 15000)],
            2: [(-3.0, 20000), (-1.0, 20000), (1.0, 20000), (3.0, 20000),
                (5.0, 20000), (7.0, 25000)],
            4: [(-3.5, 20000), (-2.4, 20000), (-1.3, 40000), (-0.2, 60000),
                (0.9, 100000)],
        }
        slopes = {}
        for l_b, plan in plans.items():
            system = paper_system(m_s=4, m_c=2, n_max=34)
            chan = ChannelConfig(backscatter_model="rayleigh", l_1=1, l_2=l_b, dist_fwd=0.12)
            pts, bers = [], []
            for point, trials in plan:
                scen = Scenario(system=system, chan=chan, backscatter_snr_db=point)
                spec = SweepSpec(
                    axis="backscatter_snr_db", points=(point,), trials_per_point=trials,
                    receivers=("proposed_m2_genie",), with_theory=False,
                )
                curve = run_sweep(spec, scen, master_seed=1005 + l_b, workers=WORKERS)
                p = curve["proposed_m2_genie"].points[0]
                pts.append(point)
                bers.append(p.ber_secondary)
            slope = fit_diversity_slope(np.array(pts), np.array(bers))
            assert l_b * 0.8 <= slope <= l_b * 1.2, (l_b, slope, bers)
            slopes[l_b] = slope
        report(5, "diversity slopes " + ", ".join(
            f"L_b={k}: {v:.2f}" for k, v in slopes.items()
        ) + " (each within +/-20%); closed form matches quadrature to 1e-6")

    def test_criterion_06_no_direct_link(self):
        # both transmissions decodable through the backscatter path alone,
        # and the exact sign-ambiguity tie without the pilot structure
        system = paper_system(m_s=4, m_c=2)
        chan = ChannelConfig(direct_model="none", dist_fwd=0.12)
        points = (6.0, 10.0, 14.0, 18.0)
        scen = Scenario(system=system, chan=chan, backscatter_snr_db=points[0])
        spec = SweepSpec(
            axis="backscatter_snr_db", points=points, trials_per_point=10**4,
            receivers=("proposed_m2", "ml_perfect"), with_theory=False,
        )
        curves = run_sweep(spec, scen, master_seed=1006, workers=WORKERS)
        for name in ("proposed_m2", "ml_perfect"):
            pb = [p.ber_primary for p in curves[name].points]
            cb = [p.ber_secondary for p in curves[name].points]
            ci_p = [p.ci_primary for p in curves[name].points]
            ci_c = [p.ci_secondary for p in curves[name].points]
            for i in range(len(points) - 1):
                assert pb[i + 1] <= pb[i] + ci_p[i] + ci_p[i + 1], name
                assert cb[i + 1] <= cb[i] + ci_c[i] + ci_c[i + 1], name
            assert pb[-1] < pb[0] / 4, name
            assert cb[-1] < cb[0] / 4, name
            # spreading gain: the secondary stream decodes far better
            for p in curves[name].points:
                assert p.ber_secondary < p.ber_primary, name

        # constructed BPSK frame, no pilot structure: exact metric tie
        cfg = SystemConfig(
            n=16, n_cp=4, n_p=8, m_s=4, m_c=2,
            n_max=3, t_preamble=2, p_t=1.0, sigma2=0.01,
        )
        real = draw_channel(
            ChannelConfig(direct_model="none", l_d=2, l_1=1, l_2=2, d_b=0),
            RandomStream(1066, 0), cfg.n,
        )
        s, si = draw_primary(cfg, RandomStream(1066, 1))
        c, ci = draw_secondary(cfg, RandomStream(1066, 2))
        u = draw_noise(cfg, RandomStream(1066, 3), s.shape)
        obs = frequency_domain_rx(s, c, real, cfg, noise=u, s_indices=si, c_indices=ci)
        for m in range(cfg.n_max):
            cands = ml_candidates(real.H_d, real.H_b, cfg, pilot_structure=False)
            totals, _ = ml_symbol_metrics(obs.y[m], cands, cfg)
            assert totals[0] == totals[1], m
        report(6, "no-direct-link: both receivers decode with decreasing BER; "
                  "exact +/- sign metric tie without the pilot structure")

    def test_criterion_07_sync_error_regimes(self):
        # tolerable range [0, 5]: mild degradation; 6..14: pilot estimation
        # overloaded (>= 10x); >= 16: cyclic prefix exceeded, perfect CSI
        # degrades too
        scen = Scenario(
            system=paper_system(), chan=ChannelConfig(dist_fwd=0.12), direct_snr_db=30.0
        )
        points = tuple(float(x) for x in (0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 18, 20))
        spec = SweepSpec(
            axis="sync_error_samples", points=points, trials_per_point=3000,
            receivers=("perfect_csi", "proposed_m2"), with_theory=False,
        )
        curves = run_sweep(spec, scen, master_seed=1007, workers=WORKERS)
        est = {p.point: p.ber_primary for p in curves["proposed_m2"].points}
        perf = {p.point: p.ber_primary for p in curves["perfect_csi"].points}
        assert est[5.0] <= 3.0 * est[0.0]
        for xi in (6, 7, 8, 9, 10, 11, 12, 13, 14):
            assert est[float(xi)] >= 10.0 * est[0.0], xi
        for xi in (16, 18, 20):
            assert perf[float(xi)] >= 10.0 * perf[0.0], xi
        report(7, f"sync regimes: est-CSI x{est[5.0]/est[0.0]:.2f} at xi=5, "
                  f">=x{min(est[float(x)] / est[0.0] for x in range(6, 15)):.0f} at 6..14, "
                  f"perfect-CSI >=x{min(perf[x] / perf[0.0] for x in (16.0, 18.0, 20.0)):.1f} at >=16")

    def test_criterion_08_noise_moment_identities(self):
        # moments of the tap-domain re-estimation error over 1e5 noise draws
        cfg = paper_system(m_s=4, p_t=2.0, sigma2=0.3)
        taps = 4
        trials = 10**5
        stream = RandomStream(1008, 0)
        s = cfg.qam.points[stream.integers(0, 4, size=(trials, cfg.n))]
        u0 = draw_cn(stream, trials * cfg.n, cfg.sigma2).reshape(trials, cfg.n)
        un = draw_cn(stream, trials * cfg.n, cfg.sigma2).reshape(trials, cfg.n)
        e0 = reestimate_method2(u0, s, cfg, taps)
        en = reestimate_method2(un, s, cfg, taps)
        same = np.mean(np.abs(np.einsum("tk,tk->t", e0.conj(), e0)) ** 2)
        cross = np.mean(np.abs(np.einsum("tk,tk->t", e0.conj(), en)) ** 2)
        energy = np.mean(np.real(np.einsum("tk,tk->t", e0.conj(), e0)))
        want_same = (taps**2 + taps) * cfg.sigma2**2 / cfg.p_t**2
        want_cross = taps * cfg.sigma2**2 / cfg.p_t**2
        want_energy = taps * cfg.sigma2 / cfg.p_t
        assert same == pytest.approx(want_same, rel=0.03)
        assert cross == pytest.approx(want_cross, rel=0.03)
        assert energy == pytest.approx(want_energy, rel=0.01)
        report(8, f"same-symbol {same/want_same:.3f}x, cross {cross/want_cross:.3f}x, "
                  f"energy {energy/want_energy:.4f}x of the predicted moments")

    def test_criterion_09_preamble_optimality(self):
        # compliant preambles: per-entry error variance sigma^2/T within 5%;
        # a zero-sum violation strictly inflates the error covariance trace
        sig_eps = 0.4
        n = 32
        trials = 10**5
        for t, pre in ((2, np.array([1.0, -1.0])), (4, np.array([1.0, 1j, -1.0, -1j]))):
            eps = draw_cn(RandomStream(1009, t), trials * t * n, sig_eps).reshape(trials, t, n)
            h_d, h_b = separate_links(eps, pre)
            assert np.mean(np.abs(h_d) ** 2) == pytest.approx(sig_eps / t, rel=0.05)
            assert np.mean(np.abs(h_b) ** 2) == pytest.approx(sig_eps / t, rel=0.05)

        eps = draw_cn(RandomStream(1009, 9), trials * 2 * n, sig_eps).reshape(trials, 2, n)
        d_ok, b_ok = separate_links(eps, np.array([1.0, -1.0]))
        d_bad, b_bad = lstsq_separate_links(eps, np.array([1.0, 1.0j]))
        trace_ok = np.mean(np.abs(d_ok) ** 2 + np.abs(b_ok) ** 2)
        trace_bad = np.mean(np.abs(d_bad) ** 2 + np.abs(b_bad) ** 2)
        assert trace_bad > trace_ok * 1.2
        report(9, f"error variance sigma^2/T for T in (2, 4); non-compliant preamble "
                  f"inflates the covariance trace by x{trace_bad/trace_ok:.2f}")

    def test_criterion_10_determinism_across_workers(self, tmp_path):
        # identical seed, different worker counts: byte-identical CSV output
        from srofdm.cli import main

        scen = tmp_path / "scen.txt"
        scen.write_text(
            "direct_snr_db = 18\ntrials = 1024\n"
            "receivers = perfect_csi,proposed_m2\nn_max = 6\n"
        )
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            rc = main([
                "sweep", str(scen), "--points", "14,20", "--trials", "1024",
                "--seed", "77", "--workers", workers, "--out", str(out), "--quiet",
            ])
            assert rc == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        report(10, f"byte-identical outputs ({len(names)} files) for 1 vs 2 workers")
