import numpy as np
import pytest

from oracles import composite_cfr, composite_cir, draw_channel
from srofdm.channel import (
    ChannelConfig,
    composite_response,
    composite_tap_count,
    pathloss,
    realization_from_taps,
)
from srofdm.harness import Scenario
from srofdm.numerics import RandomStream
from srofdm.txchain import SystemConfig


class TestPathloss:
    def test_unit_distance(self):
        assert pathloss(1.0, 2.0, 1e-3) == pytest.approx(1e-3)

    def test_reference_geometry(self):
        assert pathloss(200.0, 2.5, 1e-3) == pytest.approx(1e-3 * 200.0**-2.5)

    def test_snr_ratio_minus_30db(self):
        # tag at 3.83 m on a 200 m link gives a backscatter/direct ratio of -30 dB
        cfg = ChannelConfig()
        ratio_db = 10 * np.log10(cfg.snr_ratio)
        assert ratio_db == pytest.approx(-30.0, abs=0.2)

    def test_snr_ratio_zero_db(self):
        cfg = ChannelConfig(dist_fwd=0.12)
        assert 10 * np.log10(cfg.snr_ratio) == pytest.approx(0.0, abs=0.2)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            pathloss(0.0, 2.0, 1e-3)

    @pytest.mark.parametrize("dist, exponent, ref, shown", [
        (1e308, 2.5, 1e-3, "is 0"),  # underflows
        (3.83, 1e308, 1e-3, "is 0"),
        (1e-200, 2.0, 1e-3, "is inf"),  # dist ** -exponent overflows
        (1e-150, 2.0, 1e10, "is inf"),  # the product overflows
        (200.0, 2.5, -1e-3, "is -1.7"),
        (1e150, 2.0, 1e-10, "is 1e-310"),  # subnormal
    ])
    def test_rejects_gains_out_of_range(self, dist, exponent, ref, shown):
        with pytest.raises(ValueError, match=f"path gain .* {shown}.*; it must be positive, finite"):
            pathloss(dist, exponent, ref)


class TestChannelConfig:
    @pytest.mark.parametrize("kw, what", [
        (dict(dist_direct=1e308), "path gain"),
        (dict(dist_direct=2e80, dist_fwd=1e80), "the backscatter gain is 0"),  # 1e-163 * 1e-163
        (dict(dist_direct=2e80, dist_fwd=1e80, beta_backscatter_override=1e-3), "two-hop gain product"),
        (dict(exp_bwd=130.0, beta_backscatter_override=1e10), "rescaled first-hop gain"),
        (dict(backscatter_model="rayleigh", beta_backscatter_override=0.0), "backscatter gain"),
    ])
    def test_check_gains(self, kw, what):
        with pytest.raises(ValueError, match=what):
            ChannelConfig(**kw).check_gains()

    def test_check_gains_skips_removed_links(self):
        ChannelConfig(direct_model="none", exp_direct=1e308).check_gains()
        ChannelConfig(backscatter_model="none", exp_fwd=1e308).check_gains()
        ChannelConfig(backscatter_model="awgn", exp_fwd=160.0, beta_backscatter_override=1e-9).check_gains()

    def test_collinear_backward_distance(self):
        cfg = ChannelConfig(dist_direct=200.0, dist_fwd=3.83)
        assert cfg.dist_bwd == pytest.approx(196.17)

    def test_composite_tap_count(self):
        cfg = ChannelConfig(l_d=4, l_1=1, l_2=2, d_b=1)
        assert cfg.l_b == 2
        assert composite_tap_count(cfg) == 4
        assert composite_tap_count(cfg, xi=5) == 8
        assert composite_tap_count(cfg, xi=14) == 17

    def test_cp_validation(self):
        cfg = ChannelConfig(l_d=4, l_1=1, l_2=2, d_b=1)
        Scenario(SystemConfig(n_cp=16), cfg)
        with pytest.raises(ValueError):
            Scenario(SystemConfig(n_cp=3), cfg)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            ChannelConfig(backscatter_model="fancy")


class TestDrawChannel:
    def test_flat_direct_channel(self):
        # single fixed tap: response is constant across subcarriers
        real = realization_from_taps([2.0 + 0j], [0.0], [1.0], d_b=0, n=16)
        np.testing.assert_allclose(real.H_d, np.full(16, 2.0 + 0j))

    def test_identity_cascade(self):
        real = realization_from_taps([1.0], [1.0], [1.0], d_b=0, n=8)
        np.testing.assert_allclose(real.h_b, [1.0])
        np.testing.assert_allclose(real.H_b, np.ones(8))

    def test_power_normalization(self):
        # taps are i.i.d. across draws, so batch them through one stream
        from srofdm.numerics import draw_cn

        cfg = ChannelConfig()
        draws = 10**5
        taps = draw_cn(RandomStream(5, 0), draws * cfg.l_d, cfg.beta_direct / cfg.l_d)
        power = np.sum(np.abs(taps.reshape(draws, cfg.l_d)) ** 2, axis=1)
        assert power.mean() == pytest.approx(cfg.beta_direct, rel=0.02)

    def test_backscatter_cascade_power(self):
        cfg = ChannelConfig(dist_fwd=0.12)
        streams = RandomStream(6, 0)
        total = 0.0
        draws = 20000
        for _ in range(draws):
            real = draw_channel(cfg, streams, 64)
            total += np.sum(np.abs(real.h_b) ** 2)
        assert total / draws == pytest.approx(cfg.beta_backscatter, rel=0.05)

    def test_awgn_model_deterministic(self):
        cfg = ChannelConfig(backscatter_model="awgn")
        real = draw_channel(cfg, RandomStream(1, 0), 64)
        np.testing.assert_allclose(
            real.h_b, [np.sqrt(cfg.beta_backscatter)], atol=1e-15
        )

    def test_none_models(self):
        cfg = ChannelConfig(direct_model="none", backscatter_model="none")
        real = draw_channel(cfg, RandomStream(1, 0), 64)
        assert np.all(real.H_d == 0) and np.all(real.H_b == 0)

    def test_rayleigh_model_power(self):
        cfg = ChannelConfig(backscatter_model="rayleigh", l_1=1, l_2=4, dist_fwd=0.12)
        assert cfg.l_b == 4
        stream = RandomStream(7, 0)
        total = sum(
            np.sum(np.abs(draw_channel(cfg, stream, 64).h_b) ** 2) for _ in range(20000)
        )
        assert total / 20000 == pytest.approx(cfg.beta_backscatter, rel=0.05)

    def test_override_scales_cascade(self):
        cfg = ChannelConfig(beta_backscatter_override=1e-9)
        stream = RandomStream(8, 0)
        total = sum(
            np.sum(np.abs(draw_channel(cfg, stream, 64).h_b) ** 2) for _ in range(20000)
        )
        assert total / 20000 == pytest.approx(1e-9, rel=0.05)

    def test_reproducible(self):
        cfg = ChannelConfig()
        a = draw_channel(cfg, RandomStream(3, 11), 64)
        b = draw_channel(cfg, RandomStream(3, 11), 64)
        np.testing.assert_array_equal(a.h_d, b.h_d)
        np.testing.assert_array_equal(a.h_b, b.h_b)


class TestDerivedResponses:
    def test_composite_absorbing_load(self):
        real = draw_channel(ChannelConfig(), RandomStream(9, 0), 64)
        np.testing.assert_array_equal(composite_cfr(real, 0.0), real.H_d)

    def test_composite_half_sum_difference(self):
        real = draw_channel(ChannelConfig(), RandomStream(10, 0), 64)
        plus = composite_cfr(real, 1.0)
        minus = composite_cfr(real, -1.0)
        np.testing.assert_allclose((plus + minus) / 2, real.H_d, atol=1e-15)
        np.testing.assert_allclose((plus - minus) / 2, real.H_b, atol=1e-15)

    def test_composite_matches_time_domain_construction(self):
        # oracle: build the combined tap vector explicitly, then take its DFT
        real = draw_channel(ChannelConfig(), RandomStream(11, 0), 64)
        taps = composite_tap_count(ChannelConfig())
        h = composite_cir(real, 1j, taps)
        oracle = np.fft.fft(h, n=64)
        np.testing.assert_allclose(composite_cfr(real, 1j), oracle, atol=1e-9)

    def test_rejects_active_reflection(self):
        real = draw_channel(ChannelConfig(), RandomStream(12, 0), 64)
        with pytest.raises(ValueError):
            composite_cfr(real, 1.5)

    def test_parseval_both_links(self):
        real = draw_channel(ChannelConfig(), RandomStream(13, 0), 64)
        for taps, cfr in ((real.h_d, real.H_d), (real.h_b, real.H_b)):
            lhs = np.sum(np.abs(cfr) ** 2)
            rhs = 64 * np.sum(np.abs(taps) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_hadamard_identity(self):
        # product of the two hop responses equals the response of the cascade
        real = draw_channel(ChannelConfig(l_1=3, l_2=4), RandomStream(14, 0), 64)
        prod = np.fft.fft(real.b, n=64) * np.fft.fft(real.g, n=64)
        cascade = np.fft.fft(real.h_b, n=64)
        np.testing.assert_allclose(prod, cascade, atol=1e-9)

    def test_delay_shift_phase_ramp(self):
        real = draw_channel(ChannelConfig(d_b=3), RandomStream(15, 0), 64)
        unshifted = np.fft.fft(real.h_b, n=64)
        ramp = np.exp(-2j * np.pi * np.arange(64) * 3 / 64)
        np.testing.assert_allclose(real.H_b, unshifted * ramp, atol=1e-12)

    def test_composite_cir_with_sync_error(self):
        real = draw_channel(ChannelConfig(), RandomStream(16, 0), 64)
        h = composite_cir(real, 1.0, taps=10, xi=5)
        np.testing.assert_allclose(h[..., :4], real.h_d, atol=1e-15)
        # backscatter taps moved to delays d_b + xi = 6, 7
        np.testing.assert_allclose(h[..., 6:8], real.h_b, atol=1e-15)
        assert np.all(h[..., 4:6] == 0)

    def test_batched_fields_broadcast(self):
        cfg = ChannelConfig()
        singles = [draw_channel(cfg, RandomStream(17, i), 64) for i in range(3)]
        from srofdm.channel import ChannelRealization

        batched = ChannelRealization(
            h_d=np.stack([r.h_d for r in singles]),
            b=np.stack([r.b for r in singles]),
            g=np.stack([r.g for r in singles]),
            h_b=np.stack([r.h_b for r in singles]),
            H_d=np.stack([r.H_d for r in singles]),
            H_b=np.stack([r.H_b for r in singles]),
            d_b=cfg.d_b,
        )
        out = composite_cfr(batched, np.array([1.0, -1.0, 0.5]))
        for i, r in enumerate(singles):
            np.testing.assert_allclose(out[i], composite_cfr(r, [1.0, -1.0, 0.5][i]))

    def test_composite_response_matches_oracles(self):
        # one row per symbol value: the per-symbol combined response, which
        # is also the DFT of the explicit tap-domain construction
        cfg = ChannelConfig()
        real = draw_channel(cfg, RandomStream(18, 0), 64)
        c = np.array([1.0, -1.0, 1j, 0.0])
        got = composite_response(real.H_d, real.H_b, c)
        assert got.shape == (4, 64)
        for row, cn in zip(got, c):
            np.testing.assert_allclose(row, composite_cfr(real, cn), rtol=1e-14, atol=0)
            cir = composite_cir(real, cn, composite_tap_count(cfg))
            np.testing.assert_allclose(row, np.fft.fft(cir, n=64), atol=1e-9)

    def test_composite_response_batched(self):
        # (batch, n) responses with (batch, n_sym) symbols give (batch, n_sym, n)
        cfg = ChannelConfig()
        singles = [draw_channel(cfg, RandomStream(19, i), 64) for i in range(3)]
        h_d = np.stack([r.H_d for r in singles])
        h_b = np.stack([r.H_b for r in singles])
        c = np.array([[1.0, -1.0], [1j, -1j], [0.5, 0.0]])
        got = composite_response(h_d, h_b, c)
        assert got.shape == (3, 2, 64)
        for i, r in enumerate(singles):
            np.testing.assert_allclose(got[i], composite_cfr(r, c[i]), rtol=1e-14, atol=0)
