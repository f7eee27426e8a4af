from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    COMBS,
    QAM_ORDERS,
    composite_cir,
    draw_channel,
    draw_noise,
    draw_primary,
    draw_secondary,
    gather_modulate_primary,
    observe,
    rail_slicer,
    reference_sample_level_rx,
)
from srofdm import txchain
from srofdm.channel import ChannelConfig, composite_response, realization_from_taps, scale_link_taps
from srofdm.cli import load_scenario_file, resolve_scenario
from srofdm.harness import Scenario, draw_trials
from srofdm.numerics import RandomStream, draw_cn
from srofdm.txchain import (
    PskAlphabet,
    QamAlphabet,
    SystemConfig,
    _delay,
    default_preamble,
    frequency_domain_rx,
    modulate_primary,
    sample_level_rx,
    sample_level_streams,
    tag_emitted_stream,
)


def paper_cfg(**kw) -> SystemConfig:
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


class TestAlphabets:
    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_qam_unit_average_power(self, order):
        a = QamAlphabet.build(order)
        assert np.mean(np.abs(a.points) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_qam_gray_adjacency(self, order):
        # points at the minimum distance differ in exactly one bit
        a = QamAlphabet.build(order)
        d = np.abs(a.points[:, None] - a.points[None, :])
        dmin = np.min(d[d > 1e-12])
        near = np.argwhere(np.isclose(d, dmin))
        for i, j in near:
            if i < j:
                assert bin(a.labels[i] ^ a.labels[j]).count("1") == 1

    def test_16qam_levels(self):
        a = QamAlphabet.build(16)
        rails = np.unique(np.round(a.points.real * np.sqrt(10)).astype(int))
        np.testing.assert_array_equal(rails, [-3, -1, 1, 3])

    @pytest.mark.parametrize("order", [2, 4, 8])
    def test_psk_unit_modulus_and_gray(self, order):
        a = PskAlphabet.build(order)
        np.testing.assert_allclose(np.abs(a.points), 1.0, atol=1e-12)
        for i in range(order):
            j = (i + 1) % order
            assert bin(a.labels[i] ^ a.labels[j]).count("1") == 1

    def test_detect_round_trip(self):
        a = QamAlphabet.build(16)
        idx = np.arange(16)
        np.testing.assert_array_equal(a.detect(a.points[idx]), idx)

    @pytest.mark.parametrize("order", [4**k for k in range(1, 7)])
    def test_detect_matches_rail_slicer(self, order):
        # the in-place rails give the two-rail slicer's indices, dtype and
        # shape, on every layout and on the values at the edges of float
        qam = QamAlphabet.build(order)
        edge = np.max(qam.points.real)
        tiny = np.finfo(float).tiny
        special = np.array([np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, tiny / 3, tiny,
                            1.5 * edge, -1.5 * edge, 1e300, -1e300, np.finfo(float).max])
        rng = np.random.default_rng(order)
        z = rng.normal(scale=edge, size=(6, 40)) + 1j * rng.normal(scale=edge, size=(6, 40))
        # set rail by rail: 1j * inf would put a nan on the real rail
        z.real[0, : special.size], z.imag[0, : special.size] = special, special[::-1]
        z.real[1, : special.size], z.imag[1, : special.size] = -0.0, special
        cases = {
            "contiguous": z,
            "strided": z[::2, ::3],
            "transposed": z.T,
            "rails": z.imag,  # a real array, itself a strided view
            "real": special,
            "0-d": np.asarray(z[0, 3]),
            "0-d real": np.asarray(-0.0),
            "scalar": z[0, 0],
            "empty": z[:0],
        }
        with np.errstate(over="ignore"):
            for name, case in cases.items():
                got, want = qam.detect(case), rail_slicer(qam, case)
                assert type(got) is type(want) and got.dtype == want.dtype, name
                assert got.shape == want.shape and np.array_equal(got, want), name
            # inf + max j and -inf - 1e300 j lie beyond the clip range: corners
            assert np.array_equal(qam.detect(z[0, :2]), [order - 1, 0])

    def test_bit_error_count(self):
        a = PskAlphabet.build(2)
        assert a.bit_errors(np.array(0), np.array(1)) == 1
        assert a.bit_errors(np.array(1), np.array(1)) == 0

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            QamAlphabet.build(8)
        with pytest.raises(ValueError):
            PskAlphabet.build(3)


class TestSystemConfig:
    def test_default_pilot_comb(self):
        cfg = SystemConfig(n=64, n_p=8)
        np.testing.assert_array_equal(cfg.pilot_indices, np.arange(0, 64, 8))
        np.testing.assert_array_equal(cfg.data_indices, np.setdiff1d(np.arange(64), np.arange(0, 64, 8)))
        for indices in (cfg.pilot_indices, cfg.data_indices):
            with pytest.raises(ValueError, match="read-only"):
                indices[0] = 1

    def test_default_is_the_paper_default_scenario(self):
        # the powers are pinned per sweep point; every other field is the scenario's
        want = resolve_scenario(load_scenario_file("paper_default"))[0].system
        for f in fields(SystemConfig):
            if f.name not in ("p_t", "sigma2"):
                assert getattr(SystemConfig(), f.name) == getattr(want, f.name), f.name

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_accepted_comb_is_regular(self, data):
        n = data.draw(st.integers(-2, 1024), label="n")
        divisors = st.sampled_from([d for d in range(1, n + 1) if n % d == 0]) if n > 0 else st.nothing()
        n_p = data.draw(st.none() | st.integers(-2, 1030) | divisors, label="n_p")
        try:
            cfg = SystemConfig(n=n) if n_p is None else SystemConfig(n=n, n_p=n_p)
        except ValueError:
            return
        assert cfg.n_p >= 1
        np.testing.assert_array_equal(cfg.pilot_indices, np.arange(0, cfg.n, cfg.n // cfg.n_p))
        np.testing.assert_array_equal(cfg.data_indices, np.setdiff1d(np.arange(cfg.n), cfg.pilot_indices))

    @pytest.mark.parametrize("kw, message", [
        (dict(n_p=-1), "n_p = -1 pilots do not divide n = 64 subcarriers evenly"),
        (dict(n_p=7), "n_p = 7 pilots do not divide n = 64 subcarriers evenly"),
        (dict(n_p=65), "n_p = 65 pilots do not divide n = 64 subcarriers evenly"),
        (dict(n=0), "n = 0: need at least one subcarrier"),
        (dict(n=-64), "n = -64: need at least one subcarrier"),
        (dict(n_cp=-1), "n_cp = -1 is negative"),
        (dict(m_s=4**20), "m_s = 1099511627776 exceeds the largest alphabet, 4096 points"),
        (dict(m_c=2**13), "m_c = 8192 exceeds the largest alphabet, 4096 points"),
        (dict(n_max=10**12), r"n_max \* \(n \+ n_cp\) = 1000000000000 \* 80 samples exceeds"),
        (dict(n=2**13, n_p=8), r"= 10 \* 8208 samples exceeds the largest frame, 65536"),
        (dict(t_preamble=10**12, n_max=10**12 + 1), "exceeds the largest frame"),
        (dict(n_p=0), "n_p = 0 pilots do not divide n = 64 subcarriers evenly"),
    ])
    def test_sizes_checked_before_any_array_is_built(self, monkeypatch, kw, message):
        def unbuilt(*args):
            raise AssertionError(f"built an array for {args}")

        for name in ("default_preamble", "_read_only"):
            monkeypatch.setattr(txchain, name, unbuilt)
        for alphabet in (QamAlphabet, PskAlphabet):
            monkeypatch.setattr(alphabet, "build", unbuilt)
        with pytest.raises(ValueError, match=message):
            SystemConfig(**kw)

    def test_largest_sizes_are_accepted(self):
        cfg = SystemConfig(n=4096, n_cp=0, n_p=4096, m_s=4096, m_c=4096, n_max=16)
        assert cfg.n_max * cfg.symbol_period == txchain.MAX_FRAME_SAMPLES
        assert cfg.qam.order == cfg.psk.order == txchain.MAX_ORDER

    def test_each_alphabet_built_once(self, monkeypatch):
        built = []
        for alphabet in (QamAlphabet, PskAlphabet):
            build = alphabet.build
            monkeypatch.setattr(alphabet, "build", lambda order, build=build: built.append(order) or build(order))
        cfg = paper_cfg()
        assert (cfg.qam.order, cfg.psk.order) == (16, 8)
        assert built == [16, 8]

    def test_default_preamble_plus_minus_one(self):
        cfg = paper_cfg()
        np.testing.assert_allclose(cfg.preamble, [1.0, -1.0])

    def test_longer_preamble_zero_sum(self):
        pre = np.asarray(default_preamble(4))
        assert abs(pre.sum()) < 1e-12
        np.testing.assert_allclose(np.abs(pre), 1.0)

    def test_rejects_noncompliant_preamble(self):
        with pytest.raises(ValueError):
            paper_cfg(t_preamble=2, preamble=(1.0, 1.0))
        with pytest.raises(ValueError):
            paper_cfg(t_preamble=2, preamble=(2.0, -2.0))

    @pytest.mark.parametrize("kw, message", [
        (dict(preamble=(complex("nan"), complex("nan"))), "unit modulus"),
        (dict(preamble=(1.0, complex("nan"))), "unit modulus"),
        (dict(preamble=(complex("nan"), 1.0)), "unit modulus"),
        (dict(p_t=float("nan")), "powers"),
        (dict(sigma2=float("nan")), "powers"),
    ])
    def test_rejects_nan(self, kw, message):
        with pytest.raises(ValueError, match=message):
            paper_cfg(**kw)

    @pytest.mark.parametrize("key", ["p_t", "sigma2"])
    def test_rejects_infinite_power(self, key):
        # an infinite p_t once built and died later in modulate_primary's table lookup
        with pytest.raises(ValueError, match="powers must be positive"):
            SystemConfig(**{key: float("inf")})

    def test_frame_length_checked_before_the_preamble_is_built(self, monkeypatch):
        def unbuilt(t):
            raise AssertionError(f"built a {t}-symbol preamble")

        monkeypatch.setattr(txchain, "default_preamble", unbuilt)
        with pytest.raises(ValueError, match="n_max = 10 leaves no data symbols after the t_preamble = 50"):
            SystemConfig(t_preamble=50, n_max=10)

    def test_validate_with_channel(self):
        cfg = paper_cfg()
        Scenario(cfg, ChannelConfig())
        with pytest.raises(ValueError):
            # 4 pilots cannot resolve the 4-tap composite response... they can;
            # shrink to 2 pilots to trigger the failure
            Scenario(paper_cfg(n_p=2), ChannelConfig())

    def test_data_subcarrier_bookkeeping(self):
        cfg = paper_cfg()
        assert cfg.n_p == 8 and cfg.n_data == 56
        assert cfg.n_data_symbols == 8
        assert not set(cfg.pilot_indices) & set(cfg.data_indices.tolist())


class TestModulation:
    def test_constant_fill(self):
        cfg = paper_cfg()
        idx = np.zeros((cfg.n_max, cfg.n_data), dtype=int)
        s = modulate_primary(idx, cfg)
        np.testing.assert_allclose(s[..., cfg.data_indices], cfg.qam.points[0])
        np.testing.assert_array_equal(s[..., cfg.pilot_indices], 1.0)

    def test_round_trip(self):
        cfg = paper_cfg()
        s, idx = draw_primary(cfg, RandomStream(21, 0))
        recovered = cfg.qam.detect(s[..., cfg.data_indices])
        np.testing.assert_array_equal(recovered, idx)

    def test_secondary_frame_layout(self):
        cfg = paper_cfg()
        c, idx = draw_secondary(cfg, RandomStream(22, 0))
        np.testing.assert_allclose(c[:2], [1.0, -1.0])
        np.testing.assert_array_equal(cfg.psk.detect(c[2:]), idx)


class TestCombOracle:
    """modulate_primary's row fill byte for byte against the scatter through
    the comb's index arrays."""

    @staticmethod
    def check(comb, m_s, batch, seed):
        n, n_p = comb
        cfg = SystemConfig(n=n, n_cp=0, n_p=n_p, m_s=m_s, m_c=2, n_max=3)
        idx = np.random.default_rng(seed).integers(0, m_s, batch + (cfg.n_data,))
        got, want = modulate_primary(idx, cfg), gather_modulate_primary(idx, cfg)
        assert (got.dtype, got.shape) == (want.dtype, want.shape) == (complex, batch + (n,))
        assert got.tobytes() == want.tobytes(), (comb, m_s, batch)

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


class TestFrequencyDomainRx:
    def test_transparent_channel(self):
        cfg = paper_cfg(sigma2=0.0)
        real = realization_from_taps([1.0], [0.0], [1.0], d_b=0, n=cfg.n)
        s, _ = draw_primary(cfg, RandomStream(23, 0))
        obs = observe(s, np.zeros(cfg.n_max), real, cfg)
        np.testing.assert_allclose(obs.y, s, atol=1e-12)

    def test_noise_free_ratio_recovers_composite(self):
        cfg = paper_cfg(sigma2=0.0)
        real = draw_channel(ChannelConfig(), RandomStream(24, 0), cfg.n)
        s, _ = draw_primary(cfg, RandomStream(24, 1))
        c, _ = draw_secondary(cfg, RandomStream(24, 2))
        obs = observe(s, c, real, cfg)
        h = obs.y / (np.sqrt(cfg.p_t) * s)
        expect = real.H_d[None, :] + c[:, None] * real.H_b[None, :]
        np.testing.assert_allclose(h, expect, atol=1e-10)

    def test_matches_sample_level_with_shared_noise(self):
        cfg = paper_cfg(sigma2=1e-2, p_t=2.0)
        real = draw_channel(ChannelConfig(), RandomStream(25, 0), cfg.n)
        s, _ = draw_primary(cfg, RandomStream(25, 1))
        c, _ = draw_secondary(cfg, RandomStream(25, 2))
        u = draw_cn(RandomStream(25, 3), cfg.n_max * cfg.symbol_period, cfg.sigma2)
        sample = observe(s, c, real, cfg, noise=u, xi=0)
        u_freq = (
            np.fft.fft(u.reshape(cfg.n_max, cfg.symbol_period)[:, cfg.n_cp :], axis=-1)
            / np.sqrt(cfg.n)
        )
        freq = observe(s, c, real, cfg, noise=u_freq)
        np.testing.assert_allclose(sample.y, freq.y, atol=1e-8)


    def test_carries_the_composite_response(self):
        cfg = paper_cfg(sigma2=1e-2)
        real = draw_channel(ChannelConfig(), RandomStream(33, 0), cfg.n)
        s, _ = draw_primary(cfg, RandomStream(33, 1))
        c, _ = draw_secondary(cfg, RandomStream(33, 2))
        noise = draw_noise(cfg, RandomStream(33, 3), (cfg.n_max, cfg.n))
        obs = observe(s, c, real, cfg, noise=noise)
        want = composite_response(real.H_d, real.H_b, c)
        assert (obs.H.dtype, obs.H.shape, obs.H.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_noisy_link_needs_explicit_noise(self):
        # the receive paths never draw: the harness supplies every noise sample
        cfg = paper_cfg(sigma2=1e-2)
        real = draw_channel(ChannelConfig(), RandomStream(32, 0), cfg.n)
        s, _ = draw_primary(cfg, RandomStream(32, 1))
        c, _ = draw_secondary(cfg, RandomStream(32, 2))
        with pytest.raises(ValueError, match="need explicit noise"):
            frequency_domain_rx(s, composite_response(real.H_d, real.H_b, c), cfg)
        with pytest.raises(ValueError, match="need explicit noise"):
            sample_level_rx(sample_level_streams(s, c, real, cfg), cfg, 0)


class TestSampleLevelRx:
    def _run(self, xi, ch=None, sigma2=0.0, seed=26):
        cfg = paper_cfg(sigma2=sigma2)
        ch = ch or ChannelConfig()
        real = draw_channel(ch, RandomStream(seed, 0), cfg.n)
        s, _ = draw_primary(cfg, RandomStream(seed, 1))
        c, _ = draw_secondary(cfg, RandomStream(seed, 2))
        noise = draw_noise(cfg, RandomStream(seed, 3), (cfg.n_max * cfg.symbol_period,))
        obs = observe(s, c, real, cfg, noise=noise, xi=xi)
        return cfg, ch, real, s, c, obs

    @pytest.mark.parametrize("xi", [0, 1, 3, 5, 14])
    def test_tolerable_offsets_follow_shifted_tap_model(self, xi):
        # within CP reach the observation is exactly the composite response
        # with the backscatter taps moved xi samples later
        cfg, ch, real, s, c, obs = self._run(xi)
        from srofdm.channel import composite_tap_count

        taps = composite_tap_count(ch, xi)
        ratio = obs.y / (np.sqrt(cfg.p_t) * s)
        model = np.fft.fft(composite_cir(real, c, taps, xi), n=cfg.n)
        np.testing.assert_allclose(ratio, model, atol=1e-9)

    def test_carries_no_composite_response(self):
        # a timing error reshapes the response; the perfect-CSI stage builds its own
        assert self._run(3)[-1].H is None

    def test_ibi_onset_breaks_model(self):
        # one sample past the CP budget leaves a visible model residual
        cfg, ch, real, s, c, obs = self._run(15)
        taps = max(ch.l_d, ch.l_b + ch.d_b + 15)
        ratio = obs.y / (np.sqrt(cfg.p_t) * s)
        model = np.fft.fft(composite_cir(real, c, taps, 15), n=cfg.n)
        assert np.max(np.abs(ratio - model)) > 1e-8

    def test_out_of_range_xi_rejected(self):
        cfg = paper_cfg()
        real = draw_channel(ChannelConfig(), RandomStream(27, 0), cfg.n)
        s, _ = draw_primary(cfg, RandomStream(27, 1))
        c, _ = draw_secondary(cfg, RandomStream(27, 2))
        with pytest.raises(ValueError):
            sample_level_rx(
                sample_level_streams(s, c, real, cfg), cfg, cfg.n + cfg.n_cp,
                noise=draw_noise(cfg, RandomStream(27, 3), (cfg.n_max * cfg.symbol_period,)),
            )

    def test_reflection_causality(self):
        # first xi samples of each symbol period at the tag still carry the
        # previous secondary symbol
        cfg = paper_cfg(n_max=3, sigma2=0.0)
        xi = 5
        x = draw_cn(RandomStream(28, 0), cfg.n_max * cfg.symbol_period, 1.0)
        c = np.array([1.0, -1.0, 1.0])
        emitted = _delay(tag_emitted_stream(x, c, cfg), xi)
        p = cfg.symbol_period
        # inside symbol 1, before the boundary settles: previous gate (+1)
        np.testing.assert_allclose(emitted[p : p + xi], x[p - xi : p] * 1.0)
        # after the boundary: current gate (-1)
        np.testing.assert_allclose(emitted[p + xi : 2 * p], x[p : 2 * p - xi] * -1.0)

    def test_energy_bookkeeping(self):
        # noise-free received power per subcarrier ~ P_T * E||H||^2 / N
        cfg = paper_cfg(sigma2=0.0, p_t=3.0, n_max=10)
        ch = ChannelConfig(dist_fwd=0.12)
        rx_power = 0.0
        href = 0.0
        trials = 400
        for t in range(trials):
            real = draw_channel(ch, RandomStream(29, t), cfg.n)
            s, _ = draw_primary(cfg, RandomStream(30, t))
            c, _ = draw_secondary(cfg, RandomStream(31, t))
            obs = observe(s, c, real, cfg)
            rx_power += np.mean(np.abs(obs.y) ** 2)
            h = real.H_d[None, :] + c[:, None] * real.H_b[None, :]
            href += cfg.p_t * np.mean(np.abs(h) ** 2)
        assert rx_power / trials == pytest.approx(href / trials, rel=0.02)

    def test_batched_leading_dimension(self):
        cfg = paper_cfg(sigma2=0.0)
        singles = []
        for i in range(3):
            real = draw_channel(ChannelConfig(), RandomStream(33, i), cfg.n)
            s, si = draw_primary(cfg, RandomStream(34, i))
            c, ci = draw_secondary(cfg, RandomStream(35, i))
            singles.append((real, s, c, observe(s, c, real, cfg, xi=2)))
        from srofdm.channel import ChannelRealization

        batched_real = ChannelRealization(
            h_d=np.stack([r.h_d for r, *_ in singles]),
            b=np.stack([r.b for r, *_ in singles]),
            g=np.stack([r.g for r, *_ in singles]),
            h_b=np.stack([r.h_b for r, *_ in singles]),
            H_d=np.stack([r.H_d for r, *_ in singles]),
            H_b=np.stack([r.H_b for r, *_ in singles]),
            d_b=1,
        )
        s = np.stack([t[1] for t in singles])
        c = np.stack([t[2] for t in singles])
        obs = observe(s, c, batched_real, cfg, xi=2)
        for i, (_, _, _, single) in enumerate(singles):
            np.testing.assert_allclose(obs.y[i], single.y, atol=1e-12)


SAMPLE_PATH_CHANNELS = {
    "cascade": ChannelConfig(),
    "blocked_direct": ChannelConfig(direct_model="none"),
    "no_backscatter": ChannelConfig(backscatter_model="none"),
    "awgn": ChannelConfig(backscatter_model="awgn"),
    "rayleigh_lb4": ChannelConfig(backscatter_model="rayleigh", l_1=2, l_2=3),
    "d_b_0": ChannelConfig(d_b=0),
}


class TestSampleLevelOracle:
    """The sample path split into held streams and a per-point half, byte
    for byte against the one-pass path (tests/oracles.py), at several
    timing errors through one held pair, as a sweep's points receive it."""

    @given(chan=st.sampled_from(sorted(SAMPLE_PATH_CHANNELS)), sigma2=st.sampled_from([0.0, 1e-11, 1.0]),
           p_t=st.sampled_from([1.0, 2.5e5]), seed=st.integers(0, 2**32 - 1),
           xis=st.lists(st.integers(0, 79), min_size=1, max_size=3))
    @example(chan="cascade", sigma2=1.0, p_t=1.0, seed=0, xis=[0, 15, 79])
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_split_path_keeps_the_one_pass_bytes(self, chan, sigma2, p_t, seed, xis):
        cfg, ch = paper_cfg(sigma2=sigma2, p_t=p_t), SAMPLE_PATH_CHANNELS[chan]
        assert cfg.n + cfg.n_cp == 80
        draws = draw_trials(cfg, ch, seed, range(2), "sample")
        real = realization_from_taps(*scale_link_taps(ch, draws.unit_taps), ch.d_b, cfg.n)
        args = (draws.s_values, draws.c_values, real, cfg)
        streams = sample_level_streams(*args)
        assert (streams[1] is None) == (chan == "no_backscatter")
        for a in streams:
            if a is not None:
                a.setflags(write=False)  # as the harness holds them
        for xi in xis:
            want = reference_sample_level_rx(*args, xi, noise=draws.noise).y
            for got in (sample_level_rx(streams, cfg, xi, noise=draws.noise),
                        observe(*args, noise=draws.noise, xi=xi).y):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes(), (chan, sigma2, xi)
