import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import full_grid_primary_sums, per_trial_draw_frame_batch, per_trial_link_taps
from srofdm import harness, txchain
from srofdm.channel import ChannelConfig, composite_tap_count, draw_link_taps
from srofdm.harness import (
    RECEIVERS,
    Scenario,
    ScenarioError,
    SweepSpec,
    apply_axis,
    draw_frame_batch,
    draw_trials,
    observe_trials,
    run_sweep,
    run_trial,
    transmit_power,
)
from srofdm.numerics import RandomStream
from srofdm.txchain import SystemConfig, sample_level_streams, secondary_frame

NOISE_W = 10 ** (-80 / 10) * 1e-3  # -80 dBm


def paper_scenario(**kw) -> Scenario:
    sys_kw = dict(n_p=8, m_s=16, m_c=8, n_max=10, sigma2=NOISE_W)
    sys_kw.update(kw.pop("system", {}))
    base = dict(system=SystemConfig(**sys_kw), chan=ChannelConfig(), direct_snr_db=20.0)
    base.update(kw)
    return Scenario(**base)


class TestAxes:
    def test_direct_snr_sets_power(self):
        scen = paper_scenario()
        system, chan, xi = apply_axis(scen, "direct_snr_db", 20.0)
        assert system.p_t * chan.beta_direct / system.sigma2 == pytest.approx(100.0)
        assert xi == 0

    def test_snr_ratio_overrides_backscatter_gain(self):
        scen = paper_scenario()
        system, chan, _ = apply_axis(scen, "snr_ratio_db", -10.0)
        assert chan.beta_backscatter == pytest.approx(0.1 * chan.beta_direct)
        # transmit power still pinned by the scenario's direct-link anchor
        assert system.p_t * chan.beta_direct / system.sigma2 == pytest.approx(100.0)

    def test_distance_axis_keeps_collinearity(self):
        scen = paper_scenario()
        _, chan, _ = apply_axis(scen, "stx_distance_m", 10.0)
        assert chan.dist_fwd == 10.0
        assert chan.dist_bwd == pytest.approx(190.0)

    def test_sync_axis_sets_xi(self):
        scen = paper_scenario()
        _, _, xi = apply_axis(scen, "sync_error_samples", 7.0)
        assert xi == 7

    def test_backscatter_axis_without_direct_link(self):
        scen = paper_scenario(chan=ChannelConfig(direct_model="none"), backscatter_snr_db=15.0)
        system, chan, _ = apply_axis(scen, "backscatter_snr_db", 15.0)
        assert system.p_t * chan.beta_backscatter / system.sigma2 == pytest.approx(10**1.5)
        assert transmit_power(scen, chan) == pytest.approx(system.p_t)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            apply_axis(paper_scenario(), "carrier_frequency", 1.0)

    def test_distance_outside_link_rejected(self):
        scen = paper_scenario()  # 200 m direct link
        for value in (0.0, -3.0, 200.0, 500.0, float("nan")):
            with pytest.raises(ScenarioError, match="stx_distance_m = .* tag position"):
                apply_axis(scen, "stx_distance_m", value)
        assert apply_axis(scen, "stx_distance_m", 199.5)[1].dist_bwd == pytest.approx(0.5)

    def test_sync_error_outside_symbol_rejected(self):
        scen = paper_scenario()  # 80-sample symbol period
        for value in (-3.0, -0.5, 79.5, 1e6, float("inf")):
            with pytest.raises(ScenarioError, match="sync_error_samples = .* sync error"):
                apply_axis(scen, "sync_error_samples", value)
        assert apply_axis(scen, "sync_error_samples", -0.4)[2] == 0
        assert apply_axis(scen, "sync_error_samples", 79.4)[2] == 79

    @pytest.mark.parametrize("chan, axis, value", [
        (ChannelConfig(dist_direct=1e308), "direct_snr_db", 20.0),
        (ChannelConfig(exp_fwd=1e308), "direct_snr_db", 20.0),
        (ChannelConfig(), "stx_distance_m", 1e-200),
        (ChannelConfig(), "snr_ratio_db", -3000.0),
    ])
    def test_gain_out_of_range_rejected(self, chan, axis, value):
        with pytest.raises(ScenarioError, match=f"axis {axis} = {value:g}: .* must be positive, finite"):
            apply_axis(paper_scenario(chan=chan), axis, value)


class TestSweepSpec:
    def test_rejects_nonincreasing_points(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="direct_snr_db", points=(10.0, 10.0), trials_per_point=1000)

    def test_rejects_small_trial_count(self):
        with pytest.raises(ValueError):
            SweepSpec(axis="direct_snr_db", points=(10.0,), trials_per_point=10)

    def test_rejects_unknown_receiver(self):
        with pytest.raises(ValueError):
            SweepSpec(
                axis="direct_snr_db", points=(10.0,), trials_per_point=1000,
                receivers=("magic",),
            )

    def test_rejects_duplicate_receivers(self):
        # a repeated name would merge its counts twice into one curve
        with pytest.raises(ScenarioError, match="'perfect_csi' is listed twice"):
            SweepSpec(
                axis="direct_snr_db", points=(10.0,), trials_per_point=1000,
                receivers=("perfect_csi", "proposed_m2", "perfect_csi"),
            )

    @pytest.mark.parametrize("bad", [
        dict(axis="carrier_frequency"),
        dict(points=(10.0, 10.0)),
        dict(trials_per_point=5),
        dict(receivers=("magic",)),
        dict(trials_per_point=1000.0),  # failed later: 'float' object cannot be interpreted as an integer
        dict(points=(float("nan"),)),  # np.diff of one NaN point has nothing to compare
        dict(points=(1.0, float("inf"))),
    ])
    def test_rejections_are_scenario_errors(self, bad):
        kw = dict(axis="direct_snr_db", points=(10.0,), trials_per_point=1000)
        kw.update(bad)
        with pytest.raises(ScenarioError):
            SweepSpec(**kw)


class TestTrialDeterminism:
    def test_run_trial_reproducible(self):
        scen = paper_scenario()
        a = run_trial(scen, "direct_snr_db", 20.0, trial_index=5, master_seed=77,
                      receivers=("proposed_m2",))
        b = run_trial(scen, "direct_snr_db", 20.0, trial_index=5, master_seed=77,
                      receivers=("proposed_m2",))
        assert a["proposed_m2"].primary_bit_errors == b["proposed_m2"].primary_bit_errors
        assert a["proposed_m2"].theory_sums == b["proposed_m2"].theory_sums

    def test_different_trials_differ(self):
        scen = paper_scenario(direct_snr_db=6.0)
        outs = {
            run_trial(scen, "direct_snr_db", 6.0, t, 77, ("proposed_m2",))[
                "proposed_m2"
            ].primary_bit_errors
            for t in range(8)
        }
        assert len(outs) > 1

    def test_secondary_bits_counted_over_data_symbols_only(self):
        scen = paper_scenario()
        out = run_trial(scen, "direct_snr_db", 20.0, 0, 1, ("proposed_m2",))["proposed_m2"]
        assert out.secondary_bits == (10 - 2) * 3  # 8 symbols of 8-PSK
        assert out.primary_bits == 10 * 56 * 4
        assert out.primary_symbols == 10 * 56

    @pytest.mark.parametrize("receivers, message", [
        (("magic",), "unknown receiver 'magic'"),
        (("proposed_m2", "proposed_m2"), "'proposed_m2' is listed twice"),
    ])
    def test_run_trial_checks_receivers_like_sweep_spec(self, receivers, message):
        with pytest.raises(ScenarioError, match=message):
            run_trial(paper_scenario(), "direct_snr_db", 20.0, 0, 1, receivers)

    def test_run_trial_validates_the_scenario_like_run_sweep(self):
        # neither can be handed the scenario: it fails as it is built
        with pytest.raises(ScenarioError, match="direct taps 4 exceed CP length 2"):
            paper_scenario(system=dict(n_cp=2))  # 4 direct taps outlast the CP


class TestScenarioRules:
    @pytest.mark.parametrize("change, message", [
        (dict(chan=ChannelConfig(l_d=17)), "direct taps 17 exceed CP length 16"),
        (dict(chan=ChannelConfig(d_b=15)), r"backscatter span 2\+15 exceeds CP length 16"),
        (dict(system=SystemConfig(n_p=2)), "2 pilots cannot resolve 4 composite taps"),
        (dict(sync_error=80), r"sync error 80 outside \[0, 80\)"),
        (dict(system=SystemConfig(n_p=64)), "n_p = 64 pilots leave no data subcarrier of n = 64"),
    ], ids=["cp_direct", "cp_backscatter", "comb_resolution", "sync_range", "data_subcarrier"])
    def test_replace_into_a_broken_scenario_raises(self, change, message):
        scen = paper_scenario()
        with pytest.raises(ScenarioError, match=message):
            replace(scen, **change)


class TestSweep:
    def test_noise_free_zero_errors(self):
        scen = paper_scenario(direct_snr_db=120.0)
        spec = SweepSpec(
            axis="direct_snr_db", points=(120.0,), trials_per_point=1000,
            receivers=("perfect_csi", "proposed_m1", "proposed_m2"), with_theory=False,
        )
        curves = run_sweep(spec, scen, master_seed=3)
        for curve in curves.values():
            assert curve.points[0].primary_bit_errors == 0
            assert curve.points[0].secondary_bit_errors == 0

    def test_worker_count_invariance(self):
        scen = paper_scenario()
        spec = SweepSpec(
            axis="direct_snr_db", points=(14.0, 20.0), trials_per_point=1024,
            receivers=("perfect_csi", "proposed_m2"),
        )
        one = run_sweep(spec, scen, master_seed=9, workers=1)
        two = run_sweep(spec, scen, master_seed=9, workers=2)
        for name in spec.receivers:
            for pa, pb in zip(one[name].points, two[name].points):
                assert pa.primary_bit_errors == pb.primary_bit_errors
                assert pa.secondary_bit_errors == pb.secondary_bit_errors
                assert pa.erasures == pb.erasures
                assert pa.theory_sums == pb.theory_sums  # float sums, fixed order

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        spec = SweepSpec(axis="direct_snr_db", points=(20.0,), trials_per_point=1000)
        with pytest.raises(ScenarioError, match=f"at least 1 worker, got {workers}"):
            run_sweep(spec, paper_scenario(), master_seed=1, workers=workers)

    @pytest.mark.parametrize("workers", [2.0, "2"])
    def test_worker_count_that_is_not_an_integer_rejected(self, workers):
        spec = SweepSpec(axis="direct_snr_db", points=(20.0,), trials_per_point=1000)
        with pytest.raises(ScenarioError, match=f"worker count must be an integer, got {workers!r}"):
            run_sweep(spec, paper_scenario(), master_seed=1, workers=workers)

    @pytest.mark.parametrize("workers, trials, processes", [
        (64, 1000, 4),  # 4 ranges
        (3, 1024, 3),
        (1, 1024, None),  # no pool
    ])
    def test_pool_is_no_larger_than_the_work(self, monkeypatch, workers, trials, processes):
        created = []

        class InProcessPool:  # records its size and maps here, so no process is started
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        spec = SweepSpec(axis="direct_snr_db", points=(20.0,), trials_per_point=trials,
                         receivers=("perfect_csi",), with_theory=False)
        curve = run_sweep(spec, paper_scenario(), master_seed=3, workers=workers)["perfect_csi"]
        assert created == ([] if processes is None else [processes])
        assert curve.points[0].trials == trials

    def test_one_pool_per_sweep(self, monkeypatch):
        created = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        spec = SweepSpec(
            axis="direct_snr_db", points=(14.0, 20.0, 26.0), trials_per_point=1000,
            receivers=("perfect_csi",), with_theory=False,
        )
        two = run_sweep(spec, paper_scenario(), master_seed=9, workers=2)
        assert created == [{"max_workers": 2}]
        one = run_sweep(spec, paper_scenario(), master_seed=9, workers=1)
        assert len(created) == 1
        assert [vars(p) for p in two["perfect_csi"].points] == [
            vars(p) for p in one["perfect_csi"].points]

    @pytest.mark.parametrize("receivers, calls", [
        (("proposed_m1", "proposed_m2"),
         dict(detect_primary=1, full_symbol_vector=1, reestimate_method1=1,
              reestimate_method2=1, detect_secondary=2)),
        # ml_estimated takes proposed_m2's split and projects nothing
        (("proposed_m2", "ml_estimated"),
         dict(detect_primary=1, full_symbol_vector=1, reestimate_method2=1,
              separate_links=1, detect_secondary=1, run_ml_benchmark=1)),
        (("ml_estimated",), dict(separate_links=1, detect_secondary=0)),
    ])
    def test_each_stage_runs_once_per_chunk(self, monkeypatch, receivers, calls):
        import srofdm.receiver as receiver

        counts = dict.fromkeys(calls, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(receiver, name, counting(name, getattr(receiver, name)))
        run_trial(paper_scenario(), "direct_snr_db", 20.0, 0, master_seed=3, receivers=receivers)
        assert counts == calls

    def test_statistical_consistency_perfect_csi(self):
        # simulated rates within 4 half-widths of the per-realization theory
        scen = paper_scenario()
        spec = SweepSpec(
            axis="direct_snr_db", points=(16.0, 24.0), trials_per_point=4000,
            receivers=("perfect_csi",),
        )
        curves = run_sweep(spec, scen, master_seed=11)
        for p in curves["perfect_csi"].points:
            assert abs(p.ser_primary - p.theory_mean("primary_ser_theory")) <= 4 * p.ci_ser_primary
            assert abs(p.ber_primary - p.theory_mean("primary_ber_theory")) <= 4 * p.ci_primary

    def test_monotone_in_snr(self):
        scen = paper_scenario()
        spec = SweepSpec(
            axis="direct_snr_db", points=(10.0, 16.0, 22.0, 28.0), trials_per_point=2000,
            receivers=("perfect_csi",), with_theory=False,
        )
        curve = run_sweep(spec, scen, master_seed=13)["perfect_csi"]
        bers = [p.ber_primary for p in curve.points]
        cis = [p.ci_primary for p in curve.points]
        for i in range(len(bers) - 1):
            assert bers[i + 1] <= bers[i] + cis[i] + cis[i + 1]

    def test_no_backscatter_baseline_skips_secondary(self):
        scen = paper_scenario(chan=ChannelConfig(backscatter_model="none"))
        spec = SweepSpec(
            axis="direct_snr_db", points=(20.0,), trials_per_point=1000,
            receivers=("perfect_csi", "ml_perfect"), with_theory=False,
        )
        for curve in run_sweep(spec, scen, master_seed=15).values():
            p = curve.points[0]
            assert p.secondary_bits == 0
            assert np.isnan(p.ber_secondary)
            assert p.primary_bits > 0

    def test_curve_metadata(self):
        assert RECEIVERS["perfect_csi"].csi == "perfect"
        assert RECEIVERS["proposed_m2"].csi == "estimated"
        scen = paper_scenario()
        spec = SweepSpec(
            axis="direct_snr_db", points=(20.0,), trials_per_point=1000,
            receivers=("proposed_m2",), with_theory=False,
        )
        curve = run_sweep(spec, scen, master_seed=17)["proposed_m2"]
        assert curve.axis == "direct_snr_db" and curve.csi == "estimated"
        assert curve.points[0].trials == 1000

    def test_sync_axis_uses_sample_path(self):
        scen = paper_scenario(direct_snr_db=120.0)
        spec = SweepSpec(
            axis="sync_error_samples", points=(0.0, 1.0), trials_per_point=1000,
            receivers=("perfect_csi",), with_theory=False,
        )
        curves = run_sweep(spec, scen, master_seed=19)
        for p in curves["perfect_csi"].points:
            # inside the dead zone the timing error is invisible
            assert p.primary_bit_errors == 0


class TestFrameBatch:
    def test_matches_individual_draws(self):
        scen = paper_scenario()
        system, chan, _ = apply_axis(scen, "direct_snr_db", 20.0)
        batch = draw_frame_batch(system, chan, master_seed=21, trial_ids=[0, 1, 2])
        batch_draws = draw_trials(system, chan, 21, [0, 1, 2])
        for i in range(3):
            single = draw_frame_batch(system, chan, master_seed=21, trial_ids=[i])
            np.testing.assert_array_equal(batch.y[i], single.y[0])
            single_draws = draw_trials(system, chan, 21, [i])
            np.testing.assert_array_equal(batch_draws.s_indices[i], single_draws.s_indices[0])
            np.testing.assert_array_equal(batch_draws.c_indices[i], single_draws.c_indices[0])


def frame_arrays(obs) -> dict:
    real = obs.realization
    arrays = {"y": obs.y, "s_values": obs.s_values, "c_values": obs.c_values,
              "h_d": real.h_d, "b": real.b, "g": real.g, "H_d": real.H_d, "H_b": real.H_b,
              "observed H_b": obs.H_b}
    return arrays if obs.H is None else {**arrays, "H": obs.H}


def assert_same_bytes(got, want):
    assert frame_arrays(got).keys() == frame_arrays(want).keys()
    for name, expected in frame_arrays(want).items():
        actual = frame_arrays(got)[name]
        assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape), name
        assert actual.tobytes() == expected.tobytes(), name  # also the sign of every zero


def assert_same_indices(draws, s_idx, c_idx):
    for got, want in ((draws.s_indices, s_idx), (draws.c_indices, c_idx)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


# (channel models, the axis that sets their power, two points on it)
DRAW_CASES = {
    "cascade": (dict(), "direct_snr_db", (12.0, 30.0)),
    "cascade_ratio": (dict(), "snr_ratio_db", (-30.0, -5.0)),  # rescales the first hop
    "rayleigh": (dict(backscatter_model="rayleigh"), "snr_ratio_db", (-30.0, -5.0)),
    "awgn": (dict(backscatter_model="awgn"), "stx_distance_m", (2.0, 20.0)),
    "no_backscatter": (dict(backscatter_model="none"), "direct_snr_db", (12.0, 30.0)),
    "no_direct": (dict(direct_model="none"), "backscatter_snr_db", (5.0, 25.0)),
    "no_direct_awgn": (dict(direct_model="none", backscatter_model="awgn"), "backscatter_snr_db", (5.0, 25.0)),
}


class TestDrawSplit:
    """The sweep draws each trial once and receives it at every point; that
    must be bit for bit one per-trial draw per point (tests/oracles.py)."""

    @pytest.mark.parametrize("path, xi", [("frequency", 0), ("sample", 0), ("sample", 3)])
    @pytest.mark.parametrize("case", sorted(DRAW_CASES))
    def test_points_match_per_trial_draws(self, case, path, xi):
        chan_kw, axis, values = DRAW_CASES[case]
        scen = paper_scenario(chan=ChannelConfig(**chan_kw), backscatter_snr_db=15.0)
        trial_ids = [5, 0, 9]  # out of order, with gaps
        draws = draw_trials(scen.system, scen.chan, 31, trial_ids, path)
        for value in values:
            system, chan, _ = apply_axis(scen, axis, value)
            want, s_idx, c_idx = per_trial_draw_frame_batch(system, chan, 31, trial_ids, xi=xi, path=path)
            assert_same_indices(draws, s_idx, c_idx)
            assert_same_bytes(observe_trials(draws, system, chan, xi), want)
            assert_same_bytes(draw_frame_batch(system, chan, 31, trial_ids, xi=xi, path=path), want)

    def test_noise_free_draws_no_noise(self):
        system, chan, _ = apply_axis(paper_scenario(), "direct_snr_db", 20.0)
        system = replace(system, sigma2=0.0)
        draws = draw_trials(system, chan, 8, [2, 7])
        assert draws.noise is None
        want, s_idx, c_idx = per_trial_draw_frame_batch(system, chan, 8, [2, 7])
        assert_same_indices(draws, s_idx, c_idx)
        assert_same_bytes(observe_trials(draws, system, chan), want)

    def test_frequency_draws_refuse_a_sync_error(self):
        with pytest.raises(ValueError, match="needs the sample path.*frequency path"):
            draw_frame_batch(SystemConfig(n_p=8), ChannelConfig(), 7, [0, 1], xi=3, path="frequency")

    def test_draws_belong_to_their_channel_models(self):
        scen = paper_scenario()
        draws = draw_trials(scen.system, scen.chan, 1, [0, 1])
        system, chan, _ = apply_axis(paper_scenario(chan=ChannelConfig(backscatter_model="awgn")),
                                     "direct_snr_db", 20.0)
        with pytest.raises(ValueError, match="other channel models"):
            observe_trials(draws, system, chan)

    @pytest.mark.parametrize("case", sorted(DRAW_CASES))
    def test_link_taps_are_a_batch_of_one(self, case):
        chan = ChannelConfig(**DRAW_CASES[case][0])
        got = draw_link_taps(chan, RandomStream(4, 2))
        want = per_trial_link_taps(chan, RandomStream(4, 2))
        for a, b in zip(got, want):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def float_bits(sums: dict) -> dict:
    return {key: np.float64(v).tobytes() for key, v in sums.items()}


def assert_same_point(got, want):
    """Every PointResult field equal, the companion sums by their bits."""
    assert ({**vars(got), "theory_sums": float_bits(got.theory_sums)}
            == {**vars(want), "theory_sums": float_bits(want.theory_sums)})


# (scenario changes, axis, points): every sweep axis, a blocked direct path and no backscatter
SHARING_CASES = {
    "direct_snr_db": (dict(), "direct_snr_db", (12.0, 30.0)),
    "snr_ratio_db": (dict(), "snr_ratio_db", (-30.0, -5.0)),
    "stx_distance_m": (dict(), "stx_distance_m", (2.0, 20.0)),
    "sync_error_samples": (dict(), "sync_error_samples", (0.0, 12.0)),
    "backscatter_snr_db": (dict(backscatter_snr_db=15.0), "backscatter_snr_db", (5.0, 25.0)),
    "no_direct": (dict(chan=ChannelConfig(direct_model="none"), backscatter_snr_db=15.0),
                  "backscatter_snr_db", (5.0, 25.0)),
    "no_backscatter": (dict(chan=ChannelConfig(backscatter_model="none")), "direct_snr_db", (12.0, 30.0)),
}


class TestObservedBackscatter:
    """The observation carries the backscatter response y went through: the
    realization's own without a sync error, else turned by its phase ramp."""

    @pytest.mark.parametrize("path", ["frequency", "sample"])
    def test_is_the_realizations_without_a_sync_error(self, path):
        system, chan, _ = apply_axis(paper_scenario(), "direct_snr_db", 20.0)
        obs = draw_frame_batch(system, chan, 7, [0, 1], path=path)
        assert obs.H_b is obs.realization.H_b  # the same array, not a copy

    @pytest.mark.parametrize("xi", [1, 5, 40])
    def test_a_sync_error_turns_it_by_its_phase_ramp(self, xi):
        system, chan, _ = apply_axis(paper_scenario(), "sync_error_samples", xi)
        obs = draw_frame_batch(system, chan, 7, [0, 1], xi=xi, path="sample")
        k = np.arange(system.n)
        want = obs.realization.H_b * np.exp(-2j * np.pi * k * xi / system.n)  # a delay of xi samples
        assert (obs.H_b.dtype, obs.H_b.shape, obs.H_b.tobytes()) == (want.dtype, want.shape, want.tobytes())
        assert not np.array_equal(obs.H_b, obs.realization.H_b)


class TestChunkSharing:
    """A chunk derives the realization, the composite response and the
    companions' distinct rows once per ChannelConfig and shares them across
    its points: a point's results must not depend on which other points
    share its chunk."""

    @pytest.mark.parametrize("case", list(SHARING_CASES))
    def test_point_results_do_not_depend_on_the_other_points(self, case):
        change, axis, points = SHARING_CASES[case]
        scen = paper_scenario(**change)
        receivers = ("perfect_csi", "proposed_m1", "proposed_m2")

        def sweep(values):
            spec = SweepSpec(axis=axis, points=values, trials_per_point=1000, receivers=receivers)
            return run_sweep(spec, scen, master_seed=23)

        together = sweep(points)
        assert all("primary_ser_theory" in p.theory_sums for p in together["perfect_csi"].points)
        for i, value in enumerate(points):
            alone = sweep((value,))
            for name in receivers:
                assert_same_point(together[name].points[i], alone[name].points[0])


class TestHeldStreams:
    """The sample path's timing-error-free streams are built once per
    ChannelConfig of a chunk, and each point only delays and adds them."""

    @staticmethod
    def count_builds(monkeypatch, scen, axis, values):
        # both names count: a point that built its own streams inside
        # sample_level_rx would show there
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return sample_level_streams(*args, **kwargs)

        monkeypatch.setattr(harness, "sample_level_streams", counted)
        monkeypatch.setattr(txchain, "sample_level_streams", counted)
        path, points = harness._prepare(scen, axis, values)
        assert path == "sample"
        harness._process_chunk((path, points, 5, range(3), ("perfect_csi", "proposed_m2"), True))
        return len(calls)

    def test_sync_points_share_one_build(self, monkeypatch):
        assert self.count_builds(monkeypatch, paper_scenario(), "sync_error_samples", (0.0, 4.0, 8.0)) == 1

    def test_each_channel_config_builds_its_own(self, monkeypatch):
        scen = paper_scenario(sync_error=3)
        assert self.count_builds(monkeypatch, scen, "stx_distance_m", (2.0, 3.83, 20.0)) == 3


class TestDistinctRows:
    """The primary companions run on the distinct (trial, c(n)) rows of a
    chunk and gather the rates back; their sums must keep the bits of the
    full-grid evaluation (tests/oracles.py)."""

    @given(m_s=st.sampled_from((4, 16, 64, 256)), m_c=st.sampled_from((2, 4, 8, 16)),
           t=st.sampled_from((2, 3, 4)), data_symbols=st.integers(1, 6),
           snr_db=st.floats(-10.0, 60.0), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_companion_sums_keep_the_full_grid_bits(self, m_s, m_c, t, data_symbols, snr_db, seed):
        # T = m_c gives a preamble of PSK points, bit for bit; -1+0j is not
        # the PSK point -1+1.2e-16j; at +60 dB the Gaussian tails underflow
        scen = paper_scenario(system=dict(m_s=m_s, m_c=m_c, t_preamble=t, n_max=t + data_symbols))
        path, points = harness._prepare(scen, "direct_snr_db", (snr_db, snr_db + 60.0))
        trial_ids = range(3)
        chunk = harness._process_chunk((path, points, seed, trial_ids, ("perfect_csi", "proposed_m1"), True))
        draws = draw_trials(scen.system, scen.chan, seed, trial_ids)
        for (_, system, chan, _), results in zip(points, chunk):
            real = observe_trials(draws, system, chan).realization
            perfect, estimated = full_grid_primary_sums(real, draws.c_values, system, composite_tap_count(chan))
            for name, want in (("perfect_csi", perfect), ("proposed_m1", estimated)):
                got = {key: results[name].theory_sums[key] for key in want}
                assert float_bits(got) == float_bits(want)

    def test_rows_are_keyed_by_trial_and_the_bits_of_c(self):
        system = SystemConfig(m_c=8, n_max=4)  # T = 2 preamble (1+0j, -1+0j)
        c = secondary_frame([[0, 4], [4, 4]], system)
        assert c[0, 2].tobytes() == c[0, 0].tobytes()  # PSK point 0 is the preamble's 1+0j
        assert c[0, 3] != c[0, 1]  # PSK point 4 is -1+1.2e-16j
        first, rows = harness._distinct_rows(c)
        assert rows.shape == c.shape and len(first) == 6  # three per frame
        assert rows[0, 0] == rows[0, 2] and rows[1, 2] == rows[1, 3] and rows[0, 1] != rows[0, 3]
        assert not set(rows[0]) & set(rows[1])  # no row is shared between trials
        assert c.reshape(-1)[first][rows].tobytes() == c.tobytes()


class TestDrawOnce:
    def test_each_trial_drawn_once_per_sweep(self, monkeypatch):
        keys = []
        reset = RandomStream.reset

        def counting_reset(stream, master_seed, stream_id=0):
            keys.append((master_seed, stream_id))
            return reset(stream, master_seed, stream_id)

        monkeypatch.setattr(RandomStream, "reset", counting_reset)
        spec = SweepSpec(axis="direct_snr_db", points=(12.0, 20.0, 28.0), trials_per_point=1000,
                         receivers=("perfect_csi", "proposed_m2"))
        run_sweep(spec, paper_scenario(), master_seed=13, workers=1)
        assert sorted(keys) == [(13, t) for t in range(1000)]  # not once per point

    def test_unusable_point_fails_before_any_draw(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(harness, "draw_trials", no_draws)
        spec = SweepSpec(axis="direct_snr_db", points=(20.0, 4000.0), trials_per_point=5000,
                         receivers=("perfect_csi", "proposed_m2"))
        with pytest.raises(ScenarioError, match="direct_snr_db = 4000"):
            run_sweep(spec, paper_scenario(), master_seed=1)

    def test_comb_without_data_subcarrier_fails_before_any_draw(self):
        # ran with numpy RuntimeWarnings and returned NaN primary BER and theory;
        # no such scenario can now reach a draw
        with pytest.raises(ScenarioError, match="n_p = 64 pilots leave no data subcarrier of n = 64"):
            Scenario(SystemConfig(n_p=64), ChannelConfig())


# a headline-shaped chunk twice in one fresh interpreter, so that no earlier
# test has raised glibc's dynamic mmap threshold; prints the minor faults of
# the second
REPEAT_CHUNK = """
import resource
from srofdm import cli, harness
scenario, _ = cli.resolve_scenario(cli.load_scenario_file("paper_default"))
receivers = ("perfect_csi", "proposed_m1", "proposed_m2")
path, points = harness._prepare(scenario, "direct_snr_db", range(12, 31, 3))
chunk = (path, points, 7, range(harness.CHUNK_TRIALS), receivers, True)
harness._process_chunk(chunk)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
harness._process_chunk(chunk)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap thresholds are glibc's")
def test_repeated_chunk_keeps_its_memory_resident():
    # with glibc's default thresholds the second chunk faulted ~90k pages
    # back in, the temporaries the first had returned to the kernel
    src = Path(harness.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", REPEAT_CHUNK], env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    assert int(done.stdout) < 2000
