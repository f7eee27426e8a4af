import json
import re
import shlex
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srofdm import cli, harness
from srofdm.cli import (
    _SCENARIO_KEYS,
    _SWEEP_KEYS,
    CSV_HEADER,
    MAX_POINTS,
    ScenarioError,
    _resolve_run,
    build_parser,
    load_scenario_file,
    main,
    parse_points,
    parse_scenario_text,
    resolve_scenario,
)
from srofdm.channel import composite_tap_count, draw_link_taps
from srofdm.harness import RECEIVERS, SWEEP_AXES, SweepSpec, apply_axis, run_sweep
from srofdm.numerics import RandomStream


def test_readme_command_lines_parse():
    # the docs show no flag that a command refuses
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [line.strip() for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("srofdm ")]
    assert len(commands) >= 4
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README shows a command the parser refuses: srofdm {' '.join(argv)}")


class TestScenarioParsing:
    def test_bundled_paper_default(self):
        values = load_scenario_file("paper_default")
        scenario, defaults = resolve_scenario(values)
        assert scenario.system.n == 64
        assert scenario.system.n_p == 8
        assert scenario.chan.l_d == 4
        assert scenario.chan.l_b == 2
        assert scenario.chan.d_b == 1
        assert scenario.system.sigma2 == pytest.approx(1e-11)  # -80 dBm
        assert 10 * np.log10(scenario.chan.snr_ratio) == pytest.approx(-30.0, abs=0.2)
        assert defaults["axis"] == "direct_snr_db"

    def test_unknown_key_reports_line(self):
        with pytest.raises(ScenarioError, match=r"my\.txt:3: unknown key 'bogus'"):
            parse_scenario_text("n = 64\n\nbogus = 3\n", origin="my.txt")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario_text("n = 64\nn = 32\n")

    def test_bad_value_reports_line(self):
        for text in ("n = sixty-four\n", "noise_dbm = nan\n", "direct_snr_db = inf\n", "n = auto\n",
                     "noise_dbm = 4000\n", "noise_dbm = -4000\n", "with_theory = maybe\n"):
            with pytest.raises(ScenarioError, match=":1:"):
                parse_scenario_text(text)

    def test_with_theory_words(self):
        for word, on in (("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False),
                         ("NO", False)):
            values = parse_scenario_text(f"with_theory = {word}\n")
            assert values == {"with_theory": word}  # kept as written for the manifest
            assert resolve_scenario(values)[1]["with_theory"] is on

    def test_comments_and_blank_lines_ignored(self):
        values = parse_scenario_text("# hi\n\nn = 32  # inline\nn_pilot = 4\n")
        assert values == {"n": 32, "n_pilot": 4}

    def test_infeasible_scenario_rejected(self):
        values = parse_scenario_text("n_pilot = 2\n")  # 2 pilots < 4 composite taps
        with pytest.raises(ScenarioError):
            resolve_scenario(values)

    def test_custom_preamble(self):
        values = parse_scenario_text("t_preamble = 4\npreamble = 1,1j,-1,-1j\n")
        scenario, _ = resolve_scenario(values)
        np.testing.assert_allclose(scenario.system.preamble, [1, 1j, -1, -1j])

    def test_receivers_split_once(self):
        _, run = resolve_scenario(parse_scenario_text("receivers = perfect_csi, ml_perfect\n"))
        assert run["receivers"] == ("perfect_csi", "ml_perfect")


class TestPointRanges:
    def test_inclusive_range(self):
        assert parse_points("12:30:3") == (12.0, 15.0, 18.0, 21.0, 24.0, 27.0, 30.0)

    def test_unit_steps(self):
        assert parse_points("0:20:1") == tuple(float(v) for v in range(21))

    def test_comma_list(self):
        assert parse_points("1, 2.5, 7") == (1.0, 2.5, 7.0)

    def test_bad_range_rejected(self):
        for spec in ("5:1", "30:12:3", "1e400", "nan", "0:inf:1", "a:2:1", ","):
            with pytest.raises(ScenarioError):
                parse_points(spec)

    def test_range_sized_before_it_is_built(self):
        assert len(parse_points(f"1:{MAX_POINTS}:1")) == MAX_POINTS
        # each of these would need gigabytes or more, or overflows the span
        for spec in (f"0:{MAX_POINTS}:1", "0:1e9:1", "0:1e300:1", "-1e308:1e308:1e-300"):
            with pytest.raises(ScenarioError, match=f"point range '{spec}' has more than"):
                parse_points(spec)


@pytest.fixture()
def fast_scenario(tmp_path):
    path = tmp_path / "fast.txt"
    path.write_text("direct_snr_db = 20\ntrials = 1000\nreceivers = perfect_csi,proposed_m2\n")
    return path


class TestSweepCommand:
    def test_produces_expected_rows(self, tmp_path, fast_scenario):
        out = tmp_path / "run"
        rc = main([
            "sweep", str(fast_scenario), "--axis", "direct_snr_db",
            "--points", "12:30:3", "--trials", "1000", "--seed", "7",
            "--out", str(out), "--quiet",
        ])
        assert rc == 0
        for name in ("perfect_csi", "proposed_m2"):
            csv = (out / f"direct_snr_db__{name}.csv").read_text().splitlines()
            assert csv[0] == CSV_HEADER
            assert len(csv) == 1 + 7  # header + one row per point
            points = [float(r.split(",")[0]) for r in csv[1:]]
            assert points == sorted(points)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 7
        assert manifest["constellation_moments"]["gamma1"] == pytest.approx(17 / 9)

    def test_reruns_are_byte_identical(self, tmp_path, fast_scenario):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = [
            "sweep", str(fast_scenario), "--points", "16,24", "--trials", "1000",
            "--seed", "3", "--quiet",
        ]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        for f in sorted(p.name for p in a.iterdir()):
            assert (a / f).read_bytes() == (b / f).read_bytes()

    def test_default_output_prints_each_point(self, tmp_path, capsys):
        scen = tmp_path / "direct_only.txt"
        scen.write_text("backscatter_model = none\nreceivers = perfect_csi,proposed_m2\n")
        loud, quiet = tmp_path / "loud", tmp_path / "quiet"
        argv = ["sweep", str(scen), "--points", "16,24", "--trials", "1000", "--seed", "3"]
        assert main(argv + ["--out", str(loud)]) == 0
        lines = capsys.readouterr().out.splitlines()
        want = []
        for name in ("perfect_csi", "proposed_m2"):
            for row in (loud / f"direct_snr_db__{name}.csv").read_text().splitlines()[1:]:
                point, _, _, ber_primary, *_ = row.split(",")
                want.append(f"direct_snr_db={point} {name}: ber_primary={ber_primary} ber_secondary=n/a")
        assert lines == want and len(lines) == 4
        assert main(argv + ["--out", str(quiet), "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert sorted(p.name for p in loud.iterdir()) == sorted(p.name for p in quiet.iterdir())
        for f in loud.iterdir():
            assert f.read_bytes() == (quiet / f.name).read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path, fast_scenario):
        a, b = tmp_path / "w1", tmp_path / "w2"
        argv = [
            "sweep", str(fast_scenario), "--points", "20", "--trials", "1024",
            "--seed", "5", "--quiet",
        ]
        assert main(argv + ["--out", str(a), "--workers", "1"]) == 0
        assert main(argv + ["--out", str(b), "--workers", "2"]) == 0
        for f in sorted(p.name for p in a.iterdir()):
            assert (a / f).read_bytes() == (b / f).read_bytes()

    def test_points_share_ranges_for_any_worker_count(self, tmp_path, fast_scenario):
        # 1,000 trials are 4 ranges, each running all 5 points: 1 to 3 workers
        outs = [tmp_path / f"w{w}" for w in (1, 2, 3)]
        for w, out in zip((1, 2, 3), outs):
            assert main(["sweep", str(fast_scenario), "--points", "12:24:3", "--trials", "1000",
                         "--seed", "23", "--workers", str(w), "--out", str(out), "--quiet"]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert len(names) == 3  # two curves and the manifest
        for out in outs[1:]:
            assert sorted(p.name for p in out.iterdir()) == names
            for f in names:
                assert (out / f).read_bytes() == (outs[0] / f).read_bytes()

    def test_late_unusable_point_exits_1_before_any_draw(self, tmp_path, capsys, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(harness, "draw_trials", no_draws)
        assert main(["sweep", "paper_default", "--points", "20,4000", "--trials", "5000",
                     "--receivers", "perfect_csi,proposed_m2", "--out", str(tmp_path / "x"), "--quiet"]) == 1
        assert "axis direct_snr_db = 4000 gives a transmit power" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_manifest_round_trip(self, tmp_path, fast_scenario):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([
            "sweep", str(fast_scenario), "--points", "18,26", "--trials", "1000",
            "--seed", "11", "--out", str(first), "--quiet",
        ]) == 0
        assert main([
            "sweep", "--from-manifest", str(first / "manifest.json"),
            "--out", str(second), "--quiet",
        ]) == 0
        for f in sorted(p.name for p in first.iterdir()):
            assert (first / f).read_bytes() == (second / f).read_bytes()

    def test_nine_significant_digits(self, tmp_path, fast_scenario):
        out = tmp_path / "digits"
        assert main([
            "sweep", str(fast_scenario), "--points", "14", "--trials", "1000",
            "--seed", "2", "--out", str(out), "--quiet",
        ]) == 0
        row = (out / "direct_snr_db__perfect_csi.csv").read_text().splitlines()[1]
        ber = row.split(",")[3]
        assert ber == format(float(ber), ".9g")

    def test_sync_axis_21_rows(self, tmp_path):
        scen = tmp_path / "sync.txt"
        scen.write_text(
            "direct_snr_db = 24\ndist_fwd = 0.12\ntrials = 1000\n"
            "receivers = perfect_csi\nwith_theory = false\nn_max = 4\n"
        )
        out = tmp_path / "sync_out"
        rc = main([
            "sweep", str(scen), "--axis", "sync_error_samples", "--points", "0:20:1",
            "--trials", "1000", "--seed", "4", "--out", str(out), "--quiet",
        ])
        assert rc == 0
        csv = (out / "sync_error_samples__perfect_csi.csv").read_text().splitlines()
        assert len(csv) == 1 + 21

    def test_sync_axis_runs_method2_at_most_n_taps(self, tmp_path):
        # at xi >= 62 the l_b + d_b + xi composite taps outnumber the 64
        # subcarriers; method 2 then runs at full order, as method 1 does
        out = tmp_path / "sync_far"
        assert main([
            "sweep", "paper_default", "--axis", "sync_error_samples", "--points", "61,62,79",
            "--trials", "1000", "--receivers", "proposed_m1,proposed_m2,ml_estimated",
            "--out", str(out), "--quiet",
        ]) == 0
        rows = {name: (out / f"sync_error_samples__{name}.csv").read_text().splitlines()[1:]
                for name in ("proposed_m1", "proposed_m2", "ml_estimated")}
        assert [len(r) for r in rows.values()] == [3, 3, 3]
        for m1, m2 in zip(rows["proposed_m1"][1:], rows["proposed_m2"][1:]):  # 62 and 79
            assert m1.split(",")[3:7] == m2.split(",")[3:7]

    def test_bad_scenario_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        for text in ("nonsense = 1\n", "noise_dbm = nan\n", "dist_fwd = -inf\n",
                     "noise_dbm = 4000\n", "noise_dbm = -4000\n",  # noise power inf, 0 W
                     "with_theory = maybe\n"):
            bad.write_text(text)
            rc = main(["sweep", str(bad), "--out", str(tmp_path / "x"), "--quiet"])
            assert rc == 1
            assert "bad.txt:1" in capsys.readouterr().err
            assert main(["single", str(bad)]) == 1
            err = capsys.readouterr().err
            assert "bad.txt:1" in err and "runtime error" not in err
        self._every_command_exits_1(tmp_path, capsys, "n = 64\nn_cp 16\n",
                                    "bad.txt:2: expected 'key = value', got 'n_cp 16'")
        for points in ("1e400", "30:12:3", "0:1e300:1"):
            rc = main(["sweep", "paper_default", "--points", points, "--trials", "1000",
                       "--out", str(tmp_path / "x"), "--quiet"])
            assert rc == 1
            assert "runtime error" not in capsys.readouterr().err
        for value in ("nan", "inf", "-inf"):
            assert main(["single", "paper_default", f"--value={value}"]) == 1
            err = capsys.readouterr().err
            assert "--value" in err and "runtime error" not in err
        for axis, value in (("stx_distance_m", "500"), ("sync_error_samples", "1e6"),
                            ("sync_error_samples", "-3")):
            assert main(["single", "paper_default", "--axis", axis, f"--value={value}"]) == 1
            err = capsys.readouterr().err
            assert f"axis {axis} = {float(value):g}" in err and "runtime error" not in err
        for points in ("4000", "-4000"):
            rc = main(["theory", "paper_default", f"--points={points}",
                       "--out", str(tmp_path / "x"), "--quiet"])
            assert rc == 1
            err = capsys.readouterr().err
            assert f"point {points} dB" in err and "runtime error" not in err
        for flags, message in ((["--trials", "0"], "at least 10^3 trials per point, got 0"),
                               (["--workers", "-3"], "at least 1 worker"),
                               (["--workers", "0"], "at least 1 worker")):
            rc = main(["sweep", "paper_default", "--points", "20", "--trials", "1000",
                       "--out", str(tmp_path / "x"), "--quiet"] + flags)
            assert rc == 1
            assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv", [
        ["single", "paper_default", "--points", "15"],
        ["single", "paper_default", "--points", "garbage"],
        ["single", "paper_default", "--quiet"],
        ["theory", "paper_default", "--seed", "3"],
    ])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[2:])}" in capsys.readouterr().err

    def test_environment_does_not_change_the_output(self, tmp_path, capsys, monkeypatch, fast_scenario):
        sweep = ["sweep", str(fast_scenario), "--points", "20", "--trials", "1000", "--quiet"]
        single = ["single", str(fast_scenario), "--trial", "3"]
        assert main(sweep + ["--out", str(tmp_path / "plain")]) == 0
        assert main(single) == 0
        plain = capsys.readouterr()
        monkeypatch.setenv("SROFDM_SEED", "5")
        monkeypatch.setenv("SROFDM_WORKERS", "abc")
        assert main(sweep + ["--out", str(tmp_path / "env")]) == 0
        assert main(single) == 0
        assert capsys.readouterr() == plain
        for f in sorted(p.name for p in (tmp_path / "plain").iterdir()):
            assert (tmp_path / "plain" / f).read_bytes() == (tmp_path / "env" / f).read_bytes()
        assert json.loads((tmp_path / "env" / "manifest.json").read_text())["master_seed"] == 1

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda m: m["scenario"].update(n="64"), "manifest.json: n: '64' should be written as 64",
                     id="n_string"),
        pytest.param(lambda m: m["scenario"].update(sync_error=1.5), "manifest.json: sync_error: bad value",
                     id="sync_error_float"),
        pytest.param(lambda m: m.update(trials="1000"), "manifest.json: trials: '1000' should be written as 1000",
                     id="trials_string"),
        pytest.param(lambda m: m.pop("axis"), "manifest.json: axis: missing", id="no_axis"),
        pytest.param(lambda m: m.update(points=[20, "x"]), "bad points", id="points"),
        pytest.param(lambda m: m.update(version="0.0.9"), "manifest.json: version: written by srofdm 0.0.9, not 0.1.0",
                     id="version"),
        pytest.param(None, "cannot read manifest", id="missing_file"),
        pytest.param(lambda m: m.update(with_theory="maybe"), "manifest.json: with_theory: bad value",
                     id="with_theory"),
        pytest.param(lambda m: m["scenario"].update(with_theory="maybe"), "manifest.json: with_theory: bad value",
                     id="scenario_with_theory"),
        pytest.param(lambda m: m["scenario"].update(m_s=4**20), "m_s = 1099511627776 exceeds the largest alphabet",
                     id="huge_m_s"),
        pytest.param(lambda m: m.update(master_seed=-1), "manifest.json: master_seed: -1 is outside [0, 2^64)",
                     id="negative_seed"),
        pytest.param(lambda m: m.update(master_seed=2**64), f"manifest.json: master_seed: {2**64} is outside",
                     id="seed_2_64"),
    ])
    def test_replay_rejects_an_edited_manifest(self, tmp_path, capsys, fast_scenario, edit, message):
        first = tmp_path / "first"
        assert main(["sweep", str(fast_scenario), "--points", "20", "--receivers", "perfect_csi",
                     "--no-theory", "--out", str(first), "--quiet"]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        path = tmp_path / "manifest.json"
        if edit is not None:
            edit(manifest)
            path.write_text(json.dumps(manifest))
        assert main(["sweep", "--from-manifest", str(path), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert message in err and "runtime error" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text, message", [
        pytest.param("preamble = nan,nan\n", "preamble symbols must have unit modulus", id="nan_preamble"),
        pytest.param("t_preamble = 3000000\n", "n_max = 10 leaves no data symbols after the t_preamble = 3000000",
                     id="oversized_t_preamble"),
    ])
    def test_unusable_preamble_exits_1(self, tmp_path, capsys, text, message):
        self._every_command_exits_1(tmp_path, capsys, text, message)

    @pytest.mark.parametrize("text, message", [
        pytest.param("n = 0\n", "n = 0: need at least one subcarrier", id="n_zero"),
        pytest.param("n = -64\n", "n = -64: need at least one subcarrier", id="n_negative"),
        pytest.param("n_pilot = 0\n", "n_pilot = 0 pilots do not divide n = 64", id="no_pilots"),
        pytest.param("n_pilot = 7\n", "n_pilot = 7 pilots do not divide n = 64", id="uneven_comb"),
        pytest.param("m_s = 1099511627776\n", "m_s = 1099511627776 exceeds the largest alphabet",
                     id="huge_m_s"),  # exited 2: Unable to allocate 8.00 TiB
        pytest.param("m_c = 8192\n", "m_c = 8192 exceeds the largest alphabet", id="huge_m_c"),
        pytest.param("n = 4000000\nn_pilot = 4000000\n", "exceeds the largest frame", id="huge_n"),
        # leaked two numpy RuntimeWarnings and wrote blank primary-BER columns
        pytest.param("n_pilot = 64\n", "n_pilot = 64 pilots leave no data subcarrier of n = 64", id="all_pilots"),
    ])
    def test_oversized_or_uneven_sizes_exit_1(self, tmp_path, capsys, text, message):
        self._every_command_exits_1(tmp_path, capsys, text, message)

    @staticmethod
    def _every_command_exits_1(tmp_path, capsys, text, message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        for argv in (["sweep", str(bad), "--points", "20", "--trials", "1000", "--out", str(tmp_path / "x")],
                     ["theory", str(bad), "--out", str(tmp_path / "x")], ["single", str(bad)]):
            assert main(argv + ["--quiet"] * (argv[0] != "single")) == 1
            err = capsys.readouterr().err
            assert message in err and "runtime error" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv, message", [  # ids numbered as when environment cases sat among them
        pytest.param(argv, message, id=f"argv{i}-None-{message}") for i, argv, message in (
            (0, ["sweep", "--seed", "-1"], "--seed -1 is outside [0, 2^64)"),
            (1, ["sweep", "--seed", str(2**64)], f"--seed {2**64} is outside [0, 2^64)"),
            (3, ["single", "--seed", str(2**64)], f"--seed {2**64} is outside [0, 2^64)"),
            # ran the same trial as --trial 18446744073709551615
            (6, ["single", "--trial", "-1"], "--trial -1 is outside [0, 2^64)"),
            (7, ["single", "--trial", str(2**64)], f"--trial {2**64} is outside [0, 2^64)"),
        )
    ])
    def test_seed_or_trial_out_of_range_exits_1(self, tmp_path, capsys, fast_scenario, argv, message):
        out = [] if argv[0] == "single" else ["--out", str(tmp_path / "x"), "--quiet"]
        trials = ["--points", "20", "--trials", "1000"] if argv[0] == "sweep" else []
        assert main(argv[:1] + [str(fast_scenario)] + argv[1:] + trials + out) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flags, named", [
        (["--axis", "snr_ratio_db"], "--axis"),
        (["--points", "40"], "--points"),
        (["--trials", "5000"], "--trials"),
        (["--receivers", "ml_perfect"], "--receivers"),
        (["--theory"], "--theory/--no-theory"),
        (["--no-theory"], "--theory/--no-theory"),
        (["--seed", "3"], "--seed"),
    ])
    def test_replay_refuses_run_flags(self, tmp_path, capsys, fast_scenario, flags, named):
        first = tmp_path / "first"
        assert main(["sweep", str(fast_scenario), "--points", "20", "--receivers", "perfect_csi",
                     "--no-theory", "--out", str(first), "--quiet"]) == 0
        replay = ["sweep", "--from-manifest", str(first / "manifest.json"), "--out", str(tmp_path / "x")]
        assert main(replay + flags) == 1
        err = capsys.readouterr().err
        assert f"{named} cannot be combined with --from-manifest" in err
        assert not (tmp_path / "x").exists()
        assert main(replay + ["--workers", "2", "--quiet"]) == 0  # how it runs, not what
        for f in sorted(p.name for p in first.iterdir()):
            assert (first / f).read_bytes() == (tmp_path / "x" / f).read_bytes()

    def test_missing_scenario_exits_1(self, tmp_path):
        assert main(["sweep", "no_such_scenario", "--out", str(tmp_path / "x")]) == 1

    def test_blocked_direct_scenario(self, tmp_path):
        scen = tmp_path / "blocked.txt"
        scen.write_text(
            "direct_model = none\nbackscatter_snr_db = 20\ntrials = 1000\n"
            "receivers = perfect_csi,proposed_m2\n"
        )
        out = tmp_path / "blocked_out"
        rc = main([
            "sweep", str(scen), "--axis", "backscatter_snr_db", "--points", "10,20",
            "--trials", "1000", "--seed", "3", "--out", str(out), "--quiet",
        ])
        assert rc == 0
        csv = (out / "backscatter_snr_db__proposed_m2.csv").read_text().splitlines()
        assert len(csv) == 1 + 2
        assert json.loads((out / "manifest.json").read_text())["scenario"]["direct_model"] == "none"

    def test_no_anchor_without_a_direct_link_exits_1(self, tmp_path, capsys):
        scen = tmp_path / "no_anchor.txt"
        scen.write_text("direct_model = none\n")
        assert main(["sweep", str(scen), "--axis", "stx_distance_m", "--points", "5",
                     "--out", str(tmp_path / "x"), "--quiet"]) == 1
        assert main(["single", str(scen), "--axis", "stx_distance_m", "--value", "5"]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert errors == ["error: no direct link: scenario needs backscatter_snr_db and a backscatter link"] * 2
        assert not (tmp_path / "x").exists()

    def test_runtime_failure_exits_2(self, tmp_path, capsys, monkeypatch, fast_scenario):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_sweep", boom)
        assert main(["sweep", str(fast_scenario), "--points", "20", "--trials", "1000",
                     "--out", str(tmp_path / "x"), "--quiet"]) == 2
        assert capsys.readouterr().err == "runtime error: boom\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("axis, model", [
        ("direct_snr_db", "direct_model"),
        ("snr_ratio_db", "direct_model"),
        ("backscatter_snr_db", "backscatter_model"),
        ("snr_ratio_db", "backscatter_model"),
    ])
    def test_axis_without_its_link_rejected(self, tmp_path, capsys, axis, model):
        scen = tmp_path / "cut.txt"
        scen.write_text(f"{model} = none\nbackscatter_snr_db = 10\n")
        scenario, _ = resolve_scenario(parse_scenario_text(scen.read_text()))
        spec = SweepSpec(axis=axis, points=(10.0,), trials_per_point=1000)
        with pytest.raises(ValueError, match=f"{axis}.*{model}"):
            run_sweep(spec, scenario, master_seed=1)
        rc = main([
            "sweep", str(scen), "--axis", axis, "--points", "10", "--trials", "1000",
            "--out", str(tmp_path / "x"), "--quiet",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert axis in err and model in err

    @pytest.mark.parametrize("axis, value, what", [
        ("direct_snr_db", -4000.0, "transmit power"),  # underflows to 0 W
        ("direct_snr_db", 4000.0, "transmit power"),  # overflows a float
        ("backscatter_snr_db", 4000.0, "transmit power"),
        ("snr_ratio_db", 4000.0, "SNR ratio"),
        ("stx_distance_m", 500.0, "tag position"),  # beyond the 200 m link
        ("sync_error_samples", 100000.0, "sync error"),  # beyond the 80-sample symbol
        ("sync_error_samples", -3.0, "sync error"),
    ])
    def test_unusable_point_rejected(self, tmp_path, capsys, axis, value, what):
        scenario, _ = resolve_scenario(parse_scenario_text("backscatter_snr_db = 10\n"))
        spec = SweepSpec(axis=axis, points=(value,), trials_per_point=1000)
        with pytest.raises(ValueError, match=f"{axis} = {value:g} gives .*{what}"):
            run_sweep(spec, scenario, master_seed=1)
        rc = main([
            "sweep", "paper_default", "--axis", axis, f"--points={value:g}", "--trials", "1000",
            "--out", str(tmp_path / "x"), "--quiet",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"{axis} = {value:g}" in err and what in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("text, axis, value, shown", [
        pytest.param("dist_direct = 1e308\n", "direct_snr_db", "20", "path gain 0.001 * 1e+308 m ^ -2.5 is 0",
                     id="dist_direct"),  # exited 2: float division by zero
        pytest.param("", "stx_distance_m", "1e-200", "path gain 0.001 * 1e-200 m ^ -2 is inf",
                     id="stx_distance_m"),  # exited 2: (34, 'Numerical result out of range')
        pytest.param("exp_fwd = 1e308\n", "direct_snr_db", "20", "path gain 0.001 * 3.83 m ^ -1e+308 is 0",
                     id="exp_fwd"),  # exited 2: backscatter response estimate is zero
    ])
    def test_path_gain_out_of_range_exits_1(self, tmp_path, capsys, text, axis, value, shown):
        scen = tmp_path / "gain.txt"
        scen.write_text(text)
        assert main(["sweep", str(scen), "--axis", axis, "--points", value, "--trials", "1000",
                     "--out", str(tmp_path / "x"), "--quiet"]) == 1
        assert main(["single", str(scen), "--axis", axis, "--value", value]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2  # one line from each command
        assert all(f"axis {axis} = {value}: {shown}; it must be positive, finite" in err for err in errors)
        assert not (tmp_path / "x").exists()

    def test_companions_below_the_old_floor(self, tmp_path, capsys):
        # one deterministic tap at 30 dB: the telescoped QAM sums read 0 here
        scen = tmp_path / "awgn.txt"
        scen.write_text("direct_model = none\nbackscatter_model = awgn\nbackscatter_snr_db = 20\n")
        out = tmp_path / "run"
        assert main(["sweep", str(scen), "--axis", "backscatter_snr_db", "--points", "30", "--trials", "1024",
                     "--receivers", "perfect_csi", "--seed", "7", "--out", str(out), "--quiet"]) == 0
        rows = (out / "backscatter_snr_db__perfect_csi.csv").read_text().splitlines()
        assert rows[1] == "30,perfect_csi,perfect,0,0,0,0,7.83182844e-46,0"
        assert main(["single", str(scen), "--axis", "backscatter_snr_db", "--value", "30",
                     "--receivers", "perfect_csi", "--seed", "7"]) == 0
        text = capsys.readouterr().out
        assert "primary_ber_theory = 7.83183e-46" in text and "primary_ser_theory = 3.13273e-45" in text

    def test_unknown_receiver_exits_1(self, tmp_path, capsys, fast_scenario):
        rc = main([
            "sweep", str(fast_scenario), "--receivers", "nope", "--points", "20",
            "--trials", "1000", "--out", str(tmp_path / "x"), "--quiet",
        ])
        assert rc == 1
        assert "unknown receiver 'nope'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        for receivers, message in (("nope", "unknown receiver 'nope'"),
                                   ("perfect_csi,perfect_csi", "'perfect_csi' is listed twice")):
            assert main(["single", str(fast_scenario), "--receivers", receivers]) == 1
            err = capsys.readouterr().err
            assert message in err and "runtime error" not in err

    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--receivers", "perfect_csi,perfect_csi"],
                     "'perfect_csi' is listed twice", id="duplicate_receiver"),
        pytest.param(["--trials", "5"], "at least 10^3 trials", id="too_few_trials"),
    ])
    def test_bad_sweep_spec_exits_1(self, tmp_path, capsys, fast_scenario, flags, message):
        argv = ["sweep", str(fast_scenario), "--points", "20", "--trials", "1000",
                "--out", str(tmp_path / "x"), "--quiet"]
        assert main(argv + flags) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


class TestTheoryCommand:
    def test_outputs_and_slopes(self, tmp_path):
        out = tmp_path / "theory"
        rc = main(["theory", "paper_default", "--points", "0:40:2", "--out", str(out), "--quiet"])
        assert rc == 0
        from srofdm.theory import fit_diversity_slope

        for l_b in (1, 2, 4):
            rows = (out / f"theory__avg_secondary_lb{l_b}.csv").read_text().splitlines()[1:]
            pts = np.array([float(r.split(",")[0]) for r in rows])
            ber = np.array([float(r.split(",")[-1]) for r in rows])
            hi = pts >= 30
            assert fit_diversity_slope(pts[hi], ber[hi]) == pytest.approx(l_b, rel=0.05)

    def test_estimated_never_beats_perfect(self, tmp_path):
        out = tmp_path / "theory2"
        assert main(["theory", "paper_default", "--points", "0:40:2", "--out", str(out), "--quiet"]) == 0
        perfect = [
            float(r.split(",")[-1])
            for r in (out / "theory__secondary_perfect.csv").read_text().splitlines()[1:]
        ]
        for name in ("m1", "m2"):
            est = [
                float(r.split(",")[-1])
                for r in (out / f"theory__secondary_{name}.csv").read_text().splitlines()[1:]
            ]
            assert all(e >= p - 1e-15 for e, p in zip(est, perfect))

    @pytest.mark.parametrize("text", ["", "m_s = 4\nm_c = 2\nl_d = 6\n", "sync_error = 3\n"])
    def test_secondary_curves_are_the_receiver_companions(self, tmp_path, text):
        # each fixed-point curve is its receiver's own companion on one unit tap at P / sigma^2
        scenario = tmp_path / "s.txt"
        scenario.write_text(text)
        scenario, out = str(scenario), tmp_path / "theory4"
        assert main(["theory", scenario, "--points", "0:40:5", "--out", str(out), "--quiet"]) == 0
        resolved = resolve_scenario(load_scenario_file(scenario))[0]
        system, taps = resolved.system, composite_tap_count(resolved.chan, resolved.sync_error)
        for name, receiver in (("perfect", "perfect_csi"), ("m1", "proposed_m1"), ("m2", "proposed_m2")):
            spec = RECEIVERS[receiver]
            rows = [r.split(",") for r in (out / f"theory__secondary_{name}.csv").read_text().splitlines()[1:]]
            assert [float(r[0]) for r in rows] == list(range(0, 41, 5))
            for r in rows:
                point = replace(system, p_t=10 ** (float(r[0]) / 10), sigma2=1.0)
                want = spec.secondary_theory(np.ones(1), point, taps)
                assert (r[1], r[2]) == (f"theory_secondary_{name}", spec.csi)
                assert r[-1] == format(want["secondary_ber_theory"], ".9g")

    def test_secondary_m2_counts_at_most_n_taps(self, tmp_path):
        # sync_error = 70 gives l_b + d_b + 70 = 73 taps; method 2 runs at 64
        scenario = tmp_path / "s.txt"
        scenario.write_text("sync_error = 70\n")
        out = tmp_path / "theory6"
        assert main(["theory", str(scenario), "--points", "12", "--out", str(out), "--quiet"]) == 0
        row = (out / "theory__secondary_m2.csv").read_text().splitlines()[1]
        assert row.split(",")[-1] == "0.112218201"  # 0.118751827 at 73 taps

    @pytest.mark.parametrize("axis", sorted(set(SWEEP_AXES) - {"direct_snr_db", "backscatter_snr_db"}))
    def test_points_refused_off_the_snr_axes(self, tmp_path, capsys, axis):
        # these axes take a fixed grid, which explicit points would not change
        out = tmp_path / "theory5"
        assert main(["theory", "paper_default", "--axis", axis, "--points", "1,2,3", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: theory --points needs an SNR axis; axis {axis}"
                                           " takes a fixed 0..40 dB grid\n")
        assert not out.exists()
        scenario = tmp_path / "s.txt"  # a scenario file's own points key stays accepted
        scenario.write_text(f"axis = {axis}\npoints = 1,2,3\n")
        assert main(["theory", str(scenario), "--out", str(out), "--quiet"]) == 0
        assert json.loads((out / "manifest.json").read_text())["points"] == list(range(0, 41, 2))

    def test_default_output_prints_the_moments(self, tmp_path, capsys):
        assert main(["theory", "paper_default", "--out", str(tmp_path / "theory")]) == 0
        assert capsys.readouterr().out == "gamma1=1.888889 gamma2=6.827160\n"

    def test_manifest_echoes_moments(self, tmp_path):
        out = tmp_path / "theory3"
        assert main(["theory", "paper_default", "--out", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["constellation_moments"]["gamma1"] == pytest.approx(1.888889, rel=1e-6)


class TestSingleCommand:
    @pytest.mark.parametrize("axis", sorted(set(SWEEP_AXES) - {"direct_snr_db"}))
    def test_value_needed_off_the_direct_snr_axis(self, capsys, axis):
        # the scenario's direct_snr_db of 20 was taken as a point of any axis
        assert main(["single", "paper_default", "--axis", axis]) == 1
        out, err = capsys.readouterr()
        assert err == f"error: single --axis {axis} needs --value\n" and out == ""

    def test_value_defaults_to_the_direct_snr(self, capsys):
        assert main(["single", "paper_default", "--receivers", "perfect_csi"]) == 0
        assert "point: direct_snr_db=20 xi=0" in capsys.readouterr().out

    def test_verbose_dump(self, tmp_path, fast_scenario, capsys):
        rc = main(["single", str(fast_scenario), "--trial", "3", "--seed", "9"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "P_T=" in text and "perfect_csi:" in text and "bit errors" in text

    def test_no_backscatter_ratio_is_minus_inf_without_warning(self, tmp_path, capsys):
        scen = tmp_path / "direct_only.txt"
        scen.write_text("backscatter_model = none\nreceivers = perfect_csi\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["single", str(scen)]) == 0
        out, err = capsys.readouterr()
        assert "snr_ratio=-inf dB" in out and err == ""


# Property tests over the one resolve path (`cli._resolve_run`): whatever a
# scenario file, a point spec or a replayed manifest holds, the command either
# resolves it or reports a ScenarioError (exit 1); nothing is simulated here.
# Integers are small or one of two big values; `SystemConfig` bounds every
# size before it builds an array, so a big value on any key is refused.
_SMALL_INT = st.integers(min_value=-5, max_value=400)
_BIG_INT = st.sampled_from([10**20 + 1, 4**20])
_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_WORD = st.sampled_from(["auto", "none", "", "yes", "No", "TRUE", "0", "maybe", "1e400", "0x10",
                         "rayleigh", "cascade", "awgn", "direct_snr_db", "sync_error_samples"])
_COMPLEX = st.complex_numbers(allow_nan=True, allow_infinity=True)
_RECEIVER = st.sampled_from(sorted(RECEIVERS) + ["nope"])
_COMMAND = st.sampled_from(["sweep", "theory", "single"])
_POINTS = st.one_of(
    st.tuples(_FLOAT | _SMALL_INT, _FLOAT | _SMALL_INT, _FLOAT | _SMALL_INT).map(
        lambda t: ":".join(map(repr, t))),
    st.lists(_FLOAT | _SMALL_INT, max_size=4).map(lambda v: ",".join(map(repr, v))),
    _WORD,
)


def _value_text(key, own_kind):
    """Text for one scenario line: of the key's own kind, or (with own_kind
    false) that or any other kind."""
    ints = (_SMALL_INT | _BIG_INT).map(str)
    floats = _FLOAT.map(repr)
    words = st.sampled_from(["1", "-1", "1j", "-1j", "nan", "nan+1j", "inf"])
    complexes = (st.lists(words, min_size=2, max_size=2)  # as many as the default t_preamble
                 | st.lists(words | _COMPLEX.map(str), min_size=1, max_size=4)).map(",".join)
    receivers = st.lists(_RECEIVER, min_size=1, max_size=3).map(",".join)
    kinds = {"preamble": complexes, "receivers": receivers, "points": _POINTS}
    own = kinds[key] if key in kinds else {int: ints, str: _WORD}.get(_SCENARIO_KEYS[key][0], floats | _WORD)
    return own if own_kind else own | st.one_of(ints, floats, _WORD, _POINTS, complexes, receivers)


def _json_value(key):
    """A JSON value for one manifest entry: a scalar of any kind, or a list."""
    scalar = st.one_of(st.none(), st.booleans(), _SMALL_INT, _BIG_INT, _FLOAT, _WORD)
    return scalar | st.lists(scalar | _RECEIVER, max_size=3)


def _check_resolved(argv):
    """`_resolve_run` of argv: a resolved run is usable, anything else is a
    ScenarioError."""
    try:
        _, scenario, run, seed = _resolve_run(build_parser().parse_args(argv))
    except ScenarioError:
        return
    system = scenario.system
    assert np.all(np.isfinite(system.preamble))
    assert system.n_p >= 1 and np.array_equal(system.pilot_indices, np.arange(0, system.n, system.n // system.n_p))
    assert np.allclose(np.abs(system.preamble), 1) and abs(np.sum(system.preamble)) <= 1e-9
    assert system.n_max > system.t_preamble
    assert set(run) == set(_SWEEP_KEYS) and type(run["with_theory"]) is bool
    assert isinstance(run["receivers"], tuple) and type(seed) is int and 0 <= seed < 2**64
    assert system.n_p < system.n


# the keys that set a sweep point's gains, power and timing
_GEOMETRY_KEYS = ("dist_direct", "dist_fwd", "dist_bwd", "exp_direct", "exp_fwd", "exp_bwd", "pathloss_ref",
                  "direct_model", "backscatter_model", "direct_snr_db", "backscatter_snr_db", "noise_dbm",
                  "sync_error")
_AXIS_VALUE = _FLOAT | _SMALL_INT | st.sampled_from([1e-200, 1e-300, 5e-324, 1e308, -1e308, 199.9, 79.4])


def _check_applied(scenario, axis, value):
    """`apply_axis` of one point: a resolved point draws finite, nonzero taps
    at a positive finite power, anything else is a ScenarioError."""
    try:
        system, chan, xi = apply_axis(scenario, axis, value)
    except ScenarioError:
        return
    assert 0 < system.p_t < np.inf and 0 <= xi < system.symbol_period
    h_d, b, g = draw_link_taps(chan, RandomStream(0, 0))
    assert all(np.all(np.isfinite(taps)) for taps in (h_d, b, g))
    assert np.any(h_d != 0) == (chan.direct_model != "none")
    assert np.any(np.convolve(b, g) != 0) == (chan.backscatter_model != "none")


@pytest.fixture(scope="module")
def recorded_manifest(tmp_path_factory):
    out = tmp_path_factory.mktemp("recorded")
    assert main(["sweep", "paper_default", "--points", "20", "--trials", "1000", "--receivers",
                 "perfect_csi", "--no-theory", "--seed", "5", "--out", str(out), "--quiet"]) == 0
    return json.loads((out / "manifest.json").read_text())


class TestResolveProperties:
    @staticmethod
    def _check_file(tmp_path_factory, command, lines, points=None):
        path = tmp_path_factory.getbasetemp() / "generated.txt"
        path.write_text("".join(f"{key} = {text}\n" for key, text in lines.items()))
        flags = [] if points is None or command == "single" else [f"--points={points}"]  # single reads none
        _check_resolved([command, str(path)] + flags)

    @pytest.mark.parametrize("key", sorted(_SCENARIO_KEYS))
    @given(data=st.data(), command=_COMMAND)
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_one_line_resolves_or_is_rejected(self, tmp_path_factory, key, data, command):
        self._check_file(tmp_path_factory, command, {key: data.draw(_value_text(key, own_kind=True))})

    @given(data=st.data(), command=_COMMAND, points=st.none() | _POINTS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_lines_resolve_or_are_rejected(self, tmp_path_factory, data, command, points):
        keys = data.draw(st.lists(st.sampled_from(sorted(_SCENARIO_KEYS)), min_size=1, max_size=4, unique=True))
        self._check_file(tmp_path_factory, command, {key: data.draw(_value_text(key, own_kind=False), label=key)
                                                     for key in keys}, points)

    @given(data=st.data(), axis=st.sampled_from(sorted(SWEEP_AXES)), values=st.lists(_AXIS_VALUE, min_size=1,
                                                                                       max_size=3))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_axis_points_apply_or_are_rejected(self, tmp_path_factory, data, axis, values):
        keys = data.draw(st.lists(st.sampled_from(_GEOMETRY_KEYS), max_size=4, unique=True))
        path = tmp_path_factory.getbasetemp() / "generated.txt"
        path.write_text("".join(f"{key} = {data.draw(_value_text(key, own_kind=True), label=key)}\n"
                                for key in keys))
        try:
            _, scenario, _, _ = _resolve_run(build_parser().parse_args(["sweep", str(path)]))
        except ScenarioError:
            return
        for value in values:
            _check_applied(scenario, axis, value)

    @given(_POINTS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_points_parse_or_are_rejected(self, spec):
        try:
            points = parse_points(spec)
        except ScenarioError:
            return
        assert 1 <= len(points) <= MAX_POINTS and np.all(np.isfinite(points))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_edited_manifest_replays_or_is_rejected(self, tmp_path_factory, recorded_manifest, data):
        manifest = json.loads(json.dumps(recorded_manifest))
        block = data.draw(st.sampled_from([manifest, manifest["scenario"]]))
        key = data.draw(st.sampled_from(sorted(set(block) | set(_SCENARIO_KEYS))))
        if data.draw(st.booleans()):
            block.pop(key, None)
        else:
            block[key] = data.draw(_json_value(key))
        path = tmp_path_factory.getbasetemp() / "manifest.json"
        path.write_text(json.dumps(manifest))
        _check_resolved(["sweep", "--from-manifest", str(path)])
