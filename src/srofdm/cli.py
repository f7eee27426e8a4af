"""Command-line front end: scenario files, Monte Carlo sweeps, analytic
curves, and single-trial dumps.

Scenario files are flat `key = value` text with `#` comments; unknown keys
are rejected with the offending line number. Results land as one CSV per
receiver curve plus a JSON manifest that can replay the exact run.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np

from srofdm import __version__, theory
from srofdm.channel import ChannelConfig, composite_tap_count
from srofdm.harness import (
    SWEEP_AXES,
    Scenario,
    ScenarioError,
    SweepSpec,
    _from_db,
    apply_axis,
    run_sweep,
    run_trial,
)
from srofdm.txchain import SystemConfig, default_pilot_indices

CSV_HEADER = (
    "point,receiver,csi,ber_primary,ci_primary,ber_secondary,ci_secondary,"
    "ber_primary_theory,ber_secondary_theory"
)

EXIT_OK, EXIT_CONFIG, EXIT_RUNTIME = 0, 1, 2
MAX_POINTS = 10_000  # a start:stop:step range is sized against this before it is built


def _finite(text) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _noise_power(noise_dbm: float) -> float:
    """dBm to watts; the power must be positive and finite."""
    watts = _from_db(noise_dbm) * 1e-3
    if not 0 < watts < float("inf"):
        raise ValueError(
            f"noise_dbm = {noise_dbm:g} gives a noise power of {watts:g} W;"
            " it must be positive and finite")
    return watts


def _noise_dbm(text) -> float:
    value = _finite(text)
    _noise_power(value)
    return value


_SCENARIO_KEYS = {
    # key: (parser, default); 'auto', 'none' or an empty value selects a None default
    "n": (int, 64),
    "n_cp": (int, 16),
    "n_pilot": (int, 8),
    "m_s": (int, 16),
    "m_c": (int, 8),
    "t_preamble": (int, 2),
    "n_max": (int, 10),
    "noise_dbm": (_noise_dbm, -80.0),
    "direct_snr_db": (_finite, 20.0),
    "backscatter_snr_db": (_finite, None),
    "sync_error": (int, 0),
    "l_d": (int, 4),
    "l_1": (int, 1),
    "l_2": (int, 2),
    "delay_b": (int, 1),
    "dist_direct": (_finite, 200.0),
    "dist_fwd": (_finite, 3.83),
    "dist_bwd": (_finite, None),  # 'auto' keeps the collinear default
    "exp_direct": (_finite, 2.5),
    "exp_fwd": (_finite, 2.0),
    "exp_bwd": (_finite, 2.0),
    "pathloss_ref": (_finite, 1e-3),
    "direct_model": (str, "rayleigh"),
    "backscatter_model": (str, "cascade"),
    "preamble": (str, None),  # comma list of complex values
    "axis": (str, "direct_snr_db"),
    "points": (str, "12:30:3"),
    "trials": (int, 100000),
    "receivers": (str, "perfect_csi,proposed_m1,proposed_m2"),
    "with_theory": (str, "true"),
}
_SWEEP_KEYS = ("axis", "points", "trials", "receivers", "with_theory")


def _parse_value(key: str, text: str, where: str):
    """One scenario key's value from its text; errors start with `where`."""
    if key not in _SCENARIO_KEYS:
        raise ScenarioError(f"{where}: unknown key {key!r}")
    parser, default = _SCENARIO_KEYS[key]
    if default is None and text.lower() in ("auto", "none", ""):
        return None
    try:
        return parser(text)
    except ValueError as exc:
        raise ScenarioError(f"{where}: bad value for {key!r}: {exc}") from None


def parse_scenario_text(text: str, origin: str = "<scenario>") -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"{origin}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in values:
            raise ScenarioError(f"{origin}:{lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, val, f"{origin}:{lineno}")
    return values


def _read_manifest(path: str):
    """(scenario values, sweep values, seed) of a sweep's manifest.json. Each
    entry goes through its scenario key's parser, a list as its items joined
    by commas; the manifest records parsed values, so a scalar must parse back
    to itself ("64" for an int is refused)."""
    try:
        manifest = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot read manifest {path}: {exc}") from None
    for key in ("version", "master_seed", "scenario") + _SWEEP_KEYS:
        if not isinstance(manifest, dict) or key not in manifest:
            raise ScenarioError(f"{path}: {key}: missing")
    if manifest["version"] != __version__:
        raise ScenarioError(f"{path}: version: written by srofdm {manifest['version']}, not"
                            f" {__version__}; a replay reproduces the bytes of its own version only")
    seed, block = manifest["master_seed"], manifest["scenario"]
    if type(seed) is not int:
        raise ScenarioError(f"{path}: master_seed: {seed!r} is not an integer")
    if not isinstance(block, dict):
        raise ScenarioError(f"{path}: scenario: not a key-value block")
    values, sweep = {}, {}
    for parsed, entries in ((values, block), (sweep, {key: manifest[key] for key in _SWEEP_KEYS})):
        for key, value in entries.items():
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            parsed[key] = _parse_value(key, text, f"{path}: {key}")
            if not isinstance(value, (list, bool)) and parsed[key] not in (None, value):
                raise ScenarioError(f"{path}: {key}: {value!r} should be written as {parsed[key]!r}")
    return values, sweep, seed


def _env_int(name: str, default: int) -> int:
    text = os.environ.get(name)
    try:
        return default if text is None else int(text)
    except ValueError:
        raise ScenarioError(f"{name}={text!r} is not an integer") from None


def load_scenario_file(path: str) -> dict:
    """Read a scenario by path or bundled name (e.g. 'paper_default')."""
    p = Path(path)
    if p.exists():
        return parse_scenario_text(p.read_text(), origin=str(p))
    bundled = resources.files("srofdm").joinpath(f"scenarios/{path}.txt")
    if bundled.is_file():
        return parse_scenario_text(bundled.read_text(), origin=f"scenarios/{path}.txt")
    raise ScenarioError(f"scenario {path!r} not found (no such file or bundled name)")


def resolve_scenario(values: dict):
    """Turn parsed key-values into (Scenario, sweep defaults dict)."""
    get = lambda k: values.get(k, _SCENARIO_KEYS[k][1])
    preamble = ()
    if get("preamble"):
        try:
            preamble = tuple(complex(tok) for tok in str(get("preamble")).split(","))
        except ValueError as exc:
            raise ScenarioError(f"bad preamble list: {exc}") from None
    try:
        sigma2 = _noise_power(get("noise_dbm"))
        system = SystemConfig(
            n=get("n"),
            n_cp=get("n_cp"),
            pilot_indices=default_pilot_indices(get("n"), get("n_pilot")),
            m_s=get("m_s"),
            m_c=get("m_c"),
            t_preamble=get("t_preamble"),
            preamble=preamble,
            n_max=get("n_max"),
            p_t=1.0,  # pinned per sweep point by the anchor SNR
            sigma2=sigma2,
        )
        chan = ChannelConfig(
            l_d=get("l_d"),
            l_1=get("l_1"),
            l_2=get("l_2"),
            d_b=get("delay_b"),
            dist_direct=get("dist_direct"),
            dist_fwd=get("dist_fwd"),
            dist_bwd=get("dist_bwd"),
            exp_direct=get("exp_direct"),
            exp_fwd=get("exp_fwd"),
            exp_bwd=get("exp_bwd"),
            pathloss_ref=get("pathloss_ref"),
            direct_model=get("direct_model"),
            backscatter_model=get("backscatter_model"),
        )
        scenario = Scenario(
            system=system,
            chan=chan,
            direct_snr_db=get("direct_snr_db"),
            backscatter_snr_db=get("backscatter_snr_db"),
            sync_error=get("sync_error"),
        )
        scenario.validate()
    except ValueError as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(str(exc)) from None
    sweep_defaults = {key: get(key) for key in _SWEEP_KEYS}
    sweep_defaults["with_theory"] = str(get("with_theory")).lower() in ("1", "true", "yes")
    return scenario, sweep_defaults


def parse_points(spec: str) -> tuple:
    """'start:stop:step' (endpoints inclusive within half a step) or a comma
    list of values."""
    spec = str(spec).strip()
    ranged = ":" in spec
    try:
        values = [_finite(tok) for tok in spec.split(":" if ranged else ",") if tok.strip()]
    except ValueError as exc:
        raise ScenarioError(f"bad points {spec!r}: {exc}") from None
    if ranged:
        if len(values) != 3:
            raise ScenarioError(f"bad point range {spec!r}, want start:stop:step")
        start, stop, step = values
        if step <= 0:
            raise ScenarioError("point range step must be positive")
        steps = np.floor((stop - start) / step + 0.5)
        if not steps < MAX_POINTS:  # also an overflowing span
            raise ScenarioError(f"point range {spec!r} has more than {MAX_POINTS} points")
        count = int(steps) + 1
        values = [float(p) for p in start + step * np.arange(count) if p <= stop + step / 2]
    if not values:
        raise ScenarioError(f"no points in {spec!r}")
    return tuple(values)


def _fmt(x) -> str:
    if x is None:
        return ""
    x = float(x)
    if not np.isfinite(x):
        return ""
    return format(x, ".9g")


def write_curve_csv(path: Path, curve) -> None:
    rows = []
    for p in sorted(curve.points, key=lambda q: q.point):
        rows.append(
            ",".join(
                [
                    _fmt(p.point),
                    curve.receiver,
                    curve.csi,
                    _fmt(p.ber_primary),
                    _fmt(p.ci_primary),
                    _fmt(p.ber_secondary),
                    _fmt(p.ci_secondary),
                    _fmt(p.theory_mean("primary_ber_theory")),
                    _fmt(p.theory_mean("secondary_ber_theory")),
                ]
            )
        )
    path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")


def _scenario_manifest_dict(values: dict) -> dict:
    out = {}
    for key, (_, default) in _SCENARIO_KEYS.items():
        v = values.get(key, default)
        if v is not None:
            out[key] = v
    return out


def cmd_sweep(args) -> int:
    # the scenario's sweep keys, overridden by a manifest's run or the flags
    if args.from_manifest:
        values, sweep, seed = _read_manifest(args.from_manifest)
    else:
        values = load_scenario_file(args.scenario)
        sweep = dict(axis=args.axis, points=args.points, trials=args.trials,
                     receivers=args.receivers, with_theory=args.theory)
        seed = _env_int("SROFDM_SEED", 1) if args.seed is None else args.seed
    scenario, sweep = resolve_scenario({**values, **{k: v for k, v in sweep.items() if v is not None}})
    workers = _env_int("SROFDM_WORKERS", 1) if args.workers is None else args.workers
    if workers < 1:
        raise ScenarioError(f"need at least 1 worker (--workers, SROFDM_WORKERS), got {workers}")
    spec = SweepSpec(
        axis=sweep["axis"], points=parse_points(sweep["points"]), trials_per_point=sweep["trials"],
        receivers=tuple(sweep["receivers"].replace(" ", "").split(",")),
        with_theory=sweep["with_theory"])
    curves = run_sweep(spec, scenario, master_seed=seed, workers=workers)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    moments = theory.qam_moments(scenario.system.m_s)
    outputs, digests = {}, {}
    for name, curve in curves.items():
        fname = f"{spec.axis}__{name}.csv"
        write_curve_csv(out_dir / fname, curve)
        outputs[name] = fname
        digests[name] = {
            "primary_bit_errors": sum(p.primary_bit_errors for p in curve.points),
            "secondary_bit_errors": sum(p.secondary_bit_errors for p in curve.points),
            "primary_symbol_errors": sum(p.primary_symbol_errors for p in curve.points),
        }
        if not args.quiet:
            for p in curve.points:
                print(
                    f"{spec.axis}={p.point:g} {name}: ber_primary={_fmt(p.ber_primary) or 'n/a'}"
                    f" ber_secondary={_fmt(p.ber_secondary) or 'n/a'}"
                )
    manifest = {
        "tool": "srofdm",
        "version": __version__,
        "command": "sweep",
        "master_seed": seed,
        "axis": spec.axis,
        "points": list(spec.points),
        "trials": spec.trials_per_point,
        "receivers": list(spec.receivers),
        "with_theory": spec.with_theory,
        "scenario": _scenario_manifest_dict(values),
        "constellation_moments": {"gamma1": moments.gamma1, "gamma2": moments.gamma2},
        "outputs": outputs,
        "error_digests": digests,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_theory(args) -> int:
    values = load_scenario_file(args.scenario)
    scenario, defaults = resolve_scenario(values)
    axis = args.axis or defaults["axis"]
    points = parse_points(args.points or defaults["points"])
    # SNR grid in dB: the points of an SNR axis, else a fixed 0..40 dB grid
    gamma_grid = points if axis in ("direct_snr_db", "backscatter_snr_db") else tuple(
        float(v) for v in np.arange(0.0, 42.0, 2.0)
    )
    snrs = [_from_db(db) for db in gamma_grid]
    for db, snr in zip(gamma_grid, snrs):
        if not 0 < snr < float("inf"):
            raise ScenarioError(
                f"point {db:g} dB gives a linear SNR of {snr:g}; it must be positive and finite")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    system = scenario.system
    moments = theory.qam_moments(system.m_s)
    outputs = {}

    def emit(name, rows):
        fname = f"theory__{name}.csv"
        (out_dir / fname).write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
        outputs[name] = fname

    # averaged secondary BER over i.i.d. Rayleigh taps: closed form per tap count
    for l_b in (1, 2, 4):
        rows = []
        for db, snr in zip(gamma_grid, snrs):
            exact, approx = theory.avg_ber_secondary(theory.AvgSnrParams(gamma_b=snr, l_b=l_b))
            rows.append(
                f"{_fmt(db)},theory_avg_secondary_lb{l_b},perfect,,,,,,{_fmt(exact)}"
            )
        emit(f"avg_secondary_lb{l_b}", rows)

    # fixed-point secondary curves at the expected backscatter energy: one unit
    # tap with P / sigma^2 set to the axis value
    taps = composite_tap_count(scenario.chan)
    unit_tap = np.ones(1)
    rows15, rows1, rows2 = [], [], []
    for db, snr in zip(gamma_grid, snrs):
        point = replace(system, p_t=snr, sigma2=1.0)
        b15 = theory.ber_secondary_perfect(unit_tap, point, moments)
        b1 = theory.ber_psk_from_snr(theory.snr_secondary_method1(unit_tap, point, moments), system.m_c)
        b2 = theory.ber_psk_from_snr(theory.snr_secondary_method2(unit_tap, point, taps), system.m_c)
        rows15.append(f"{_fmt(db)},theory_secondary_perfect,perfect,,,,,,{_fmt(b15)}")
        rows1.append(f"{_fmt(db)},theory_secondary_m1,estimated,,,,,,{_fmt(b1)}")
        rows2.append(f"{_fmt(db)},theory_secondary_m2,estimated,,,,,,{_fmt(b2)}")
    emit("secondary_perfect", rows15)
    emit("secondary_m1", rows1)
    emit("secondary_m2", rows2)

    manifest = {
        "tool": "srofdm",
        "version": __version__,
        "command": "theory",
        "axis": axis,
        "points": list(gamma_grid),
        "scenario": _scenario_manifest_dict(values),
        "constellation_moments": {"gamma1": moments.gamma1, "gamma2": moments.gamma2},
        "outputs": outputs,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    if not args.quiet:
        print(f"gamma1={moments.gamma1:.6f} gamma2={moments.gamma2:.6f}")
    return EXIT_OK


def cmd_single(args) -> int:
    values = load_scenario_file(args.scenario)
    scenario, defaults = resolve_scenario(values)
    axis = args.axis or defaults["axis"]
    value = scenario.direct_snr_db
    if args.value is not None:
        try:
            value = _finite(args.value)
        except ValueError as exc:
            raise ScenarioError(f"bad --value: {exc}") from None
    seed = _env_int("SROFDM_SEED", 1) if args.seed is None else args.seed
    receivers = tuple((args.receivers or defaults["receivers"]).replace(" ", "").split(","))
    results = run_trial(scenario, axis, value, args.trial, seed, receivers)
    system, chan, xi = apply_axis(scenario, axis, value)
    print(f"scenario: N={system.n} N_cp={system.n_cp} N_p={system.n_p} "
          f"M_s={system.m_s} M_c={system.m_c} N_max={system.n_max}")
    print(f"point: {axis}={value:g} xi={xi} P_T={system.p_t:.6g} W sigma2={system.sigma2:.6g} W")
    with np.errstate(divide="ignore"):  # no backscatter link: a ratio of 0 is -inf dB
        ratio_db = 10 * np.log10(chan.snr_ratio) if chan.beta_direct else float("nan")
    print(f"channel: beta_direct={chan.beta_direct:.6g} beta_backscatter={chan.beta_backscatter:.6g} "
          f"snr_ratio={ratio_db:.2f} dB")
    for name, res in results.items():
        print(
            f"{name}: primary {res.primary_bit_errors}/{res.primary_bits} bit errors "
            f"({res.primary_symbol_errors}/{res.primary_symbols} symbols), "
            f"secondary {res.secondary_bit_errors}/{res.secondary_bits} bit errors, "
            f"erasures {res.erasures}"
        )
        for key in sorted(res.theory_sums):
            print(f"  {key} = {res.theory_sums[key]:.6g}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="srofdm",
        description="Symbiotic-radio-over-OFDM Monte Carlo and analytic BER curves",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", nargs="?", default="paper_default",
                       help="scenario file path or bundled name")
        p.add_argument("--axis", choices=tuple(SWEEP_AXES), default=None)
        p.add_argument("--points", default=None, help="start:stop:step or comma list")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quiet", action="store_true")

    sw = sub.add_parser("sweep", help="run a Monte Carlo sweep")
    common(sw)
    sw.add_argument("--trials", type=int, default=None)
    sw.add_argument("--receivers", default=None, help="comma list of receiver names")
    sw.add_argument("--workers", type=int, default=None)
    sw.add_argument("--out", default="out", help="output directory")
    sw.add_argument("--theory", action=argparse.BooleanOptionalAction, default=None,
                    help="attach per-realization analytic companions")
    sw.add_argument("--from-manifest", default=None,
                    help="replay a previous run from its manifest.json")
    sw.set_defaults(func=cmd_sweep)

    th = sub.add_parser("theory", help="evaluate closed-form curves only")
    common(th)
    th.add_argument("--out", default="out", help="output directory")
    th.set_defaults(func=cmd_theory)

    sg = sub.add_parser("single", help="verbose dump of one trial")
    common(sg)
    sg.add_argument("--trial", type=int, default=0)
    sg.add_argument("--value", type=float, default=None, help="axis value for the trial")
    sg.add_argument("--receivers", default=None)
    sg.set_defaults(func=cmd_single)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - boundary reporting
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
