"""Command-line front end: scenario files, Monte Carlo sweeps, analytic
curves, and single-trial dumps.

Scenario files are flat `key = value` text with `#` comments; unknown keys
are rejected with the offending line number. Results land as one CSV per
receiver curve plus a JSON manifest that can replay the exact run.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from srofdm import __version__, theory
from srofdm.channel import ChannelConfig, composite_tap_count
from srofdm.harness import (
    RECEIVERS,
    SWEEP_AXES,
    Scenario,
    SweepSpec,
    apply_axis,
    from_db,
    run_sweep,
    run_trial,
)
from srofdm.numerics import ScenarioError
from srofdm.txchain import SystemConfig

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
    watts = from_db(noise_dbm) * 1e-3
    if not 0 < watts < float("inf"):
        raise ScenarioError(
            f"noise_dbm = {noise_dbm:g} gives a noise power of {watts:g} W;"
            " it must be positive and finite")
    return watts


_YES, _NO = ("1", "true", "yes"), ("0", "false", "no")


def _yes_no(text: str) -> str:
    """A yes/no word in any case, returned as written so that a manifest
    records it unchanged."""
    if text.lower() not in _YES + _NO:
        raise ValueError(f"{text!r} is none of {', '.join(_YES + _NO)}")
    return text


def _complex_list(text: str) -> str:
    """A comma list of complex values, returned as written for the manifest."""
    tuple(map(complex, text.split(",")))  # a ValueError for a malformed token
    return text


def _noise_dbm(text) -> float:
    value = _finite(text)
    _noise_power(value)
    return value


# record field -> scenario key, where the two names differ
_KEY_ALIASES = {"n_p": "n_pilot", "d_b": "delay_b"}
# record fields that no key sets: p_t is pinned per sweep point by the anchor SNR,
# sigma2 comes from noise_dbm, the preamble from its key's text form
_NOT_KEYS = ("p_t", "sigma2", "preamble", "beta_backscatter_override")
_PARSERS = {"int": int, "float": _finite, "str": str, "Optional[float]": _finite}  # by annotation
# {record: {key: field}}: each field with a default and not in _NOT_KEYS
_RECORD_KEYS = {record: {_KEY_ALIASES.get(f.name, f.name): f for f in fields(record)
                         if f.default is not MISSING and f.name not in _NOT_KEYS}
                for record in (SystemConfig, ChannelConfig, Scenario)}
_SCENARIO_KEYS = {
    # key: (parser, default); 'auto', 'none' or an empty value selects a None default
    **{key: (_PARSERS[f.type], f.default) for keys in _RECORD_KEYS.values() for key, f in keys.items()},
    "noise_dbm": (_noise_dbm, -80.0),
    "preamble": (_complex_list, None),
    "axis": (str, "direct_snr_db"),
    "points": (str, "12:30:3"),
    "trials": (int, 100000),
    # SweepSpec's defaults, in the text form that a manifest records
    "receivers": (str, ",".join(SweepSpec.receivers)),
    "with_theory": (_yes_no, str(SweepSpec.with_theory).lower()),
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
    _stream_key(seed, f"{path}: master_seed: ")
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


def _stream_key(value: int, name: str) -> int:
    """A seed or trial index, a Philox key word: outside [0, 2^64) it would alias another."""
    if not 0 <= value < 1 << 64:
        raise ScenarioError(f"{name}{value} is outside [0, 2^64)")
    return value


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
    """(Scenario, run fields) of parsed key-values: each record from its keys in
    `_RECORD_KEYS`, a key not given taking its field's default; the run fields
    are the `_SWEEP_KEYS`, the receivers as a tuple and `with_theory` a bool."""
    get = lambda k: values.get(k, _SCENARIO_KEYS[k][1])
    record = lambda cls, **rest: cls(**{f.name: get(key) for key, f in _RECORD_KEYS[cls].items()}, **rest)
    preamble = tuple(map(complex, get("preamble").split(","))) if get("preamble") else ()
    if get("n_pilot") < 1 or get("n") % get("n_pilot"):  # a scenario's comb has pilots
        raise ScenarioError(f"n_pilot = {get('n_pilot')} pilots do not divide n = {get('n')} subcarriers evenly")
    system = record(SystemConfig, preamble=preamble, sigma2=_noise_power(get("noise_dbm")))
    if not system.n_data:  # after the size checks, which name an oversized n first
        raise ScenarioError(f"n_pilot = {system.n_p} pilots leave no data subcarrier of n = {system.n}")
    scenario = record(Scenario, system=system, chan=record(ChannelConfig))
    run = {key: get(key) for key in _SWEEP_KEYS}
    run["receivers"] = tuple(str(run["receivers"]).replace(" ", "").split(","))
    run["with_theory"] = str(run["with_theory"]).lower() in _YES
    return scenario, run


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
        if steps < 0:  # the stop lies over half a step below the start
            raise ScenarioError(f"no points in {spec!r}")
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


def _row(point, receiver: str, csi: str, *columns) -> str:
    """One CSV line: the point, the curve's name and CSI, then the CSV_HEADER
    columns after them, blank where a value is None or not finite."""
    return ",".join([_fmt(point), receiver, csi, *map(_fmt, columns)])


def _resolve_run(args):
    """(file values, Scenario, run fields, seed) of a command: the scenario
    file with the command's flags on top, or a replayed manifest as recorded.
    The run fields are the `_SWEEP_KEYS`; the file values alone go into the
    manifest's scenario block."""
    flags = {key: value for key in _SWEEP_KEYS + ("seed",) if (value := getattr(args, key, None)) is not None}
    if getattr(args, "from_manifest", None):
        for key in flags:  # the first flag given; a replay runs the manifest as recorded
            flag = "--theory/--no-theory" if key == "with_theory" else f"--{key}"
            raise ScenarioError(f"{flag} cannot be combined with --from-manifest")
        values, run, seed = _read_manifest(args.from_manifest)
    else:
        values = load_scenario_file(args.scenario)
        seed = _stream_key(flags.pop("seed", 1), "--seed ")
        run = flags
    scenario, run = resolve_scenario({**values, **run})
    return values, scenario, run, seed


def _write_outputs(out: str, command: str, values: dict, scenario: Scenario, csvs: dict, **fields) -> None:
    """Create the output directory and write each {name: (file name, rows)}
    CSV and the manifest: the scenario file's values, the constellation
    moments, the outputs and the command's own fields."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for fname, rows in csvs.values():
        (out_dir / fname).write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    moments = theory.qam_moments(scenario.system.m_s)
    manifest = {
        "tool": "srofdm",
        "version": __version__,
        "command": command,
        "scenario": {key: value for key, (_, default) in _SCENARIO_KEYS.items()
                     if (value := values.get(key, default)) is not None},
        "constellation_moments": {"gamma1": moments.gamma1, "gamma2": moments.gamma2},
        "outputs": {name: fname for name, (fname, _) in csvs.items()},
        **fields,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_sweep(args) -> int:
    values, scenario, run, seed = _resolve_run(args)
    spec = SweepSpec(axis=run["axis"], points=parse_points(run["points"]), trials_per_point=run["trials"],
                     receivers=run["receivers"], with_theory=run["with_theory"])
    curves = run_sweep(spec, scenario, master_seed=seed, workers=args.workers)
    csvs = {
        name: (f"{spec.axis}__{name}.csv", [
            _row(p.point, name, curve.csi, p.ber_primary, p.ci_primary, p.ber_secondary, p.ci_secondary,
                 p.theory_mean("primary_ber_theory"), p.theory_mean("secondary_ber_theory"))
            for p in curve.points])
        for name, curve in curves.items()
    }
    digests = {
        name: {key: sum(getattr(p, key) for p in curve.points)
               for key in ("primary_bit_errors", "secondary_bit_errors", "primary_symbol_errors")}
        for name, curve in curves.items()
    }
    _write_outputs(args.out, "sweep", values, scenario, csvs, master_seed=seed, axis=spec.axis,
                   points=list(spec.points), trials=spec.trials_per_point, receivers=list(spec.receivers),
                   with_theory=spec.with_theory, error_digests=digests)
    if not args.quiet:
        for name, curve in curves.items():
            for p in curve.points:
                print(f"{spec.axis}={p.point:g} {name}: ber_primary={_fmt(p.ber_primary) or 'n/a'}"
                      f" ber_secondary={_fmt(p.ber_secondary) or 'n/a'}")
    return EXIT_OK


def cmd_theory(args) -> int:
    values, scenario, run, _ = _resolve_run(args)
    points = parse_points(run["points"])
    # SNR grid in dB: the points of an SNR axis, else a fixed 0..40 dB grid
    snr_axis = run["axis"] in ("direct_snr_db", "backscatter_snr_db")
    if args.points is not None and not snr_axis:
        raise ScenarioError(f"theory --points needs an SNR axis; axis {run['axis']} takes a fixed 0..40 dB grid")
    gamma_grid = points if snr_axis else tuple(float(v) for v in np.arange(0.0, 42.0, 2.0))
    snrs = [from_db(db) for db in gamma_grid]
    for db, snr in zip(gamma_grid, snrs):
        if not 0 < snr < float("inf"):
            raise ScenarioError(
                f"point {db:g} dB gives a linear SNR of {snr:g}; it must be positive and finite")
    system = scenario.system
    # name: (receiver, csi, secondary BER per point)
    # averaged secondary BER over i.i.d. Rayleigh taps: closed form per tap count
    curves = {
        f"avg_secondary_lb{l_b}": (f"theory_avg_secondary_lb{l_b}", "perfect", [
            theory.avg_ber_secondary(snr, l_b)[0] for snr in snrs])
        for l_b in (1, 2, 4)
    }
    # fixed-point secondary curves at the expected backscatter energy: each
    # receiver's own companion on one unit tap with P / sigma^2 set to the axis value
    taps = composite_tap_count(scenario.chan, scenario.sync_error)  # the sweep's taps off the sync axis
    fixed = [replace(system, p_t=snr, sigma2=1.0) for snr in snrs]
    for name, receiver in (("perfect", "perfect_csi"), ("m1", "proposed_m1"), ("m2", "proposed_m2")):
        spec = RECEIVERS[receiver]
        curves[f"secondary_{name}"] = (f"theory_secondary_{name}", spec.csi, [
            spec.secondary_theory(np.ones(1), point, taps)["secondary_ber_theory"] for point in fixed])
    csvs = {  # a closed form fills the secondary theory column only
        name: (f"theory__{name}.csv", [_row(db, receiver, csi, *[None] * 5, ber)
                                      for db, ber in zip(gamma_grid, bers)])
        for name, (receiver, csi, bers) in curves.items()
    }
    _write_outputs(args.out, "theory", values, scenario, csvs, axis=run["axis"], points=list(gamma_grid))
    if not args.quiet:
        moments = theory.qam_moments(system.m_s)
        print(f"gamma1={moments.gamma1:.6f} gamma2={moments.gamma2:.6f}")
    return EXIT_OK


def cmd_single(args) -> int:
    _, scenario, run, seed = _resolve_run(args)
    axis = run["axis"]
    value = scenario.direct_snr_db
    if args.value is not None:
        try:
            value = _finite(args.value)
        except ValueError as exc:
            raise ScenarioError(f"bad --value: {exc}") from None
    elif axis != "direct_snr_db":  # the scenario's anchor is a point of that axis only
        raise ScenarioError(f"single --axis {axis} needs --value")
    trial = _stream_key(args.trial, "--trial ")
    results = run_trial(scenario, axis, value, trial, seed, run["receivers"])
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

    sw = sub.add_parser("sweep", help="run a Monte Carlo sweep")
    common(sw)
    sw.add_argument("--points", default=None, help="start:stop:step or comma list")
    sw.add_argument("--trials", type=int, default=None)
    sw.add_argument("--receivers", default=None, help="comma list of receiver names")
    sw.add_argument("--seed", type=int, default=None, help="master seed (default 1)")
    sw.add_argument("--workers", type=int, default=1)
    sw.add_argument("--out", default="out", help="output directory")
    sw.add_argument("--theory", dest="with_theory", action=argparse.BooleanOptionalAction, default=None,
                    help="attach per-realization analytic companions")
    sw.add_argument("--from-manifest", default=None,
                    help="replay a previous run from its manifest.json")
    sw.add_argument("--quiet", action="store_true")
    sw.set_defaults(func=cmd_sweep)

    th = sub.add_parser("theory", help="evaluate closed-form curves only")
    common(th)
    th.add_argument("--points", default=None, help="start:stop:step or comma list")
    th.add_argument("--out", default="out", help="output directory")
    th.add_argument("--quiet", action="store_true")
    th.set_defaults(func=cmd_theory)

    sg = sub.add_parser("single", help="verbose dump of one trial")
    common(sg)
    sg.add_argument("--trial", type=int, default=0)
    sg.add_argument("--value", type=float, default=None, help="axis value for the trial")
    sg.add_argument("--receivers", default=None)
    sg.add_argument("--seed", type=int, default=None, help="master seed (default 1)")
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
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
