"""Command-line front end: config parsing, subcommand dispatch, file output.

Subcommands: ``plan``, ``map``, ``radial``, ``threshold``, ``sweep``, and
``link`` (single-link diagnostic).  Every run writes a metadata JSON next to
its data files; that metadata is itself a valid config and reproduces the
same outputs when fed back through ``--config``.  There is no randomness
anywhere, so outputs are deterministic for a given config.

Exit codes: 0 success, 1 I/O failure, 2 invalid input (config, command
arguments, or a security level that never falls below the threshold target
out to 1e6 m), 3 infeasible plan.  A command creates its output directory
only once it has results to write, so a rejected run leaves nothing behind.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import namedtuple
from pathlib import Path

from . import __version__, planner
from .antenna import Antenna, beamwidth_from_gain
from .bounds import MAX_BLOCKLENGTH, blocklength_text
from .errors import ConfigError, InfeasiblePlanError
from .geometry import CELL, DIRECTED, VARIANTS, ScenarioConfig
from .linkmodel import RadioEnvironment, db_to_ratio, link_budget, ratio_to_db, watts_to_dbm
from .planner import PlanResult, require_feasible
from .secmap import (
    SWEEP_VARIABLES,
    evaluate_map,
    radial_profile,
    sweep,
    threshold_radius,
    write_map_csv,
    write_map_pgm,
    write_profile_csv,
    write_sweep_csv,
)

DEFAULT_RESOLUTION_M = 0.25
MAX_INT_DIGITS = 4300  # Python's default limit on converting text to int
DEFAULT_TX_POWER_MW = {CELL: 9.0, DIRECTED: 0.5}


# Resolved run configuration in internal units.
RunConfig = namedtuple("RunConfig", [
    "scenario",  # ScenarioConfig
    "n",
    "rate_bits",
    "phi_target",
    "output_dir",
    "raw",  # validated document in config units, re-emitted as metadata
])


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # json integers have no size limit
        v = math.inf
    if not math.isfinite(v):  # json parses NaN and Infinity
        raise ConfigError(f"{path} must be finite, got {value}")
    return v


def _bounded(holds, requirement: str):
    """A number check that also needs ``holds(v)``: '<path> must <requirement>, got v'."""
    def check(value, path: str) -> float:
        v = _number(value, path)
        if not holds(v):
            raise ConfigError(f"{path} must {requirement}, got {v}")
        return v
    return check


_positive = _bounded(lambda v: v > 0.0, "be positive")
_nonnegative = _bounded(lambda v: v >= 0.0, "be >= 0")


def _decibels(check):
    """``check``, then refuse a decibel value whose linear ratio overflows."""
    def decibel_check(value, path: str) -> float:
        v = check(value, path)
        try:
            db_to_ratio(v)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        return v
    return decibel_check


def _blocklength(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    if not 1 <= value <= MAX_BLOCKLENGTH:
        raise ConfigError(f"{path} must lie in [1, 2**53], got {blocklength_text(value)}")
    return value


def _variant(value, path: str) -> str:
    if value not in VARIANTS:
        raise ConfigError(f"{path} must be 'cell' or 'directed', got {value!r}")
    return value


def _extent(value, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path} must be a [x, y] pair of meters")
    return _positive(value[0], f"{path}[0]"), _positive(value[1], f"{path}[1]")


def _directory(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path} must be a non-empty string")
    return value


REQUIRED = object()


# One config key: its check, its default, and how it maps to internal units.
_Key = namedtuple("_Key", [
    "check",  # (value, path) -> the validated value in config units
    "default",
    "field",  # keyword of the internal object, when not the key
    "scale",  # factor from the config unit to the internal one
], defaults=(REQUIRED, None, None))


_GAIN = {"gain_dbi": _Key(_decibels(_nonnegative))}
_ANTENNA = {
    **_GAIN,
    "min_relative_gain_db": _Key(_decibels(_number), None),
    "beamwidth_override_deg": _Key(_positive, None),
}

# Every config key, once.  A nested dict is a section, required when any key
# in it is; null means absent.  docs/config.md documents the same keys.
SCHEMA = {
    "environment": {
        "carrier_frequency_ghz": _Key(_positive, field="carrier_frequency_hz", scale=1e9),
        "bandwidth_ghz": _Key(_positive, field="bandwidth_hz", scale=1e9),
        "temperature_k": _Key(_positive),
        "noise_figure_db": _Key(_decibels(_nonnegative)),
    },
    # Bob and Eve face Alice, so only their boresight gain enters a link
    "antennas": {"alice": _ANTENNA, "bob": _GAIN, "eve": _GAIN},
    "scenario": {
        "variant": _Key(_variant),
        "room_extent_m": _Key(_extent, (60.0, 60.0)),
        "height_difference_m": _Key(_positive),
        "horizontal_distance_m": _Key(_positive, None),  # required by the directed variant
    },
    "code": {
        "n": _Key(_blocklength),
        "rate_bits": _Key(_positive),
        "phi_target": _Key(_bounded(lambda v: 0.0 < v < 1.0, "lie in (0, 1)")),
    },
    # the default depends on the variant: DEFAULT_TX_POWER_MW
    "power": {"transmit_mw": _Key(_positive, None, field="transmit_power_w", scale=1e-3)},
    "output": {"dir": _Key(_directory, "out", field="output_dir")},
    "run": _Key(lambda value, path: None, None),  # written by the CLI, ignored on load
}


def _required(row) -> bool:
    if isinstance(row, dict):
        return any(_required(sub) for sub in row.values())
    return row.default is REQUIRED


def _walk(table: dict, section, path: str) -> dict:
    """Validate one section against its table and fill in the defaults."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be an object")
    for key in section:
        if key not in table:
            raise ConfigError(f"unknown key {path}.{key}")
    out = {}
    for key, row in table.items():
        where = key if table is SCHEMA else f"{path}.{key}"
        value = section.get(key)
        if value is None and _required(row):
            raise ConfigError(f"missing required key {path}.{key}")
        if isinstance(row, dict):
            out[key] = _walk(row, {} if value is None else value, where)
        else:
            out[key] = row.default if value is None else row.check(value, where)
    return out


def _fields(table: dict, section: dict) -> dict:
    """A validated section as keyword arguments in internal units."""
    return {row.field or key: section[key] if row.scale is None else section[key] * row.scale
            for key, row in table.items()}


def load_config(path) -> RunConfig:
    """Load and strictly validate a run configuration JSON file."""
    def parse_int(text: str) -> int:
        # int() refuses longer literals with a message that names no file
        digits = len(text.lstrip("-"))
        if digits > MAX_INT_DIGITS:
            raise ConfigError(f"{path}: an integer of {digits} digits exceeds the limit of "
                              f"{MAX_INT_DIGITS}")
        return int(text)

    try:
        with open(path) as f:
            doc = json.load(f, parse_int=parse_int)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return parse_config(doc)


def parse_config(doc: dict) -> RunConfig:
    raw = _walk(SCHEMA, doc, "config")
    sc = raw["scenario"]
    if sc["variant"] == DIRECTED and sc["horizontal_distance_m"] is None:
        raise ConfigError("missing required key scenario.horizontal_distance_m (directed variant)")
    if raw["power"]["transmit_mw"] is None:
        raw["power"]["transmit_mw"] = DEFAULT_TX_POWER_MW[sc["variant"]]
    environment = RadioEnvironment(**_fields(SCHEMA["environment"], raw["environment"]))
    antennas = {}
    for name, section in raw["antennas"].items():
        try:
            antennas[name] = Antenna(**section)
        except ValueError as exc:  # its messages start with the field name
            raise ConfigError(f"antennas.{name}.{exc}") from exc
    try:
        scenario = ScenarioConfig(environment=environment, **antennas,
                                  **_fields(SCHEMA["scenario"], sc),
                                  **_fields(SCHEMA["power"], raw["power"]))
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc
    return RunConfig(scenario=scenario, raw=raw, **_fields(SCHEMA["code"], raw["code"]),
                     **_fields(SCHEMA["output"], raw["output"]))


def _write_metadata(rc: RunConfig, out_dir: Path, command: str, extra: dict,
                    outputs: list[str]) -> Path:
    doc = dict(rc.raw)
    doc["output"] = {"dir": str(out_dir)}
    doc["run"] = {
        "command": command,
        "version": __version__,
        "outputs": outputs,
        **extra,
    }
    path = out_dir / f"{command}_metadata.json"
    with open(path, "w") as f:
        f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _out_dir(rc: RunConfig, args) -> Path:
    # called only once the command has results, so a rejected run creates nothing
    out = Path(args.out if args.out is not None else rc.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _feasible_plan(rc: RunConfig) -> PlanResult:
    return require_feasible(planner.plan(rc.scenario, rc.n, rc.rate_bits, rc.phi_target))


def _cmd_plan(rc: RunConfig, args) -> int:
    plan = _feasible_plan(rc)
    print(f"C_AB: {plan.c_ab_bits:.6g} bit/use (SNR {ratio_to_db(plan.bob_link.snr):.4g} dB)")
    print(f"resolved L: {plan.code.randomness_bits:.6g} bit/use")
    print(f"achieved phi: {plan.achieved_phi:.6g} (target {plan.phi_target!r})")
    _write_metadata(rc, _out_dir(rc, args), "plan", {"plan": plan.to_dict()}, [])
    return 0


def _cmd_link(rc: RunConfig, args) -> int:
    sc = rc.scenario
    if args.distance is not None:
        distance = args.distance
        g_tx = sc.alice.gain_linear
        link = link_budget(sc.transmit_power_w, g_tx, sc.bob.gain_linear, distance,
                           sc.environment)
    else:
        link, distance, g_tx = planner.bob_link(sc)
    if link.received_power_w == 0.0:
        raise ValueError(f"received power underflows to 0 W at {distance} m")
    # one print of text formatted in full, so a value that cannot be shown prints nothing
    print(f"distance: {distance:.6g} m\n"
          f"tx gain (effective): {ratio_to_db(g_tx):.6g} dBi, "
          f"beamwidth {beamwidth_from_gain(sc.alice):.6g} deg\n"
          f"received power: {watts_to_dbm(link.received_power_w):.6g} dBm\n"
          f"noise power: {watts_to_dbm(link.noise_power_w):.6g} dBm\n"
          f"SNR: {ratio_to_db(link.snr):.6g} dB\n"
          f"capacity: {link.capacity_bits:.6g} bit/use, rho {link.rho:.6g}")
    _write_metadata(rc, _out_dir(rc, args), "link", {
        "link": {
            "distance_m": distance,
            "received_power_w": link.received_power_w,
            "noise_power_w": link.noise_power_w,
            "snr": link.snr,
            "capacity_bits": link.capacity_bits,
            "rho": link.rho,
        }}, [])
    return 0


def _cmd_map(rc: RunConfig, args) -> int:
    plan = _feasible_plan(rc)
    grid = evaluate_map(plan, rc.scenario, args.resolution)
    out = _out_dir(rc, args)
    csv_path = out / "map.csv"
    pgm_path = out / "map.pgm"
    write_map_csv(grid, csv_path)
    write_map_pgm(grid, pgm_path)
    _write_metadata(rc, out, "map", {"plan": plan.to_dict(), "map": grid.metadata},
                    ["map.csv", "map.pgm"])
    print(f"wrote {csv_path} and {pgm_path} ({grid.metadata['nx']}x{grid.metadata['ny']} points)")
    return 0


def _cmd_radial(rc: RunConfig, args) -> int:
    plan = _feasible_plan(rc)
    profile = radial_profile(plan, rc.scenario, args.r_min, args.r_max, args.steps)
    out = _out_dir(rc, args)
    csv_path = out / "radial.csv"
    write_profile_csv(profile, csv_path)
    _write_metadata(rc, out, "radial",
                    {"plan": plan.to_dict(),
                     "radial": {"r_min_m": args.r_min, "r_max_m": args.r_max,
                                "steps": args.steps}},
                    ["radial.csv"])
    print(f"wrote {csv_path} ({args.steps} radii)")
    return 0


def _cmd_threshold(rc: RunConfig, args) -> int:
    plan = _feasible_plan(rc)
    radius = threshold_radius(plan, rc.scenario, args.delta)
    print(f"r_E0: {radius:.4f} m (delta = {args.delta!r})")
    _write_metadata(rc, _out_dir(rc, args), "threshold",
                    {"plan": plan.to_dict(),
                     "threshold": {"delta": args.delta, "r_e0_m": radius}},
                    [])
    return 0


def _cmd_sweep(rc: RunConfig, args) -> int:
    rows = sweep(rc.scenario, rc.n, rc.rate_bits, rc.phi_target, args.variable, args.values,
                 delta_0=args.delta, area_resolution_m=args.area_resolution)
    out = _out_dir(rc, args)
    csv_path = out / "sweep.csv"
    write_sweep_csv(rows, csv_path)
    _write_metadata(rc, out, "sweep",
                    {"sweep": {"variable": args.variable, "values": args.values,
                               "delta": args.delta,
                               "area_resolution_m": args.area_resolution}},
                    ["sweep.csv"])
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a bad command line as a ValueError, so ``run`` reports it in one
    line with exit 2 instead of argparse's usage block."""

    def error(self, message: str):
        raise ValueError(message)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _directory_name(text: str) -> str:
    if not text:  # as output.dir: Path("") would be the working directory
        raise argparse.ArgumentTypeError("expected a non-empty directory name")
    return text


def _float_list(text: str) -> list[float]:
    values = [_finite_float(item) for item in text.split(",") if item.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one comma-separated value")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every later one.

    Parsing leaves a parser as it was, so one serves every run in a process;
    callers must not add to it.
    """
    parser = _ArgumentParser(
        prog="thzsecmap",
        description="Secrecy-map planning for line-of-sight THz wiretap links")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run configuration JSON")
        p.add_argument("--out", type=_directory_name, default=None,
                       help="output directory (overrides output.dir)")

    p = sub.add_parser("plan", help="resolve the randomness rate for the reliability target")
    common(p)

    p = sub.add_parser("link", help="single-link budget diagnostic")
    common(p)
    p.add_argument("--distance", type=_finite_float, default=None,
                   help="override path length in meters (full boresight gains)")

    p = sub.add_parser("map", help="security-level map over the room grid")
    common(p)
    p.add_argument("--resolution", type=_finite_float, default=DEFAULT_RESOLUTION_M,
                   help="grid spacing in meters (default %(default)s)")
    p.add_argument("--threads", type=_positive_int, default=None,
                   help="at least 1; ignored, since maps run in one process")

    p = sub.add_parser("radial", help="security level along a radial cut (cell scenario)")
    common(p)
    p.add_argument("--r-min", type=_finite_float, default=0.0)
    p.add_argument("--r-max", type=_finite_float, default=30.0)
    p.add_argument("--steps", type=int, default=121)

    p = sub.add_parser("threshold", help="radius where the security level reaches a target")
    common(p)
    p.add_argument("--delta", type=_finite_float, default=1e-3)

    p = sub.add_parser("sweep", help="re-plan along one swept variable and tabulate")
    common(p)
    p.add_argument("--variable", required=True, choices=SWEEP_VARIABLES)
    p.add_argument("--values", type=_float_list, required=True,
                   help="comma-separated values")
    p.add_argument("--delta", type=_finite_float, default=1e-3,
                   help="threshold level for the r_e0 column")
    p.add_argument("--area-resolution", type=_finite_float, default=2.0,
                   help="grid spacing for the insecure-area column (directed)")

    return parser


_COMMANDS = {
    "plan": _cmd_plan,
    "link": _cmd_link,
    "map": _cmd_map,
    "radial": _cmd_radial,
    "threshold": _cmd_threshold,
    "sweep": _cmd_sweep,
}


def run(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when None) and return its exit code.

    Every run in a process shares the parser that ``build_parser`` built first.
    """
    try:
        args = build_parser().parse_args(argv)
        rc = load_config(args.config)
        return _COMMANDS[args.command](rc, args)
    except ValueError as exc:
        # ConfigError, GeometryError and ProfileError are ValueErrors, as are
        # the parser's errors and the library's own argument checks
        # (resolution, delta, steps, swept values)
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except InfeasiblePlanError as exc:
        print(f"infeasible plan: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
