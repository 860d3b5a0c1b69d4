"""Command-line front end: config parsing, subcommand dispatch, file output.

Subcommands: ``plan``, ``map``, ``radial``, ``threshold``, ``sweep``, and
``link`` (single-link diagnostic).  Every run writes a metadata JSON next to
its data files; that metadata is itself a valid config and reproduces the
same outputs when fed back through ``--config``.  There is no randomness
anywhere, so outputs are deterministic for a given config.

A command only computes: it returns its text, its metadata sections and its
data files by name, each with its writer.  ``run`` alone then creates the
output directory, writes the files and the metadata that lists them, and
prints last.  So a rejected run leaves nothing behind, and a run that fails
to write prints nothing on stdout.

Exit codes: 0 success, 1 I/O failure, 2 invalid input (config, command
arguments, or a security level that never falls below the threshold target
out to 1e6 m), 3 infeasible plan.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from collections import namedtuple
from pathlib import Path

from . import __version__, planner
from .antenna import Antenna, beamwidth_from_gain
from .bounds import MAX_BLOCKLENGTH, blocklength_text
from .errors import ConfigError, InfeasiblePlanError
from .geometry import CELL, DIRECTED, ScenarioConfig
from .linkmodel import RadioEnvironment, link_budget, ratio_to_db, watts_to_dbm
from .planner import PlanResult, require_feasible
from .secmap import (
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


# Resolved run configuration.
RunConfig = namedtuple("RunConfig", [
    "scenario",  # ScenarioConfig
    "n",
    "rate_bits",
    "phi_target",
    "raw",  # validated document, re-emitted as metadata
])


def _got(value) -> str:
    """A refused value for a message: a non-empty string, array or object, which may be
    of any length, by its JSON type; anything else as ``blocklength_text`` prints it."""
    kind = {str: "a string", list: "an array", dict: "an object"}.get(type(value))
    return kind if kind and value else blocklength_text(value)


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {_got(value)}")
    try:
        v = float(value)
    except OverflowError:  # json integers have no size limit
        v = math.inf
    if not math.isfinite(v):  # json parses NaN and Infinity; an integer prints by its digits
        raise ConfigError(f"{path} must be finite, got {_got(value)}")
    return v


def _bounded(holds, requirement: str):
    """A number check that also needs ``holds(v)``: '<path> must <requirement>, got v'."""
    def check(value, path: str) -> float:
        v = _number(value, path)
        if not holds(v):
            raise ConfigError(f"{path} must {requirement}, got {v}")
        return v
    return check


def _blocklength(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {_got(value)}")
    if not 1 <= value <= MAX_BLOCKLENGTH:
        raise ConfigError(f"{path} must lie in [1, 2**53], got {_got(value)}")
    return value


def _extent(value, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{path} must be a [x, y] pair of meters")
    return _number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]")


def _string(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path} must be a non-empty string, got {_got(value)}")
    return value


REQUIRED = object()


# One config key: its check and its default.  A key of a section that _build
# turns into a record is that record's field, in the same units.
_Key = namedtuple("_Key", [
    "check",  # (value, path) -> the validated value
    "default",
], defaults=(REQUIRED,))


_GAIN = {"gain_dbi": _Key(_number)}
_ANTENNA = {
    **_GAIN,
    "min_relative_gain_db": _Key(_number, None),
    "beamwidth_override_deg": _Key(_number, None),
}

# Every config key, once.  A nested dict is a section, required when any key
# in it is; null means absent.  docs/config.md documents the same keys.  The
# records that _build makes check the ranges of the environment, antennas,
# scenario and power keys, so their rows check only the JSON shape.
SCHEMA = {
    "environment": {
        "carrier_frequency_ghz": _Key(_number),
        "bandwidth_ghz": _Key(_number),
        "temperature_k": _Key(_number),
        "noise_figure_db": _Key(_number),
    },
    # Bob and Eve face Alice, so only their boresight gain enters a link
    "antennas": {"alice": _ANTENNA, "bob": _GAIN, "eve": _GAIN},
    "scenario": {
        "variant": _Key(_string),
        "room_extent_m": _Key(_extent, (60.0, 60.0)),
        "height_difference_m": _Key(_number),
        "horizontal_distance_m": _Key(_number, None),  # set in the directed variant alone
    },
    "code": {
        "n": _Key(_blocklength),
        "rate_bits": _Key(_bounded(lambda v: v > 0.0, "be positive")),
        "phi_target": _Key(_bounded(lambda v: 0.0 < v < 1.0, "lie in (0, 1)")),
    },
    # the default depends on the variant: DEFAULT_TX_POWER_MW
    "power": {"transmit_mw": _Key(_number, None)},
    "output": {"dir": _Key(_string, "out")},
    "run": _Key(lambda value, path: None, None),  # written by the CLI, ignored on load
}

# sweep --variable's short names, each for one numeric key of SCHEMA; G_A is Alice's gain alone
SWEEP_ALIASES = {"n": "code.n", "phi_target": "code.phi_target", "R": "code.rate_bits",
                 "G_E": "antennas.eve.gain_dbi", "G_A": "antennas.alice.gain_dbi",
                 "d_AB": "scenario.horizontal_distance_m", "l_AB": "scenario.height_difference_m"}


def _numeric_paths(table: dict = SCHEMA, prefix: str = "") -> list[str]:
    """The dotted path of every numeric key in the table's sections, in table order."""
    paths = []
    for key, row in table.items():
        if isinstance(row, dict):
            paths += _numeric_paths(row, f"{prefix}{key}.")
        elif prefix and row.check not in (_string, _extent):  # run is no section
            paths.append(prefix + key)
    return paths


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
    if raw["power"]["transmit_mw"] is None:
        # NaN for an unknown variant, which ScenarioConfig refuses before the power
        variant = raw["scenario"]["variant"]
        raw["power"]["transmit_mw"] = DEFAULT_TX_POWER_MW.get(variant, math.nan)
    return _build(raw)


def _row(path: str):
    """The SCHEMA row or section at a dotted path."""
    return functools.reduce(dict.__getitem__, path.split("."), SCHEMA)


def _build(raw: dict) -> RunConfig:
    """The records of a validated document, which is left as it is; a refusal names the key.

    Each record takes its sections' keys as its fields.  A refusal that starts with
    one of them gets that key's section prefixed; any other gets its record's section.
    """
    sections = ["environment"]
    try:
        environment = RadioEnvironment(**raw["environment"])
        antennas = {}
        for name, fields in raw["antennas"].items():
            sections = ["antennas." + name]
            antennas[name] = Antenna(**fields)
        sections = ["scenario", "power"]
        scenario = ScenarioConfig(environment=environment, **antennas, **raw["scenario"],
                                  **raw["power"])
    except ValueError as exc:
        message = str(exc)
        first = message.split(" ", 1)[0].rstrip(":")
        for section in sections:
            if first in _row(section):
                raise ConfigError(f"{section}.{message}") from exc
        raise ConfigError(f"{sections[0]}: {message}") from exc
    return RunConfig(scenario=scenario, raw=raw, **raw["code"])


def _replaced(doc: dict, keys: list[str], value) -> dict:
    """A copy of the nested ``doc`` with the key at ``keys`` set to value; it shares the rest."""
    head, *rest = keys
    return {**doc, head: _replaced(doc[head], rest, value) if rest else value}


def sweep_row(rc: RunConfig, path: str):
    """``secmap.sweep``'s row function for the numeric key at ``path``: a value -> the
    scenario, n, rate_bits and phi_target of ``rc`` with that key set to the JSON number
    the value spells (an integral float as an int), checked and built as ``parse_config``
    does, so that every refusal is the config's own and names the key.
    """
    keys = path.split(".")
    check = _row(path).check

    def row(value):
        number = int(value) if isinstance(value, float) and value.is_integer() else value
        built = _build(_replaced(rc.raw, keys, check(number, path)))
        return built.scenario, built.n, built.rate_bits, built.phi_target

    return row


def _feasible_plan(rc: RunConfig) -> PlanResult:
    return require_feasible(planner.plan(rc.scenario, rc.n, rc.rate_bits, rc.phi_target))


def _cmd_plan(rc: RunConfig, args) -> tuple[str, dict, dict]:
    plan = _feasible_plan(rc)
    return (f"C_AB: {plan.c_ab_bits:.6g} bit/use (SNR {ratio_to_db(plan.bob_link.snr):.4g} dB)\n"
            f"resolved L: {plan.code.randomness_bits:.6g} bit/use\n"
            f"achieved phi: {plan.achieved_phi:.6g} (target {plan.phi_target!r})",
            {"plan": plan.to_dict()}, {})


def _cmd_link(rc: RunConfig, args) -> tuple[str, dict, dict]:
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
    text = (f"distance: {distance:.6g} m\n"
            f"tx gain (effective): {ratio_to_db(g_tx):.6g} dBi, "
            f"beamwidth {beamwidth_from_gain(sc.alice):.6g} deg\n"
            f"received power: {watts_to_dbm(link.received_power_w):.6g} dBm\n"
            f"noise power: {watts_to_dbm(link.noise_power_w):.6g} dBm\n"
            f"SNR: {ratio_to_db(link.snr):.6g} dB\n"
            f"capacity: {link.capacity_bits:.6g} bit/use, rho {link.rho:.6g}")
    return text, {"link": {
        "distance_m": distance,
        "received_power_w": link.received_power_w,
        "noise_power_w": link.noise_power_w,
        "snr": link.snr,
        "capacity_bits": link.capacity_bits,
        "rho": link.rho,
    }}, {}


def _cmd_map(rc: RunConfig, args) -> tuple[str, dict, dict]:
    plan = _feasible_plan(rc)
    grid = evaluate_map(plan, rc.scenario, args.resolution)
    nx, ny = len(grid.xs), len(grid.ys)
    return (f"{nx}x{ny} points",
            {"plan": plan.to_dict(),
             "map": {"resolution_m": args.resolution, "nx": nx, "ny": ny,
                     "origin_m": [grid.xs[0], grid.ys[0]]}},
            {"map.csv": functools.partial(write_map_csv, grid),
             "map.pgm": functools.partial(write_map_pgm, grid)})


def _cmd_radial(rc: RunConfig, args) -> tuple[str, dict, dict]:
    plan = _feasible_plan(rc)
    profile = radial_profile(plan, rc.scenario, args.r_min, args.r_max, args.steps)
    return (f"{args.steps} radii",
            {"plan": plan.to_dict(),
             "radial": {"r_min_m": args.r_min, "r_max_m": args.r_max, "steps": args.steps}},
            {"radial.csv": functools.partial(write_profile_csv, profile)})


def _cmd_threshold(rc: RunConfig, args) -> tuple[str, dict, dict]:
    plan = _feasible_plan(rc)
    radius = threshold_radius(plan, rc.scenario, args.delta)
    return (f"r_E0: {radius:.4f} m (delta = {args.delta!r})",
            {"plan": plan.to_dict(), "threshold": {"delta": args.delta, "r_e0_m": radius}}, {})


def _cmd_sweep(rc: RunConfig, args) -> tuple[str, dict, dict]:
    path = SWEEP_ALIASES.get(args.variable, args.variable)
    rows = sweep(rc.scenario, args.variable, args.values, sweep_row(rc, path),
                 delta_0=args.delta, area_resolution_m=args.area_resolution)
    return (f"{len(rows)} rows",
            {"sweep": {"variable": args.variable, "values": args.values, "delta": args.delta,
                       "area_resolution_m": args.area_resolution}},
            {"sweep.csv": functools.partial(write_sweep_csv, rows)})


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a bad command line as a ValueError, so ``run`` reports it in one
    line with exit 2 instead of argparse's usage block.  An argument that starts
    with a minus and a digit, a point, ``inf`` or ``nan`` is a value, not an
    option: argparse takes only ``-30`` and ``-.5`` forms, not ``-1e1`` or ``-inf``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:[\d.]|inf|nan)", re.IGNORECASE)

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

    p = sub.add_parser("sweep", help="re-plan along one swept config key and tabulate")
    common(p)
    aliases = ", ".join(f"{name} = {path}" for name, path in SWEEP_ALIASES.items())
    p.add_argument("--variable", required=True, choices=[*SWEEP_ALIASES, *_numeric_paths()],
                   metavar="KEY", help="a numeric config key by its dotted path, e.g. "
                   f"power.transmit_mw, or a short name for one: {aliases}; G_A moves "
                   "Alice's gain only")
    p.add_argument("--values", type=_float_list, required=True,
                   help="comma-separated values")
    p.add_argument("--delta", type=_finite_float, default=1e-3,
                   help="threshold level for the r_e0 column")
    p.add_argument("--area-resolution", type=_finite_float, default=2.0,
                   help="grid spacing for the insecure-area column (directed)")

    return parser


# Each command returns its text, its sections of the metadata's ``run`` and its
# outputs: file name -> a writer of that file, called with its path.
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

    Only once the command has its results does this create the output directory,
    write each output and the metadata that lists them, and then print.
    Every run in a process shares the parser that ``build_parser`` built first.
    """
    try:
        args = build_parser().parse_args(argv)
        rc = load_config(args.config)
        text, sections, outputs = _COMMANDS[args.command](rc, args)
        out = Path(args.out if args.out is not None else rc.raw["output"]["dir"])
        out.mkdir(parents=True, exist_ok=True)
        for name, write in outputs.items():
            write(out / name)
        doc = {**rc.raw, "output": {"dir": str(out)}, "run": {
            "command": args.command, "version": __version__, "outputs": list(outputs),
            **sections}}
        with open(out / f"{args.command}_metadata.json", "w") as f:
            f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        if outputs:
            text = f"wrote {' and '.join(str(out / name) for name in outputs)} ({text})"
        print(text)
        return 0
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
