"""Command-line front end: config parsing, subcommand dispatch, file output.

Subcommands: ``plan``, ``map``, ``radial``, ``threshold``, ``sweep``, and
``link`` (single-link diagnostic).  Every run writes a metadata JSON next to
its data files; that metadata is itself a valid config and reproduces the
same outputs when fed back through ``--config``.  There is no randomness
anywhere, so outputs are deterministic for a given config.

Exit codes: 0 success, 1 I/O failure, 2 invalid input (config, command
arguments, or a radial profile the threshold search cannot resolve),
3 infeasible plan.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__, planner
from .antenna import Antenna, beamwidth_from_gain
from .errors import ConfigError, InfeasiblePlanError, ProfileError
from .geometry import CELL, DIRECTED, ScenarioConfig
from .linkmodel import RadioEnvironment, link_budget, ratio_to_db, watts_to_dbm
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
DEFAULT_TX_POWER_MW = {CELL: 9.0, DIRECTED: 0.5}


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration in internal units."""

    scenario: ScenarioConfig
    n: int
    rate_bits: float
    phi_target: float
    output_dir: str
    raw: dict  # resolved document in config units, re-emitted as metadata


def _require(section: dict, path: str, key: str):
    if key not in section:
        raise ConfigError(f"missing required key {path}.{key}")
    return section[key]


def _reject_unknown(section: dict, path: str, allowed: set[str]) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}")


def _number(value, path: str, *, positive: bool = False, nonnegative: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    v = float(value)
    if positive and v <= 0.0:
        raise ConfigError(f"{path} must be positive, got {v}")
    if nonnegative and v < 0.0:
        raise ConfigError(f"{path} must be >= 0, got {v}")
    return v


def _integer(value, path: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path} must be >= {minimum}, got {value}")
    return value


def _antenna(section, path: str) -> Antenna:
    if not isinstance(section, dict):
        raise ConfigError(f"{path} must be an object")
    _reject_unknown(section, path,
                    {"gain_dbi", "kappa_deg2", "min_relative_gain_db", "beamwidth_override_deg"})
    gain = _number(_require(section, path, "gain_dbi"), f"{path}.gain_dbi", nonnegative=True)
    kwargs = {}
    if section.get("kappa_deg2") is not None:
        kwargs["kappa_deg2"] = _number(section["kappa_deg2"], f"{path}.kappa_deg2", positive=True)
    if section.get("min_relative_gain_db") is not None:
        kwargs["min_relative_gain_db"] = _number(section["min_relative_gain_db"],
                                                 f"{path}.min_relative_gain_db")
    if section.get("beamwidth_override_deg") is not None:
        kwargs["beamwidth_override_deg"] = _number(section["beamwidth_override_deg"],
                                                   f"{path}.beamwidth_override_deg", positive=True)
    try:
        return Antenna(gain_dbi=gain, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path) -> RunConfig:
    """Load and strictly validate a run configuration JSON file."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return parse_config(doc)


def parse_config(doc: dict) -> RunConfig:
    _reject_unknown(doc, "config",
                    {"environment", "antennas", "scenario", "code", "power", "output", "run"})

    env_doc = _require(doc, "config", "environment")
    _reject_unknown(env_doc, "environment",
                    {"carrier_frequency_ghz", "bandwidth_ghz", "temperature_k", "noise_figure_db"})
    try:
        environment = RadioEnvironment(
            carrier_frequency_hz=_number(_require(env_doc, "environment", "carrier_frequency_ghz"),
                                         "environment.carrier_frequency_ghz", positive=True) * 1e9,
            bandwidth_hz=_number(_require(env_doc, "environment", "bandwidth_ghz"),
                                 "environment.bandwidth_ghz", positive=True) * 1e9,
            temperature_k=_number(_require(env_doc, "environment", "temperature_k"),
                                  "environment.temperature_k", positive=True),
            noise_figure_db=_number(_require(env_doc, "environment", "noise_figure_db"),
                                    "environment.noise_figure_db", nonnegative=True),
        )
    except ValueError as exc:
        raise ConfigError(f"environment: {exc}") from exc

    ant_doc = _require(doc, "config", "antennas")
    _reject_unknown(ant_doc, "antennas", {"alice", "bob", "eve"})
    alice = _antenna(_require(ant_doc, "antennas", "alice"), "antennas.alice")
    bob = _antenna(_require(ant_doc, "antennas", "bob"), "antennas.bob")
    eve = _antenna(_require(ant_doc, "antennas", "eve"), "antennas.eve")

    sc_doc = _require(doc, "config", "scenario")
    _reject_unknown(sc_doc, "scenario",
                    {"variant", "room_extent_m", "height_difference_m", "horizontal_distance_m",
                     "receiver_height_m"})
    variant = _require(sc_doc, "scenario", "variant")
    if variant not in (CELL, DIRECTED):
        raise ConfigError(f"scenario.variant must be 'cell' or 'directed', got {variant!r}")
    extent = sc_doc.get("room_extent_m", [60.0, 60.0])
    if (not isinstance(extent, (list, tuple)) or len(extent) != 2):
        raise ConfigError("scenario.room_extent_m must be a [x, y] pair of meters")
    room_extent = (_number(extent[0], "scenario.room_extent_m[0]", positive=True),
                   _number(extent[1], "scenario.room_extent_m[1]", positive=True))
    height = _number(_require(sc_doc, "scenario", "height_difference_m"),
                     "scenario.height_difference_m", positive=True)
    horizontal = sc_doc.get("horizontal_distance_m")
    if variant == DIRECTED and horizontal is None:
        raise ConfigError("missing required key scenario.horizontal_distance_m (directed variant)")
    if horizontal is not None:
        horizontal = _number(horizontal, "scenario.horizontal_distance_m", positive=True)
    receiver_height = _number(sc_doc.get("receiver_height_m", 1.0),
                              "scenario.receiver_height_m", nonnegative=True)

    code_doc = _require(doc, "config", "code")
    _reject_unknown(code_doc, "code", {"n", "rate_bits", "phi_target"})
    n = _integer(_require(code_doc, "code", "n"), "code.n")
    rate_bits = _number(_require(code_doc, "code", "rate_bits"), "code.rate_bits", positive=True)
    phi_target = _number(_require(code_doc, "code", "phi_target"), "code.phi_target")
    if not 0.0 < phi_target < 1.0:
        raise ConfigError(f"code.phi_target must lie in (0, 1), got {phi_target}")

    power_doc = doc.get("power", {})
    _reject_unknown(power_doc, "power", {"transmit_mw"})
    tx_mw = power_doc.get("transmit_mw", DEFAULT_TX_POWER_MW[variant])
    tx_mw = _number(tx_mw, "power.transmit_mw", positive=True)

    out_doc = doc.get("output", {})
    _reject_unknown(out_doc, "output", {"dir"})
    out_dir = out_doc.get("dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("output.dir must be a non-empty string")

    try:
        scenario = ScenarioConfig(
            variant=variant,
            environment=environment,
            alice=alice,
            bob=bob,
            eve=eve,
            transmit_power_w=tx_mw * 1e-3,
            height_difference_m=height,
            horizontal_distance_m=horizontal,
            room_extent_m=room_extent,
            receiver_height_m=receiver_height,
        )
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc

    raw = {
        "environment": {
            "carrier_frequency_ghz": environment.carrier_frequency_hz / 1e9,
            "bandwidth_ghz": environment.bandwidth_hz / 1e9,
            "temperature_k": environment.temperature_k,
            "noise_figure_db": environment.noise_figure_db,
        },
        "antennas": {
            "alice": _antenna_dict(alice),
            "bob": _antenna_dict(bob),
            "eve": _antenna_dict(eve),
        },
        "scenario": {
            "variant": variant,
            "room_extent_m": [room_extent[0], room_extent[1]],
            "height_difference_m": height,
            "horizontal_distance_m": horizontal,
            "receiver_height_m": receiver_height,
        },
        "code": {"n": n, "rate_bits": rate_bits, "phi_target": phi_target},
        "power": {"transmit_mw": tx_mw},
        "output": {"dir": out_dir},
    }
    return RunConfig(scenario=scenario, n=n, rate_bits=rate_bits, phi_target=phi_target,
                     output_dir=out_dir, raw=raw)


def _antenna_dict(antenna: Antenna) -> dict:
    return {
        "gain_dbi": antenna.gain_dbi,
        "kappa_deg2": antenna.kappa_deg2,
        "min_relative_gain_db": antenna.min_relative_gain_db,
        "beamwidth_override_deg": antenna.beamwidth_override_deg,
    }


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
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def _out_dir(rc: RunConfig, args) -> Path:
    out = Path(args.out) if args.out else Path(rc.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _feasible_plan(rc: RunConfig) -> PlanResult:
    sc = rc.scenario
    return require_feasible(
        planner.plan(sc, rc.n, rc.rate_bits, rc.phi_target, sc.transmit_power_w))


def _cmd_plan(rc: RunConfig, args) -> int:
    out = _out_dir(rc, args)
    plan = _feasible_plan(rc)
    print(f"C_AB: {plan.c_ab_bits:.6g} bit/use (SNR {ratio_to_db(plan.bob_link.snr):.4g} dB)")
    print(f"resolved L: {plan.code.randomness_bits:.6g} bit/use")
    print(f"achieved phi: {plan.achieved_phi:.6g} (target {plan.phi_target:g})")
    _write_metadata(rc, out, "plan", {"plan": plan.to_dict()}, [])
    return 0


def _cmd_link(rc: RunConfig, args) -> int:
    out = _out_dir(rc, args)
    sc = rc.scenario
    if args.distance is not None:
        distance = args.distance
        g_tx = sc.alice.gain_linear
        link = link_budget(sc.transmit_power_w, g_tx, sc.bob.gain_linear, distance,
                           sc.environment)
    else:
        link, distance, g_tx = planner.bob_link(sc, sc.transmit_power_w)
    print(f"distance: {distance:.6g} m")
    print(f"tx gain (effective): {ratio_to_db(g_tx):.6g} dBi, "
          f"beamwidth {beamwidth_from_gain(sc.alice):.6g} deg")
    print(f"received power: {watts_to_dbm(link.received_power_w):.6g} dBm")
    print(f"noise power: {watts_to_dbm(link.noise_power_w):.6g} dBm")
    print(f"SNR: {ratio_to_db(link.snr):.6g} dB")
    print(f"capacity: {link.capacity_bits:.6g} bit/use, rho {link.rho:.6g}")
    _write_metadata(rc, out, "link", {
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
    out = _out_dir(rc, args)
    plan = _feasible_plan(rc)
    threads = args.threads if args.threads else (os.cpu_count() or 1)
    grid = evaluate_map(plan, rc.scenario, args.resolution, threads=threads)
    csv_path = out / "map.csv"
    pgm_path = out / "map.pgm"
    write_map_csv(grid, csv_path)
    write_map_pgm(grid, pgm_path)
    _write_metadata(rc, out, "map", {"plan": plan.to_dict(), "map": grid.metadata},
                    ["map.csv", "map.pgm"])
    print(f"wrote {csv_path} and {pgm_path} ({grid.metadata['nx']}x{grid.metadata['ny']} points)")
    return 0


def _cmd_radial(rc: RunConfig, args) -> int:
    out = _out_dir(rc, args)
    plan = _feasible_plan(rc)
    profile = radial_profile(plan, rc.scenario, args.r_min, args.r_max, args.steps)
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
    out = _out_dir(rc, args)
    plan = _feasible_plan(rc)
    radius = threshold_radius(plan, rc.scenario, args.delta)
    print(f"r_E0: {radius:.4f} m (delta = {args.delta:g})")
    _write_metadata(rc, out, "threshold",
                    {"plan": plan.to_dict(),
                     "threshold": {"delta": args.delta, "r_e0_m": radius}},
                    [])
    return 0


def _cmd_sweep(rc: RunConfig, args) -> int:
    out = _out_dir(rc, args)
    values = []
    for item in args.values.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            values.append(float(item))
        except ValueError as exc:
            raise ConfigError(f"invalid sweep value {item!r}") from exc
    if not values:
        raise ConfigError("sweep requires at least one value")
    rows = sweep(rc.scenario, rc.n, rc.rate_bits, rc.phi_target,
                 rc.scenario.transmit_power_w, args.variable, values,
                 delta_0=args.delta, area_resolution_m=args.area_resolution)
    csv_path = out / "sweep.csv"
    write_sweep_csv(rows, csv_path)
    _write_metadata(rc, out, "sweep",
                    {"sweep": {"variable": args.variable, "values": values,
                               "delta": args.delta}},
                    ["sweep.csv"])
    print(f"wrote {csv_path} ({len(rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thzsecmap",
        description="Secrecy-map planning for line-of-sight THz wiretap links")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run configuration JSON")
        p.add_argument("--out", default=None, help="output directory (overrides output.dir)")

    p = sub.add_parser("plan", help="resolve the randomness rate for the reliability target")
    common(p)

    p = sub.add_parser("link", help="single-link budget diagnostic")
    common(p)
    p.add_argument("--distance", type=float, default=None,
                   help="override path length in meters (full boresight gains)")

    p = sub.add_parser("map", help="security-level map over the room grid")
    common(p)
    p.add_argument("--resolution", type=float, default=DEFAULT_RESOLUTION_M,
                   help="grid spacing in meters (default %(default)s)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes (default: machine parallelism)")

    p = sub.add_parser("radial", help="security level along a radial cut (cell scenario)")
    common(p)
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=30.0)
    p.add_argument("--steps", type=int, default=121)

    p = sub.add_parser("threshold", help="radius where the security level reaches a target")
    common(p)
    p.add_argument("--delta", type=float, default=1e-3)

    p = sub.add_parser("sweep", help="re-plan along one swept variable and tabulate")
    common(p)
    p.add_argument("--variable", required=True, choices=SWEEP_VARIABLES)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--delta", type=float, default=1e-3,
                   help="threshold level for the r_e0 column")
    p.add_argument("--area-resolution", type=float, default=2.0,
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
    args = build_parser().parse_args(argv)
    try:
        rc = load_config(args.config)
        return _COMMANDS[args.command](rc, args)
    except (ValueError, ProfileError) as exc:
        # ConfigError and GeometryError are ValueErrors, as are the library's
        # own argument checks (resolution, delta, steps, swept values)
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
