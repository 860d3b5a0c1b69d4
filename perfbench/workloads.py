"""The three workloads: the CLI commands of one pass, and the output checks.

Every workload runs the shipped configs.  The seed only picks which
positions are compared with the independent grid oracle in
``tests/oracles.py``; the commands themselves take no random input.

Checks run after the timed region.  They never compare bytes with output
of an earlier version of the package, because a deliberate change in the 9th
digit is allowed; they compare outputs of one run with each other, with the
oracle, and with plan and threshold values frozen within the package's own
bisection tolerances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CELL_CONFIG = "src/thzsecmap/configs/scenario1_cell.json"
DIRECTED_CONFIG = "src/thzsecmap/configs/scenario2_directed.json"

# Same values as planner.L_BISECTION_TOL_BITS and secmap.THRESHOLD_RADIUS_TOL_M.
L_BISECTION_TOL_BITS = 1e-6
THRESHOLD_RADIUS_TOL_M = 0.01
# The 9-significant-digit text exports hold a value to half a unit in the 9th digit.
TEXT_REL_HALF_UNIT = 5e-9

# Frozen from the package at its first benchmarked version.
CELL_L_BITS = 0.9235694659206515
CELL_C_AB_BITS = 1.2607010382089314
CELL_R_E0_M = 9.657379653886077  # delta = 1e-3
CELL_SWEEP_N = {  # n -> (L bits, r_E0 m)
    500: (0.772493493024585, 12.139400052737027),
    2000: (0.9235694659206515, 9.657379653886077),
    8000: (0.9939505024739805, 8.799570904141554),
}
DIRECTED_SWEEP_D_AB = {  # d_AB m -> (L bits, area cells with delta > 0.5 of 256)
    5: (3.1186663663114427, 2),
    10: (2.395129657848078, 4),
    15: (1.7626379154736107, 6),
    20: (1.2873131936131357, 12),
    25: (0.9407988191129399, 28),
    30: (0.6879753021748622, 42),
}

MAP_RESOLUTION_M = 2.0
MAP_SIDE = 31  # 60 m room at 2.0 m, fencepost count
AREA_RESOLUTION_M = 4.0
DIRECTED_AREA_CELLS = 16 * 16  # 60 m room at 4.0 m
RADIAL_STEPS = 121
MAP_ORACLE_SAMPLES = 8
RADIAL_ORACLE_SAMPLES = 4


@dataclass
class CommandResult:
    label: str
    out: Path  # the command's --out directory
    code: int
    stderr: str


class CheckError(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    _require(bool(lines), f"{path.name} is empty")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _delta(text: str) -> float:
    value = float(text)
    _require(math.isfinite(value) and 0.0 <= value <= 1.0, f"delta {text} not finite in [0, 1]")
    return value


def _close(value: float, expected: float, tol: float, what: str) -> None:
    _require(abs(value - expected) <= tol, f"{what} = {value!r}, expected {expected!r} +- {tol:g}")


def _metadata(out: Path, command: str) -> dict:
    with open(out / f"{command}_metadata.json") as f:
        return json.load(f)


class Oracle:
    """Security level at an eavesdropper position from the test oracles.

    The link is rebuilt in decibels from the config (``oracles.snr_db_budget``),
    and the bound is minimized by the brute-force grid search, so neither
    shares a code path with the package's link arithmetic or its optimizer.
    Only the antenna pattern comes from the package.
    """

    def __init__(self, oracles, antenna_module, config_path: Path, run_config):
        with open(config_path) as f:
            doc = json.load(f)
        self.oracles = oracles
        self.pattern_gain = antenna_module.pattern_gain
        self.alice = run_config.scenario.alice
        env = doc["environment"]
        self.freq_hz = env["carrier_frequency_ghz"] * 1e9
        self.bw_hz = env["bandwidth_ghz"] * 1e9
        self.temp_k = env["temperature_k"]
        self.nf_db = env["noise_figure_db"]
        self.tx_dbm = 10.0 * math.log10(doc["power"]["transmit_mw"])
        self.eve_dbi = doc["antennas"]["eve"]["gain_dbi"]
        self.height_m = doc["scenario"]["height_difference_m"]
        self.n = doc["code"]["n"]

    def agrees(self, x: float, y: float, delta_text: str, l_bits: float) -> bool:
        """Whether a printed delta at (x, y) matches the oracle, up to its printed digits."""
        radius = math.hypot(x, y)
        distance = math.hypot(radius, self.height_m)
        theta = math.atan2(radius, self.height_m)  # transmitter points straight down
        g_tx_dbi = 10.0 * math.log10(self.pattern_gain(self.alice, theta))
        snr_db = self.oracles.snr_db_budget(self.tx_dbm, g_tx_dbi, self.eve_dbi, self.freq_hz,
                                            distance, self.temp_k, self.bw_hz, self.nf_db)
        snr = 10.0 ** (snr_db / 10.0)
        c_bits = math.log2(1.0 + snr)
        rho = math.sqrt(snr / (1.0 + snr))
        grid = self.oracles.grid_min_log_security(self.n, c_bits, l_bits, rho)
        printed = _delta(delta_text)
        if grid is None:  # L <= C_E: the bound is vacuous
            return printed == 1.0
        # any value that prints as delta_text is what the program may have computed
        half = printed * TEXT_REL_HALF_UNIT
        nearest = min(max(math.exp(min(grid[1], 0.0)), printed - half), printed + half)
        _, ok, _ = self.oracles.compare_to_grid_oracle(min(nearest, 1.0), grid)
        return ok


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    unit_name: str  # what work_per_s counts
    units_per_pass: int
    commands: Callable  # (out_dir, threads) -> [(label, argv)], one pass
    checks: dict  # label -> check(result), raising CheckError
    oracle_checks: dict  # label -> check(result, oracle, rng), run on the first pass only
    compared_files: dict  # label -> files every later pass must reproduce byte for byte
    pool_comparison: bool = False


def _map_commands(out: Path, threads: int):
    return [("map", ["map", "--config", CELL_CONFIG, "--resolution", str(MAP_RESOLUTION_M),
                     "--threads", str(threads), "--out", str(out / "map")])]


def _check_map(result: CommandResult) -> None:
    meta = _metadata(result.out, "map")["run"]
    _close(meta["plan"]["randomness_bits"], CELL_L_BITS, L_BISECTION_TOL_BITS, "map plan L")
    nx, ny = meta["map"]["nx"], meta["map"]["ny"]
    _require((nx, ny) == (MAP_SIDE, MAP_SIDE),
             f"map grid {nx}x{ny}, expected {MAP_SIDE}x{MAP_SIDE}")
    header, rows = _read_csv(result.out / "map.csv")
    _require(header == ["x_m", "y_m", "delta"], f"map.csv header {header}")
    _require(len(rows) == nx * ny, f"map.csv has {len(rows)} rows, expected {nx * ny}")
    for row in rows:
        _require(len(row) == 3, f"map.csv row {row}")
        _delta(row[2])
    # row-major over (y, x): rows[iy * nx + ix]
    xs = [float(rows[ix][0]) for ix in range(nx)]
    ys = [float(rows[iy * nx][1]) for iy in range(ny)]
    _require(xs == ys and all(x == -xs[nx - 1 - i] for i, x in enumerate(xs)),
             "map axes are not symmetric")
    text = [[rows[iy * nx + ix][2] for ix in range(nx)] for iy in range(ny)]
    for iy in range(ny):
        for ix in range(nx):
            _require(text[iy][ix] == text[iy][nx - 1 - ix] == text[ny - 1 - iy][ix] == text[ix][iy],
                     f"map text is not symmetric at ix={ix}, iy={iy}")


def _oracle_map(result: CommandResult, oracle: Oracle, rng) -> None:
    _, rows = _read_csv(result.out / "map.csv")
    l_bits = _metadata(result.out, "map")["run"]["plan"]["randomness_bits"]
    for x, y, delta in rng.sample(rows, MAP_ORACLE_SAMPLES):
        _require(oracle.agrees(float(x), float(y), delta, l_bits),
                 f"map delta {delta} at ({x}, {y}) disagrees with the grid oracle")


def _directed_sweep_commands(out: Path, threads: int):
    values = ",".join(str(v) for v in DIRECTED_SWEEP_D_AB)
    return [("sweep", ["sweep", "--config", DIRECTED_CONFIG, "--variable", "d_AB",
                       "--values", values, "--area-resolution", str(AREA_RESOLUTION_M),
                       "--out", str(out / "sweep")])]


def _check_directed_sweep(result: CommandResult) -> None:
    header, rows = _read_csv(result.out / "sweep.csv")
    _require(len(rows) == len(DIRECTED_SWEEP_D_AB), f"sweep.csv has {len(rows)} rows")
    for row, (d_ab, (l_bits, insecure_cells)) in zip(rows, DIRECTED_SWEEP_D_AB.items()):
        cell = dict(zip(header, row))
        _require(cell["variable"] == "d_AB" and float(cell["value"]) == d_ab,
                 f"sweep row {row} is not d_AB = {d_ab}")
        _require(cell["feasible"] == "true", f"sweep row d_AB = {d_ab} infeasible")
        _close(float(cell["l_bits"]), l_bits, L_BISECTION_TOL_BITS, f"sweep L at d_AB = {d_ab}")
        fraction = insecure_cells / DIRECTED_AREA_CELLS
        _close(float(cell["insecure_fraction"]), fraction, fraction * TEXT_REL_HALF_UNIT,
               f"insecure fraction at d_AB = {d_ab}")


def _plan_cell_commands(out: Path, threads: int):
    def cmd(*args):
        return [*args, "--config", CELL_CONFIG, "--out", str(out / args[0])]
    values = ",".join(str(v) for v in CELL_SWEEP_N)
    return [
        ("plan", cmd("plan")),
        ("link", cmd("link")),
        ("threshold", cmd("threshold", "--delta", "1e-3")),
        ("radial", cmd("radial", "--steps", str(RADIAL_STEPS))),
        ("sweep", cmd("sweep", "--variable", "n", "--values", values)),
    ]


def _check_plan(result: CommandResult) -> None:
    plan = _metadata(result.out, "plan")["run"]["plan"]
    _close(plan["randomness_bits"], CELL_L_BITS, L_BISECTION_TOL_BITS, "plan L")
    _close(plan["c_ab_bits"], CELL_C_AB_BITS, 1e-9 * CELL_C_AB_BITS, "plan C_AB")


def _check_link(result: CommandResult) -> None:
    link = _metadata(result.out, "link")["run"]["link"]
    _close(link["capacity_bits"], CELL_C_AB_BITS, 1e-9 * CELL_C_AB_BITS, "link capacity")


def _check_threshold(result: CommandResult) -> None:
    threshold = _metadata(result.out, "threshold")["run"]["threshold"]
    _close(threshold["r_e0_m"], CELL_R_E0_M, THRESHOLD_RADIUS_TOL_M, "threshold r_E0")


def _check_radial(result: CommandResult) -> None:
    header, rows = _read_csv(result.out / "radial.csv")
    _require(header == ["r_m", "delta"], f"radial.csv header {header}")
    _require(len(rows) == RADIAL_STEPS, f"radial.csv has {len(rows)} rows")
    for k, (r, delta) in enumerate(rows):
        _close(float(r), 30.0 * k / (RADIAL_STEPS - 1), 1e-9, "radial radius")
        _delta(delta)


def _oracle_radial(result: CommandResult, oracle: Oracle, rng) -> None:
    _, rows = _read_csv(result.out / "radial.csv")
    l_bits = _metadata(result.out, "radial")["run"]["plan"]["randomness_bits"]
    for r, delta in rng.sample(rows, RADIAL_ORACLE_SAMPLES):
        _require(oracle.agrees(float(r), 0.0, delta, l_bits),
                 f"radial delta {delta} at r = {r} disagrees with the grid oracle")


def _check_cell_sweep(result: CommandResult) -> None:
    header, rows = _read_csv(result.out / "sweep.csv")
    _require(len(rows) == len(CELL_SWEEP_N), f"sweep.csv has {len(rows)} rows")
    for row, (n, (l_bits, r_e0)) in zip(rows, CELL_SWEEP_N.items()):
        cell = dict(zip(header, row))
        _require(cell["variable"] == "n" and float(cell["value"]) == n,
                 f"sweep row {row} is not n = {n}")
        _close(float(cell["l_bits"]), l_bits, L_BISECTION_TOL_BITS, f"sweep L at n = {n}")
        _close(float(cell["r_e0_m"]), r_e0, THRESHOLD_RADIUS_TOL_M, f"sweep r_E0 at n = {n}")


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="map-cell",
            config=CELL_CONFIG, unit_name="grid points", units_per_pass=MAP_SIDE * MAP_SIDE,
            commands=_map_commands, checks={"map": _check_map},
            oracle_checks={"map": _oracle_map},
            compared_files={"map": ("map.csv", "map.pgm")}, pool_comparison=True),
        Workload(
            name="sweep-directed",
            config=DIRECTED_CONFIG, unit_name="sweep rows",
            units_per_pass=len(DIRECTED_SWEEP_D_AB), commands=_directed_sweep_commands,
            checks={"sweep": _check_directed_sweep}, oracle_checks={},
            compared_files={"sweep": ("sweep.csv",)}),
        Workload(
            name="plan-cell",
            config=CELL_CONFIG, unit_name="commands", units_per_pass=5,
            commands=_plan_cell_commands,
            checks={"plan": _check_plan, "link": _check_link, "threshold": _check_threshold,
                    "radial": _check_radial, "sweep": _check_cell_sweep},
            oracle_checks={"radial": _oracle_radial},
            compared_files={"radial": ("radial.csv",), "sweep": ("sweep.csv",)}),
    )
}


def check_commands(workload: Workload, results: list[CommandResult], oracle: Oracle,
                   rng) -> dict[int, str]:
    """Check every command's outputs; return failing command index -> reason.

    Every command must exit 0 and pass its label's check.  The first
    successful command of each label is also compared with the oracle, and
    every later command of that label must reproduce its compared files byte
    for byte.
    """
    failures: dict[int, str] = {}
    reference: dict[str, dict] = {}
    for index, result in enumerate(results):
        if result.code != 0:
            failures[index] = f"{result.label} exited {result.code}: {result.stderr.strip()[-300:]}"
            continue
        try:
            files = {name: (result.out / name).read_bytes()
                     for name in workload.compared_files.get(result.label, ())}
            if result.label in reference:
                for name, data in files.items():
                    _require(data == reference[result.label][name],
                             f"{result.label}/{name} differs from the first {result.label}")
            workload.checks[result.label](result)
            if result.label not in reference:
                oracle_check = workload.oracle_checks.get(result.label)
                if oracle_check is not None:
                    oracle_check(result, oracle, rng)
                reference[result.label] = files
        except (CheckError, OSError, ValueError, KeyError) as exc:
            failures[index] = f"{result.label}: {type(exc).__name__}: {exc}"
    return failures
