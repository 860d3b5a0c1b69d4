"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import csv
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from oracles import channel_divergence
from conftest import CALIBRATED_BEAMWIDTH_DEG, CALIBRATED_TX_POWER_MW
from thzsecmap import (
    Antenna,
    RadioEnvironment,
    ScenarioConfig,
    SecrecyCode,
    cone_radius,
    evaluate_map,
    insecure_fraction,
    link_budget,
    link_from_snr,
    min_reliability,
    min_security,
    plan_cell,
    radial_profile,
    sweep,
    threshold_radius,
    watts_to_dbm,
)
from thzsecmap import cli, planner
from thzsecmap.secmap import write_map_csv

ROOT = Path(__file__).parent.parent
CELL_CONFIG = ROOT / "src" / "thzsecmap" / "configs" / "scenario1_cell.json"
DIRECTED_CONFIG = ROOT / "src" / "thzsecmap" / "configs" / "scenario2_directed.json"
BEAMWIDTHS_DEG = [30.0, 60.0, 90.0, 128.15, 150.0]


def report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def env():
    return RadioEnvironment(300.0, 1.0, 290.0, 9.0)


@pytest.fixture(scope="module")
def anchor_config(env):
    alice = Antenna(10.0, beamwidth_override_deg=CALIBRATED_BEAMWIDTH_DEG)
    plain = Antenna(10.0)
    return ScenarioConfig(variant="cell", environment=env, alice=alice, bob=plain, eve=plain,
                          transmit_mw=CALIBRATED_TX_POWER_MW, height_difference_m=3.5, n=2000,
                          rate_bits=0.2, phi_target=1e-3)


def test_criterion_1_noise_floor(env):
    dbm = watts_to_dbm(env.noise_power_w)
    ok = abs(dbm - (-74.97)) <= 0.05
    report(1, ok, f"noise floor {dbm:.4f} dBm vs -74.97 dBm (tol 0.05 dB)")


def test_criterion_2_link_budget(env):
    link = link_budget(0.5e-3, 10.0 ** 2.0, 10.0 ** 2.0, math.hypot(15.0, 8.5), env)
    ok = abs(link.capacity_bits - 2.12) <= 0.02
    report(2, ok, f"directed C_AB {link.capacity_bits:.4f} bit/use vs 2.12 (tol 0.02)")


def test_criterion_3_divergence_limits():
    worst_rel = 0.0
    for rho in np.arange(0.1, 0.951, 0.05):
        snr = rho * rho / (1.0 - rho * rho)
        link = link_from_snr(float(snr))
        for alpha in (1.0 - 1e-6, 1.0 + 1e-6):
            err = abs(channel_divergence(alpha, link) - link.capacity_nats) / link.capacity_nats
            worst_rel = max(worst_rel, err)
    rng = np.random.default_rng(3)
    monotone = True
    for _ in range(1000):
        rho = float(rng.uniform(0.05, 0.95))
        link = link_from_snr(rho * rho / (1.0 - rho * rho))
        top = 1.0 + (1.0 - 1e-9) / rho
        a1, a2 = sorted(rng.uniform(0.05, top, size=2))
        if abs(a1 - 1.0) < 1e-9 or abs(a2 - 1.0) < 1e-9 or a1 == a2:
            continue
        if channel_divergence(a2, link) < channel_divergence(a1, link) - 1e-12:
            monotone = False
            break
    ok = worst_rel <= 1e-4 and monotone
    report(3, ok, f"alpha->1 worst rel err {worst_rel:.2e} (tol 1e-4); order-monotone: {monotone}")


def test_criterion_4_optimizer_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240809)
    compared = 0
    worst = 0.0
    all_ok = True
    for _ in range(100):
        n = int(rng.integers(200, 6001))
        snr = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
        link = link_from_snr(snr)
        c = link.capacity_bits
        r_bits = float(rng.uniform(0.05, max(0.06, 0.5 * c)))
        l_bits = float(rng.uniform(0.0, max(1e-3, 0.85 * (c - r_bits))))
        phi, _ = min_reliability(SecrecyCode(n, r_bits, l_bits), link)
        grid = oracles.grid_min_log_reliability(n, c, r_bits, l_bits, link.rho)
        counted, ok, err = oracles.compare_to_grid_oracle(phi, grid)
        all_ok = all_ok and ok
        compared += counted
        worst = max(worst, err)

        snr_e = float(np.exp(rng.uniform(np.log(0.01), np.log(10.0))))
        link_e = link_from_snr(snr_e)
        l2 = float(link_e.capacity_bits + rng.uniform(0.02, 1.5))
        delta, _ = min_security(SecrecyCode(n, 0.2, l2), link_e)
        grid2 = oracles.grid_min_log_security(n, link_e.capacity_bits, l2, link_e.rho)
        counted, ok, err = oracles.compare_to_grid_oracle(delta, grid2)
        all_ok = all_ok and ok
        compared += counted
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = all_ok and worst <= 1e-6 and compared >= 120 and elapsed < 60.0
    report(4, ok, f"{compared} comparisons, worst {worst:.2e} of grid oracle "
                  f"(tol 1e-6), in {elapsed:.1f} s (limit 60 s)")


def test_criterion_5_planner_maximality(env):
    rng = np.random.default_rng(55)
    checked = 0
    while checked < 20:
        gain = float(rng.uniform(8.0, 25.0))
        power_mw = float(np.exp(rng.uniform(np.log(5e-4), np.log(2e-2)))) * 1e3
        n = int(rng.integers(300, 5001))
        rate = float(rng.uniform(0.05, 0.6))
        phi_target = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e-2))))
        ant = Antenna(gain)
        cfg = ScenarioConfig(variant="cell", environment=env, alice=ant, bob=ant, eve=ant,
                             transmit_mw=power_mw, height_difference_m=3.5, n=n, rate_bits=rate,
                             phi_target=phi_target)
        plan = plan_cell(cfg)
        if plan.code is None:
            continue
        held = min_reliability(plan.code, plan.bob_link)[0] <= phi_target
        bumped = SecrecyCode(n, rate, plan.code.randomness_bits + 1e-9)
        violated = min_reliability(bumped, plan.bob_link)[0] > phi_target
        assert held and violated, (gain, power, n, rate, phi_target)
        checked += 1
    report(5, True, f"{checked} randomized plans: target holds at L, violated at L + 1e-9 bit")


def test_criterion_6_radial_monotonicity_and_symmetry(anchor_config):
    plan = plan_cell(anchor_config)
    profile = radial_profile(plan, 0.0, 30.0, 301)
    monotone = bool(np.all(np.diff(profile.deltas) <= 1e-12))
    values = np.asarray(evaluate_map(plan, 2.0).values)
    # mirror and transpose images visit every grid point at equal radius
    worst = max(
        float(np.max(np.abs(values - values[:, ::-1]))),
        float(np.max(np.abs(values - values[::-1, :]))),
        float(np.max(np.abs(values - values.T))),
    )
    ok = monotone and worst <= 1e-9
    report(6, ok, f"profile non-increasing: {monotone}; equal-radius spread {worst:.1e} "
                  "(tol 1e-9)")


def test_criterion_7_figure_shapes(env, anchor_config):
    # footprint radius: strictly decreasing in transmit gain, increasing in height
    radii_gain = [cone_radius(Antenna(g), 3.5) for g in (5.0, 10.0, 15.0, 20.0, 25.0)]
    fig2_gain = all(a > b for a, b in zip(radii_gain, radii_gain[1:]))
    radii_height = [cone_radius(Antenna(10.0), h) for h in (2.0, 3.5, 5.0, 8.5)]
    fig2_height = all(a < b for a, b in zip(radii_height, radii_height[1:]))

    # transition width strictly decreasing in blocklength; larger eavesdropper
    # gain shifts the transition outward (checked at the capacity-figure power)
    def transition(cfg, n):
        plan = plan_cell(cfg._replace(n=n))
        hi = threshold_radius(plan, 0.99)
        lo = threshold_radius(plan, 0.01)
        return hi, lo - hi

    cfg9 = anchor_config._replace(transmit_mw=9.0)
    widths, starts = [], []
    for n in (500, 2000, 8000):
        hi, width = transition(cfg9, n)
        starts.append(hi)
        widths.append(width)
    fig6_sharpen = widths[0] > widths[1] > widths[2]
    cfg9_ge20 = cfg9._replace(eve=cfg9.eve._replace(gain_dbi=20.0))
    hi20, _ = transition(cfg9_ge20, 2000)
    fig6_outward = hi20 > starts[1]

    def r_e0(cfg, n, rate, phi):
        plan = plan_cell(cfg._replace(n=n, rate_bits=rate, phi_target=phi))
        return threshold_radius(plan, 1e-3)

    r_by_rate = [r_e0(cfg9, 2000, r, 1e-3) for r in (0.1, 0.2, 0.4)]
    fig7_rate = r_by_rate[0] <= r_by_rate[1] <= r_by_rate[2]
    r_ge = [r_e0(cfg9._replace(eve=cfg9.eve._replace(gain_dbi=g)), 2000, 0.2, 1e-3)
            for g in (10.0, 20.0)]
    fig7_gain = r_ge[0] <= r_ge[1]
    r_by_phi = [r_e0(cfg9, 2000, 0.2, phi) for phi in (1e-6, 1e-4, 1e-2)]
    phi_change = (max(r_by_phi) - min(r_by_phi)) / min(r_by_phi)
    fig7_phi = phi_change < 0.20

    ok = all([fig2_gain, fig2_height, fig6_sharpen, fig6_outward, fig7_rate, fig7_gain,
              fig7_phi])
    report(7, ok,
           f"footprint shrinks with gain {fig2_gain}, grows with height {fig2_height}; "
           f"widths {['%.2f' % w for w in widths]} sharpen {fig6_sharpen}, eavesdropper "
           f"gain shifts outward {fig6_outward}; threshold radius grows with rate "
           f"{fig7_rate} and gain {fig7_gain}, reliability-target change "
           f"{phi_change:.1%} < 20% {fig7_phi}")


def test_criterion_8_calibrated_anchor(anchor_config):
    r_b = cone_radius(anchor_config.alice, anchor_config.height_difference_m)
    plan = plan_cell(anchor_config)
    boundary = threshold_radius(plan, 0.99)
    r_e0 = threshold_radius(plan, 1e-3)
    published = 21.1
    ok = (abs(r_b - 7.2) < 1e-6
          and published / 2.0 <= boundary <= published * 2.0
          and published / 2.0 <= r_e0 <= published * 2.0)
    report(8, ok,
           f"calibrated footprint r_B {r_b:.3f} m; insecure-disk boundary {boundary:.2f} m "
           f"and r_E0 {r_e0:.2f} m vs published 21.1 m (factor-2 band, "
           f"calibration: {CALIBRATED_TX_POWER_MW:.1f} mW, see docs/calibration.md)")


def test_criterion_9_determinism_and_runtime(anchor_config, tmp_path):
    plan = plan_cell(anchor_config)
    t0 = time.perf_counter()
    one = evaluate_map(plan, 0.5)
    elapsed = time.perf_counter() - t0
    again = evaluate_map(plan, 0.5)
    write_map_csv(one, tmp_path / "one.csv")
    write_map_csv(again, tmp_path / "again.csv")
    identical = (tmp_path / "one.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()
    ok = identical and elapsed < 60.0
    report(9, ok, f"0.5 m 60x60 map: {elapsed:.1f} s in one process (limit 60 s); "
                  f"two runs' CSVs byte-identical: {identical}")


def _key_sweep(config, path, values, **kwargs):
    """``sweep --variable path`` of a config, in-process: its rows, as floats."""
    rc = cli.load_config(config)
    return sweep(rc.scenario, path, values, cli.sweep_row(rc, path), **kwargs)


def _strictly_rising(values) -> bool:
    return all(a < b for a, b in zip(values, values[1:]))


# The abstract: "weakly directed antennas ... result in large insecure regions".
def test_criterion_10_wider_beams_leave_more_insecure_area():
    rc = cli.load_config(CELL_CONFIG)  # 10 dBi, every width pinned by the override
    row = cli.sweep_row(rc, "antennas.alice.beamwidth_override_deg")
    fractions = []
    for width in BEAMWIDTHS_DEG:
        config = row(width)
        map_plan = planner.plan(config)
        fractions.append(insecure_fraction(evaluate_map(map_plan, 1.0)))
    report(10, _strictly_rising(fractions),
           f"cell 1.0 m map insecure fraction at beamwidths {BEAMWIDTHS_DEG} deg: "
           f"{['%.4f' % f for f in fractions]}, strictly rising")


# The abstract: directed insecure regions "cover a large volume of the indoor
# environment only if the distance between Alice and Bob is large".
def test_criterion_11_farther_receivers_leave_more_insecure_area():
    distances = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 50.0]
    rows = _key_sweep(DIRECTED_CONFIG, "scenario.horizontal_distance_m", distances,
                      area_resolution_m=0.5)
    fractions = [row["insecure_fraction"] for row in rows]
    report(11, _strictly_rising(fractions),
           f"directed 0.5 m insecure fraction at d_AB {distances} m: "
           f"{['%.4f' % f for f in fractions]}, strictly rising")


# The abstract: "a stringent trade-off between the targeted semantic security
# level and the number of reliably and securely accessible legitimate receivers":
# a beam that serves a wider disk also exposes a wider one.
def test_criterion_12_serving_more_receivers_exposes_more_area():
    rows = _key_sweep(CELL_CONFIG, "antennas.alice.beamwidth_override_deg", BEAMWIDTHS_DEG)
    r_b = [row["r_b_m"] for row in rows]
    r_e0 = [row["r_e0_m"] for row in rows]
    report(12, _strictly_rising(r_b) and _strictly_rising(r_e0),
           f"at beamwidths {BEAMWIDTHS_DEG} deg: r_B {['%.2f' % r for r in r_b]} m and "
           f"r_E0 {['%.2f' % r for r in r_e0]} m, both strictly rising")


def test_calibration_table_is_one_power_sweep(tmp_path, capsys):
    """Every cell of docs/calibration.md's table, from the sweep the doc names."""
    text = (ROOT / "docs" / "calibration.md").read_text()
    command = re.search(r"thzsecmap sweep --config (\S+) \\\n\s+(.*)\n", text)
    assert command, "docs/calibration.md names no sweep command"
    assert cli.run(["sweep", "--config", str(ROOT / command.group(1)),
                    *command.group(2).split(), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep.csv") as f:
        rows = list(csv.DictReader(f))
    expected = [f"| {float(row['value']):.1f} | {float(row['c_ab_bits']):.3f} | "
                f"{float(row['l_bits']):.3f} | {float(row['r_delta_hi_m']):.1f} | "
                f"{float(row['r_e0_m']):.1f} |" for row in rows]
    table = [line for line in text.splitlines() if re.match(r"\| \d", line)]
    assert table == expected
