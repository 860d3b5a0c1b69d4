import math

import pytest

from thzsecmap import Antenna, RadioEnvironment, ScenarioConfig

# Transmit power for reproducing the published ceiling-cell map, chosen
# jointly with the randomness rate during calibration (docs/calibration.md).
CALIBRATED_TX_POWER_MW = 2.5

# Pins the half-power footprint radius to the published 7.2 m at 3.5 m height.
CALIBRATED_BEAMWIDTH_DEG = math.degrees(2.0 * math.atan(7.2 / 3.5))


@pytest.fixture
def paper_env() -> RadioEnvironment:
    return RadioEnvironment(
        carrier_frequency_ghz=300.0, bandwidth_ghz=1.0, temperature_k=290.0, noise_figure_db=9.0)


@pytest.fixture
def calibrated_alice() -> Antenna:
    return Antenna(gain_dbi=10.0, beamwidth_override_deg=CALIBRATED_BEAMWIDTH_DEG)


@pytest.fixture
def cell_config(paper_env, calibrated_alice) -> ScenarioConfig:
    plain = Antenna(gain_dbi=10.0)
    return ScenarioConfig(
        variant="cell",
        environment=paper_env,
        alice=calibrated_alice,
        bob=plain,
        eve=plain,
        transmit_mw=CALIBRATED_TX_POWER_MW,
        height_difference_m=3.5,
    )


@pytest.fixture
def directed_config(paper_env) -> ScenarioConfig:
    a20 = Antenna(gain_dbi=20.0)
    return ScenarioConfig(
        variant="directed",
        environment=paper_env,
        alice=a20,
        bob=a20,
        eve=Antenna(gain_dbi=25.0),
        transmit_mw=0.5,
        height_difference_m=8.5,
        horizontal_distance_m=15.0,
    )
