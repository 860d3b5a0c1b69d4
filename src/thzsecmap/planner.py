"""Resolution of the transmit-power / local-randomness trade.

The reliability target pins only a combination of transmit power and
randomness rate, so the planner takes the power from the scenario, as it
takes the receiver distance, and returns the largest randomness rate L that
still meets the target at the worst-case receiver position: the cone edge
for the ceiling-cell scenario (longest path, half the boresight gain), the
exact aligned position for the directed scenario.  Maximizing L gives the
most favorable security level at every eavesdropper position for that power.

L is solved for, not searched: ``bounds.max_randomness`` maximizes the
largest L the bound admits over its rate-splitting slack lambda, and one
``min_reliability`` call checks the result, stepping it down while rounding
leaves the bound a hair above the target.  A plan usually costs two or
three bound minimizations.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .antenna import pattern_gain
from .bounds import SecrecyCode, max_randomness, min_reliability
from .errors import InfeasiblePlanError
from .geometry import CELL, DIRECTED, Scene, ScenarioConfig, receiver_x
from .linkmodel import LinkState, link_budget

_STEPS_DOWN_MAX = 64  # from the solved L; 54 doublings of its ulp reach L = 0


class PlanResult(namedtuple("PlanResult", "feasible code bob_link achieved_phi phi_target "
                                          "c_ab_bits")):
    """Outcome of resolving L for one scenario at its transmit power.

    ``feasible`` is False when even L = 0 misses the reliability target, in
    which case ``code`` is None.  When feasible, L is the largest rate meeting
    the target up to rounding: ``achieved_phi`` is the minimized bound at L,
    and 1e-9 bit more breaks the target.  The feasible interval of L is
    [0, code.randomness_bits].
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        """The values the plan computed; its inputs are the config's."""
        out = {"achieved_phi": self.achieved_phi, "c_ab_bits": self.c_ab_bits,
               "snr_ab": self.bob_link.snr}
        if self.code is not None:
            out["randomness_bits"] = self.code.randomness_bits
        return out


def _max_randomness(config: ScenarioConfig, n: int, rate_bits: float,
                    phi_target: float) -> PlanResult:
    link = bob_link(config)[0]
    if not 0.0 < phi_target < 1.0:
        raise ValueError(f"phi target must lie in (0, 1), got {phi_target}")
    c_bits = link.capacity_bits
    phi = min_reliability(SecrecyCode(n, rate_bits, 0.0), link)[0]
    if c_bits <= rate_bits or phi > phi_target:
        return PlanResult(feasible=False, code=None, bob_link=link, achieved_phi=phi,
                          phi_target=phi_target, c_ab_bits=c_bits)

    l_bits = max_randomness(n, rate_bits, link, phi_target)
    # rounding may leave the solved L a hair high: step down from one ulp,
    # doubling, since R + L absorbs single ulps of an L far below R
    step = math.ulp(l_bits)
    for _ in range(_STEPS_DOWN_MAX + 1):
        code = SecrecyCode(n, rate_bits, l_bits)
        phi = min_reliability(code, link)[0]
        if phi <= phi_target:
            break
        l_bits, step = max(0.0, l_bits - step), 2.0 * step
    else:
        raise RuntimeError(f"the solved randomness rate misses phi <= {phi_target!r} "
                           f"after {_STEPS_DOWN_MAX} steps down (n={n}, R={rate_bits!r})")
    return PlanResult(feasible=True, code=code, bob_link=link, achieved_phi=phi,
                      phi_target=phi_target, c_ab_bits=c_bits)


def bob_link(config: ScenarioConfig) -> tuple[LinkState, float, float]:
    """Link to the worst-case receiver position, with the distance and transmit gain used.

    Cell variant: the receiver on the half-power circle (maximum path length,
    the pattern gain at its offset angle).  Directed variant: the receiver at
    ``horizontal_distance_m`` with the transmitter aligned to it (full
    boresight gain).  The transmit power is the scenario's.  Returns (link,
    distance in meters, linear transmit gain).
    """
    distance, theta = Scene(config).path(receiver_x(config), 0.0)
    # the directed transmitter is aimed at the receiver: its full gain, not the
    # pattern at the rounding-level angle the aim leaves
    g_tx = pattern_gain(config.alice, theta) if config.variant == CELL else config.alice.gain_linear
    link = link_budget(config.transmit_power_w, g_tx, config.bob.gain_linear, distance,
                       config.environment)
    return link, distance, g_tx


def plan(config: ScenarioConfig, n: int, rate_bits: float, phi_target: float) -> PlanResult:
    """Plan either scenario variant at its configured receiver position."""
    if config.variant == CELL:
        return plan_cell(config, n, rate_bits, phi_target)
    return plan_directed(config, n, rate_bits, phi_target)


def plan_cell(config: ScenarioConfig, n: int, rate_bits: float, phi_target: float) -> PlanResult:
    """Plan the ceiling-cell scenario with the receiver on the cone edge.

    The worst-case receiver sits on the half-power circle: maximum path
    length and half the boresight transmit gain.  Returns the plan with the
    largest randomness rate meeting ``phi_target`` there, solved for and
    checked against the minimized bound, at the scenario's transmit power.
    """
    if config.variant != CELL:
        raise ValueError(f"plan_cell requires a cell scenario, got {config.variant!r}")
    return _max_randomness(config, n, rate_bits, phi_target)


def plan_directed(config: ScenarioConfig, n: int, rate_bits: float,
                  phi_target: float) -> PlanResult:
    """Plan the directed scenario with the transmitter aligned to the receiver.

    Both ends contribute their full boresight gains over the slant path of
    the scenario's ``horizontal_distance_m``, at its transmit power.  The
    randomness rate is maximized the same way as for the cell plan and is
    therefore specific to this receiver position.
    """
    if config.variant != DIRECTED:
        raise ValueError(f"plan_directed requires a directed scenario, got {config.variant!r}")
    return _max_randomness(config, n, rate_bits, phi_target)


def require_feasible(plan: PlanResult) -> PlanResult:
    """Raise InfeasiblePlanError unless the plan met its reliability target."""
    if not plan.feasible:
        raise InfeasiblePlanError(
            f"no randomness rate meets phi <= {plan.phi_target!r} "
            f"(C_AB = {plan.c_ab_bits:.4f} bit/use at the worst-case receiver)")
    return plan
