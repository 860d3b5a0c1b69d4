"""Resolution of the transmit-power / local-randomness trade.

The reliability target pins only a combination of transmit power and
randomness rate, so the planner takes the power from the scenario, as it
takes the receiver distance, and returns the largest randomness rate L that
still meets the target at the worst-case receiver position: the cone edge
for the ceiling-cell scenario (longest path, half the boresight gain), the
exact aligned position for the directed scenario.  Maximizing L gives the
most favorable security level at every eavesdropper position for that power.
"""

from __future__ import annotations

from dataclasses import dataclass

from .antenna import pattern_gain
from .bounds import SecrecyCode, min_reliability
from .errors import InfeasiblePlanError
from .geometry import CELL, DIRECTED, Scene, ScenarioConfig, receiver_x
from .linkmodel import LinkState, link_budget

L_BISECTION_TOL_BITS = 1e-6


@dataclass(frozen=True)
class PlanResult:
    """Outcome of resolving (P_A, L) for one scenario.

    ``feasible`` is False when even L = 0 misses the reliability target, in
    which case ``code`` is None.  When feasible, L is maximal: raising it by
    two bisection tolerances breaks the target.  The feasible interval of L
    is [0, code.randomness_bits].
    """

    feasible: bool
    code: SecrecyCode | None
    transmit_power_w: float
    bob_link: LinkState
    achieved_phi: float
    phi_target: float
    c_ab_bits: float

    def to_dict(self) -> dict:
        out = {
            "feasible": self.feasible,
            "transmit_power_w": self.transmit_power_w,
            "achieved_phi": self.achieved_phi,
            "phi_target": self.phi_target,
            "c_ab_bits": self.c_ab_bits,
            "snr_ab": self.bob_link.snr,
        }
        if self.code is not None:
            out["blocklength"] = self.code.blocklength
            out["rate_bits"] = self.code.rate_bits
            out["randomness_bits"] = self.code.randomness_bits
            out["l_feasible_interval_bits"] = [0.0, self.code.randomness_bits]
        return out


def _max_randomness(config: ScenarioConfig, n: int, rate_bits: float,
                    phi_target: float) -> PlanResult:
    link = bob_link(config)[0]
    if not 0.0 < phi_target < 1.0:
        raise ValueError(f"phi target must lie in (0, 1), got {phi_target}")

    def phi_at(l_bits: float) -> float:
        return min_reliability(SecrecyCode(n, rate_bits, l_bits), link)[0]

    c_bits = link.capacity_bits
    lo, phi_lo = 0.0, phi_at(0.0)  # phi_lo is always phi at the current lo
    if c_bits <= rate_bits or phi_lo > phi_target:
        return PlanResult(
            feasible=False, code=None, transmit_power_w=config.transmit_power_w, bob_link=link,
            achieved_phi=phi_lo, phi_target=phi_target, c_ab_bits=c_bits)

    hi = c_bits - rate_bits  # phi clamps to 1 here, always infeasible
    while hi - lo > L_BISECTION_TOL_BITS:
        mid = 0.5 * (lo + hi)
        phi_mid = phi_at(mid)
        if phi_mid <= phi_target:
            lo, phi_lo = mid, phi_mid
        else:
            hi = mid
    code = SecrecyCode(n, rate_bits, lo)  # tie toward smaller L
    return PlanResult(
        feasible=True, code=code, transmit_power_w=config.transmit_power_w, bob_link=link,
        achieved_phi=phi_lo, phi_target=phi_target, c_ab_bits=c_bits)


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
    largest randomness rate meeting ``phi_target`` there (bisection,
    absolute tolerance 1e-6 bit) at the scenario's transmit power.
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
            f"no randomness rate meets phi <= {plan.phi_target:g} "
            f"(C_AB = {plan.c_ab_bits:.4f} bit/use at the worst-case receiver)")
    return plan


__all__ = [
    "PlanResult",
    "bob_link",
    "plan",
    "plan_cell",
    "plan_directed",
    "require_feasible",
    "L_BISECTION_TOL_BITS",
]
