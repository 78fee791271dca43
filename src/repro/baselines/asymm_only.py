"""The asymmetric-only universal variant (Section 4's remark).

"A simplified algorithm working only for STICs with asymmetric nodes,
which can be obtained from Algorithm UniversalRV by deleting the
Procedure SymmRV in each phase, would indeed be polynomial in n and
delta."

Same phase skeleton as :func:`repro.core.universal.universal_rv`, with
the SymmRV segment removed: its segment plan holds AsymmRV segments
only, so in oracle mode the trace compiler expands every segment in
closed form.  It meets for every non-symmetric STIC and
runs forever on symmetric ones — the experiments use it to show where
the exponential cost of UniversalRV actually comes from.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.pairing import pair, unpair
from repro.core.profile import TUNED, Profile
from repro.core.universal import (
    AsymmSegment,
    PlannedAlgorithm,
    UniversalOracle,
    label_oracle,
)
from repro.sim.actions import Perception
from repro.sim.agent import AgentScript

__all__ = [
    "asymm_only_rv",
    "asymm_only_plan",
    "make_asymm_only_algorithm",
    "asymm_only_round_budget",
]


def asymm_only_plan(
    profile: Profile = TUNED, oracle: UniversalOracle | None = None
) -> Iterator[AsymmSegment]:
    """The segments of the variant: one AsymmRV segment per phase.

    Phase ``P`` assumes ``(n, delta_code) = f^-1(P)`` (the third
    coordinate of the triple is unnecessary once ``d`` is gone) and
    runs AsymmRV(n) for ``P(n) + delta`` rounds, backtracks, and pads
    to ``2 (P(n) + delta)`` — exactly the asymmetric half of a
    UniversalRV phase.
    """
    labels = label_oracle(profile, oracle)
    phase = 1
    while True:
        n, delta_code = unpair(phase)
        budget = profile.asymm_bound(n) + delta_code - 1
        yield AsymmSegment(profile.asymm_params(n), budget, labels)
        phase += 1


def asymm_only_rv(
    percept: Perception,
    profile: Profile = TUNED,
    oracle: UniversalOracle | None = None,
) -> AgentScript:
    """UniversalRV without SymmRV: the scripts of
    :func:`asymm_only_plan`'s segments, one after another."""
    for segment in asymm_only_plan(profile, oracle):
        percept = yield from segment.script(percept)
    return percept


def make_asymm_only_algorithm(profile: Profile = TUNED) -> PlannedAlgorithm:
    """Algorithm factory for the scheduler (mirrors UniversalRV's)."""
    return PlannedAlgorithm(asymm_only_rv, asymm_only_plan, profile)


def asymm_only_round_budget(profile: Profile, n: int, delta: int) -> int:
    """Rounds (from the later start) by which the variant must meet for
    non-symmetric positions — polynomial in ``n`` and ``delta`` under
    the tuned profile, which is the Section 4 observation."""
    last = pair(n, delta + 1)
    total = 0
    for p in range(1, last + 1):
        n_p, code_p = unpair(p)
        total += 2 * (profile.asymm_bound(n_p) + (code_p - 1))
    return total
