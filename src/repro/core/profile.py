"""Execution profiles: reference (paper-faithful) vs tuned (laptop-scale).

Algorithm UniversalRV's guarantees are insensitive to the *constants*
inside its sub-procedures — any shared UXS that covers the graph, any
injective labeling, any budget formula dominating the actual costs
yields the same feasibility behaviour, only with different absolute
round counts.  The reference constants (exponential view
reconstruction, ``THETA(n^3 log n)`` UXS, padded labels) make even tiny
instances astronomically slow to simulate round-by-round, so the
experiments run a *tuned* profile with small certified constants:

* short UXS, coverage **certified per run** on the actual graph;
* 16-bit hashed labels, distinctness **certified per run**;
* oracle-mode view acquisition (pure waiting, fast-forwarded).

The same argument covers the substitutions for the paper's
sub-procedures: a pseudorandom UXS for Reingold's construction
(:mod:`repro.core.uxs`, certified exhaustively for tiny sizes by
:mod:`repro.graphs.enumeration`), and view labels with verified
time-multiplexing schedules for the log-space AsymmRV of [20]
(:mod:`repro.core.asymm_rv`, :mod:`repro.core.labels`,
:mod:`repro.core.schedules`).  Tests cross-validate the two profiles
on the smallest instances.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.asymm_rv import AsymmParams, asymm_meeting_bound
from repro.core.bounds import symm_rv_time_bound
from repro.core.labels import view_reconstruction_budget
from repro.core.uxs import uxs_for_size
from repro.exec.uxs import generate_offset_stream
from repro.util.lcg import derive_seed

__all__ = ["Profile", "REFERENCE", "TUNED", "tuned_profile"]


class Profile:
    """Bundle of parameter schedules shared by both agents.

    All methods are pure functions of their arguments and the profile's
    constructor parameters, so two agents constructing the same profile
    derive identical parameters — the determinism the model requires.
    """

    def __init__(
        self,
        name: str,
        *,
        label_mode: str,
        view_mode: str,
        uxs_scale: int | None,
        view_depth_cap: int | None = None,
    ) -> None:
        if label_mode not in ("padded", "hash16", "hash32"):
            raise ValueError(f"unknown label mode {label_mode!r}")
        if view_mode not in ("oracle", "faithful"):
            raise ValueError(f"unknown view mode {view_mode!r}")
        self.name = name
        self.label_mode = label_mode
        self.view_mode = view_mode
        self.uxs_scale = uxs_scale  # None = reference Y(n)
        self.view_depth_cap = view_depth_cap

    # -- parameter schedules ------------------------------------------------
    def view_depth(self, n: int) -> int:
        """Label view depth for assumed size ``n`` (reference: n - 1)."""
        depth = max(n - 1, 1)
        if self.view_depth_cap is not None:
            depth = min(depth, self.view_depth_cap)
        return depth

    def uxs(self, n: int) -> tuple[int, ...]:
        """The exploration sequence both agents use for size ``n``."""
        if self.uxs_scale is None:
            return uxs_for_size(n)
        return _tuned_uxs(n, self.uxs_scale)

    def view_budget(self, n: int) -> int:
        return view_reconstruction_budget(n, self.view_depth(n))

    def asymm_params(self, n: int) -> AsymmParams:
        return AsymmParams(
            n=n,
            depth=self.view_depth(n),
            uxs=self.uxs(n),
            view_budget=self.view_budget(n),
            label_mode=self.label_mode,
        )

    # -- segment budgets ----------------------------------------------------
    def asymm_bound(self, n: int) -> int:
        """Our ``P(n)``: meeting bound of AsymmRV under this profile."""
        return asymm_meeting_bound(self.asymm_params(n))

    def symm_bound(self, n: int, d: int, delta: int) -> int:
        """``T(n, d, delta)`` of Lemma 3.3 under this profile's UXS."""
        return symm_rv_time_bound(n, d, delta, len(self.uxs(n)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Profile({self.name!r})"


@lru_cache(maxsize=256)
def _tuned_uxs(n: int, scale: int) -> tuple[int, ...]:
    """Short deterministic sequence: length ``scale * n^2`` (certified
    per run by the harness via ``is_uxs_for_graph``).  Generated by the
    vectorized engine — bit-identical to the scalar SplitMix64 loop."""
    if n == 1:
        return (0,)
    return tuple(
        int(a)
        for a in generate_offset_stream(
            derive_seed("uxs-tuned", n, scale), max(2 * n, 2), scale * n * n
        )
    )


#: Paper-faithful constants; only tractable on the tiniest instances.
REFERENCE = Profile(
    "reference", label_mode="padded", view_mode="faithful", uxs_scale=None
)

#: Laptop-scale constants with per-run certification (see module doc).
TUNED = Profile("tuned", label_mode="hash16", view_mode="oracle", uxs_scale=12)


def tuned_profile(
    *,
    label_mode: str = "hash16",
    view_mode: str = "oracle",
    uxs_scale: int = 12,
    view_depth_cap: int | None = None,
    name: str = "custom",
) -> Profile:
    """Build a custom profile (experiments tune scale per workload)."""
    return Profile(
        name,
        label_mode=label_mode,
        view_mode=view_mode,
        uxs_scale=uxs_scale,
        view_depth_cap=view_depth_cap,
    )
