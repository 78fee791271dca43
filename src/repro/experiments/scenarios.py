"""Scenario specs: declarative, seed-threaded experiment parameter sets.

Each driver in :mod:`repro.experiments` declares a :class:`ScenarioSpec`
naming its parameter sets per **scale tier** (``smoke`` < ``fast`` <
``full`` < ``stress``) and its shard axis, and implements three pure
functions over a :class:`RunConfig`:

``make_shards(config) -> list[dict]``
    Split the experiment into independent work units (per graph, per
    size rung, per seed block — whatever the spec's ``shard_axis``
    declares).  Shard payloads are plain JSON values: they are hashed
    into cache keys and shipped to worker processes.

``run_shard(config, shard) -> dict``
    Execute one shard.  Must be a pure function of ``(config, shard)``
    — all randomness derives from ``config.seed`` — and must return a
    plain-JSON dict (it is persisted verbatim by the result store).

``merge(config, shard_results) -> ExperimentRecord``
    Assemble shard results (in shard order) into the final record.
    Serial and parallel executions feed ``merge`` the same list, so
    records are bit-identical regardless of ``--jobs``.

The orchestration layer lives in
:mod:`repro.experiments.orchestrator`; the on-disk cache in
:mod:`repro.experiments.store`.  See docs/orchestration.md for the
full contract.
"""

from __future__ import annotations

import difflib
import importlib
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "TIERS",
    "RunConfig",
    "ScenarioSpec",
    "SCENARIO_MODULES",
    "get_scenario",
    "all_scenarios",
    "build_graph",
    "GraphFamily",
    "GRAPH_FAMILIES",
]

#: Scale tiers, smallest to largest.  ``smoke`` exists for CI
#: round-trips, ``fast`` is the default reproduction, ``full`` the
#: complete parameter ranges, ``stress`` the open-ended heavy-traffic
#: tier.
TIERS = ("smoke", "fast", "full", "stress")


@dataclass(frozen=True)
class RunConfig:
    """One resolved (tier, seed, parameters) execution of a scenario."""

    exp_id: str
    tier: str
    seed: int
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "exp_id": self.exp_id,
            "tier": self.tier,
            "seed": self.seed,
            "params": self.params,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "RunConfig":
        return cls(
            exp_id=payload["exp_id"],
            tier=payload["tier"],
            seed=payload["seed"],
            params=payload["params"],
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one experiment's parameter space.

    Attributes
    ----------
    exp_id / title:
        Registry id and human-readable name.
    module:
        Dotted path of the driver module implementing
        ``make_shards`` / ``run_shard`` / ``merge``.
    shard_axis:
        Human-readable description of the independence axis the driver
        shards along (shown by ``--list``).
    tiers:
        ``tier name -> params dict``.  Params must be plain JSON (they
        enter cache keys verbatim).
    seed:
        Base seed threaded to every shard; override per run via
        ``config(tier, seed=...)``.
    code_version:
        Cache salt — bump whenever the driver's semantics change so
        stale shard results are invalidated.
    """

    exp_id: str
    title: str
    module: str
    shard_axis: str
    tiers: dict[str, dict]
    seed: int = 0
    code_version: int = 1

    def config(self, tier: str = "fast", *, seed: int | None = None) -> RunConfig:
        if tier not in self.tiers:
            raise KeyError(
                f"{self.exp_id}: unknown tier {tier!r}; known: {sorted(self.tiers)}"
            )
        return RunConfig(
            exp_id=self.exp_id,
            tier=tier,
            seed=self.seed if seed is None else seed,
            params=self.tiers[tier],
        )

    def driver(self):
        """Import and return the driver module."""
        return importlib.import_module(self.module)


#: Experiment id -> driver module path.  The specs themselves live on
#: the driver modules (``module.SCENARIO``) so each driver stays the
#: single source of truth for its parameters; this table only names
#: them, keeping imports lazy and cycle-free.
SCENARIO_MODULES: dict[str, str] = {
    "FIG1": "repro.experiments.e_fig1",
    "TAB-SHRINK": "repro.experiments.e_shrink",
    "EXP-L31": "repro.experiments.e_infeasible",
    "EXP-L32": "repro.experiments.e_symm_rv",
    "EXP-T31/P41": "repro.experiments.e_universal",
    "EXP-T41": "repro.experiments.e_hardness",
    "EXP-BASE/LE": "repro.experiments.e_baselines",
    "EXP-OPEN": "repro.experiments.e_open_problem",
    "EXP-ASYNC/RAND": "repro.experiments.e_async_random",
}


def get_scenario(exp_id: str) -> ScenarioSpec:
    """Resolve one experiment id to its driver's :class:`ScenarioSpec`."""
    if exp_id not in SCENARIO_MODULES:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(SCENARIO_MODULES)}"
        )
    spec = importlib.import_module(SCENARIO_MODULES[exp_id]).SCENARIO
    assert spec.exp_id == exp_id, (spec.exp_id, exp_id)
    return spec


def all_scenarios() -> dict[str, ScenarioSpec]:
    """The full registry, in canonical (report) order."""
    return {exp_id: get_scenario(exp_id) for exp_id in SCENARIO_MODULES}


# --------------------------------------------------------------------
# Declarative graph families: shard payloads reference graphs as plain
# JSON specs so they can cross process boundaries and enter cache keys.
# --------------------------------------------------------------------


@dataclass(frozen=True)
class GraphFamily:
    """One entry of the declarative graph-family vocabulary.

    Attributes
    ----------
    name:
        The ``"family"`` key a JSON spec uses to select this builder.
    params:
        Required kwarg names, in builder-signature order.  Every param
        is mandatory: a spec with missing or unexpected keys is
        rejected up front with an error naming this tuple.
    build:
        Builder taking exactly ``params`` as kwargs (plain-JSON values;
        the builder adapts them — e.g. lists back to tuples).
    seeded:
        True when the builder consumes a ``seed`` kwarg, i.e. the
        family is a *distribution* over graphs.  Randomized campaigns
        use this flag to know where to inject their per-cell seeds.
    """

    name: str
    params: tuple[str, ...]
    build: Callable[..., Any]

    @property
    def seeded(self) -> bool:
        return "seed" in self.params


def _family_table() -> dict[str, GraphFamily]:
    from repro.graphs import cayley, families, random_graphs

    entries = [
        GraphFamily("two_node", (), lambda: families.two_node_graph()),
        GraphFamily("oriented_ring", ("n",), lambda n: families.oriented_ring(n)),
        GraphFamily(
            "oriented_torus",
            ("rows", "cols"),
            lambda rows, cols: families.oriented_torus(rows, cols),
        ),
        GraphFamily("hypercube", ("dim",), lambda dim: families.hypercube(dim)),
        GraphFamily(
            "symmetric_tree",
            ("arity", "depth"),
            lambda arity, depth: families.symmetric_tree(arity, depth),
        ),
        GraphFamily("complete", ("n",), lambda n: families.complete_graph(n)),
        GraphFamily("path", ("n",), lambda n: families.path_graph(n)),
        GraphFamily("star", ("leaves",), lambda leaves: families.star_graph(leaves)),
        GraphFamily(
            "labeled_ring",
            ("ports",),
            lambda ports: families.labeled_ring([tuple(p) for p in ports]),
        ),
        GraphFamily(
            "cayley_abelian",
            ("moduli", "generators"),
            lambda moduli, generators: cayley.cayley_abelian(
                tuple(moduli), [tuple(g) for g in generators]
            ),
        ),
        GraphFamily(
            "circulant",
            ("n", "steps"),
            lambda n, steps: cayley.cayley_abelian(
                (n,), [(int(s),) for s in steps]
            ),
        ),
        GraphFamily(
            "random_tree",
            ("n", "seed"),
            lambda n, seed: random_graphs.random_tree(n, seed=seed),
        ),
        GraphFamily(
            "random_connected",
            ("n", "extra_edges", "seed"),
            lambda n, extra_edges, seed: random_graphs.random_connected_graph(
                n, extra_edges, seed=seed
            ),
        ),
        GraphFamily(
            "random_regular",
            ("n", "degree", "seed"),
            lambda n, degree, seed: random_graphs.random_regular_graph(
                n, degree, seed=seed
            ),
        ),
    ]
    return {entry.name: entry for entry in entries}


#: Family name -> :class:`GraphFamily`; the single declarative registry
#: of graph constructions.  Scenario specs *and* the randomized
#: campaign layer (:mod:`repro.campaigns`) both draw from this table,
#: so a family added here is immediately addressable from both.
GRAPH_FAMILIES: dict[str, GraphFamily] = _family_table()


def _family_catalog() -> str:
    return "; ".join(
        f"{name}({', '.join(fam.params)})" for name, fam in sorted(GRAPH_FAMILIES.items())
    )


def build_graph(spec: dict):
    """Build a port-labeled graph from a declarative JSON spec.

    ``{"family": "oriented_torus", "rows": 3, "cols": 3}`` — the
    ``family`` key picks the builder from :data:`GRAPH_FAMILIES`, the
    rest are its kwargs.  Unknown families raise a ``KeyError`` that
    suggests near-miss names and lists every family with its required
    kwargs; wrong kwargs raise a ``TypeError`` naming the expected set.
    """
    kwargs = dict(spec)
    family = kwargs.pop("family", None)
    if family is None:
        raise KeyError(
            f"graph spec {spec!r} is missing the 'family' key; "
            f"known families: {_family_catalog()}"
        )
    entry = GRAPH_FAMILIES.get(family)
    if entry is None:
        close = difflib.get_close_matches(str(family), GRAPH_FAMILIES, n=3)
        hint = f" (did you mean {' or '.join(map(repr, close))}?)" if close else ""
        raise KeyError(
            f"unknown graph family {family!r}{hint}; "
            f"known families: {_family_catalog()}"
        )
    missing = [p for p in entry.params if p not in kwargs]
    unexpected = sorted(k for k in kwargs if k not in entry.params)
    if missing or unexpected:
        raise TypeError(
            f"graph family {family!r} takes exactly "
            f"({', '.join(entry.params)}); "
            f"missing: {missing or 'none'}, unexpected: {unexpected or 'none'}"
        )
    return entry.build(**kwargs)
