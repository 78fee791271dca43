"""Replay artifacts: minimal, self-contained failure reproductions.

A replay artifact is the JSON the shrinker distills a campaign
failure down to — the resolved graph spec (seed included for random
families), the cell's instance seed, the check id, and the sampling
knobs in force.  That tuple is everything :func:`run_check` consumed,
so ``replay_artifact`` re-executes the exact failing computation with
no campaign machinery in the loop; provenance fields (campaign id,
tier, rung, shrink origin) ride along for the human reading the file.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.campaigns.checks import CheckResult, run_check
from repro.experiments.store import write_atomic
from repro.util.encoding import canonical_json

__all__ = [
    "DEFAULT_ARTIFACT_DIR",
    "artifact_name",
    "write_artifact",
    "load_artifact",
    "replay_artifact",
]

#: Where ``repro campaign run`` drops replay files by default.
DEFAULT_ARTIFACT_DIR = "campaign-artifacts"

#: Fields replay needs; ``load_artifact`` rejects files missing any.
_REQUIRED = ("check", "graph_spec", "seed")


def artifact_name(artifact: dict) -> str:
    """Stable filename for an artifact (content-addressed)."""
    digest = hashlib.sha256(canonical_json(artifact).encode()).hexdigest()
    kind = artifact["check"].replace("/", "-")
    return f"replay-{kind}-{digest[:12]}.json"


def write_artifact(artifact: dict, directory: str | os.PathLike) -> Path:
    """Atomically persist one artifact; returns its path."""
    path = Path(directory) / artifact_name(artifact)
    write_atomic(path, json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: str | os.PathLike) -> dict:
    """Read and validate a replay artifact file."""
    with open(path) as fh:
        artifact = json.load(fh)
    if not isinstance(artifact, dict):
        raise ValueError(f"{path}: replay artifact must be a JSON object")
    missing = [field for field in _REQUIRED if field not in artifact]
    if missing:
        raise ValueError(
            f"{path}: replay artifact is missing {missing}; "
            f"required fields: {list(_REQUIRED)}"
        )
    return artifact


def replay_artifact(artifact: dict) -> CheckResult:
    """Re-execute the failing cell an artifact describes."""
    return run_check(
        artifact["check"],
        artifact["graph_spec"],
        artifact["seed"],
        artifact.get("knobs") or {},
    )
