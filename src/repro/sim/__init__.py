"""Synchronous anonymous-agent simulator (model of Section 1)."""

from repro.sim.actions import Action, Move, Perception, Wait, WaitBlock
from repro.sim.batch import PortTrace, TraceCompiler, run_rendezvous_batch
from repro.sim.schedule_adversary import (
    ActivationSchedule,
    AsyncOutcome,
    EagerSchedule,
    FixedDelaySchedule,
    MirrorSchedule,
    RandomSchedule,
    RateSkewSchedule,
    WordSchedule,
    run_schedule_adversary,
    run_schedule_sweep,
)
from repro.sim.agent import (
    AgentScript,
    follow_ports,
    move_once,
    wait_forever,
    wait_rounds,
)
from repro.sim.scheduler import (
    RendezvousResult,
    SimulationLimit,
    run_rendezvous,
    run_single_agent,
)
from repro.sim.trace import AgentTrace, TraceEntry

__all__ = [
    "Action",
    "Move",
    "Wait",
    "WaitBlock",
    "Perception",
    "AgentScript",
    "wait_rounds",
    "wait_forever",
    "move_once",
    "follow_ports",
    "RendezvousResult",
    "SimulationLimit",
    "run_rendezvous",
    "run_rendezvous_batch",
    "PortTrace",
    "TraceCompiler",
    "run_single_agent",
    "AgentTrace",
    "TraceEntry",
    "AsyncOutcome",
    "ActivationSchedule",
    "MirrorSchedule",
    "EagerSchedule",
    "FixedDelaySchedule",
    "RateSkewSchedule",
    "WordSchedule",
    "RandomSchedule",
    "run_schedule_adversary",
    "run_schedule_sweep",
]
