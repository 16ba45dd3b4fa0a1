"""Schedulers: randomized executions.

The randomized drivers interleave workload invocations with adversarial
delivery (op-based: causal but arbitrarily delayed; state-based: message
duplication, reordering, and loss) and close executions with a read at every
replica — so every history carries queries worth justifying.

Exhaustive exploration of *all* interleavings of fixed per-replica programs
lives in :mod:`repro.runtime.explore_engine` (see ``docs/exploration.md``).
"""

import random
from typing import Sequence

from ..core.errors import PreconditionViolation
from ..crdts.base import OpBasedCRDT, StateBasedCRDT
from .state_system import StateBasedSystem
from .system import OpBasedSystem
from .workloads import Workload


def random_op_execution(
    crdt: OpBasedCRDT,
    workload: Workload,
    replicas: Sequence[str] = ("r1", "r2", "r3"),
    operations: int = 10,
    seed: int = 0,
    deliver_probability: float = 0.35,
    final_reads: bool = True,
    read_method: str = "read",
) -> OpBasedSystem:
    """Drive a random op-based execution and return the finished system.

    After the random phase, all effectors are delivered (quiescence) and —
    when ``final_reads`` — every replica reads once, so convergence is
    observable in the history itself.
    """
    rng = random.Random(seed)
    system = OpBasedSystem(crdt, replicas)
    issued = 0
    while issued < operations:
        replica = rng.choice(system.replicas)
        if rng.random() < deliver_probability:
            pending = system.deliverable(replica)
            if pending:
                system.deliver(replica, rng.choice(pending))
                continue
        proposal = workload.propose(system.state(replica), rng)
        if proposal is None:
            continue
        method, args = proposal
        try:
            system.invoke(replica, method, args)
            issued += 1
        except PreconditionViolation:
            continue
    system.deliver_all()
    if final_reads:
        for replica in system.replicas:
            system.invoke(replica, read_method, ())
        system.deliver_all()
    return system


def random_state_execution(
    crdt: StateBasedCRDT,
    workload: Workload,
    replicas: Sequence[str] = ("r1", "r2", "r3"),
    operations: int = 10,
    seed: int = 0,
    gossip_probability: float = 0.35,
    duplicate_probability: float = 0.15,
    final_reads: bool = True,
    read_method: str = "read",
) -> StateBasedSystem:
    """Drive a random state-based execution with adversarial delivery."""
    rng = random.Random(seed)
    system = StateBasedSystem(crdt, replicas)
    issued = 0
    while issued < operations:
        replica = rng.choice(system.replicas)
        if system.messages and rng.random() < duplicate_probability:
            # Re-apply an arbitrary old message (duplication / reordering).
            system.receive(replica, rng.choice(system.messages))
            continue
        if rng.random() < gossip_probability:
            target = rng.choice(
                [r for r in system.replicas if r != replica]
            )
            system.gossip(replica, target)
            continue
        proposal = workload.propose(system.state(replica), rng)
        if proposal is None:
            continue
        method, args = proposal
        try:
            system.invoke(replica, method, args)
            issued += 1
        except PreconditionViolation:
            continue
    system.sync_all()
    if final_reads:
        for replica in system.replicas:
            system.invoke(replica, read_method, ())
        system.sync_all()
    return system


