"""Snapshot/restore of the runtime systems, with no explorer involved.

The restore contract is the DFS discipline: a token may be restored any
number of times while it lies on the current execution path.  Take a
token, go deeper, restore, take a different branch, restore the same
token again: every observation must equal its value at snapshot time.
"""

import pytest

from repro.proofs.registry import entry_by_name
from repro.runtime import OpBasedSystem, StateBasedSystem

REPLICAS = ["r1", "r2", "r3"]


def _build(entry):
    # As the chaos soak and the cluster harness build them.
    if entry.kind == "OB":
        return OpBasedSystem(entry.make_crdt(), REPLICAS)
    return StateBasedSystem(entry.make_crdt(), REPLICAS)


def _step(system, origin, target, method, args=("a",)):
    """Invoke at ``origin``, then propagate to ``target``: every causal
    delivery possible there op-based, a GENERATE/APPLY pair state-based."""
    label = system.invoke(origin, method, args)
    if isinstance(system, OpBasedSystem):
        system.sync(target)
    else:
        system.receive(target, system.send(origin))
    return label


def _clocks(system):
    generators = getattr(system, "_generators", None) \
        or {None: system._generator}
    return {
        name: {r: g.clock(r) for r in system.replicas}
        for name, g in generators.items()
    }


def _observe(system):
    history = system.history()
    return (
        history.labels,
        history.vis,
        {r: system.seen(r) for r in system.replicas},
        system.replica_views(),
        _clocks(system),
    )


@pytest.mark.parametrize("name", ["OR-Set", "LWW-Element Set"],
                         ids=["op", "state"])
def test_token_restores_twice_across_branches(name):
    system = _build(entry_by_name(name))
    _step(system, "r1", "r2", "add")
    _step(system, "r2", "r3", "remove")
    before = _observe(system)
    token = system.snapshot()

    dropped = [
        _step(system, "r3", "r1", "add"),
        _step(system, "r1", "r2", "remove"),
    ]
    system.restore(token)
    assert _observe(system) == before

    dropped += [
        _step(system, "r2", "r1", "add"),
        _step(system, "r3", "r2", "add"),
    ]
    system.restore(token)
    assert _observe(system) == before

    history = system.history()
    for src, dst in history.vis:
        assert src in history.labels and dst in history.labels
        assert src not in dropped and dst not in dropped
    # The restored system runs on: the next label gets the timestamp the
    # dropped branch's first label had.
    replayed = _step(system, "r3", "r1", "add")
    assert replayed.ts == dropped[0].ts
