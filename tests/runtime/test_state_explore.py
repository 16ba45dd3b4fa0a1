"""The bounded state-based explorer."""

from repro.crdts import SBGSet, SBPNCounter
from repro.runtime import StateBasedSystem
from repro.runtime.explore_engine import explore_state_programs


def make(crdt_factory, replicas=("r1", "r2")):
    return lambda: StateBasedSystem(crdt_factory(), replicas=replicas)


class TestExploreStatePrograms:
    def test_no_gossip_keeps_replicas_isolated(self):
        programs = {
            "r1": [("inc", ()), ("read", ())],
            "r2": [("read", ())],
        }
        outcomes = set()

        def visit(system, returns):
            outcomes.add((returns["r1"][1], returns["r2"][0]))

        explore_state_programs(
            make(SBPNCounter), programs, visit, max_gossips=0
        )
        # r1 always reads its own inc... unless the read ran first.
        assert outcomes == {(1, 0)}

    def test_gossip_propagates_state(self):
        programs = {
            "r1": [("inc", ())],
            "r2": [("read", ())],
        }
        outcomes = set()

        def visit(system, returns):
            outcomes.add(returns["r2"][0])

        explore_state_programs(
            make(SBPNCounter), programs, visit, max_gossips=1
        )
        assert outcomes == {0, 1}

    def test_counts_configurations(self):
        programs = {"r1": [("add", ("a",))], "r2": [("add", ("b",))]}
        visited = explore_state_programs(
            make(SBGSet), programs, lambda s, r: None, max_gossips=1
        )
        assert visited > 2

    def test_max_configurations(self):
        programs = {"r1": [("add", ("a",))], "r2": [("add", ("b",))]}
        visited = explore_state_programs(
            make(SBGSet), programs, lambda s, r: None,
            max_gossips=2, max_configurations=4,
        )
        assert visited == 4

    def test_partial_propagation_configs_visited(self):
        # With budget 2 both full and partial propagation states appear.
        programs = {
            "r1": [("add", ("a",)), ("read", ())],
            "r2": [("add", ("b",)), ("read", ())],
        }
        reads = set()

        def visit(system, returns):
            reads.add((returns["r1"][1], returns["r2"][1]))

        explore_state_programs(make(SBGSet), programs, visit, max_gossips=2)
        assert (frozenset({"a"}), frozenset({"b"})) in reads      # isolated
        assert any("a" in x and "b" in x for x, _ in reads)       # merged
