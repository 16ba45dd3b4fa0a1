"""Persistent hash-trie unit tests: the grow-only PMap/PSet surface.

The tries back the persistent systems' seen-sets, visibility and
effector tables; those paths are exercised by every persistent-system
test.  This file pins the trie operations themselves against a plain
dict model, including full-hash collision buckets.
"""

import random

from repro.runtime.pstate import PMap, PSet


def test_assoc_against_model():
    rng = random.Random(1234)
    model = {}
    pmap = PMap()
    for _ in range(5000):
        key = rng.randrange(400)
        value = rng.randrange(1000)
        model[key] = value
        pmap = pmap.assoc(key, value)
        assert len(pmap) == len(model)
    assert dict(pmap.items()) == model


def test_of_round_trip():
    items = {f"k{i}": i for i in range(2000)}
    assert dict(PMap.of(items).items()) == items


def test_assoc_preserves_source():
    base = PMap.of({i: i for i in range(500)})
    extended = base
    for i in range(500, 1000):
        extended = extended.assoc(i, i)
    assert len(base) == 500 and len(extended) == 1000
    assert dict(base.items()) == {i: i for i in range(500)}
    assert extended.get(750) == 750 and 750 not in base


def test_pset_add_is_persistent():
    pset = PSet.of(range(100))
    assert pset.add(50) is pset
    grown = pset.add(100)
    assert 100 in grown and 100 not in pset
    assert len(grown) == 101 and len(pset) == 100


def test_collision_bucket():
    class Clash:
        def __init__(self, tag):
            self.tag = tag

        def __hash__(self):
            return 42

        def __eq__(self, other):
            return isinstance(other, Clash) and self.tag == other.tag

    a, b, c = Clash("a"), Clash("b"), Clash("c")
    pmap = PMap().assoc(a, 1).assoc(b, 2).assoc(c, 3)
    assert pmap.get(a) == 1 and pmap.get(b) == 2 and pmap.get(c) == 3
    assert len(pmap.assoc(b, 2)) == 3 and pmap.assoc(b, 2) is pmap
    assert pmap.assoc(b, 5).get(b) == 5 and pmap.get(b) == 2
