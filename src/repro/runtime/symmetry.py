"""Replica-symmetry machinery for the exploration engine.

Replicas running *identical* programs are interchangeable: permuting their
identities maps one reachable configuration onto another with the same
RA-linearizability verdict.  The engine therefore dedups configurations on
a canonical *orbit representative*: every replica-indexed component of the
fingerprint (states, seen-sets, visibility, clocks, counters, returns) is
renamed under each permutation of the symmetric replicas, and the
lexicographically least image is the orbit key.

Pinning rule
------------
Only replicas whose whole programs are syntactically equal are permuted;
a replica distinguished by an asymmetric program is *pinned* (mapped to
itself by every group element).  Two further guards pin everything:

* **Data collision** — if a symmetric replica's name occurs as a *value*
  inside any program step (method, argument, object name), renaming would
  corrupt payload data that merely happens to equal a replica id.
* **Group size** — the permutation group is capped at
  :data:`GROUP_LIMIT` elements; larger scopes fall back to the identity.

Soundness
---------
The orbit key only merges true syntactic permutation images, so every
merged configuration is observably equal to the kept representative up to
replica renaming.  Lamport timestamps tie-break on the replica *string*
(:class:`~repro.core.timestamp.Timestamp`), so a permuted execution can
leave a different tie-breaking footprint and simply be unreachable — then
no merge happens and nothing is lost.  Verdict invariance is enforced the
same way PR 1 enforced POR soundness: the naive engine stays the
differential oracle (``tests/runtime/test_explore_symmetry.py``) and
``CRDTEntry.symmetry`` is the per-entry escape hatch.
"""

from dataclasses import dataclass, fields, is_dataclass
from itertools import permutations
from math import factorial
from typing import AbstractSet, Any, Dict, List, Mapping, Sequence, Tuple

from ..core.freeze import FrozenDict, freeze
from ..core.timestamp import BOTTOM, Timestamp, VersionVector

#: Maximum permutation-group order the reducer will enumerate.  Scopes are
#: 2–3 replicas in practice (group order 2 or 6); the cap is a safety
#: valve against pathological many-replica programs.
GROUP_LIMIT = 720

#: Per-permutation memo caches are cleared past this many entries.
_CACHE_LIMIT = 1 << 15


def replica_classes(
    programs: Mapping[str, Sequence[Tuple]]
) -> Tuple[Tuple[str, ...], ...]:
    """Group replicas by syntactically identical programs."""
    grouped: Dict[Any, List[str]] = {}
    for replica, program in programs.items():
        grouped.setdefault(freeze(list(program)), []).append(replica)
    return tuple(tuple(members) for members in grouped.values())


def _mentions(value: Any, names) -> bool:
    """Does any string equal to a replica name occur (deeply) in ``value``?"""
    t = type(value)
    if t is str:
        return value in names
    if t in (tuple, list, set, frozenset):
        return any(_mentions(item, names) for item in value)
    if isinstance(value, dict):
        return any(
            _mentions(k, names) or _mentions(v, names)
            for k, v in value.items()
        )
    return False


@dataclass
class SymmetryGroup:
    """The replica-permutation group of a scope.

    ``maps`` lists every group element as a fixed-point-free mapping
    (identity pairs omitted; ``maps[0]`` is the identity ``{}``).
    """

    maps: List[Dict[str, str]]
    classes: Tuple[Tuple[str, ...], ...]
    pinned: Tuple[str, ...]

    @property
    def enabled(self) -> bool:
        return len(self.maps) > 1

    @property
    def order(self) -> int:
        return len(self.maps)


def build_group(
    programs: Mapping[str, Sequence[Tuple]],
    extra_names: Sequence[str] = (),
    limit: int = GROUP_LIMIT,
) -> SymmetryGroup:
    """The permutation group of ``programs`` under the pinning rule.

    ``extra_names`` are non-replica identifiers living in the same string
    namespace (object names): a collision with a symmetric replica name
    disables the reduction, like a data collision inside program steps.
    """
    classes = replica_classes(programs)
    symmetric = [members for members in classes if len(members) > 1]
    trivial = SymmetryGroup([{}], classes, tuple(programs))
    if not symmetric:
        return trivial
    names = frozenset(r for members in symmetric for r in members)
    if any(name in names for name in extra_names):
        return trivial
    for program in programs.values():
        for step in program:
            if _mentions(tuple(step), names):
                return trivial
    order = 1
    for members in symmetric:
        order *= factorial(len(members))
    if order > limit:
        return trivial
    maps: List[Dict[str, str]] = [{}]
    for members in symmetric:
        extended = []
        for image in permutations(members):
            delta = {a: b for a, b in zip(members, image) if a != b}
            for base in maps:
                combined = dict(base)
                combined.update(delta)
                extended.append(combined)
        # permutations() yields the identity image first, so the identity
        # mapping stays at index 0 through every extension round.
        maps = extended
    maps.sort(key=len)
    pinned = tuple(r for r in programs if r not in names)
    return SymmetryGroup(maps, classes, pinned)


def canon_key(value: Any, mapping: Mapping[str, str]) -> Any:
    """Rename replicas and build a totally ordered key in one pass.

    The result is a nested tuple whose leaves are type-tagged — every two
    keys produced from same-shaped values compare under ``<`` — and whose
    unordered containers (frozensets, :class:`FrozenDict`s,
    version-vector entries) are sorted *after* renaming, so a rename
    inside them re-normalizes.  Ordered tuples keep their order (sequence
    CRDT states are semantically ordered).  The key depends only on the
    value, never on hash seeds or object identity, so keys built in
    different worker processes compare and merge exactly.
    """
    t = type(value)
    if t is str:
        return ("s", mapping.get(value, value))
    if t is int:
        return ("i", value)
    if t is tuple:
        return ("t", tuple([canon_key(item, mapping) for item in value]))
    if t is frozenset:
        return (
            "f",
            tuple(sorted([canon_key(item, mapping) for item in value])),
        )
    if t is Timestamp:
        return ("T", value.counter, mapping.get(value.replica, value.replica))
    if value is BOTTOM:
        return ("⊥",)
    if t is bool:
        return ("b", value)
    if t is float:
        return ("x", value)
    if value is None:
        return ("n",)
    if t is FrozenDict:
        return (
            "d",
            tuple(sorted(
                [(canon_key(k, mapping), canon_key(v, mapping))
                 for k, v in value.items()]
            )),
        )
    if t is VersionVector:
        return (
            "v",
            tuple(sorted(
                [(mapping.get(r, r), c) for r, c in value.entries]
            )),
        )
    if t is bytes:
        return ("y", value)
    if is_dataclass(value):
        # Frozen record types (e.g. Wooki's WChar): field order is part of
        # the type, so the key keeps it.
        return (
            "c",
            t.__name__,
            tuple([canon_key(getattr(value, f.name), mapping)
                   for f in fields(value)]),
        )
    # Opaque leaf: reprs in this codebase are deterministic value renders.
    return ("o", t.__name__, repr(value))


def _canon_keys(value: Any, maps: Sequence[Mapping[str, str]],
                names: AbstractSet[str],
                memo: Dict[Any, Tuple[Any, bool]]) -> Tuple[Any, bool]:
    """:func:`canon_key` under every group element, in one traversal.

    Returns ``(key, True)`` when ``value`` mentions no renameable replica
    (its key is the same under every element — computed once and shared),
    or ``(keys, False)`` with one key per element of ``maps``.  Key
    equality with per-map :func:`canon_key` calls is exact; sharing the
    pure subkeys across fragment slots additionally lets downstream
    comparisons short-circuit on object identity.  ``memo`` caches
    container results by ``(type, value)`` — the same label ids, seen
    sets, and timestamps recur across thousands of fingerprint parts.
    """
    t = type(value)
    if t is str:
        if value in names:
            return [("s", m.get(value, value)) for m in maps], False
        return ("s", value), True
    if t is int:
        return ("i", value), True
    if t is tuple or t is frozenset:
        mk = (t, value)
        hit = memo.get(mk)
        if hit is not None:
            return hit
        subs = []
        pure = True
        for item in value:
            ks, p = _canon_keys(item, maps, names, memo)
            subs.append((ks, p))
            pure = pure and p
        tag = "t" if t is tuple else "f"
        if pure:
            items = [ks for ks, _ in subs]
            if t is frozenset:
                items.sort()
            result: Tuple[Any, bool] = ((tag, tuple(items)), True)
        elif t is tuple:
            result = ([
                (tag, tuple([ks if p else ks[i] for ks, p in subs]))
                for i in range(len(maps))
            ], False)
        else:
            result = ([
                (tag, tuple(sorted([ks if p else ks[i] for ks, p in subs])))
                for i in range(len(maps))
            ], False)
        if len(memo) > _CACHE_LIMIT:
            memo.clear()
        memo[mk] = result
        return result
    if t is Timestamp:
        if value.replica in names:
            return [
                ("T", value.counter, m.get(value.replica, value.replica))
                for m in maps
            ], False
        return ("T", value.counter, value.replica), True
    if value is BOTTOM:
        return ("⊥",), True
    if t is bool:
        return ("b", value), True
    if t is float:
        return ("x", value), True
    if value is None:
        return ("n",), True
    if t is FrozenDict:
        mk = (t, value)
        hit = memo.get(mk)
        if hit is not None:
            return hit
        subs = []
        pure = True
        for k, v in value.items():
            kks, kp = _canon_keys(k, maps, names, memo)
            vks, vp = _canon_keys(v, maps, names, memo)
            subs.append((kks, kp, vks, vp))
            pure = pure and kp and vp
        if pure:
            result = (
                ("d", tuple(sorted((kks, vks) for kks, _, vks, _ in subs))),
                True,
            )
        else:
            result = ([
                ("d", tuple(sorted(
                    (kks if kp else kks[i], vks if vp else vks[i])
                    for kks, kp, vks, vp in subs
                )))
                for i in range(len(maps))
            ], False)
        if len(memo) > _CACHE_LIMIT:
            memo.clear()
        memo[mk] = result
        return result
    if t is VersionVector:
        entries = value.entries
        if any(r in names for r, _ in entries):
            return [
                ("v", tuple(sorted((m.get(r, r), c) for r, c in entries)))
                for m in maps
            ], False
        return ("v", tuple(sorted(entries))), True
    if t is bytes:
        return ("y", value), True
    if is_dataclass(value):
        subs = []
        pure = True
        for f in fields(value):
            ks, p = _canon_keys(getattr(value, f.name), maps, names, memo)
            subs.append((ks, p))
            pure = pure and p
        if pure:
            return ("c", t.__name__, tuple(ks for ks, _ in subs)), True
        return [
            ("c", t.__name__, tuple(ks if p else ks[i] for ks, p in subs))
            for i in range(len(maps))
        ], False
    return ("o", t.__name__, repr(value)), True


def rename_transition(
    transition: Tuple, mapping: Mapping[str, str]
) -> Tuple:
    """Apply a replica permutation to an engine transition."""
    kind = transition[0]
    if kind == "inv":
        return (kind, mapping.get(transition[1], transition[1]),
                transition[2])
    if kind == "del":
        origin, seq = transition[2]
        return (kind, mapping.get(transition[1], transition[1]),
                (mapping.get(origin, origin), seq))
    return (kind, mapping.get(transition[1], transition[1]),
            mapping.get(transition[2], transition[2]))


class CanonFP:
    """A canonical fingerprint with a cached hash.

    The canonical key is a large nested tuple; plain tuples recompute
    their hash on every dict operation, which dominated the DFS hot path.
    Equality stays structural (with an identity fast path), so sets of
    ``CanonFP`` built in different worker processes union correctly —
    unpickling rebuilds the object and recomputes the hash locally, which
    keeps it valid under per-process string-hash randomization.
    """

    __slots__ = ("key", "_hash", "_enc")

    def __init__(self, key: Tuple) -> None:
        self.key = key
        self._hash = hash(key)
        #: Stable byte encoding, filled lazily by the fingerprint store
        #: (:mod:`repro.runtime.fp_store`); not pickled — digests are
        #: recomputed locally in each process.
        self._enc: Any = None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, CanonFP)
            and self._hash == other._hash
            and self.key == other.key
        )

    def __reduce__(self):
        return (CanonFP, (self.key,))

    def __repr__(self) -> str:
        return f"CanonFP({self.key!r})"


class SymmetryReducer:
    """Maps fingerprints to the least image over a replica-permutation group.

    A fingerprint arrives split into per-replica ``parts`` (everything
    indexed by a single replica) plus a ``glob`` component (label data,
    visibility, gossip budget).  The engine converts each part into its
    *fragment vector* — the tuple of its :func:`canon_key` images under
    every group element — exactly once when the part is (re)computed,
    via :meth:`part_fragments`; the vectors ride along with the domain's
    dirty-tracked part table.  :meth:`canonical` then only permutes slots
    and compares: it never hashes or renames configuration data on the
    per-node path.  Fragment vectors are memoized by part value, so a
    value recurring after a DFS pop reuses the *same* fragment objects
    and candidate comparisons short-circuit on identity.

    :attr:`last_map` is the minimizing element of the latest
    :meth:`canonical` call; the engine uses it to translate sleep sets
    into the same canonical frame before recording or comparing them.
    """

    def __init__(self, replicas: Sequence[str], group: SymmetryGroup) -> None:
        self.replicas = list(replicas)
        self.group = group
        self.maps = group.maps
        self._slot_sources: List[List[str]] = []
        for mapping in self.maps:
            inverse = {b: a for a, b in mapping.items()}
            self._slot_sources.append(
                [inverse.get(r, r) for r in self.replicas]
            )
        self._part_frags: Dict[Any, Tuple] = {}
        self._glob_frags: Dict[Any, Tuple] = {}
        #: Replicas moved by at least one group element — values mentioning
        #: none of them have identical fragments under every element.
        self._names: set = set()
        for mapping in self.maps:
            self._names.update(mapping)
        #: Sub-value fragment memo shared by every part (see _canon_keys).
        self._sub_memo: Dict[Any, Tuple[Any, bool]] = {}
        self.last_map: Dict[str, str] = {}

    def part_fragments(self, part: Tuple) -> Tuple:
        """The tuple of ``part``'s canonical images, one per group element."""
        frags = self._part_frags.get(part)
        if frags is None:
            if len(self._part_frags) > _CACHE_LIMIT:
                self._part_frags.clear()
            keys, pure = _canon_keys(
                part, self.maps, self._names, self._sub_memo
            )
            frags = (keys,) * len(self.maps) if pure else tuple(keys)
            self._part_frags[part] = frags
        return frags

    def glob_fragments(self, glob: Tuple) -> Tuple:
        """Like :meth:`part_fragments`, for the replica-free component."""
        frags = self._glob_frags.get(glob)
        if frags is None:
            if len(self._glob_frags) > _CACHE_LIMIT:
                self._glob_frags.clear()
            keys, pure = _canon_keys(
                glob, self.maps, self._names, self._sub_memo
            )
            frags = (keys,) * len(self.maps) if pure else tuple(keys)
            self._glob_frags[glob] = frags
        return frags

    def canonical(
        self, part_frags: Mapping[str, Tuple], glob_frags: Tuple
    ) -> CanonFP:
        """The least candidate over the group; sets :attr:`last_map`."""
        best = None
        best_index = 0
        for index, sources in enumerate(self._slot_sources):
            candidate = (
                tuple([part_frags[source][index] for source in sources]),
                glob_frags[index],
            )
            if best is None or candidate < best:
                best = candidate
                best_index = index
        self.last_map = self.maps[best_index]
        return CanonFP(best)  # type: ignore[arg-type]

    def rename_transitions(self, transitions) -> Any:
        """Translate a sleep set by the latest minimizing permutation."""
        mapping = self.last_map
        if not mapping:
            return transitions
        return frozenset(
            rename_transition(t, mapping) for t in transitions
        )
