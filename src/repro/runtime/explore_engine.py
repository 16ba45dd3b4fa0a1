"""The fast exploration engine behind the exhaustive small-scope checkers.

The naive explorers (:mod:`repro.runtime.explore_naive`) enumerate raw
interleavings and branch by deep-copying the whole system — cost explodes
factorially in the number of operations and deliveries.  This engine ports
both :func:`explore_op_programs` and :func:`explore_state_programs` onto a
single DFS core with three stacked optimizations:

1. **Commutativity-based sleep sets (DPOR).**  The paper's Commutativity
   property (Fig. 11, checked by :mod:`repro.proofs.commutativity`) proves
   that concurrent effectors commute, which is exactly the soundness
   condition for partial-order reduction: of two independent transitions,
   only one order per Mazurkiewicz trace needs exploring.  Actions at
   *distinct* replicas are independent structurally (they touch disjoint
   replica-local data); same-replica delivery pairs are declared
   independent only after a **dynamic commutativity probe** — the two
   effectors are applied in both orders to the replica's current state and
   compared — so a CRDT whose commutativity fails (e.g. a mutant) is
   automatically explored without reduction on exactly the branches where
   it matters.  ``reduction=False`` switches sleep sets off entirely.

2. **Visited-configuration deduplication.**  Each configuration gets a
   canonical fingerprint — program counters, per-replica CRDT state
   fingerprints (the :meth:`~repro.crdts.base.OpBasedCRDT.fingerprint`
   hook, default ``freeze``-based), label data in generation order,
   seen-sets and visibility over *logical* label ids, return values, and
   logical clocks.  Converging branches (e.g. delivery diamonds) are
   explored once.  Fingerprints are exact: two configurations merge only
   when observably equal, so deduplication is sound for arbitrary (even
   broken) CRDTs.

3. **Copy-on-write branching.**  Instead of ``copy.deepcopy`` per branch,
   the engine uses the O(|configuration|) ``snapshot``/``restore``
   protocol of :class:`~repro.runtime.system.OpBasedSystem` and
   :class:`~repro.runtime.state_system.StateBasedSystem`, which shares the
   immutable CRDT states between snapshots.  CRDTs with mutable states opt
   out via ``snapshot_safe = False`` and get the deepcopy fallback.

4. **Replica-symmetry reduction** (``symmetry=True``, off by default at
   this layer).  Replicas running identical programs are interchangeable;
   the fingerprint is mapped to the lexicographically least image under
   the permutation group of the symmetric replicas
   (:mod:`repro.runtime.symmetry`), so an orbit of configurations is
   explored once.  Replicas distinguished by asymmetric programs are
   pinned.  Sleep sets are translated into the same canonical frame
   before the subsumption check, keeping reductions 1 and 4 composable.

Fingerprints are computed *incrementally*: each replica-indexed component
(counter, returns, seen-set, clocks, state fingerprints) lives in a
per-replica part that ``apply`` dirties and ``push``/``pop`` save and
restore, so the per-node cost is proportional to the step's delta rather
than the whole configuration.

Correctness is guarded by a differential oracle (see
``tests/runtime/test_explore_engine.py`` and
``tests/runtime/test_explore_symmetry.py``): on every registry entry's
standard programs the engine visits the same *set* of final
configurations — same histories up to label-identity equivalence — as the
naive explorer, and with symmetry on its visits are a system of orbit
representatives partitioning the naive configuration set.

The engine reports an :class:`ExploreStats` record (configurations,
dedup hits, sleep-set prunes, peak DFS frontier, wall time) that
:class:`repro.proofs.exhaustive.ExhaustiveResult` surfaces.
"""

import copy
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.errors import PreconditionViolation
from ..obs.instrument import Instrumentation, NULL_INSTRUMENTATION
from .state_system import StateBasedSystem
from .symmetry import (
    SymmetryReducer,
    build_group,
    canon_key,
)
from .system import OpBasedSystem

#: Per-state fingerprint caches are cleared past this many entries; the
#: peak size is reported via ``ExploreStats.state_fp_cache_peak`` and the
#: ``explore.state_fp_cache`` gauge.
_STATE_FP_CACHE_LIMIT = 1 << 13

#: A straight-line per-replica program: ``(method, args)`` steps, or
#: ``(method, args, obj)`` when the system hosts several objects.
Program = List[Tuple[Any, ...]]

#: A transition: ``("inv", replica, program index)``,
#: ``("del", replica, logical label id)`` or ``("gos", source, target)``.
Transition = Tuple[Any, ...]

#: A logical label id ``(origin replica, per-origin sequence number)`` —
#: stable across branches, unlike ``Label.uid`` which is freshly drawn on
#: every re-execution of the same program step.
Lid = Tuple[str, int]

#: Shared empty sleep set — the overwhelmingly common child sleep in the
#: source-DPOR loop, interned to skip per-step frozenset construction.
_EMPTY_SLEEP: FrozenSet[Transition] = frozenset()


@dataclass
class ExploreStats:
    """Counters describing one exploration run."""

    #: Final configurations reported to ``visit`` (distinct under dedup).
    configurations: int = 0
    #: Interior + final configurations expanded by the DFS.
    states_visited: int = 0
    #: Subtrees skipped because their fingerprint was already explored.
    states_deduped: int = 0
    #: Transitions skipped by the sleep-set reduction.
    branches_pruned: int = 0
    #: Dynamic effector/merge commutativity probes performed.
    commute_checks: int = 0
    #: Snapshot tokens taken (copy-on-write branching).
    snapshots: int = 0
    #: Whole-system deepcopies (fallback for ``snapshot_safe=False``).
    deepcopies: int = 0
    #: Maximum DFS stack depth (outstanding snapshots).
    peak_frontier: int = 0
    #: Wall-clock seconds spent exploring.
    wall_time: float = 0.0
    #: True when ``max_configurations`` stopped the search.
    capped: bool = False
    #: Order of the replica-permutation group used for orbit dedup
    #: (1 = symmetry off or fully pinned).
    symmetry_group: int = 1
    #: Replicas pinned by asymmetric programs (or by the data-collision
    #: guard) when symmetry was requested.
    pinned_replicas: int = 0
    #: Peak entry count of the per-state fingerprint cache.
    state_fp_cache_peak: int = 0
    #: Work-stealing only: nodes whose unexplored siblings were offloaded
    #: back onto the shared task queue.
    steal_splits: int = 0
    #: Work-stealing only: subtree tasks spawned by those splits.
    steal_spawned: int = 0
    #: Source-DPOR only: reversible races detected along executions.
    dpor_races: int = 0
    #: Source-DPOR only: enabled transitions never scheduled because no
    #: race required them — the interleavings sleep sets alone would
    #: still have explored.
    dpor_redundant_avoided: int = 0
    #: Source-DPOR only: frames conservatively re-expanded to the full
    #: enabled set (missing footprint or disabled race candidate).
    dpor_full_expansions: int = 0
    #: Always 0: counters of a retired POR flavour, kept so readers of
    #: the stats schema (the benchmark harness) stay valid.
    dpor_wakeup_fallbacks: int = 0
    dpor_patch_cuts: int = 0
    #: Always 0: the hash tries are gone; perfbench/workloads.py reads them.
    pstate_copied: int = 0
    pstate_shared: int = 0

    @property
    def dedup_ratio(self) -> float:
        """Fraction of expansions avoided by deduplication."""
        total = self.states_visited + self.states_deduped
        return self.states_deduped / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "configurations": self.configurations,
            "states_visited": self.states_visited,
            "states_deduped": self.states_deduped,
            "branches_pruned": self.branches_pruned,
            "commute_checks": self.commute_checks,
            "snapshots": self.snapshots,
            "deepcopies": self.deepcopies,
            "peak_frontier": self.peak_frontier,
            "wall_time": self.wall_time,
            "capped": self.capped,
            "dedup_ratio": self.dedup_ratio,
            "symmetry_group": self.symmetry_group,
            "pinned_replicas": self.pinned_replicas,
            "state_fp_cache_peak": self.state_fp_cache_peak,
            "steal_splits": self.steal_splits,
            "steal_spawned": self.steal_spawned,
            "dpor_races": self.dpor_races,
            "dpor_redundant_avoided": self.dpor_redundant_avoided,
            "dpor_full_expansions": self.dpor_full_expansions,
            "pstate_copied": self.pstate_copied,
            "pstate_shared": self.pstate_shared,
        }


class _SearchCapped(Exception):
    """Raised internally to stop the whole search at the exact cap."""


def _logical_ids(generation_order: Sequence) -> Dict[int, Lid]:
    """Map ``Label.uid`` to the branch-stable ``(origin, seq)`` id.

    Each replica executes its program in order, so the k-th label generated
    at a replica denotes the same program step in every branch.
    """
    lids: Dict[int, Lid] = {}
    per_origin: Dict[Any, int] = {}
    for label in generation_order:
        seq = per_origin.get(label.origin, 0)
        per_origin[label.origin] = seq + 1
        lids[label.uid] = (label.origin, seq)
    return lids


# ----------------------------------------------------------------------
# Domains: the op-based and state-based semantics behind a common DFS
# ----------------------------------------------------------------------


class _Domain:
    """The configuration bookkeeping both semantics share.

    Op- and state-based configurations have one shape (Sec. 3, App. D):
    program counters and returns, labels with visibility, per-replica
    seen-sets and replica-local states.  They differ only in how effects
    travel — causal delivery or merge — which the subclasses supply:
    transitions and ``apply``, the independence/race/happens-before
    relations, the per-replica fingerprint part and the replica-free
    fingerprint component, plus one extra token slot
    (:attr:`_token_slot`).

    Copy-on-write: ``push`` tokens share the counters, returns, lid
    tables and the token slot by reference, so every change *replaces*
    those values instead of mutating them; only the seen mirror and the
    parts table are copied per token.
    """

    #: The attribute ``push`` saves and ``pop`` restores on top of the
    #: shared state (a value replaced, never mutated, when it changes).
    _token_slot: str

    def __init__(
        self,
        system: Any,
        programs: Dict[str, Program],
        reduction: bool,
        stats: ExploreStats,
        symmetry: bool,
        extra_names: Sequence[str] = (),
    ) -> None:
        self.system = system
        self.programs = programs
        self.replicas = list(programs)
        self.reduction = reduction
        self.stats = stats
        self.use_snapshots = system.snapshot_safe
        self.counters: Dict[str, int] = {r: 0 for r in programs}
        self.returns: Dict[str, List[Any]] = {r: [] for r in programs}
        self._resync()
        # Per-state fingerprint cache: id(state) -> (state, fingerprint).
        # Holding the state reference pins the id against reuse.
        self._state_fps: Dict[int, Tuple[Any, Any]] = {}
        # Incremental fingerprint parts: one entry of replica-indexed
        # components per replica, None = dirty (recomputed lazily by
        # fingerprint()).  apply() dirties only the touched replica;
        # push()/pop() save and restore the table, so the per-node
        # fingerprint cost is O(delta), not O(configuration).  With
        # symmetry on, entries hold the part's *fragment vector* (its
        # canonical images under every group element) instead of the raw
        # part; _glob is the replica-free component (its fragment vector
        # under symmetry), dirtied only when that component changes.
        self._parts: Dict[str, Optional[Tuple]] = {
            r: None for r in self.replicas
        }
        self._glob: Optional[Tuple] = None
        self.sym: Optional[SymmetryReducer] = None
        if symmetry and len(self.replicas) > 1:
            group = build_group(programs, extra_names=extra_names)
            stats.symmetry_group = group.order
            stats.pinned_replicas = len(group.pinned)
            if group.enabled:
                self.sym = SymmetryReducer(self.replicas, group)

    def _resync(self) -> None:
        """Derive the lid tables and the lid-valued mirrors from the system.

        Runs at construction and after the deepcopy fallback, which
        replaces every label object the tables resolve to.  Between the
        two, apply() keeps the mirrors in step with the system's small
        update discipline (invoke adds vis edges from the origin's seen
        labels plus the label itself; delivery and merge only add to
        seen), so fingerprint() reads them directly instead of
        re-translating every label per DFS node.  The naive-vs-engine
        differential oracle guards the mirrors: a divergence changes the
        deduplicated visit set.
        """
        # Incremental logical-id maps (see _logical_ids), extended by
        # _sync_lids on each invoke: transitions() and fingerprint() run
        # several times per DFS node, so the maps must not be rebuilt
        # from the whole generation order every time.
        self._lids: Dict[int, Lid] = {}
        self._per_origin: Dict[Any, int] = {}
        self._lid_to_label: Dict[Lid, Any] = {}
        self._lid_order: List[Lid] = []
        #: Label content keyed by logical id.  A *set*, not a sequence:
        #: the generation order of concurrent operations is not
        #: observable in the configuration (the lid pins each label to
        #: its program step, and visibility carries the causal
        #: structure), and an order-insensitive label component is what
        #: lets permuted-interleaving orbit members — and plain
        #: interleaving variants — deduplicate.
        self._labels_data: FrozenSet[Tuple] = frozenset()
        self._sync_lids()
        lids = self._lids
        self._seen_lids: Dict[str, FrozenSet[Lid]] = {
            r: frozenset(lids[l.uid] for l in self.system._seen[r])
            for r in self.replicas
        }
        self._vis_lids: FrozenSet[Tuple[Lid, Lid]] = frozenset(
            (lids[a.uid], lids[b.uid]) for a, b in self.system._vis
        )

    def _sync_lids(self) -> None:
        """Extend the lid maps with labels generated since the last sync.

        Copy-on-write: push() tokens share the maps by reference, so
        they are copied before they grow, never mutated in place.
        """
        order = self.system.generation_order
        fresh = order[len(self._lids):]
        if not fresh:
            return
        self._lids = dict(self._lids)
        self._per_origin = dict(self._per_origin)
        self._lid_to_label = dict(self._lid_to_label)
        self._lid_order = list(self._lid_order)
        for label in fresh:
            seq = self._per_origin.get(label.origin, 0)
            self._per_origin[label.origin] = seq + 1
            lid = (label.origin, seq)
            self._lids[label.uid] = lid
            self._lid_to_label[lid] = label
            self._lid_order.append(lid)
            self._labels_data |= {
                (lid, label.obj, label.method, label.args,
                 label.ret, label.ts),
            }

    def _record_invoke(self, replica: str, label: Any) -> Lid:
        """Account for ``replica``'s program step that generated ``label``.

        Copy-on-write, like _sync_lids: push() shares the counters and
        returns maps.  Returns the label's logical id.
        """
        self.counters = {
            **self.counters, replica: self.counters[replica] + 1
        }
        self.returns = {
            **self.returns, replica: self.returns[replica] + [label.ret]
        }
        self._sync_lids()
        lid = self._lids[label.uid]
        seen = self._seen_lids[replica]
        self._vis_lids |= {(prior, lid) for prior in seen}
        self._seen_lids[replica] = seen | {lid}
        self._parts[replica] = None
        self._glob = None
        return lid

    # -- branching ------------------------------------------------------

    def push(self) -> Tuple:
        if self.use_snapshots:
            self.stats.snapshots += 1
            system_token: Any = self.system.snapshot()
        else:
            self.stats.deepcopies += 1
            system_token = copy.deepcopy(self.system)
        return (
            system_token,
            self.counters,
            self.returns,
            self._lids,
            self._per_origin,
            self._lid_to_label,
            self._lid_order,
            self._labels_data,
            dict(self._seen_lids),
            self._vis_lids,
            dict(self._parts),
            self._glob,
            getattr(self, self._token_slot),
        )

    def pop(self, token: Tuple) -> None:
        (system_token, counters, returns, lids, per_origin, lid_to_label,
         lid_order, labels_data, seen_lids, vis_lids, parts, glob,
         slot) = token
        self.counters = counters
        self.returns = returns
        # Part entries are immutable values: restoring the shallow copy
        # re-marks exactly the replicas that were dirty at push time.
        self._parts = dict(parts)
        self._glob = glob
        setattr(self, self._token_slot, slot)
        if self.use_snapshots:
            self.system.restore(system_token)
            self._lids = lids
            self._per_origin = per_origin
            self._lid_to_label = lid_to_label
            self._lid_order = lid_order
            self._labels_data = labels_data
            self._seen_lids = dict(seen_lids)
            self._vis_lids = vis_lids
        else:
            self.stats.deepcopies += 1
            self.system = copy.deepcopy(system_token)
            self._resync()

    def _remaining_invokes(self) -> List[Transition]:
        """Every program step not yet run — the invocation part of both
        domains' ``residual_transitions``."""
        counters, programs = self.counters, self.programs
        return [
            ("inv", replica, i)
            for replica in self.replicas
            for i in range(counters[replica], len(programs[replica]))
        ]

    # -- fingerprinting -------------------------------------------------

    def _state_fp(self, crdt, state) -> Any:
        cache = self._state_fps
        cached = cache.get(id(state))
        if cached is not None and cached[0] is state:
            return cached[1]
        fp = crdt.fingerprint(state)
        if len(cache) >= _STATE_FP_CACHE_LIMIT:
            cache.clear()
        cache[id(state)] = (state, fp)
        if len(cache) > self.stats.state_fp_cache_peak:
            self.stats.state_fp_cache_peak = len(cache)
        return fp

    def fingerprint(self) -> Any:
        parts = self._parts
        sym = self.sym
        if sym is None:
            for replica in self.replicas:
                if parts[replica] is None:
                    parts[replica] = self._compute_part(replica)
            if self._glob is None:
                self._glob = self._glob_part()
            return tuple(parts[r] for r in self.replicas), self._glob
        for replica in self.replicas:
            if parts[replica] is None:
                parts[replica] = sym.part_fragments(
                    self._compute_part(replica)
                )
        if self._glob is None:
            self._glob = sym.glob_fragments(self._glob_part())
        return sym.canonical(parts, self._glob)

    def canon_sleep(self, sleep: FrozenSet[Transition]) -> Any:
        """Translate a sleep set into the frame of the latest fingerprint.

        With symmetry on, the fingerprint is the image of the
        configuration under the minimizing permutation π*; sleep sets
        recorded against it must live in the same frame, so subsumption
        compares schedules of the *canonical* configuration, not of
        whichever orbit member happened to arrive.
        """
        sym = self.sym
        if sym is None or not sleep:
            return sleep
        return sym.rename_transitions(sleep)

    def visit_args(self) -> Tuple[Any, Dict[str, List[Any]]]:
        return self.system, self.returns


class _OpDomain(_Domain):
    """Op-based semantics: invoke / causal-delivery transitions."""

    _token_slot = "_causal_lids"

    def __init__(
        self,
        system: OpBasedSystem,
        programs: Dict[str, Program],
        require_quiescence: bool,
        reduction: bool,
        stats: ExploreStats,
        symmetry: bool = False,
    ) -> None:
        self.require_quiescence = require_quiescence
        super().__init__(system, programs, reduction, stats, symmetry,
                         extra_names=tuple(system.objects))
        # The generator table never changes shape mid-search.
        self._gen_names = sorted(system._generators)

    def _resync(self) -> None:
        super()._resync()
        lids = self._lids
        self._causal_lids: Dict[Lid, FrozenSet[Lid]] = {
            lids[label.uid]: frozenset(lids[p.uid] for p in preds)
            for label, preds in self.system._causal_preds.items()
        }
        # The object table holds CRDT instances, which a deepcopy
        # replaces along with the labels.
        self._objs = sorted(self.system.objects.items())

    # -- transitions ----------------------------------------------------

    def transitions(self) -> List[Transition]:
        trans: List[Transition] = []
        for replica in self.replicas:
            if self.counters[replica] < len(self.programs[replica]):
                trans.append(("inv", replica, self.counters[replica]))
        # Causal delivery over the lid mirrors (same condition as
        # ``system.deliverable``; apply() passes ``prechecked=True`` so
        # the system does not re-derive it — the naive differential
        # oracle pins the mirrors against mis-scheduling).
        causal = self._causal_lids
        for replica in self.replicas:
            seen = self._seen_lids[replica]
            for lid in self._lid_order:
                if lid not in seen and causal[lid] <= seen:
                    trans.append(("del", replica, lid))
        return trans

    def should_visit(self, transitions: List[Transition]) -> bool:
        if not transitions:
            return True
        if self.require_quiescence:
            return False
        return all(
            self.counters[r] == len(p) for r, p in self.programs.items()
        )

    def apply(self, transition: Transition) -> bool:
        kind, replica, payload = transition
        if kind == "inv":
            step_spec = self.programs[replica][payload]
            method, args = step_spec[0], step_spec[1]
            obj = step_spec[2] if len(step_spec) > 2 else None
            try:
                label = self.system.invoke(replica, method, args, obj=obj)
            except PreconditionViolation:
                return False  # this interleaving cannot run the op yet
            lid = self._record_invoke(replica, label)
            lids = self._lids
            self._causal_lids = {
                **self._causal_lids,
                lid: frozenset(
                    lids[p.uid] for p in self.system._causal_preds[label]
                ),
            }
            return True
        label = self._lid_to_label[payload]
        # prechecked: transitions() established deliverability from the
        # lid mirrors at this exact configuration.
        self.system.deliver(replica, label, prechecked=True)
        self._seen_lids[replica] = self._seen_lids[replica] | {payload}
        self._parts[replica] = None
        return True

    # -- independence (the DPOR relation) -------------------------------

    def independent(self, a: Transition, b: Transition) -> bool:
        if not self.reduction:
            return False
        if a[1] != b[1]:
            # Distinct replicas touch disjoint replica-local data: their
            # states, seen-sets, and logical clocks are per-replica, and
            # visibility/effector tables only ever grow commutatively.
            return True
        if a[0] == "del" and b[0] == "del":
            first = self._lid_to_label.get(a[2])
            second = self._lid_to_label.get(b[2])
            if first is None or second is None:
                return False
            if first.obj != second.obj:
                return True  # different objects: disjoint state components
            return self._effectors_commute(a[1], first, second)
        # Invoke vs. anything at the same replica reads/writes that
        # replica's state, seen-set, and clock: dependent.
        return False

    def _effectors_commute(self, replica: str, first, second) -> bool:
        """Probe Commutativity (Fig. 11) on the replica's current state.

        Queries carry no effector and trivially commute; otherwise apply
        the two effectors in both orders and compare.  This keeps the
        reduction sound per-branch even for CRDTs that fail the global
        Commutativity property (the mutants): the non-commuting pair is
        simply not treated as independent.
        """
        eff1 = self.system.effector_of(first)
        eff2 = self.system.effector_of(second)
        if eff1 is None or eff2 is None:
            return True
        crdt = self.system.objects[first.obj]
        state = self.system.state(replica, first.obj)
        self.stats.commute_checks += 1
        one_two = crdt.apply_effector(crdt.apply_effector(state, eff1), eff2)
        two_one = crdt.apply_effector(crdt.apply_effector(state, eff2), eff1)
        return one_two == two_one

    # -- happens-before / races (the source-DPOR relations) -------------

    def race_reversible(self, a: Transition, b: Transition) -> bool:
        """Whether the race ``a`` before ``b`` has an executable reversal.

        Program order (two invocations at one replica), the creation edge
        (an invocation before a delivery of its own label), and causal
        delivery (a delivery before a same-replica delivery of a causal
        successor) are *enforced* orders — the reversed execution does not
        exist, so no backtrack point is needed.
        """
        if a[0] == "inv":
            if b[0] == "inv":
                return False  # program order at one replica
            if b[2] == (a[1], a[2]):
                return False  # creation: b delivers a's label
            return True
        if b[0] == "del" and a[0] == "del" and a[1] == b[1]:
            # Same-replica deliveries: irreversible when a's label is a
            # causal predecessor of b's (b was not deliverable before a).
            preds = self._causal_lids.get(b[2])
            if preds is not None and a[2] in preds:
                return False
        return True

    #: Whether some transition must be scheduled unconditionally (see
    #: :meth:`_StateDomain.must_schedule`).  Race reversals only ever
    #: request events that *occur* in explored executions, which covers
    #: a transition iff every maximal execution eventually takes it.
    #: Op-based transitions all qualify — invocations run their programs
    #: out and deliveries stay enabled until taken, so leaves are exactly
    #: the quiescent configurations — so the engine skips the per-node
    #: seeding scan entirely.
    forces_schedule = False

    def residual_transitions(self) -> List[Transition]:
        """Every event that can still occur from this configuration.

        Dedup cuts replay these against the open frames in place of the
        pruned subtree's actual events.  Under quiescence the two sets
        coincide exactly: every maximal execution below this node runs
        all remaining invocations and drains every delivery, so the
        residual alphabet *is* the subtree footprint — no recording, no
        canonical-frame renaming, O(remaining work) to enumerate.
        """
        res = self._remaining_invokes()
        for target in self.replicas:
            seen = self._seen_lids[target]
            for replica in self.replicas:
                if replica == target:
                    continue  # origins see their own labels immediately
                done = self.counters[replica]
                for i in range(len(self.programs[replica])):
                    if i >= done or (replica, i) not in seen:
                        res.append(("del", target, (replica, i)))
        return res

    # Incremental happens-before masks: the engine notes each path event
    # once, and ``hb_dep_mask`` answers "which path indices is this event
    # hb-dependent on" as a bitmask in O(1) dict lookups instead of an
    # O(path) relation loop per event.

    def hb_reset(self) -> None:
        self._hb_replica_masks: Dict[str, int] = {}
        self._hb_mk_bit: Dict[Lid, int] = {}

    def hb_note(self, transition: Transition, index: int) -> None:
        bit = 1 << index
        masks = self._hb_replica_masks
        masks[transition[1]] = masks.get(transition[1], 0) | bit
        if transition[0] == "inv":
            self._hb_mk_bit[(transition[1], transition[2])] = bit

    def hb_unnote(self, transition: Transition, index: int) -> None:
        self._hb_replica_masks[transition[1]] &= ~(1 << index)
        if transition[0] == "inv":
            self._hb_mk_bit.pop((transition[1], transition[2]), None)

    def hb_dep_mask(self, transition: Transition, length: int) -> int:
        """The path indices ``transition`` structurally depends on.

        This is the *coarse* relation source-DPOR computes races over; it
        may be coarser than :meth:`independent` (which additionally
        probes dynamic effector commutation) — a coarser happens-before
        merges fewer executions into one trace class, which only means
        more races are considered, never fewer, so mixing the two stays
        sound.

        Op-based events touch replica-local data (state, seen-set,
        clock), so two events are dependent iff they share a replica —
        plus the creation edge: a delivery depends on the invocation that
        generated its label (the k-th invocation at replica ``r`` has
        logical id ``(r, k)``, which is exactly ``("inv", r, k)``'s
        payload).

        With ``require_quiescence=False`` the visit hook observes
        interior configurations, where commuting adjacent events is not
        prefix-preserving; the engine demotes ``por="source"`` to the
        sleep path outright in that mode, and every event depending on
        the whole path is defense-in-depth should a caller reach the
        source machinery anyway.
        """
        if not self.require_quiescence:
            return (1 << length) - 1
        mask = self._hb_replica_masks.get(transition[1], 0)
        if transition[0] == "del":
            mask |= self._hb_mk_bit.get(transition[2], 0)
        return mask

    # -- fingerprinting -------------------------------------------------

    def _compute_part(self, replica: str) -> Tuple:
        """The replica-indexed fingerprint components of one replica."""
        system = self.system
        states = system._states
        generators = system._generators
        state_fp = self._state_fp
        return (
            self.counters[replica],
            tuple(self.returns[replica]),
            self._seen_lids[replica],
            tuple(
                generators[name].clock(replica) for name in self._gen_names
            ),
            tuple(
                state_fp(crdt, states[(replica, name)])
                for name, crdt in self._objs
            ),
        )

    def _glob_part(self) -> Tuple:
        """The replica-free fingerprint component: labels and visibility."""
        return self._labels_data, self._vis_lids


class _StateDomain(_Domain):
    """State-based semantics: invoke / bounded-gossip transitions."""

    _token_slot = "budget"

    def __init__(
        self,
        system: StateBasedSystem,
        programs: Dict[str, Program],
        max_gossips: int,
        reduction: bool,
        stats: ExploreStats,
        symmetry: bool = False,
    ) -> None:
        self.budget = max_gossips
        super().__init__(system, programs, reduction, stats, symmetry)
        self._gossips: List[Transition] = [
            ("gos", source, target)
            for source in self.replicas
            for target in self.replicas
            if source != target
        ]

    # -- transitions ----------------------------------------------------

    def transitions(self) -> List[Transition]:
        trans: List[Transition] = []
        for replica in self.replicas:
            if self.counters[replica] < len(self.programs[replica]):
                trans.append(("inv", replica, self.counters[replica]))
        if self.budget > 0:
            trans.extend(self._gossips)
        return trans

    def should_visit(self, transitions: List[Transition]) -> bool:
        return all(
            self.counters[r] == len(p) for r, p in self.programs.items()
        )

    def apply(self, transition: Transition) -> bool:
        kind, first, second = transition
        if kind == "inv":
            method, args = self.programs[first][second]
            try:
                label = self.system.invoke(first, method, args)
            except PreconditionViolation:
                return False
            self._record_invoke(first, label)
            return True
        self.system.gossip(first, second)
        self._seen_lids[second] = self._seen_lids[second] | self._seen_lids[first]
        self.budget -= 1
        # Gossip mutates only the target replica (the source is read) —
        # plus the global budget, which lives in the glob component.
        self._parts[second] = None
        self._glob = None
        return True

    # -- independence ---------------------------------------------------

    def independent(self, a: Transition, b: Transition) -> bool:
        if not self.reduction:
            return False
        if a[0] == "gos" and b[0] == "gos":
            if self.budget < 2:
                return False  # taking one disables the other
            # Writers are the targets; sources are only read.
            if a[2] == b[2]:
                # Same merge target: sound iff the two source snapshots
                # merge commutatively into the target's current state
                # (lattice joins do; mutants may not — probe dynamically).
                if b[1] == a[2] or a[1] == b[2]:
                    return False
                return self._merges_commute(a[1], b[1], a[2])
            if a[2] in (b[1], b[2]) or b[2] in (a[1], a[2]):
                return False  # one's write is the other's read/write
            return True
        if a[0] == "inv" and b[0] == "inv":
            return a[1] != b[1]
        inv, gos = (a, b) if a[0] == "inv" else (b, a)
        return inv[1] not in (gos[1], gos[2])

    def _merges_commute(self, source1: str, source2: str, target: str) -> bool:
        crdt = self.system.crdt
        base = self.system.state(target)
        one = self.system.state(source1)
        two = self.system.state(source2)
        self.stats.commute_checks += 1
        return crdt.merge(crdt.merge(base, one), two) == crdt.merge(
            crdt.merge(base, two), one
        )

    # -- happens-before / races (the source-DPOR relations) -------------

    def race_reversible(self, a: Transition, b: Transition) -> bool:
        """See :meth:`_OpDomain.race_reversible`.

        Only program order is enforced here: gossips are enabled whenever
        budget remains (it is never smaller earlier in the execution), so
        every non-program-order race has an executable reversal.
        """
        return not (a[0] == "inv" and b[0] == "inv" and a[1] == b[1])

    def must_schedule(self, transition: Transition) -> bool:
        """Gossips are *alternatives*, not mandatory events: they drain a
        shared budget, so a maximal execution that spends it on one
        gossip never contains the others — no explored execution need
        mention ``gos(2→1)``, and the race mechanism (which only reverses
        events that occur) would silently drop its configurations.  Every
        enabled gossip is therefore force-seeded into each node's source
        set; the reduction prunes invocation interleavings only.
        """
        return transition[0] == "gos"

    #: Gossips need forcing — the engine runs the per-node seeding scan.
    forces_schedule = True

    def residual_transitions(self) -> List[Transition]:
        """See :meth:`_OpDomain.residual_transitions`.

        Remaining invocations occur in every maximal execution below
        this node; gossips are alternatives (budget-bounded), so the
        residual alphabet over-approximates any one subtree's footprint
        — extra replayed races cost work, never soundness, and gossip
        reversals are almost always already covered (every open frame
        force-seeds its enabled gossips via :meth:`must_schedule`).
        """
        res = self._remaining_invokes()
        if self.budget > 0:
            res.extend(self._gossips)
        return res

    # Incremental happens-before masks — see :class:`_OpDomain`.

    def hb_reset(self) -> None:
        self._hb_replica_masks: Dict[str, int] = {}
        self._hb_gos_mask = 0

    def hb_note(self, transition: Transition, index: int) -> None:
        bit = 1 << index
        if transition[0] == "gos":
            self._hb_gos_mask |= bit
        else:
            masks = self._hb_replica_masks
            masks[transition[1]] = masks.get(transition[1], 0) | bit

    def hb_unnote(self, transition: Transition, index: int) -> None:
        if transition[0] == "gos":
            self._hb_gos_mask &= ~(1 << index)
        else:
            self._hb_replica_masks[transition[1]] &= ~(1 << index)

    def hb_dep_mask(self, transition: Transition, length: int) -> int:
        """The path indices ``transition`` structurally depends on.

        Invocations depend on their replica's earlier events; gossips
        depend on *everything* and everything depends on them —
        deliberately coarser than :meth:`independent`.  The state-based
        visit hook fires on interior configurations too (program-complete
        nodes with leftover gossip budget), and source-DPOR only
        preserves maximal executions per trace class; making every
        gossip an ordering barrier forces each explored linearization to
        pass through every visitable interior configuration of its class
        (invocation-only commutations never change a program-complete
        prefix's configuration set), so the visited set stays exactly the
        sleep-set engine's.  The reduction then prunes invocation
        interleavings between gossips.
        """
        if transition[0] == "gos":
            return (1 << length) - 1
        return (
            self._hb_replica_masks.get(transition[1], 0)
            | self._hb_gos_mask
        )

    # -- fingerprinting -------------------------------------------------

    def _compute_part(self, replica: str) -> Tuple:
        """The replica-indexed fingerprint components of one replica."""
        system = self.system
        return (
            self.counters[replica],
            tuple(self.returns[replica]),
            self._seen_lids[replica],
            system._generator.clock(replica),
            self._state_fp(system.crdt, system._states[replica]),
        )

    def _glob_part(self) -> Tuple:
        """The replica-free fingerprint component: labels, visibility and
        the gossip budget.  The message/event logs are excluded
        deliberately: exploration never re-reads old messages (gossip
        snapshots afresh), and the visit callbacks observe history and
        states only."""
        return self._labels_data, self._vis_lids, self.budget


# ----------------------------------------------------------------------
# The DFS core: sleep sets / source sets + dedup over a domain
# ----------------------------------------------------------------------


class _Frame:
    """Per-node scheduling state of the source-DPOR search.

    ``mode`` distinguishes how race reversals landing here are handled:

    * ``"real"`` — a live node of this engine's DFS: reversals join the
      node's ``backtrack`` set and its candidate loop explores them.
    * ``"ignore"`` — the root node of a root-branch seed: every root
      transition is seeded as its own branch task, so any reversal is
      already covered.
    """

    __slots__ = (
        "mode", "enabled", "enabled_set", "sleep", "backtrack", "tried",
        "done", "race_added", "progressed",
    )

    def __init__(
        self,
        mode: str,
        enabled: List[Transition],
        sleep: FrozenSet[Transition],
    ) -> None:
        self.mode = mode
        self.enabled = enabled
        #: Lazily materialized by :meth:`is_enabled` — most frames never
        #: receive a race reversal, so the set would be wasted work.
        self.enabled_set = None
        self.sleep = sleep
        #: Insertion-ordered candidate set (dict keys): the source set.
        self.backtrack: Dict[Transition, None] = {}
        self.tried: set = set()
        self.done: List[Transition] = []
        self.race_added: set = set()
        self.progressed = False

    def next_candidate(self) -> Optional[Transition]:
        for transition in self.backtrack:
            if transition not in self.tried:
                return transition
        return None

    def is_enabled(self, transition: Transition) -> bool:
        enabled_set = self.enabled_set
        if enabled_set is None:
            enabled_set = self.enabled_set = set(self.enabled)
        return transition in enabled_set


def _timed(name: str, phase: str) -> Callable[..., Any]:
    """A :class:`_ProfiledDomain` method: forward the call to the domain's
    ``name`` and charge its wall time to ``phase``."""

    def forward(self, *args):
        start = time.perf_counter()
        result = getattr(self._domain, name)(*args)
        self._profile.add(phase, time.perf_counter() - start)
        return result

    forward.__name__ = name
    return forward


class _ProfiledDomain:
    """Phase-timing proxy around an exploration domain.

    Installed only when a :class:`~repro.obs.profile.PhaseProfiler` is
    attached, so the unprofiled hot loop stays on plain domain calls
    (its only profiling branch is one ``is None`` check per race walk,
    which times the ``race`` phase — pure engine work with no domain
    calls inside, so the domain phases never double-count it).  The
    proxy times the domain calls that dominate engine wall — snapshot
    push/pop, transition application, independence (commutativity)
    probes, happens-before maintenance, fingerprint/canonicalization —
    and forwards everything else untouched.  Per-call ``perf_counter``
    pairs are real overhead; that cost is the price of attribution and
    is only ever paid on profiled runs.
    """

    __slots__ = ("_domain", "_profile")

    def __init__(self, domain, profile) -> None:
        self._domain = domain
        self._profile = profile

    def __getattr__(self, name):
        return getattr(self._domain, name)

    push = _timed("push", "snapshot")
    pop = _timed("pop", "restore")
    apply = _timed("apply", "apply")
    independent = _timed("independent", "commute")
    race_reversible = _timed("race_reversible", "commute")
    fingerprint = _timed("fingerprint", "fingerprint")
    canon_sleep = _timed("canon_sleep", "fingerprint")
    hb_dep_mask = _timed("hb_dep_mask", "hb")
    hb_note = _timed("hb_note", "hb")
    hb_unnote = _timed("hb_unnote", "hb")
    residual_transitions = _timed("residual_transitions", "hb")


class _Engine:
    """Depth-first search with sleep sets (or source-DPOR) and
    fingerprint deduplication."""

    def __init__(
        self,
        domain,
        visit: Callable[[Any, Dict[str, List[Any]]], None],
        max_configurations: Optional[int],
        dedup: bool,
        stats: ExploreStats,
        fp_store: Optional[Any] = None,
        scheduler: Optional[Any] = None,
        budget: Optional[Any] = None,
        por: str = "sleep",
        profile: Optional[Any] = None,
        journal: Optional[Any] = None,
        heartbeat: Optional[Any] = None,
    ) -> None:
        #: Observatory hooks (``docs/observability.md``): each is None
        #: when off, so the hot paths pay one attribute check apiece.
        self.profile = profile
        self.journal = journal
        self.heartbeat = heartbeat
        if profile is not None:
            domain = _ProfiledDomain(domain, profile)
        self.domain = domain
        self.visit = visit
        self.max_configurations = max_configurations
        self.dedup = dedup
        self.stats = stats
        #: Optional :class:`~repro.runtime.fp_store.FingerprintStore`:
        #: when set, the visited/expanded records are keyed by fixed-width
        #: digests instead of raw fingerprint tuples, and live in the
        #: store's (possibly spill-backed) containers.
        self.fp_store = fp_store
        #: Optional work-stealing hook (``should_split(depth)`` /
        #: ``offload(path, sleep)``), honored by the sleep-set DFS only;
        #: when set, the engine tracks the transition path from the root
        #: so unexplored siblings can be handed off as replayable subtree
        #: tasks.  Source-DPOR never splits: its race reversals must land
        #: on ancestor frames a stolen subtree cannot see.
        self.scheduler = scheduler
        #: Optional cross-worker configuration budget (``claim(fp)`` /
        #: ``exhausted()``) implementing an exact shared
        #: ``max_configurations`` cutoff under parallel exploration.
        self.budget = budget
        self._path: List[Transition] = []
        #: Fingerprints of configurations already reported to ``visit``.
        #: The work-stealing merge unions the per-worker sets to count
        #: distinct configurations globally.
        self._visited_fps: Any = (
            fp_store.visited_set() if fp_store is not None else set()
        )
        #: fingerprint -> sleep sets the subtree was explored under.  A new
        #: arrival is subsumed if some recorded sleep set is contained in
        #: the current one (then every schedule allowed now was allowed —
        #: and explored — before).
        self._expanded: Any = (
            fp_store.expanded_map() if fp_store is not None else {}
        )
        #: Recorded sleep keys, interned (see :meth:`_intern_sleep`).
        self._sleep_keys: Dict[Any, Any] = {}
        if por not in ("sleep", "source"):  # pragma: no cover - caller bug
            raise ValueError(f"unknown por mode {por!r}")
        if por == "source" and not getattr(domain, "reduction", True):
            # reduction=False means "explore every interleaving" (the
            # per-entry escape hatch / naive parity mode); the sleep path
            # with empty sleep sets is exactly that.
            por = "sleep"
        if por == "source" and not getattr(
            domain, "require_quiescence", True
        ):
            # Non-quiescent op exploration visits *interior*
            # configurations, which source-DPOR's maximal-execution
            # guarantee does not preserve (two trace-equivalent
            # executions pass through different interiors).  Fall back
            # to sleep sets, which visit every non-pruned node.
            por = "sleep"
        #: Partial-order reduction flavor: classic sleep sets, or
        #: source-DPOR (sleep sets + race-driven source sets).
        self.por = por
        #: Source-DPOR frame stack, aligned with ``_path`` (frame i is
        #: the node reached by ``_path[:i]``).
        self._frames: List[_Frame] = []
        #: Happens-before predecessor bitmask per path event.
        self._hb: List[int] = []
        if self.por == "source":
            domain.hb_reset()
        if heartbeat is not None:
            heartbeat.watch(stats, fp_store)

    def _intern_sleep(self, sleep_key: Any) -> Any:
        """One shared object per distinct recorded sleep key.

        Canonical sleep keys are rebuilt per arrival, yet a scope has
        few distinct ones; sharing them keeps the expanded records'
        memory proportional to distinct states, not to arrivals.
        """
        return self._sleep_keys.setdefault(sleep_key, sleep_key)

    def _fingerprint(self) -> Any:
        fp = self.domain.fingerprint()
        if self.fp_store is not None:
            return self.fp_store.intern(fp)
        return fp

    def run(
        self,
        root_branch: Optional[int] = None,
        path: Optional[Sequence[Transition]] = None,
        sleep: FrozenSet[Transition] = frozenset(),
    ) -> ExploreStats:
        """Explore the whole tree, one root branch, or a stolen subtree.

        ``root_branch`` is a work-stealing seed task (see
        :meth:`_run_root_branch`); ``path`` replays a transition sequence
        from the root and runs the sleep-set DFS below it under ``sleep``
        — the split task unit.  Wall time *accumulates* so an engine
        reused across tasks reports its total exploration time.
        """
        started = time.perf_counter()
        try:
            if path is not None:
                self._run_path(path, sleep)
            elif root_branch is None:
                if self.por == "source":
                    self._run_source_root()
                else:
                    self._dfs(frozenset(), 1)
            else:
                self._run_root_branch(root_branch)
        except _SearchCapped:
            self.stats.capped = True
            if self.journal is not None:
                self.journal.record(
                    "budget.exhausted",
                    configurations=self.stats.configurations,
                )
        self.stats.wall_time += time.perf_counter() - started
        return self.stats

    def _reset_stacks(self) -> None:
        """Clear the per-unit search stacks (they do not survive a cap)."""
        self._path = []
        self._frames = []
        self._hb = []
        if self.por == "source":
            self.domain.hb_reset()

    def _run_source_root(self) -> None:
        try:
            self._dfs_source(frozenset(), 1)
        finally:
            self._reset_stacks()

    def _run_path(
        self, path: Sequence[Transition], sleep: FrozenSet[Transition]
    ) -> None:
        """Replay ``path`` from the root, then run the sleep-set DFS under
        ``sleep`` — the unit a splitting worker offloads.

        The path was produced by a worker that successfully applied every
        transition on it, and apply() failures are deterministic in the
        configuration, so a replay failure means the task is corrupt —
        raise rather than silently dropping a subtree.
        """
        domain = self.domain
        token = domain.push()
        try:
            for transition in path:
                if not domain.apply(transition):
                    raise RuntimeError(
                        "stolen subtree failed to replay at "
                        f"{transition!r}"
                    )
            self._path = list(path)
            self._dfs(frozenset(sleep), len(path) + 1)
        finally:
            # Restore the root even when capped mid-subtree, so a worker
            # session stays reusable for its next task.
            self._reset_stacks()
            domain.pop(token)

    def _run_root_branch(self, branch: int) -> None:
        """Explore only the subtree under the ``branch``-th root transition.

        This is the seed task of the work-stealing pool: a worker
        reconstructs exactly the state the serial DFS has when it
        descends into root child ``i`` — the earlier root transitions that
        ran (and were fully explored) become sleep-set seeds when
        independent of this branch's transition — and then runs the
        ordinary DFS below it.  Branch 0 additionally owns the root
        configuration itself, so across seeds it is reported once.
        A ``branch`` beyond the root's out-degree is a no-op.

        Under source-DPOR the root node gets an ``"ignore"`` frame: every
        root transition is seeded as a branch of its own (the orbit
        filter only drops transitions covered by a symmetric
        representative), so the full root expansion subsumes any source
        set a race reversal could request.
        """
        domain, stats = self.domain, self.stats
        transitions = domain.transitions()
        fingerprint = self.dedup and self._fingerprint()
        if branch == 0:
            stats.states_visited += 1
            stats.peak_frontier = max(stats.peak_frontier, 1)
            if domain.should_visit(transitions):
                self._report(fingerprint)
        if branch >= len(transitions):
            return
        if self.dedup:
            # Serial DFS records the root under the empty sleep set; keep
            # that so deeper re-arrivals at the root configuration are
            # subsumed here exactly as they are serially.
            self._expanded.setdefault(fingerprint, []).append(frozenset())
        target = transitions[branch]
        token = domain.push()
        done: List[Transition] = []
        for transition in transitions[:branch]:
            # Serial order: these ran (and were explored) before `target`.
            # Test-apply to find out which ones actually ran — a failed
            # apply() is skipped by the serial loop too.
            if domain.apply(transition):
                domain.pop(token)
                done.append(transition)
        child_sleep = frozenset(
            other for other in done if domain.independent(other, target)
        )
        if domain.apply(target):
            if self.por == "source":
                self._frames.append(_Frame("ignore", transitions,
                                           frozenset()))
                try:
                    domain.hb_note(target, 0)
                    self._path.append(target)
                    self._hb.append(0)
                    self._dfs_source(child_sleep, 2)
                finally:
                    self._reset_stacks()
                    domain.pop(token)
            else:
                self._path = [target]
                try:
                    self._dfs(child_sleep, 2)
                finally:
                    self._path = []
                    domain.pop(token)

    def _report(self, fingerprint: Any) -> None:
        if self.dedup:
            if fingerprint in self._visited_fps:
                return
            if self.budget is not None:
                # claim() is three-valued: 1 = newly claimed (count and
                # check it here), 0 = another worker already counted it
                # (keep it in our visited set — the merged union then
                # still counts it exactly once), -1 = the shared cap was
                # reached before this configuration (do NOT record it:
                # nobody counted it, so it must not survive the union).
                claim = self.budget.claim(fingerprint)
                if claim < 0:
                    raise _SearchCapped
                self._visited_fps.add(fingerprint)
                if claim == 0:
                    return
            else:
                self._visited_fps.add(fingerprint)
        self.stats.configurations += 1
        self.visit(*self.domain.visit_args())
        if (
            self.max_configurations is not None
            and self.stats.configurations >= self.max_configurations
        ):
            raise _SearchCapped
        if self.budget is not None and self.budget.exhausted():
            raise _SearchCapped

    def _dfs(self, sleep: FrozenSet[Transition], depth: int) -> None:
        domain, stats = self.domain, self.stats
        stats.states_visited += 1
        if self.heartbeat is not None:
            self.heartbeat.tick(depth)
        if depth > stats.peak_frontier:
            stats.peak_frontier = depth
        if self.budget is not None and self.budget.exhausted():
            raise _SearchCapped
        transitions = domain.transitions()
        fingerprint = self.dedup and self._fingerprint()
        if domain.should_visit(transitions):
            self._report(fingerprint)
        if not transitions:
            return
        if self.dedup:
            # Sleep sets are compared in the canonical frame: under
            # symmetry, orbit members arriving with differently-named
            # schedules must subsume each other iff their canonical
            # images do (canon_sleep is the identity with symmetry off).
            sleep_key = domain.canon_sleep(sleep)
            # One setdefault = one hash of the (large, nested) fingerprint
            # tuple; a get-then-setdefault pair would hash it twice.
            recorded_sets = self._expanded.setdefault(fingerprint, [])
            for recorded in recorded_sets:
                if recorded <= sleep_key:
                    stats.states_deduped += 1
                    return
            recorded_sets.append(self._intern_sleep(sleep_key))
        scheduler = self.scheduler
        token = domain.push()
        done: List[Transition] = []
        explored_locally = False
        did_split = False
        for transition in transitions:
            if transition in sleep:
                stats.branches_pruned += 1
                continue
            # Sleep-set inheritance is decided *before* the step runs, on
            # the state the independence probe sees.
            child_sleep = frozenset(
                other
                for other in sleep.union(done)
                if domain.independent(other, transition)
            )
            if (
                scheduler is not None
                and explored_locally
                and scheduler.should_split(depth)
            ):
                # The pool is hungry: hand this sibling's subtree to an
                # idle worker instead of exploring it here.  Test-apply
                # keeps serial semantics — a failed apply() is skipped by
                # the serial loop too, and ``done``/``child_sleep`` are
                # exactly what the serial DFS would have used.
                if domain.apply(transition):
                    domain.pop(token)
                    scheduler.offload(
                        tuple(self._path) + (transition,), child_sleep
                    )
                    stats.steal_spawned += 1
                    if self.journal is not None:
                        self.journal.record(
                            "steal.split", depth=depth,
                            path_len=len(self._path) + 1,
                        )
                    if not did_split:
                        did_split = True
                        stats.steal_splits += 1
                    done.append(transition)
                continue
            if not domain.apply(transition):
                continue
            if scheduler is not None:
                self._path.append(transition)
                self._dfs(child_sleep, depth + 1)
                self._path.pop()
            else:
                self._dfs(child_sleep, depth + 1)
            domain.pop(token)
            done.append(transition)
            explored_locally = True

    # -- source-DPOR ----------------------------------------------------

    def _dfs_source(
        self, sleep: FrozenSet[Transition], depth: int
    ) -> None:
        """The source-DPOR node loop.

        Unlike :meth:`_dfs`, which schedules *every* enabled transition
        outside the sleep set, this loop schedules only the node's
        **source set**: the first non-slept transition, plus whatever race
        reversals detected along deeper executions add to the node's
        backtrack set (lazily, while the node is still on the stack).
        Enabled transitions never demanded by a race are provably
        redundant — their interleavings reach already-covered
        Mazurkiewicz traces — and are counted in
        ``dpor_redundant_avoided`` instead of explored.
        """
        domain, stats = self.domain, self.stats
        stats.states_visited += 1
        if self.heartbeat is not None:
            self.heartbeat.tick(depth)
        if depth > stats.peak_frontier:
            stats.peak_frontier = depth
        if self.budget is not None and self.budget.exhausted():
            raise _SearchCapped
        transitions = domain.transitions()
        fingerprint = self.dedup and self._fingerprint()
        if domain.should_visit(transitions):
            self._report(fingerprint)
        if not transitions:
            return
        if self.dedup:
            sleep_key = domain.canon_sleep(sleep)
            recorded_sets = self._expanded.setdefault(fingerprint, [])
            for recorded in recorded_sets:
                if recorded <= sleep_key:
                    stats.states_deduped += 1
                    # The subtree below an equivalent node is not run
                    # again — but its events can still race with *this*
                    # path's prefix, so replay the residual alphabet
                    # against the open frames.
                    self._replay_residual()
                    return
            recorded_sets.append(self._intern_sleep(sleep_key))
        frame = _Frame("real", transitions, sleep)
        self._frames.append(frame)
        token = domain.push()
        try:
            for transition in transitions:
                if transition not in sleep:
                    frame.backtrack[transition] = None
                    break
            if domain.forces_schedule:
                for transition in transitions:
                    if (
                        transition not in sleep
                        and domain.must_schedule(transition)
                    ):
                        frame.backtrack[transition] = None
            while True:
                transition = frame.next_candidate()
                if transition is None:
                    if not frame.progressed:
                        # Every candidate failed its precondition; seed
                        # the next untried enabled transition, exactly as
                        # the serial loop skips a failed apply().
                        seeded = False
                        for candidate in transitions:
                            if (
                                candidate not in sleep
                                and candidate not in frame.tried
                            ):
                                frame.backtrack[candidate] = None
                                seeded = True
                                break
                        if seeded:
                            continue
                    break
                frame.tried.add(transition)
                if frame.done:
                    base = frame.sleep.union(frame.done)
                elif frame.sleep:
                    base = frame.sleep
                else:
                    base = None
                if base:
                    child_sleep = frozenset(
                        other
                        for other in base
                        if domain.independent(other, transition)
                    )
                else:
                    child_sleep = _EMPTY_SLEEP
                if not domain.apply(transition):
                    if transition in frame.race_added:
                        # A race demanded this reversal but the
                        # transition is disabled here after all; cover
                        # the reversal by scheduling everything.
                        self._full_expand(frame)
                    continue
                self._record_event(transition)
                self._dfs_source(child_sleep, depth + 1)
                self._path.pop()
                self._hb.pop()
                domain.hb_unnote(transition, len(self._path))
                domain.pop(token)
                frame.done.append(transition)
                frame.progressed = True
        finally:
            self._frames.pop()
        for transition in transitions:
            if transition in sleep:
                stats.branches_pruned += 1
            elif transition not in frame.tried:
                stats.dpor_redundant_avoided += 1

    def _analyze_event(self, transition: Transition) -> Tuple[int, int]:
        """Happens-before masks of ``transition`` as the next path event.

        Returns ``(adjacent, hb_mask)``: the bitmask of path indices the
        event is *hb-adjacent* to (dependent and not already ordered
        through a later dependent event — the race candidates), and the
        full happens-before predecessor mask to push onto ``_hb``.
        """
        hb = self._hb
        dep = self.domain.hb_dep_mask(transition, len(self._path))
        covered = 0
        mask = dep
        while mask:
            low = mask & -mask
            mask ^= low
            covered |= hb[low.bit_length() - 1]
        return dep & ~covered, dep | covered

    def _record_event(self, transition: Transition) -> None:
        """Append ``transition`` to the path, processing its races."""
        adjacent, hb_mask = self._analyze_event(transition)
        domain, path = self.domain, self._path
        k = len(path)
        mask = adjacent
        while mask:
            low = mask & -mask
            mask ^= low
            j = low.bit_length() - 1
            if self._frames[j].mode == "ignore":
                continue
            if not domain.race_reversible(path[j], transition):
                continue
            self.stats.dpor_races += 1
            self._reverse_race(j, k, transition, hb_mask)
        domain.hb_note(transition, k)
        path.append(transition)
        self._hb.append(hb_mask)

    @staticmethod
    def _initial_covered(w: Transition, frame: _Frame) -> bool:
        """The source-set condition for one initial ``w``, shared by the
        ``path[m]`` and trailing-``transition`` arms of the race walk: a
        slept initial means the branch that slept it covers the
        reversal; a scheduled/run initial means this node already
        explores it."""
        return w in frame.sleep or w in frame.backtrack or w in frame.tried

    def _race_plan(
        self, j: int, k: int, transition: Transition, hb_mask: int
    ) -> Optional[Transition]:
        """Walk the initials of ``v = notdep(path[j], E) · transition``.

        Returns ``None`` when some initial already covers the reversal,
        else the sequence's first event — the one to schedule at frame
        ``j``.
        """
        profile = self.profile
        start = time.perf_counter() if profile is not None else 0.0
        frame = self._frames[j]
        path, hb = self._path, self._hb
        first: Optional[Transition] = None
        covered = False
        v_mask = 0
        for m in range(j + 1, k):
            hbm = hb[m]
            if (hbm >> j) & 1:
                continue  # depends on path[j]: not part of v
            if not (hbm & v_mask):
                w = path[m]
                if self._initial_covered(w, frame):
                    covered = True
                    break
                if first is None:
                    first = w
            v_mask |= 1 << m
        if not covered and not (hb_mask & v_mask):
            if self._initial_covered(transition, frame):
                covered = True
            elif first is None:
                first = transition
        if profile is not None:
            profile.add("race", time.perf_counter() - start)
        # ``first`` is None only when covered: v always has an initial.
        return None if covered else first

    def _reverse_race(
        self, j: int, k: int, transition: Transition, hb_mask: int
    ) -> None:
        """Reverse the race ``path[j]`` ↔ ``transition`` at frame ``j``.

        :meth:`_race_plan` walks the initials of the reversal sequence
        ``v·t`` and short-circuits when one already covers it, which in
        the common case is the immediately following event.  Otherwise
        the first initial is scheduled — added to the frame's backtrack
        set.  A demanded initial that is not enabled at frame ``j`` (only
        possible via :meth:`_replay_residual`'s positional
        over-approximation) degrades the frame to the full sleep-set
        schedule.
        """
        first = self._race_plan(j, k, transition, hb_mask)
        if first is None:
            return
        frame = self._frames[j]
        if self.journal is not None:
            self.journal.record(
                "dpor.reversal", frame=j, depth=k, mode=frame.mode,
            )
        if not frame.is_enabled(first):
            self._full_expand(frame)
            return
        frame.backtrack[first] = None
        frame.race_added.add(first)

    def _full_expand(self, frame: _Frame) -> None:
        """Degrade a frame to the sleep-set schedule (every non-slept
        enabled transition), the conservative fallback when precise race
        coverage is unavailable."""
        self.stats.dpor_full_expansions += 1
        for transition in frame.enabled:
            if (
                transition not in frame.sleep
                and transition not in frame.tried
                and transition not in frame.backtrack
            ):
                # Deliberately not race_added: if a fallback candidate
                # fails to apply it is skipped, as in the sleep engine.
                frame.backtrack[transition] = None

    def _replay_residual(self) -> None:
        """Re-run race detection for a dedup-cut subtree.

        The subtree below this node is not executed again — but its
        events can race with the *current* path prefix, which differs
        from the one an equivalent subtree was first explored under.  The
        domain's residual alphabet (every event that can still occur from
        here) stands in for the subtree: each residual transition is
        analyzed against the live frames exactly as if it ran next.
        Under quiescence the residual alphabet equals the footprint of
        every maximal execution below this node, and it is computed from
        the *live* configuration — so nothing is recorded, no canonical-
        frame renaming is needed, and whether the equivalent subtree was
        itself cut short (offloaded, capped) is irrelevant.  Positional
        information is over-approximated (a deep subtree event is
        analyzed as if it ran immediately) — extra backtrack points cost
        work, never soundness.
        """
        domain, path = self.domain, self._path
        k = len(path)
        for u in domain.residual_transitions():
            adjacent, hb_mask = self._analyze_event(u)
            mask = adjacent
            while mask:
                low = mask & -mask
                mask ^= low
                j = low.bit_length() - 1
                if self._frames[j].mode == "ignore":
                    continue
                if not domain.race_reversible(path[j], u):
                    continue
                self.stats.dpor_races += 1
                self._reverse_race(j, k, u, hb_mask)


# ----------------------------------------------------------------------
# Session factory (the work-stealing workers' entry point)
# ----------------------------------------------------------------------


def build_engine(
    kind: str,
    make_system: Callable[[], Any],
    programs: Dict[str, Program],
    visit: Callable[[Any, Dict[str, List[Any]]], None],
    require_quiescence: bool = True,
    max_gossips: int = 3,
    max_configurations: Optional[int] = None,
    reduction: bool = True,
    dedup: bool = True,
    stats: Optional[ExploreStats] = None,
    fp_store: Optional[Any] = None,
    scheduler: Optional[Any] = None,
    budget: Optional[Any] = None,
    symmetry: bool = False,
    por: str = "sleep",
    profile: Optional[Any] = None,
    journal: Optional[Any] = None,
    heartbeat: Optional[Any] = None,
) -> _Engine:
    """Build a reusable exploration engine for ``kind`` (``op``/``state``).

    Unlike :func:`explore_op_programs`/:func:`explore_state_programs`,
    which run one exploration and return, the engine handle persists its
    domain, visited/expanded records, and statistics across multiple
    :meth:`_Engine.run` calls — the work-stealing workers run many
    subtree tasks of the same scope through one session, so dedup and
    verdict caches warm up exactly like a serial run's.
    """
    stats = stats if stats is not None else ExploreStats()
    if kind == "op":
        domain: Any = _OpDomain(
            make_system(), programs, require_quiescence, reduction, stats,
            symmetry=symmetry,
        )
    elif kind == "state":
        domain = _StateDomain(
            make_system(), programs, max_gossips, reduction, stats,
            symmetry=symmetry,
        )
    else:  # pragma: no cover - caller bug
        raise ValueError(f"unknown exploration kind {kind!r}")
    return _Engine(
        domain, visit, max_configurations, dedup, stats,
        fp_store=fp_store, scheduler=scheduler, budget=budget, por=por,
        profile=profile, journal=journal, heartbeat=heartbeat,
    )


# ----------------------------------------------------------------------
# Public entry points (signatures of the historical explorers)
# ----------------------------------------------------------------------


def explore_op_programs(
    make_system: Callable[[], OpBasedSystem],
    programs: Dict[str, Program],
    visit: Callable[[OpBasedSystem, Dict[str, List[Any]]], None],
    require_quiescence: bool = True,
    max_configurations: Optional[int] = None,
    reduction: bool = True,
    dedup: bool = True,
    stats: Optional[ExploreStats] = None,
    instrumentation: Optional[Instrumentation] = None,
    symmetry: bool = False,
    fp_store: Optional[Any] = None,
    por: str = "sleep",
    heartbeat: Optional[Any] = None,
) -> int:
    """Run per-replica ``programs`` under every op-based interleaving.

    ``visit(system, returns)`` is called once per *distinct* final
    configuration (deduplicated by canonical fingerprint); the system
    object passed to ``visit`` is reused by the engine afterwards, so
    callbacks must extract what they need rather than keep a reference.
    Returns the number of configurations visited.

    ``reduction=False`` disables the commutativity-based sleep sets (the
    per-entry escape hatch); ``dedup=False`` additionally disables
    fingerprint deduplication, recovering the naive enumeration order.
    ``symmetry=True`` dedups on orbit representatives under replica
    permutation (see :mod:`repro.runtime.symmetry`): ``visit`` then fires
    once per orbit and ``max_configurations`` caps the *orbit* count.
    ``stats`` may be a caller-provided :class:`ExploreStats` to fill in.
    ``fp_store`` (a :class:`~repro.runtime.fp_store.FingerprintStore`)
    keys the visited/expanded records by its digests, spill-backed when
    the store is.

    ``instrumentation`` wraps the run in an ``explore.op`` span and folds
    the final :class:`ExploreStats` into metrics; the DFS hot path is
    untouched, so disabled instrumentation costs one attribute check.
    """
    stats = stats if stats is not None else ExploreStats()
    ins = instrumentation if instrumentation is not None \
        else NULL_INSTRUMENTATION
    engine = build_engine(
        "op", make_system, programs, visit,
        require_quiescence=require_quiescence,
        max_configurations=max_configurations, reduction=reduction,
        dedup=dedup, stats=stats, fp_store=fp_store, symmetry=symmetry,
        por=por, profile=ins.profile, journal=ins.journal,
        heartbeat=heartbeat,
    )
    with ins.span("explore.op", replicas=len(programs),
                  symmetry=symmetry, por=por) as span:
        engine.run()
        span.set(configurations=stats.configurations,
                 states_visited=stats.states_visited)
    if ins.enabled:
        ins.record_explore(stats, kind="op")
    return stats.configurations


def explore_state_programs(
    make_system: Callable[[], StateBasedSystem],
    programs: Dict[str, Program],
    visit: Callable[[StateBasedSystem, Dict[str, List[Any]]], None],
    max_gossips: int = 3,
    max_configurations: Optional[int] = None,
    reduction: bool = True,
    dedup: bool = True,
    stats: Optional[ExploreStats] = None,
    instrumentation: Optional[Instrumentation] = None,
    symmetry: bool = False,
    fp_store: Optional[Any] = None,
    por: str = "sleep",
    heartbeat: Optional[Any] = None,
) -> int:
    """Run ``programs`` under every bounded state-based interleaving.

    Same optimization/escape-hatch knobs (``symmetry`` included) and
    instrumentation hook as :func:`explore_op_programs`; ``visit`` fires
    on every configuration whose programs have finished, including ones
    with leftover gossip budget (partial propagation).
    """
    stats = stats if stats is not None else ExploreStats()
    ins = instrumentation if instrumentation is not None \
        else NULL_INSTRUMENTATION
    engine = build_engine(
        "state", make_system, programs, visit, max_gossips=max_gossips,
        max_configurations=max_configurations, reduction=reduction,
        dedup=dedup, stats=stats, fp_store=fp_store, symmetry=symmetry,
        por=por, profile=ins.profile, journal=ins.journal,
        heartbeat=heartbeat,
    )
    with ins.span("explore.state", replicas=len(programs),
                  max_gossips=max_gossips, symmetry=symmetry,
                  por=por) as span:
        engine.run()
        span.set(configurations=stats.configurations,
                 states_visited=stats.states_visited)
    if ins.enabled:
        ins.record_explore(stats, kind="state")
    return stats.configurations


# ----------------------------------------------------------------------
# Canonical configuration keys (the differential-oracle equivalence)
# ----------------------------------------------------------------------


def op_config_key(
    system: OpBasedSystem, returns: Dict[str, List[Any]]
) -> Tuple:
    """A hashable key identifying a final configuration up to equivalence.

    Labels are named by logical id (origin, per-origin sequence number), so
    two executions that perform the same operations with the same returns,
    timestamps, visibility, seen-sets, and replica states — regardless of
    ``Label.uid`` draws or the order interleavings were enumerated in —
    get equal keys.  Used by the naive-vs-engine differential tests.
    """
    lids = _logical_ids(system.generation_order)
    labels = frozenset(
        (lids[l.uid], l.obj, l.method, l.args, l.ret, l.ts)
        for l in system.generation_order
    )
    vis = frozenset((lids[a.uid], lids[b.uid]) for a, b in system._vis)
    seen = tuple(
        (r, frozenset(lids[l.uid] for l in system._seen[r]))
        for r in system.replicas
    )
    states = tuple(
        (r, name, crdt.fingerprint(system._states[(r, name)]))
        for r in system.replicas
        for name, crdt in sorted(system.objects.items())
    )
    rets = tuple(sorted((r, tuple(v)) for r, v in returns.items()))
    return (labels, vis, seen, states, rets)


def state_config_key(
    system: StateBasedSystem, returns: Dict[str, List[Any]]
) -> Tuple:
    """State-based analogue of :func:`op_config_key`."""
    lids = _logical_ids(system.generation_order)
    labels = frozenset(
        (lids[l.uid], l.method, l.args, l.ret, l.ts)
        for l in system.generation_order
    )
    vis = frozenset((lids[a.uid], lids[b.uid]) for a, b in system._vis)
    seen = tuple(
        (r, frozenset(lids[l.uid] for l in system._seen[r]))
        for r in system.replicas
    )
    states = tuple(
        (r, system.crdt.fingerprint(system._states[r]))
        for r in system.replicas
    )
    rets = tuple(sorted((r, tuple(v)) for r, v in returns.items()))
    return (labels, vis, seen, states, rets)


# ----------------------------------------------------------------------
# Orbit keys (the symmetry-differential-oracle equivalence)
# ----------------------------------------------------------------------


def op_orbit_key(
    system: OpBasedSystem,
    returns: Dict[str, List[Any]],
    programs: Dict[str, Program],
) -> Tuple:
    """The canonical orbit key of a final configuration.

    Two final configurations get equal orbit keys iff their
    :func:`op_config_key` keys are images of each other under a
    permutation of the symmetric replicas of ``programs`` (identity
    included) — the same group the engine dedups over with
    ``symmetry=True``, applied to the *order-insensitive* config key (the
    engine's internal fingerprint additionally distinguishes generation
    order, which the sleep-set reduction deliberately prunes).  The
    symmetry-differential tests group the naive explorer's configurations
    by this key — a partition — and check the fast engine visited a
    representative of every part and nothing outside.
    """
    group = build_group(programs, extra_names=tuple(system.objects))
    labels, vis, seen, states, rets = op_config_key(system, returns)
    # The per-replica components are tuples *ordered by replica name*;
    # renaming inside an ordered tuple would not reorder the slots, so
    # turn them into sets first (entries stay unique — each is keyed by
    # its replica name) and let canon_key sort them after renaming.
    key = (labels, vis, frozenset(seen), frozenset(states), frozenset(rets))
    return min(canon_key(key, mapping) for mapping in group.maps)


def state_orbit_key(
    system: StateBasedSystem,
    returns: Dict[str, List[Any]],
    programs: Dict[str, Program],
) -> Tuple:
    """State-based analogue of :func:`op_orbit_key` (over
    :func:`state_config_key`, which already collapses leftover-budget
    duplicates identically on the naive and engine sides)."""
    group = build_group(programs)
    labels, vis, seen, states, rets = state_config_key(system, returns)
    key = (labels, vis, frozenset(seen), frozenset(states), frozenset(rets))
    return min(canon_key(key, mapping) for mapping in group.maps)
