"""Operational semantics of op-based CRDT objects (Fig. 7) and of object
compositions ⊗ / ⊗ts (Sec. 5.1, Fig. 11).

A :class:`OpBasedSystem` is a global configuration ``(G, vis, DS)``:

* per replica, a local configuration ``(L, σ)`` — the set of labels whose
  effectors have been applied there, and the replica state;
* the visibility relation ``vis`` (transitively closed by construction:
  a new operation sees *everything* in the origin's ``L``);
* ``DS``, the map from labels to their effectors.

Every operation — queries included — produces an effector (the identity for
queries) that is broadcast and applied exactly once per replica, under
**causal delivery**: an effector is deliverable only when every visible
operation *of the same object* has already been applied (the paper's
``minvis`` side condition; for compositions, causal delivery holds per
object only — Sec. 5.1).

Timestamps come from :class:`~repro.core.timestamp.TimestampGenerator`
instances.  A composition built with ``shared_timestamps=True`` is the
shared-timestamp-generator composition ⊗ts of Fig. 11: a fresh timestamp
exceeds the timestamps of *all* operations visible at the replica,
regardless of object.  With independent generators (⊗), objects' timestamps
may interleave inconsistently — which is exactly what enables the Fig. 10
counterexample.
"""

from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..core.errors import PreconditionViolation, SchedulingError
from ..core.history import History
from ..core.label import Label
from ..core.timestamp import BOTTOM, TimestampGenerator
from ..crdts.base import Effector, OpBasedCRDT

DEFAULT_OBJECT = "o"


class OpBasedSystem:
    """A replicated system running one or more op-based CRDT objects.

    Representation: seen-sets are immutable frozensets, replaced on
    each change; visibility, ``generation_order`` and ``trace`` are
    append-only logs; the label tables only grow; the timestamp generators'
    clock tables are copy-on-write.  So :meth:`snapshot` is O(#replicas):
    seen-set references plus length marks for the logs.

    Restore contract (the explorers' DFS discipline): a token may be
    restored any number of times while it lies on the current execution
    path, that is, while no older token has been restored since it was
    taken.  Restoring truncates the logs to the recorded lengths, which
    is sound because entries below a mark are never mutated.
    """

    def __init__(
        self,
        objects: "Mapping[str, OpBasedCRDT] | OpBasedCRDT",
        replicas: Sequence[str] = ("r1", "r2", "r3"),
        shared_timestamps: bool = True,
    ) -> None:
        if isinstance(objects, OpBasedCRDT):
            objects = {DEFAULT_OBJECT: objects}
        if not objects:
            raise ValueError("need at least one object")
        self.objects: Dict[str, OpBasedCRDT] = dict(objects)
        self.replicas: List[str] = list(replicas)
        self.shared_timestamps = shared_timestamps
        if shared_timestamps:
            shared = TimestampGenerator()
            self._generators = {name: shared for name in self.objects}
        else:
            self._generators = {
                name: TimestampGenerator() for name in self.objects
            }
        self._states: Dict[Tuple[str, str], Any] = {
            (r, name): crdt.initial_state()
            for r in self.replicas
            for name, crdt in self.objects.items()
        }
        self._seen: Dict[str, FrozenSet[Label]] = {
            r: frozenset() for r in self.replicas
        }
        # Visibility is only ever *appended to* and iterated (the
        # checker's history view), never membership-tested, so it is an
        # append-only log whose snapshot is a length mark.
        self._vis: List[Tuple[Label, Label]] = []
        # Same-object visible predecessors (for causal-delivery checks)
        # and effector payloads, keyed by label.  Both are *grow-only*:
        # label uids are freshly drawn on every invoke, so entries for
        # labels dropped by a restore are keyed by dead uids that no later
        # lookup can mention; snapshots carry nothing and restores delete
        # nothing.
        self._causal_preds: Dict[Label, Any] = {}
        self._effectors: Dict[Label, Any] = {}
        # Origin clock value at generation time, keyed by label: the
        # message clock of the Lamport discipline.  Delivery advances the
        # receiver's clock past it, which is what makes a fresh ⊗ts
        # timestamp dominate *transitively* visible operations even when
        # the visibility path runs through timestamp-less operations of
        # another object (Fig. 11); for single objects and ⊗ the value is
        # already implied by per-object causal delivery.  Grow-only, like
        # the tables above.
        self._origin_clock: Dict[Label, int] = {}
        self.generation_order: List[Label] = []
        #: Action trace: ("gen"|"eff", replica, label).
        self.trace: List[Tuple[str, str, Label]] = []

    # ------------------------------------------------------------------
    # OPERATION rule
    # ------------------------------------------------------------------

    def invoke(
        self,
        replica: str,
        method: str,
        args: Tuple = (),
        obj: Optional[str] = None,
    ) -> Label:
        """Execute a generator at ``replica`` (the OPERATION rule)."""
        obj = self._resolve_object(obj)
        crdt = self.objects[obj]
        state = self._states[(replica, obj)]
        if not crdt.precondition(state, method, tuple(args)):
            raise PreconditionViolation(
                f"{obj}.{method}{tuple(args)!r} precondition fails at "
                f"{replica} (state {state!r})"
            )
        if method in crdt.timestamped_methods:
            ts = self._generators[obj].fresh(replica)
        else:
            ts = BOTTOM
        result = crdt.generator(state, method, tuple(args), ts)
        label = Label(
            method, tuple(args), ret=result.ret, ts=ts, obj=obj,
            origin=replica,
        )
        # One pass over the seen set builds both the visibility edges and
        # the same-object causal predecessors.
        seen_here = self._seen[replica]
        vis = self._vis
        causal = []
        for prior in seen_here:
            vis.append((prior, label))
            if prior.obj == obj:
                causal.append(prior)
        self._seen[replica] = seen_here | {label}
        self._causal_preds[label] = frozenset(causal)
        self._effectors[label] = result.effector
        self._origin_clock[label] = self._generators[obj].clock(replica)
        if result.effector is not None:
            self._states[(replica, obj)] = crdt.apply_effector(
                state, result.effector
            )
        self.generation_order.append(label)
        self.trace.append(("gen", replica, label))
        return label

    def _resolve_object(self, obj: Optional[str]) -> str:
        if obj is not None:
            if obj not in self.objects:
                raise SchedulingError(f"unknown object {obj!r}")
            return obj
        if len(self.objects) == 1:
            return next(iter(self.objects))
        raise SchedulingError(
            "object name required: the system hosts several objects"
        )

    # ------------------------------------------------------------------
    # EFFECTOR rule
    # ------------------------------------------------------------------

    def deliverable(self, replica: str) -> List[Label]:
        """Labels whose effectors may be applied at ``replica`` now.

        Causal delivery: every same-object visible predecessor must already
        be applied there (the ``minvis`` condition of Fig. 7, weakened to
        per-object for compositions as in Sec. 5.1).
        """
        seen = self._seen[replica]
        candidates = []
        for label in self.generation_order:
            if label in seen:
                continue
            if all(src in seen for src in self._causal_preds[label]):
                candidates.append(label)
        return candidates

    def deliver(
        self, replica: str, label: Label, prechecked: bool = False
    ) -> None:
        """Apply ``label``'s effector at ``replica`` (the EFFECTOR rule).

        ``prechecked=True`` skips the deliverability guards (duplicate
        application, unknown label, causal delivery): the exploration
        engine enumerates deliverable labels from its lid mirrors
        immediately before applying one, so the guards would re-derive
        facts the caller just established, at a set lookup apiece on the
        DFS hot path.  Semantics are unchanged; the
        naive-engine differential suite pins the mirrors against
        mis-scheduling.
        """
        if not prechecked:
            if label in self._seen[replica]:
                raise SchedulingError(
                    f"{label!r} already applied at {replica}"
                )
            if label not in self._effectors:
                raise SchedulingError(f"{label!r} was never generated here")
            for src in self._causal_preds[label]:
                if src not in self._seen[replica]:
                    raise SchedulingError(
                        f"causal delivery violated: {src!r} not yet "
                        f"applied at {replica} but visible to {label!r}"
                    )
        effector = self._effectors[label]
        if effector is not None:
            obj = label.obj
            crdt = self.objects[obj]
            self._states[(replica, obj)] = crdt.apply_effector(
                self._states[(replica, obj)], effector
            )
        self._seen[replica] = self._seen[replica] | {label}
        # With a shared generator (⊗ts) this advances the one global clock;
        # with independent generators (⊗) only the label's own object's.
        # The origin-clock advance carries the sender's cross-object
        # knowledge for ⊗ts (a no-op for single objects and ⊗, where
        # causal delivery already implies it).
        generator = self._generators[label.obj]
        generator.observe(replica, label.ts)
        generator.advance(replica, self._origin_clock[label])
        self.trace.append(("eff", replica, label))

    def deliver_all(self) -> None:
        """Deliver every pending effector everywhere (quiescence)."""
        progress = True
        while progress:
            progress = False
            for replica in self.replicas:
                for label in self.deliverable(replica):
                    self.deliver(replica, label)
                    progress = True

    def sync(self, replica: str) -> None:
        """Deliver everything currently deliverable at one replica."""
        delivered = True
        while delivered:
            delivered = False
            for label in self.deliverable(replica):
                self.deliver(replica, label)
                delivered = True

    # ------------------------------------------------------------------
    # Snapshot / restore (copy-on-write branching for the explorers)
    # ------------------------------------------------------------------

    @property
    def snapshot_safe(self) -> bool:
        """True when every hosted CRDT keeps immutable (sharable) states."""
        return all(crdt.snapshot_safe for crdt in self.objects.values())

    def snapshot(self) -> Tuple:
        """An O(#replicas) snapshot token for :meth:`restore`.

        Labels, effectors, seen-sets and CRDT states are immutable values,
        so the token shares them with the live system (checked via
        :attr:`snapshot_safe` by callers that host custom CRDTs): the
        state and seen tables are copied shallowly, the append-only logs
        captured by length mark, the generator clocks by reference to
        their copy-on-write tables, and the label tables not at all
        (grow-only; see ``__init__``).
        """
        distinct = {id(g): g for g in self._generators.values()}
        return (
            dict(self._states),
            dict(self._seen),
            len(self._vis),
            len(self.generation_order),
            len(self.trace),
            {key: g.snapshot() for key, g in distinct.items()},
        )

    def restore(self, token: Tuple) -> None:
        """Rewind the system to a :meth:`snapshot` token.

        The token stays valid: it may be restored any number of times
        along the DFS discipline described in the class docstring.
        """
        states, seen, vis, order, trace, clocks = token
        self._states = dict(states)
        self._seen = dict(seen)
        # _causal_preds/_effectors are grow-only (see __init__): the
        # labels the truncations drop are keyed by dead uids.
        del self._vis[vis:]
        del self.generation_order[order:]
        del self.trace[trace:]
        for key, generator in {
            id(g): g for g in self._generators.values()
        }.items():
            generator.restore(clocks[key])

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def state(self, replica: str, obj: Optional[str] = None) -> Any:
        return self._states[(replica, self._resolve_object(obj))]

    def effector_of(self, label: Label) -> Optional[Effector]:
        """The effector produced by ``label`` (None for queries)."""
        return self._effectors[label]

    def seen(self, replica: str) -> FrozenSet[Label]:
        return self._seen[replica]

    def history(self) -> History:
        labels = list(self.generation_order)
        return History(labels, self._vis, check=False, transitive=False)

    def replica_views(
        self, obj: Optional[str] = None
    ) -> Dict[str, Tuple[FrozenSet[Label], Any]]:
        """Per-replica (visible same-object updates, state) — for the
        convergence oracle."""
        obj = self._resolve_object(obj)
        views = {}
        for replica in self.replicas:
            visible = frozenset(
                l for l in self._seen[replica]
                if l.obj == obj and self._effectors.get(l) is not None
            )
            views[replica] = (visible, self._states[(replica, obj)])
        return views

    def pending_count(self) -> int:
        """Number of (label, replica) deliveries applicable *right now*.

        Counts only currently *deliverable* pairs — labels whose causal
        predecessors have all been applied at the replica.  A label
        blocked behind a missing predecessor is invisible here; use
        :meth:`outstanding_count` for the true remaining-work measure
        (quiescence is ``outstanding_count() == 0``).
        """
        return sum(
            len(self.deliverable(replica)) for replica in self.replicas
        )

    def outstanding_count(self) -> int:
        """Number of (label, replica) deliveries still outstanding.

        Every generated label not yet applied at a replica counts,
        whether or not it is currently deliverable there — causally
        blocked labels included.  Zero iff the system is quiescent.
        """
        return sum(
            1
            for replica in self.replicas
            for label in self.generation_order
            if label not in self._seen[replica]
        )
