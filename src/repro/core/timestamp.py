"""Timestamps, the bottom element ⊥, and version vectors.

The paper (Sec. 3.1) assumes a totally-ordered timestamp domain ``T`` with a
distinguished minimal element ⊥ used by operations that do not generate a
timestamp.  The standard CRDT realization — which the paper also adopts when
discussing ⊗ts (Sec. 5.3) — is a *Lamport timestamp*: a pair of a
monotonically-increasing counter and a replica identifier, ordered
lexicographically.  Replica identifiers break ties, so distinct replicas can
never produce equal timestamps.

Multi-value registers (Appendix E.1) use *version vectors* instead: maps
from replica ids to counters, with the usual product partial order.
"""

from dataclasses import dataclass
from functools import total_ordering
from typing import Iterable, Mapping, Optional, Tuple


@total_ordering
@dataclass(frozen=True)
class Timestamp:
    """A Lamport timestamp ``(counter, replica)``, totally ordered."""

    counter: int
    replica: str

    def __post_init__(self) -> None:
        # Timestamps sit inside label content keys and spec states, so they
        # are hashed constantly by the caching layers; compute the hash once.
        object.__setattr__(self, "_hash", hash((self.counter, self.replica)))

    def __hash__(self) -> int:  # type: ignore[override]
        return self._hash

    def _key(self) -> Tuple[int, str]:
        return (self.counter, self.replica)

    def __lt__(self, other: object) -> bool:
        if isinstance(other, _Bottom):
            return False
        if not isinstance(other, Timestamp):
            return NotImplemented
        return self._key() < other._key()

    def __repr__(self) -> str:
        return f"ts({self.counter},{self.replica})"


class _Bottom:
    """The distinguished minimal timestamp ⊥ (a singleton).

    ``BOTTOM < ts`` for every real timestamp ``ts``; ``BOTTOM == BOTTOM``.
    """

    _instance: Optional["_Bottom"] = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other: object) -> bool:
        return isinstance(other, Timestamp)

    def __le__(self, other: object) -> bool:
        return True

    def __gt__(self, other: object) -> bool:
        return False

    def __ge__(self, other: object) -> bool:
        return other is BOTTOM

    def __eq__(self, other: object) -> bool:
        return other is BOTTOM

    _HASH = hash("⊥-timestamp")

    def __hash__(self) -> int:
        return self._HASH

    def __repr__(self) -> str:
        return "⊥"


BOTTOM = _Bottom()


class TimestampGenerator:
    """Issues globally unique, monotonically increasing Lamport timestamps.

    A single generator instance models the per-object timestamp source of the
    operational semantics (Fig. 7): a fresh timestamp must be strictly larger
    than every timestamp of an operation *visible* at the issuing replica.
    The generator keeps one logical clock per replica; ``observe`` advances a
    replica's clock when effectors (or merged states) carrying larger
    timestamps arrive.

    The shared-timestamp composition ⊗ts (Sec. 5.3) is obtained by handing
    the *same* generator instance to several objects.

    The clock table is copy-on-write: every mutation replaces ``_clocks``
    with a fresh dict, so :meth:`snapshot` returns the table itself by
    reference (O(1)).  The exploration engine takes hundreds of thousands
    of snapshots over tables of a handful of replicas; the per-mutation
    copy is a few entries.
    """

    def __init__(self) -> None:
        self._clocks: Mapping[str, int] = {}

    def fresh(self, replica: str) -> Timestamp:
        """Sample a fresh timestamp at ``replica``."""
        counter = self._clocks.get(replica, 0) + 1
        self._clocks = {**self._clocks, replica: counter}
        return Timestamp(counter, replica)

    def observe(self, replica: str, ts: object) -> None:
        """Advance ``replica``'s clock past an observed timestamp."""
        if isinstance(ts, Timestamp):
            self.advance(replica, ts.counter)

    def advance(self, replica: str, counter: int) -> None:
        """Advance ``replica``'s clock to at least ``counter``.

        The message-clock half of the Lamport discipline: a delivered
        message carries its origin's clock value, which may exceed the
        carried operation's own timestamp (or the operation may not have
        one at all).
        """
        if counter > self._clocks.get(replica, 0):
            self._clocks = {**self._clocks, replica: counter}

    def clock(self, replica: str) -> int:
        """Current logical clock value at ``replica`` (0 if never used)."""
        return self._clocks.get(replica, 0)

    def snapshot(self) -> Mapping[str, int]:
        """A token capturing every replica clock, for :meth:`restore`.

        The public face of the generator's state: runtime systems
        snapshot/restore through this pair instead of reaching into the
        private clock table.  The token is the never-mutated table
        itself, so it is independent of later ``fresh``/``observe`` calls.
        """
        return self._clocks

    def restore(self, token: Mapping[str, int]) -> None:
        """Rewind the clocks to a :meth:`snapshot` token (reusable)."""
        # Adopt the token as-is: the next mutation replaces the table,
        # so the token itself is never written to.
        self._clocks = token


@dataclass(frozen=True)
class VersionVector:
    """An immutable version vector: replica id → counter, partially ordered.

    Used by the state-based multi-value register (Listing 7 / Appendix E.1).
    Missing entries count as 0.
    """

    entries: Tuple[Tuple[str, int], ...] = ()

    @staticmethod
    def of(mapping: Mapping[str, int]) -> "VersionVector":
        """Build a vector from a mapping, dropping zero entries."""
        items = tuple(sorted((r, c) for r, c in mapping.items() if c > 0))
        return VersionVector(items)

    def get(self, replica: str) -> int:
        for r, c in self.entries:
            if r == replica:
                return c
        return 0

    def replicas(self) -> Tuple[str, ...]:
        return tuple(r for r, _ in self.entries)

    def bump(self, replica: str) -> "VersionVector":
        """Return a copy with ``replica``'s entry incremented."""
        mapping = dict(self.entries)
        mapping[replica] = mapping.get(replica, 0) + 1
        return VersionVector.of(mapping)

    def join(self, other: "VersionVector") -> "VersionVector":
        """Pointwise maximum (least upper bound)."""
        mapping = dict(self.entries)
        for r, c in other.entries:
            if c > mapping.get(r, 0):
                mapping[r] = c
        return VersionVector.of(mapping)

    def leq(self, other: "VersionVector") -> bool:
        """Product partial order: every component ≤."""
        return all(c <= other.get(r) for r, c in self.entries)

    def lt(self, other: "VersionVector") -> bool:
        """Strictly less: ≤ and differs somewhere."""
        return self.leq(other) and self != other

    def concurrent(self, other: "VersionVector") -> bool:
        """Neither ≤ in either direction."""
        return not self.leq(other) and not other.leq(self)

    def __repr__(self) -> str:
        inner = ",".join(f"{r}:{c}" for r, c in self.entries)
        return f"vv[{inner}]"


def max_timestamp(timestamps: Iterable[object]) -> object:
    """Maximum of a collection of timestamps, ⊥ if empty.

    Used to compute the "virtual" timestamp of operations that do not
    generate one (Sec. 4.2): the maximal timestamp of any visible operation.
    """
    best: object = BOTTOM
    for ts in timestamps:
        if best is BOTTOM:
            if ts is not BOTTOM:
                best = ts
        elif ts is not BOTTOM and best < ts:  # type: ignore[operator]
            best = ts
    return best
