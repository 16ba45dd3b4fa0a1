"""Client-side reasoning over CRDT objects (Sec. 3.3).

The paper's showcase: two replicas run

    add(a); rem(a); X = read()   ∥   add(a); Y = read()

against an OR-Set, and the post-condition ``a ∈ X ⇒ a ∈ Y`` holds in every
execution — an argument the paper carries out purely over
RA-linearizations.  This module makes both directions executable:

* :func:`check_client_assertion` — run per-replica programs under **all**
  delivery interleavings (exhaustive small-scope model checking of the
  operational semantics) and evaluate a predicate over the programs' return
  values.
* :func:`enumerate_ra_linearizations` — enumerate every RA-linearization
  witness of a history, supporting the specification-level reasoning of
  Sec. 3.3.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.history import History
from ..core.label import Label
from ..core.linearization import induced_predecessors, iter_topological_orders
from ..core.ralin import check_update_order
from ..core.rewriting import QueryUpdateRewriting, rewrite_history
from ..core.spec import SequentialSpec
from ..crdts.base import OpBasedCRDT
from ..runtime.explore_engine import Program, explore_op_programs
from ..runtime.system import OpBasedSystem


@dataclass
class ClientCheckResult:
    """Outcome of exhaustive client-program checking."""

    holds: bool
    configurations: int
    counterexamples: List[Dict[str, List[Any]]] = field(default_factory=list)


def check_client_assertion(
    make_crdt: Callable[[], OpBasedCRDT],
    programs: Dict[str, Program],
    predicate: Callable[[Dict[str, List[Any]]], bool],
    replicas: Optional[Sequence[str]] = None,
    max_counterexamples: int = 5,
) -> ClientCheckResult:
    """Check ``predicate`` over the return values of every interleaving.

    ``programs`` maps replica ids to straight-line operation lists; the
    predicate receives ``{replica: [return values in program order]}``.
    """
    replica_ids = list(replicas) if replicas else sorted(programs)
    counterexamples: List[Dict[str, List[Any]]] = []

    def visit(system: OpBasedSystem, returns: Dict[str, List[Any]]) -> None:
        if not predicate(returns):
            if len(counterexamples) < max_counterexamples:
                counterexamples.append(
                    {replica: list(vals) for replica, vals in returns.items()}
                )

    def make_system() -> OpBasedSystem:
        return OpBasedSystem(make_crdt(), replicas=replica_ids)

    visited = explore_op_programs(make_system, programs, visit)
    return ClientCheckResult(
        holds=not counterexamples,
        configurations=visited,
        counterexamples=counterexamples,
    )


def enumerate_ra_linearizations(
    history: History,
    spec: SequentialSpec,
    gamma: Optional[QueryUpdateRewriting] = None,
    max_orders: Optional[int] = None,
) -> Iterator[Tuple[List[Label], List[Label]]]:
    """Yield every RA-linearization witness ``(update_order, full_seq)``.

    The enumeration covers all linear extensions of the visibility closure
    restricted to updates and filters them through Def. 3.5 — the search the
    paper's client reasoning quantifies over ("the possible values of X and
    Y can be computed by enumerating their RA-linearizations").
    """
    rewritten = rewrite_history(history, gamma) if gamma else history
    updates = [l for l in rewritten.labels if spec.is_update(l)]
    preds = induced_predecessors(rewritten, updates)
    for order in iter_topological_orders(
        sorted(updates, key=lambda l: l.uid), preds, max_orders=max_orders
    ):
        outcome = check_update_order(rewritten, spec, order)
        if outcome.ok:
            yield list(order), list(outcome.linearization or [])


def possible_query_returns(
    history: History,
    spec: SequentialSpec,
    query: Label,
    gamma: Optional[QueryUpdateRewriting] = None,
) -> List[Any]:
    """All return values the spec could justify for ``query`` across
    RA-linearizations of ``history`` (with the query's return left free).

    Useful for explaining to a client *what* a read may return.
    """
    rewritten = rewrite_history(history, gamma) if gamma else history
    target = gamma.qry(query) if gamma else query
    updates = frozenset(l for l in rewritten.labels if spec.is_update(l))
    visible = rewritten.visible_to(target) & updates
    preds = induced_predecessors(rewritten, visible)
    returns: List[Any] = []
    for order in iter_topological_orders(
        sorted(visible, key=lambda l: l.uid), preds
    ):
        frontier = spec.replay(list(order))
        for state in frontier:
            for candidate in _query_values(spec, state, target):
                if candidate not in returns:
                    returns.append(candidate)
    return returns


def _query_values(spec: SequentialSpec, state: Any, query: Label) -> List[Any]:
    """Probe which return value the spec validates for ``query`` at
    ``state`` by re-checking the label with its own return."""
    if spec.step(state, query):
        return [query.ret]
    return []
