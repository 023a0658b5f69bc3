"""Denotation of provenance as logs (Definition 2).

The provenance ``κ`` of an annotated value ``V : κ`` is interpreted as a
set of assertions about the past of ``V``, encoded as a log::

    ⟦V : ε⟧       =  ∅
    ⟦V : a!κ'; κ⟧ =  a.snd(x, V); ( ⟦V : κ⟧ | ⟦x : κ'⟧ )
    ⟦V : a?κ'; κ⟧ =  a.rcv(x, V); ( ⟦V : κ⟧ | ⟦x : κ'⟧ )

where each ``x`` is fresh: the provenance does not reveal the identity of
the channel used, so the denotation asserts only that *some* channel ``x``
was used, and that ``x``'s own past satisfies ``⟦x : κ'⟧``.  The two
branches of the composition are temporally independent — provenance does
not order the channel's history against the value's earlier history.

The denotation is deliberately *partial* information; the correctness
criterion (Definition 3) asks that it be ⪯-below the global log, and the
incompleteness result (Proposition 3) shows the converse fails.
"""

from __future__ import annotations

from itertools import count

from repro.core.names import Variable
from repro.core.provenance import Event, InputEvent, OutputEvent, Provenance
from repro.logs.ast import (
    Action,
    ActionKind,
    EMPTY_LOG,
    Log,
    LogAction,
    LogTerm,
    log_par,
)

__all__ = ["denote", "canonical_denotation", "FreshVariables"]


class FreshVariables:
    """A supply of fresh log variables ``_x0, _x1, …``.

    Denotation variables live in their own namespace (underscore-prefixed)
    so they can never collide with variables originating in process terms.
    """

    def __init__(self, prefix: str = "_x") -> None:
        self._prefix = prefix
        self._counter = count()

    def fresh(self) -> Variable:
        return Variable(f"{self._prefix}{next(self._counter)}")


def denote(
    value: LogTerm,
    provenance: Provenance,
    fresh: FreshVariables | None = None,
) -> Log:
    """Compute ``⟦value : provenance⟧``.

    ``value`` may be any log term: plain values for ordinary data, ``?``
    for values whose plain part is a private (non-log-visible) channel,
    and variables during recursive calls.

    The spine is walked iteratively (Python recursion is spent on
    *nesting* depth only), so the denotation scales to the million-event
    spines the hash-consed representation makes cheap to build.  Note
    that shared provenance subtrees can NOT be denoted once and reused:
    Definition 2 introduces a fresh existential channel variable per
    event *occurrence*, so the log is genuinely tree-sized even when the
    provenance is a compact DAG — the denotation enumerates assertions,
    not structure.
    """

    if fresh is None:
        fresh = FreshVariables()
    return _denote(value, provenance, fresh)


def _denote(value: LogTerm, provenance: Provenance, fresh: FreshVariables) -> Log:
    # Fresh-variable order matches the historical recursive definition:
    # one variable per spine event front-to-back, then the nested channel
    # provenances denoted back-to-front while the log is folded up.
    spine: list[tuple[ActionKind, Event, Variable]] = []
    for event in provenance:
        if isinstance(event, OutputEvent):
            kind = ActionKind.SND
        elif isinstance(event, InputEvent):
            kind = ActionKind.RCV
        else:
            raise TypeError(f"not an event: {event!r}")
        spine.append((kind, event, fresh.fresh()))
    log: Log = EMPTY_LOG
    for kind, event, channel_variable in reversed(spine):
        action = Action(kind, event.principal, (channel_variable, value))
        if event.channel_provenance:
            nested = _denote(channel_variable, event.channel_provenance, fresh)
            log = LogAction(action, log_par(log, nested))
        else:
            # ⟦x : ε⟧ = ∅ — the empty branch composes away (the common
            # case: plain data channels), keeping denotations chains.
            log = LogAction(action, log)
    return log


def canonical_denotation(value: LogTerm, provenance: Provenance) -> Log:
    """``⟦value : provenance⟧`` from a private fresh supply.

    A deterministic function of the pair alone: two calls on the same
    (interned) provenance build structurally identical logs, so the
    denotation can be cached per pair and compared across checkers.  The
    result is shadow-free with all binders in the ``_x…`` namespace,
    which :meth:`repro.logs.order.LogIndex.leq` accepts un-refreshened
    (``assume_fresh=True``) — the index's own binders live under ``_r…``.
    """

    return denote(value, provenance, FreshVariables())
