"""A small cost-based planner for trace queries.

The index keeps exact posting lists for the two delivery-metadata axes
(receiving principal, channel) and memoized sender sets per delivery for
the history axis.  A *where* query may constrain any combination; the
planner picks the cheapest access path:

* a posting list when one exists for a constrained axis (choosing the
  shortest when several apply), residual constraints filtered per
  ordinal;
* the full scan otherwise (the sender axis has no posting list on
  purpose — maintaining one costs O(|senders|) per delivery, which is
  O(history) on relay chains, exactly the blow-up the index avoids).

When the caller holds a :class:`~repro.logs.order.LogIndex` over the
engine's global log, its :meth:`~repro.logs.order.LogIndex.
signature_buckets` histogram refines the estimate for the sender axis:
the number of logged actions by a principal bounds how many deliveries
can carry its sends, which decides whether the planner reports the scan
as selective.  The buckets inform *estimates* only — execution is always
exact against the index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.names import Channel, Principal
from repro.query.index import ProvenanceIndex

__all__ = ["QueryPlan", "plan_where", "run_where"]


@dataclass(frozen=True, slots=True)
class QueryPlan:
    """An access-path decision for one *where* query."""

    access: str
    """``"received-by"``, ``"on-channel"`` or ``"scan"``."""

    cost: int
    """Ordinals the chosen path must touch."""

    estimated_matches: int
    """Upper bound on result size (buckets-refined when available)."""

    residual: Tuple[str, ...]
    """Constraint axes filtered per-ordinal after the access path."""

    def describe(self) -> str:
        residual = (
            f" filtering {', '.join(self.residual)}" if self.residual else ""
        )
        return (
            f"{self.access} (~{self.cost} ordinals, "
            f"≤{self.estimated_matches} matches){residual}"
        )


def _bucket_activity(buckets: Optional[dict], principal: Principal) -> int:
    """Logged actions attributed to ``principal``, any kind/arity.

    ``buckets`` is the ``(kind, principal, arity) → count`` histogram
    from :meth:`LogIndex.signature_buckets`; a principal's total log
    activity upper-bounds the deliveries that can carry its sends.
    """

    if buckets is None:
        return -1
    return sum(
        count
        for (kind, who, _arity), count in buckets.items()
        if who == principal
    )


def plan_where(
    index: ProvenanceIndex,
    sender: Optional[Principal] = None,
    receiver: Optional[Principal] = None,
    channel: Optional[Channel] = None,
    signature_buckets: Optional[dict] = None,
) -> QueryPlan:
    """Pick the cheapest access path for the given constraints."""

    index.commit()  # plans reflect every observed delivery
    total = index.delivered
    candidates = []
    if receiver is not None:
        candidates.append(("received-by", len(index.received_by(receiver))))
    if channel is not None:
        candidates.append(("on-channel", len(index.on_channel(channel))))
    residual_axes = []
    if sender is not None:
        residual_axes.append("sender")
    if candidates:
        candidates.sort(key=lambda item: item[1])
        access, cost = candidates[0]
        for axis, _ in candidates[1:]:
            residual_axes.append(
                "receiver" if axis == "received-by" else "channel"
            )
        estimated = cost
        if sender is not None:
            activity = _bucket_activity(signature_buckets, sender)
            if 0 <= activity < estimated:
                estimated = activity
        return QueryPlan(access, cost, estimated, tuple(residual_axes))
    estimated = total
    if sender is not None:
        activity = _bucket_activity(signature_buckets, sender)
        if 0 <= activity < estimated:
            estimated = activity
    return QueryPlan("scan", total, estimated, tuple(residual_axes))


def run_where(
    index: ProvenanceIndex,
    sender: Optional[Principal] = None,
    receiver: Optional[Principal] = None,
    channel: Optional[Channel] = None,
    signature_buckets: Optional[dict] = None,
) -> Tuple[Tuple[int, ...], QueryPlan]:
    """Execute a *where* query; returns ``(ordinals, plan)``.

    Results are exact regardless of the plan: the access path only
    decides which ordinals get touched.
    """

    plan = plan_where(
        index,
        sender=sender,
        receiver=receiver,
        channel=channel,
        signature_buckets=signature_buckets,
    )
    if plan.access == "received-by":
        pool = index.received_by(receiver)
    elif plan.access == "on-channel":
        pool = index.on_channel(channel)
    else:
        pool = range(index.delivered)
    # plan_where committed, and every pool ordinal came from the index:
    # read the records without delivery()'s per-call range check
    records = index._deliveries
    senders = index._senders
    matches = []
    for ordinal in pool:
        record = records[ordinal]
        if receiver is not None and record.principal != receiver:
            continue
        if channel is not None and record.channel != channel:
            continue
        if sender is not None and sender not in senders[ordinal]:
            continue
        matches.append(ordinal)
    return tuple(matches), plan
