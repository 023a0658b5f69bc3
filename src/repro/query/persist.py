"""Persist / reload a :class:`ProvenanceIndex` per checkpoint generation.

A snapshot deliberately does **not** re-serialize the delivered record —
the durable store already holds it (checkpoint + journal suffix), and
the interned spines decode straight back out of it.  What the snapshot
saves is the *derived* work the index spent building its graphs:

* the happens-before edge lists (pure ordinals);
* one row per distinct spine node — sender/receiver sets (as indices
  into a principal table, with shared frozensets stored once) and the
  derivation anchor ``latest_root``.

Node rows are aligned positionally with a deterministic walk over the
record's value roots (:func:`enumerate_nodes`): save and load run the
same walk over the same interned DAG, so row *k* is node *k* on both
sides without ever encoding a spine.  Loading is therefore O(DAG)
pointer-chasing plus row assignment — no DFA passes, no set unions —
and resuming after new deliveries costs only the journal suffix:
``repro recover`` / ``repro query`` pick up where the crashed run's
index left off instead of re-deriving the full history.

Snapshots live beside the checkpoints they mirror
(``queryindex-<gen>.seg``, CRC-framed); a corrupt or stale snapshot
falls back to the next older one, and ultimately to a fresh build —
the snapshot is an accelerator, never a source of truth.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.errors import StorageError
from repro.core.names import Principal
from repro.core.provenance import Provenance
from repro.query.index import (
    CHANNEL,
    DERIVES,
    HBEdge,
    IndexedDelivery,
    PROGRAM,
    ProvenanceIndex,
    _NodeInfo,
)
from repro.storage.checkpoint import RecordView, collect_entries
from repro.storage.segments import (
    DurableStore,
    atomic_write_bytes,
    frame_record,
    read_segment,
)

__all__ = [
    "enumerate_nodes",
    "load_index",
    "resume_index",
    "save_index",
]

SNAPSHOT_FORMAT = 1

K_QHEADER = 0x20
K_QEDGES = 0x21
K_QNODES = 0x22

_KIND_CODE = {PROGRAM: 0, CHANNEL: 1, DERIVES: 2}
_CODE_KIND = {code: kind for kind, code in _KIND_CODE.items()}


def enumerate_nodes(
    roots: Sequence[Provenance],
) -> List[Provenance]:
    """Every distinct non-empty spine node reachable from ``roots``.

    Deterministic order (delivery order, then a fixed DFS over spine
    tails and nested channel provenances) — the positional key that
    aligns snapshot rows between save and load.
    """

    seen = set()
    order: List[Provenance] = []
    for root in roots:
        stack = [root]
        while stack:
            node = stack.pop()
            if not len(node) or node in seen:
                continue
            seen.add(node)
            order.append(node)
            stack.append(node.tail)
            stack.append(node.head.channel_provenance)
    return order


def _record_roots(entries: Sequence) -> List[Provenance]:
    roots: List[Provenance] = []
    for entry in entries:
        for value in entry.values:
            roots.append(value.provenance)
    return roots


def save_index(
    store: Union[DurableStore, str, Path],
    index: ProvenanceIndex,
    generation: int,
) -> Path:
    """Write one snapshot of ``index`` keyed to checkpoint ``generation``.

    Pending observations are committed first — the snapshot always
    covers a whole number of generations.
    """

    if not isinstance(store, DurableStore):
        store = DurableStore(store)
    index.commit()
    principal_table: List[str] = []
    principal_ids: dict = {}
    set_table: List[List[int]] = []
    set_ids: dict = {}

    def principal_id(principal: Principal) -> int:
        got = principal_ids.get(principal)
        if got is None:
            got = len(principal_table)
            principal_ids[principal] = got
            principal_table.append(principal.name)
        return got

    def set_id(members: frozenset) -> int:
        got = set_ids.get(members)
        if got is None:
            got = len(set_table)
            set_ids[members] = got
            set_table.append(
                sorted(principal_id(member) for member in members)
            )
        return got

    roots = _record_roots(index._deliveries)
    rows: List[List[int]] = []
    for node in enumerate_nodes(roots):
        info = index._node_info[node]
        rows.append(
            [
                set_id(info.senders),
                set_id(info.receivers),
                -1 if info.latest_root is None else info.latest_root,
            ]
        )
    header = {
        "format": SNAPSHOT_FORMAT,
        "delivered": index.delivered,
        "generation": index.generation,
        "marks": list(index.generation_marks),
        "work": list(index.generation_work),
        "events_indexed": index.events_indexed,
        "principals": principal_table,
    }
    edges = [
        [[_KIND_CODE[kind], source] for kind, source in preds]
        for preds in index._hb_preds
    ]
    nodes = {"sets": set_table, "rows": rows}
    blob = b"".join(
        (
            frame_record(
                bytes((K_QHEADER,))
                + json.dumps(header, sort_keys=True).encode("utf-8")
            ),
            frame_record(
                bytes((K_QEDGES,)) + json.dumps(edges).encode("utf-8")
            ),
            frame_record(
                bytes((K_QNODES,)) + json.dumps(nodes).encode("utf-8")
            ),
        )
    )
    return atomic_write_bytes(store.query_index_path(generation), blob)


def _read_snapshot(path: Path) -> Tuple[dict, list, dict]:
    view = read_segment(path)
    if view.torn or len(view.records) != 3:
        raise StorageError(f"query-index snapshot {path} is malformed")
    parts = []
    for record, expected in zip(view.records, (K_QHEADER, K_QEDGES, K_QNODES)):
        if not record or record[0] != expected:
            raise StorageError(
                f"query-index snapshot {path} record kind mismatch"
            )
        try:
            parts.append(json.loads(record[1:].decode("utf-8")))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise StorageError(
                f"query-index snapshot {path} is corrupt: {error}"
            ) from None
    header, edges, nodes = parts
    if not isinstance(header, dict):
        raise StorageError(f"query-index snapshot {path} has no header")
    if header.get("format") != SNAPSHOT_FORMAT:
        raise StorageError(
            f"query-index snapshot {path} has unknown format "
            f"{header.get('format')!r}"
        )
    return header, edges, nodes


def _whole(value, low: int = 0, high: float = math.inf) -> bool:
    """``value`` is a JSON integer (not a boolean), ``low <= value < high``."""

    return type(value) is int and low <= value < high


def _ids(values, bound: float = math.inf) -> bool:
    """``values`` is a list of JSON integers in ``range(bound)``.

    Checked in C-level passes: the principal-set table of a large
    record holds tens of thousands of members.
    """

    return (
        isinstance(values, list)
        and set(map(type, values)) <= {int}
        and (not values or (min(values) >= 0 and max(values) < bound))
    )


def _check_snapshot(
    header: dict, edges, nodes, stored: int
) -> Tuple[int, List[Principal]]:
    """Validate a decoded snapshot's shapes and ranges.

    A snapshot can pass its CRC check and still hold bad content (a
    crafted or stale file).  Every table index :func:`_rebuild` follows
    is checked here first, so a bad snapshot raises
    :class:`StorageError` and :func:`load_index` falls back to an older
    snapshot or a fresh build.  Returns the delivery count and the
    principal table.
    """

    def bad(what: str) -> StorageError:
        return StorageError(f"query-index snapshot has a malformed {what}")

    delivered = header.get("delivered")
    if not _whole(delivered):
        raise bad("header field 'delivered'")
    if delivered > stored:
        raise StorageError(
            "query-index snapshot covers more deliveries than the store "
            f"holds ({delivered!r} > {stored})"
        )
    if not isinstance(edges, list) or len(edges) != delivered:
        raise bad("edge table")
    for key in ("generation", "events_indexed"):
        if not _whole(header.get(key)):
            raise bad(f"header field {key!r}")
    for key in ("marks", "work"):
        if not _ids(header.get(key)):
            raise bad(f"header field {key!r}")
    names = header.get("principals")
    if not isinstance(names, list):
        raise bad("principal table")
    try:
        principals = [Principal(name) for name in names]
    except ValueError as error:
        raise bad(f"principal table ({error})") from None
    if not isinstance(nodes, dict):
        raise bad("node table")
    sets, rows = nodes.get("sets"), nodes.get("rows")
    if not (
        isinstance(sets, list)
        and all(type(members) is list for members in sets)
        and _ids(list(chain.from_iterable(sets)), len(principals))
    ):
        raise bad("principal-set table")
    if not isinstance(rows, list) or not all(
        type(row) is list
        and len(row) == 3
        and _whole(row[0], 0, len(sets))
        and _whole(row[1], 0, len(sets))
        and _whole(row[2], -1, delivered)
        for row in rows
    ):
        raise bad("node rows")
    for ordinal, preds in enumerate(edges):
        # happens-before edges only point back in delivery order
        if not isinstance(preds, list) or not all(
            isinstance(edge, list)
            and len(edge) == 2
            and _whole(edge[0])
            and edge[0] in _CODE_KIND
            and _whole(edge[1], 0, ordinal)
            for edge in preds
        ):
            raise bad(f"edge list at delivery {ordinal}")
    return delivered, principals


def _rebuild(
    header: dict, edges: list, nodes: dict, entries: Sequence
) -> ProvenanceIndex:
    delivered, principals = _check_snapshot(header, edges, nodes, len(entries))
    covered = entries[:delivered]
    sets = [
        frozenset(principals[i] for i in members)
        for members in nodes["sets"]
    ]
    rows = nodes["rows"]
    index = ProvenanceIndex()
    walk = enumerate_nodes(_record_roots(covered))
    if len(walk) != len(rows):
        raise StorageError(
            "query-index snapshot node rows do not align with the "
            f"record ({len(rows)} rows, {len(walk)} nodes)"
        )
    info_table = index._node_info
    for node, (senders_id, receivers_id, latest) in zip(walk, rows):
        info_table[node] = _NodeInfo(
            sets[senders_id],
            sets[receivers_id],
            None if latest < 0 else latest,
        )
    for ordinal, entry in enumerate(covered):
        roots = tuple(value.provenance for value in entry.values)
        senders: frozenset = frozenset()
        receivers: frozenset = frozenset()
        for root in roots:
            info = info_table[root] if len(root) else None
            if info is None:
                continue
            if not senders >= info.senders:
                senders = senders | info.senders if senders else info.senders
            if not receivers >= info.receivers:
                receivers = (
                    receivers | info.receivers
                    if receivers
                    else info.receivers
                )
            index._root_of.setdefault(root, ordinal)
        index._deliveries.append(
            IndexedDelivery(
                ordinal,
                entry.time,
                entry.principal,
                entry.channel,
                entry.branch_index,
                entry.values,
                roots,
                senders,
                receivers,
            )
        )
        index._last_by_principal[entry.principal] = ordinal
        index._last_by_channel[entry.channel] = ordinal
        index._received_by.setdefault(entry.principal, []).append(ordinal)
        index._on_channel.setdefault(entry.channel, []).append(ordinal)
        preds = tuple(
            HBEdge((_CODE_KIND[code], source)) for code, source in edges[ordinal]
        )
        index._hb_preds.append(preds)
        index._hb_succs.append([])
        for _, source in preds:
            successors = index._hb_succs[source]
            if not successors or successors[-1] != ordinal:
                successors.append(ordinal)
    index.generation = int(header["generation"])
    index.events_indexed = int(header["events_indexed"])
    index._generation_marks = [int(mark) for mark in header["marks"]]
    index._generation_work = [int(work) for work in header["work"]]
    return index


def load_index(
    store: Union[DurableStore, str, Path],
    entries: Sequence,
) -> Optional[Tuple[ProvenanceIndex, int]]:
    """Reload the newest usable snapshot against the decoded record.

    Returns ``(index, snapshot generation)`` or ``None`` when no
    snapshot loads cleanly (corrupt, stale format, or covering more
    deliveries than the store now holds — all fall back silently; the
    caller rebuilds from the record).
    """

    if not isinstance(store, DurableStore):
        store = DurableStore(store)
    for generation in reversed(store.query_index_generations()):
        try:
            header, edges, nodes = _read_snapshot(
                store.query_index_path(generation)
            )
            return _rebuild(header, edges, nodes, entries), generation
        except StorageError:
            continue
    return None


def resume_index(
    store: Union[DurableStore, str, Path],
    record: Optional[RecordView] = None,
) -> Tuple[ProvenanceIndex, dict]:
    """An index over the store's full record, resumed, not rebuilt.

    Loads the newest snapshot and extends it with only the journal
    suffix the snapshot has not seen — O(new events).  Falls back to a
    full (in-memory, still one-pass) build when no snapshot exists.
    Returns ``(index, info)`` where ``info`` reports how much work the
    snapshot saved.
    """

    if not isinstance(store, DurableStore):
        store = DurableStore(store)
    if record is None:
        record = collect_entries(store)
    loaded = load_index(store, record.entries)
    if loaded is None:
        index = ProvenanceIndex()
        snapshot_generation = 0
    else:
        index, snapshot_generation = loaded
    resumed = index.delivered
    extended = len(record.entries) - resumed
    work_before = index.events_indexed
    index.extend_entries(record.entries[resumed:])
    return index, {
        "snapshot_generation": snapshot_generation,
        "resumed_deliveries": resumed,
        "extended_deliveries": extended,
        # indexing work actually performed in-process by this resume —
        # the O(new events) figure (a full rebuild would have spent
        # index.events_indexed)
        "extended_work": index.events_indexed - work_before,
    }
