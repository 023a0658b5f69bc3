"""Interchange exports: W3C PROV-JSON and graphviz DOT.

The mapping from the calculus onto PROV:

* every principal is an ``agent`` (``agent:a``);
* every delivery is an ``activity`` (``activity:deliver-<ordinal>``)
  associated with its receiving principal;
* every distinct delivered value history is an ``entity`` keyed by its
  Merkle digest (``entity:<hex16>``) — structurally equal histories
  across deliveries collapse to one entity, exactly as they do in
  memory;
* a delivery *generates* the entities of its stamped values and *uses*
  the entities of its dataflow predecessors; ``wasDerivedFrom`` mirrors
  the derivation edges and ``wasInformedBy`` the remaining
  happens-before edges.

DOT output draws the same graph directly: one node per delivery, solid
edges for dataflow, dashed for program/channel order.  Both exporters
are pure functions of the index — they never mutate it beyond absorbing
any pending observations.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.core.provenance import Provenance
from repro.query.index import DERIVES, ProvenanceIndex

__all__ = ["to_prov_json", "to_dot", "spine_to_dot"]


def _entity_id(provenance: Provenance) -> str:
    return f"entity:{provenance.digest.hex()}"


def to_prov_json(
    index: ProvenanceIndex, limit: Optional[int] = None
) -> dict:
    """The delivered trace as a W3C PROV-JSON document (a dict).

    ``limit`` caps the exported deliveries (earliest first) for
    previews; entities and agents include only what those deliveries
    reference.
    """

    index.commit()
    records = index.deliveries()
    if limit is not None:
        records = records[:limit]
    agents: dict = {}
    entities: dict = {}
    activities: dict = {}
    used: dict = {}
    generated: dict = {}
    associated: dict = {}
    derived: dict = {}
    informed: dict = {}
    relation = iter(range(1, 1 << 30))

    def rel(table: dict, payload: dict) -> None:
        table[f"_:r{next(relation)}"] = payload

    for ordinal, record in enumerate(records):
        activity = f"activity:deliver-{ordinal}"
        agent = f"agent:{record.principal.name}"
        agents.setdefault(agent, {"prov:label": record.principal.name})
        activities[activity] = {
            "prov:label": (
                f"deliver #{ordinal} on {record.channel.name}"
            ),
            "repro:time": record.time,
            "repro:channel": record.channel.name,
            "repro:branch": record.branch_index,
        }
        rel(associated, {"prov:activity": activity, "prov:agent": agent})
        roots = [value.provenance for value in record.values]
        for value, root in zip(record.values, roots):
            entity = _entity_id(root)
            entities.setdefault(
                entity,
                {
                    "prov:label": value.value.name,
                    "repro:spine_events": len(root),
                },
            )
            rel(
                generated,
                {"prov:entity": entity, "prov:activity": activity},
            )
        for kind, source in index.predecessors(ordinal):
            if source >= len(records):
                continue
            previous = f"activity:deliver-{source}"
            if kind == DERIVES:
                sources = [
                    value.provenance for value in records[source].values
                ]
                for root in sources:
                    rel(
                        used,
                        {
                            "prov:activity": activity,
                            "prov:entity": _entity_id(root),
                        },
                    )
                for mine, theirs in zip(roots, sources):
                    rel(
                        derived,
                        {
                            "prov:generatedEntity": _entity_id(mine),
                            "prov:usedEntity": _entity_id(theirs),
                        },
                    )
            else:
                rel(
                    informed,
                    {
                        "prov:informed": activity,
                        "prov:informant": previous,
                        "repro:order": kind,
                    },
                )
    document = {
        "prefix": {
            "repro": "urn:repro:provenance-calculus:",
            "agent": "urn:repro:agent:",
            "entity": "urn:repro:entity:",
            "activity": "urn:repro:activity:",
        },
        "agent": agents,
        "entity": entities,
        "activity": activities,
        "wasAssociatedWith": associated,
        "wasGeneratedBy": generated,
        "used": used,
        "wasDerivedFrom": derived,
        "wasInformedBy": informed,
    }
    return document


def write_prov_json(index: ProvenanceIndex, path, limit=None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_prov_json(index, limit=limit), handle, indent=2)
        handle.write("\n")


def to_dot(index: ProvenanceIndex, limit: Optional[int] = None) -> str:
    """The happens-before graph as graphviz DOT text."""

    index.commit()
    records = index.deliveries()
    if limit is not None:
        records = records[:limit]
    lines = [
        "digraph provenance {",
        "  rankdir=LR;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    for ordinal, record in enumerate(records):
        label = (
            f"#{ordinal} {record.principal.name}"
            f"@{record.channel.name}\\nt={record.time:g}"
        )
        lines.append(f'  d{ordinal} [label="{label}"];')
    count = len(records)
    for ordinal in range(count):
        for kind, source in index.predecessors(ordinal):
            if source >= count:
                continue
            style = (
                "solid" if kind == DERIVES else "dashed"
            )
            lines.append(
                f"  d{source} -> d{ordinal} "
                f'[style={style}, label="{kind}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def spine_to_dot(provenance: Provenance, name: str = "spine") -> str:
    """One value's spine (with nested channel provenances) as DOT."""

    lines = [
        f"digraph {name} {{",
        "  rankdir=RL;",
        '  node [shape=ellipse, fontname="Helvetica"];',
    ]
    ids: dict = {}

    def node_id(node: Provenance) -> str:
        existing = ids.get(node)
        if existing is None:
            existing = f"n{len(ids)}"
            ids[node] = existing
        return existing

    emitted = set()
    stack = [provenance]
    while stack:
        node = stack.pop()
        if node in emitted or not len(node):
            continue
        emitted.add(node)
        this = node_id(node)
        event = node.head
        lines.append(
            f'  {this} [label="{event.principal.name}{event.symbol}"];'
        )
        if len(node.tail):
            lines.append(f"  {this} -> {node_id(node.tail)};")
            stack.append(node.tail)
        nested = event.channel_provenance
        if len(nested):
            lines.append(
                f'  {this} -> {node_id(nested)} [style=dotted, label="chan"];'
            )
            stack.append(nested)
    lines.append("}")
    return "\n".join(lines) + "\n"
