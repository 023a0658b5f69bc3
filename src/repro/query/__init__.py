"""Provenance analytics: a queryable index over the delivered trace.

The capture layers (engine, runtime, storage) make every value carry its
history; this package makes those histories *consultable* — Cheney-style
provenance traces as artifacts supporting dependency and disclosure
slicing:

* :mod:`repro.query.index` — :class:`ProvenanceIndex`, the
  generation-indexed happens-before / dataflow graphs with where/why
  queries (derivation slices, taint reachability, cone-of-influence and
  happens-before from vector clocks, memoized minimal witness suffixes);
* :mod:`repro.query.planner` — posting-list access-path selection,
  informed by the log's :meth:`~repro.logs.order.LogIndex.
  signature_buckets` when available;
* :mod:`repro.query.export` — W3C PROV-JSON and graphviz DOT;
* :mod:`repro.query.persist` — the index over a durable store, rebuilt
  from its journal one generation at a time; nothing about the index is
  written to disk.

Feed an index live (``runtime.attach_query_index()``), from a sharded
run (``sharded.build_query_index()``), or from a durable store
(:func:`~repro.query.persist.resume_index`); see the README's
"Querying provenance" walkthrough and ``examples/provenance_queries.py``.
"""

from repro.query.export import (
    spine_to_dot,
    to_dot,
    to_prov_json,
    write_prov_json,
)
from repro.query.index import (
    CHANNEL,
    DERIVES,
    EDGE_KINDS,
    PROGRAM,
    HBEdge,
    ProvenanceIndex,
)
from repro.query.persist import resume_index, save_index
from repro.query.planner import QueryPlan, plan_where, run_where

__all__ = [
    "CHANNEL",
    "DERIVES",
    "EDGE_KINDS",
    "PROGRAM",
    "HBEdge",
    "ProvenanceIndex",
    "QueryPlan",
    "plan_where",
    "resume_index",
    "run_where",
    "save_index",
    "spine_to_dot",
    "to_dot",
    "to_prov_json",
    "write_prov_json",
]
