#!/usr/bin/env python
"""Provenance queries end to end: capture, ask, export, rebuild.

PR 10's analytics layer in one deterministic walkthrough.  A vetted
relay chain runs with the query index attached to the middleware's
delivery hook and the journal going to a durable store:

1. **capture** — every delivery streams into a live
   :class:`~repro.query.ProvenanceIndex`; a checkpoint seals the
   journal's generation and commits the index's;
2. **ask** — where/why queries over the happens-before and dataflow
   graphs: who touched the payload (``derived_from_sends``), what the
   producer's output influenced (``taint``), why the final delivery
   happened (``cone_of_influence``), and the minimal witness suffix
   proving the relay guard held;
3. **export** — the trace as W3C PROV-JSON and graphviz DOT, plus the
   final value's spine as its own DOT graph;
4. **rebuild** — a second index is built from the store's journal,
   one generation per seal, and must answer every query identically
   to the live one (exit 1 if anything diverges).

Run:  PYTHONPATH=src python examples/provenance_queries.py [OUTDIR]

Without OUTDIR the artifacts go to a temporary directory.  The same
store answers from the command line::

    PYTHONPATH=src python -m repro query OUTDIR/store --taint a --witness 'a!any;any'
"""

import sys
import tempfile
from pathlib import Path

from repro.core.names import Principal
from repro.query import resume_index, spine_to_dot, to_dot, write_prov_json
from repro.runtime import DistributedRuntime
from repro.workloads.scaling import relay_guard, vetted_relay_chain

HOPS = 12
SEED = 7


def capture(store_dir: Path):
    """Run the relay chain durably with the index streaming live."""

    runtime = DistributedRuntime(
        seed=SEED, durable=str(store_dir), durable_wipe=True
    )
    live = runtime.attach_query_index()
    runtime.deploy(vetted_relay_chain(HOPS).system)
    runtime.run()
    runtime.checkpoint()  # seals the journal; the index commits
    runtime.close()  # the checkpoint opened the next generation's segment
    live.commit()
    return live


def ask(index) -> dict:
    """Every query the walkthrough checks — returned for comparison."""

    producer, first_relay = Principal("a"), Principal("p1")
    last = index.delivered - 1
    witness = index.minimal_witness(
        index.delivery(last).values[0].provenance, relay_guard()
    )
    return {
        "summary": index.summary(),
        "generation_marks": index.generation_marks,
        "edge_counts": index.edge_counts(),
        "trace": index.deliveries(),
        "where_producer": index.derived_from_sends(producer),
        "taint_relay": index.taint(first_relay),
        "cone_last": index.cone_of_influence(last),
        "witness_len": None if witness is None else len(witness),
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out = Path(argv[0]) if argv else Path(
        tempfile.mkdtemp(prefix="provenance-queries-")
    )
    out.mkdir(parents=True, exist_ok=True)
    store_dir = out / "store"

    print(f"relay chain: {HOPS} hops, seed {SEED}; artifacts in {out}\n")
    live = capture(store_dir)
    print(
        f"[capture ] deliveries={live.delivered} "
        f"spine_nodes={live.summary()['spine_nodes']} "
        f"hb_edges={live.summary()['hb_edges']}"
    )

    answers = ask(live)
    last = live.delivered - 1
    print(
        f"[where   ] derived from a's sends: "
        f"{len(answers['where_producer'])}/{live.delivered} deliveries"
    )
    print(
        f"[why     ] taint(p1) reaches {len(answers['taint_relay'])} "
        f"deliveries; cone_of_influence(#{last}) = "
        f"{len(answers['cone_last'])} upstream deliveries"
    )
    print(
        f"[witness ] minimal relay-guard witness on delivery #{last}: "
        f"{answers['witness_len']} events"
    )
    # the relay shape makes every answer predictable — pin it
    expected_deliveries = HOPS + 1
    assert answers["summary"]["delivered"] == expected_deliveries
    assert len(answers["where_producer"]) == expected_deliveries
    assert answers["cone_last"] == tuple(range(last))
    assert answers["witness_len"] == 1  # the producer's original send

    prov_path = out / "trace.prov.json"
    dot_path = out / "trace.dot"
    spine_path = out / "final-spine.dot"
    write_prov_json(live, prov_path)
    dot_path.write_text(to_dot(live), encoding="utf-8")
    spine_path.write_text(
        spine_to_dot(
            live.delivery(last).values[0].provenance, name="final_value"
        ),
        encoding="utf-8",
    )
    print(
        f"[export  ] {prov_path.name}, {dot_path.name}, {spine_path.name}"
    )

    rebuilt, info = resume_index(store_dir)
    print(
        f"[rebuild ] {info['extended_deliveries']} deliveries in "
        f"{rebuilt.generation} generation(s) from the journal "
        f"(indexing work: {info['extended_work']} events)"
    )

    if ask(rebuilt) != answers:
        print(
            "MISMATCH: the rebuilt index answered differently from the "
            "live one",
            file=sys.stderr,
        )
        return 1
    print(
        "\nProvenance query demo OK: the index rebuilt from the durable "
        "store\nanswers every where/why query identically to the live "
        "capture."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
