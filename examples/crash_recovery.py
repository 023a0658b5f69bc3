#!/usr/bin/env python
"""Crash recovery: checkpoint, SIGKILL, recover, trace differential.

The durability layer in one demo.  A parent process runs the same
relay workload three ways:

1. **reference**: an uninterrupted in-memory run — the delivered trace
   every other arm must reproduce bit for bit;
2. **crashed**: a child process journals to a durable store, seals the
   journal's first generation with a checkpoint partway — then
   SIGKILLs *itself*, leaving that sealed generation and the fresh one
   it rolled to;
3. **recovered**: the parent loads the child's store — every journal
   generation through one codec, the sealed one checked against its
   seal — rebuilds the runtime from the manifest, replays
   deterministically, and checks the persisted record is a
   bit-identical prefix of the reference trace — then finishes the
   run to the exact same trace.

Run:  PYTHONPATH=src python examples/crash_recovery.py
"""

import os
import signal
import subprocess
import sys
import tempfile

from repro.runtime import DistributedRuntime
from repro.storage import DurableStore, load_state, recover_runtime
from repro.storage.recover import rebuild_system
from repro.workloads import relay_gauntlet

HOPS, LANES = 24, 2
SEED = 42
CRASH_AFTER = 20
"""Deliveries the child survives before SIGKILLing itself."""


def build_runtime(durable=None):
    workload = relay_gauntlet(hops=HOPS, lanes=LANES)
    runtime = DistributedRuntime(
        seed=SEED, durable=durable, durable_wipe=durable is not None
    )
    runtime.deploy(workload.system)
    return runtime, workload


def child(root: str) -> None:
    """Journal, checkpoint, then die without warning."""

    runtime, _ = build_runtime(durable=root)
    crashed = {"sent": False}

    # a sink after the journal on the middleware's delivery pipeline:
    # after CRASH_AFTER deliveries, seal what is journaled and SIGKILL
    # ourselves — no atexit, no flush, no goodbye, exactly like a
    # power cut
    sink = runtime.durability

    class DieAfter:
        def record_delivery(self, record, latency):
            if sink.delivered_count + len(sink._pending) == CRASH_AFTER:
                runtime.checkpoint()
                os.kill(os.getpid(), signal.SIGKILL)

        def note(self, kind, detail):
            pass

    runtime.middleware.sinks.append(DieAfter())
    runtime.run()
    raise SystemExit("child was supposed to die mid-run")


def main() -> None:
    if len(sys.argv) > 2 and sys.argv[1] == "--child":
        child(sys.argv[2])
        return

    print(f"relay gauntlet: {LANES} lanes x {HOPS} hops, seed {SEED}\n")
    reference, workload = build_runtime()
    reference.run()
    expected = reference.metrics.delivered
    print(f"[reference] deliveries={len(expected)} (uninterrupted)")

    with tempfile.TemporaryDirectory() as root:
        result = subprocess.run(
            [sys.executable, __file__, "--child", root],
            env={**os.environ, "PYTHONPATH": "src"},
        )
        assert result.returncode == -signal.SIGKILL, (
            f"child should die by SIGKILL, exited {result.returncode}"
        )
        store = DurableStore(root)
        state = load_state(store)
        print(
            f"[crashed  ] persisted={len(state.entries)} deliveries "
            f"(checkpoint generation {state.checkpoint_generation}, "
            f"torn segments: {len(state.torn)})"
        )
        assert state.entries, "child persisted nothing before dying"

        recovered, state = recover_runtime(store)
        # recovery is deterministic re-execution: re-deploy the
        # manifest's system and run — the engine re-derives every
        # delivery the crashed process made, then the ones it never got to
        recovered.deploy(rebuild_system(state.manifest))
        recovered.run()
        replayed = recovered.metrics.delivered
        print(f"[recovered] deliveries={len(replayed)} after replay")

    def as_tuples(records):
        return [
            (r.time, r.principal.name, r.channel.name, r.values, r.branch_index)
            for r in records
        ]

    persisted = [
        (e.time, e.principal.name, e.channel.name, e.values, e.branch_index)
        for e in state.entries
    ]
    full = as_tuples(expected)
    assert persisted == full[: len(persisted)], (
        "persisted record diverged from the reference trace"
    )
    assert as_tuples(replayed) == full, (
        "recovered run diverged from the reference trace"
    )
    print(
        "\nCrash recovery demo OK: the sealed journal record is a "
        "bit-identical\nprefix of the crash-free trace, and replay "
        "finishes the run to the same end."
    )


if __name__ == "__main__":
    main()
