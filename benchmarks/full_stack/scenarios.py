"""The four workloads: their inputs, one measured sample each, and checks.

Every workload runs with every layer on: provenance tracking, bank
vetting, HMAC attestation with ``verify_deliveries``, the durable journal
and the query index.  Static check elision (``certificate=``) stays off
everywhere: it would remove the vetting layer's work.

A *sample* is one fresh process doing one workload once (see
``bench.py``).  :func:`run_sample` returns plain numbers: the timed
region, the set-up before it, peak memory, the store's size, query
latencies, and how many operations were attempted and failed.  Failures
are counted against :func:`reference`, computed once per invocation: a
bare run (crypto off, no verify, journal or index) and the answers of a
freshly built query index over its trace.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Optional

CAST = 64
"""Servers every relay hop is placed on.  A bounded cast is deliberate:
shared principals let the lazy DFA's per-event transitions repeat, as
they do in a deployment with a fixed set of hosts."""

FULL_STACK = dict(crypto=True, verify_deliveries=True, detailed_metrics=False)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    lanes: int = 0
    hops: tuple = ()
    """Hops per relay lane are uniform over this range."""
    checkpoint_every: Optional[int] = None
    fanout: dict = field(default_factory=dict)
    """``wide_fanout`` arguments (the fan-out workload only)."""
    queries: int = 1000
    """Seeded cone/witness/happens-before/where queries per sample; one
    taint and one derived-from query per sender come on top.  A run
    reports latency percentiles over all queries of all its samples."""

    def sizes(self) -> dict:
        return {
            key: value
            for key, value in asdict(self).items()
            if key not in ("name", "why") and value
        }


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "relay_full",
            "deep relay spines: per-delivery cost sits in stamp, vet, "
            "attest/verify, journal, index and O(history) checkpoints",
            lanes=32,
            hops=(64, 192),
            checkpoint_every=4096,
        ),
        Workload(
            "relay_sharded",
            "relay_full's input on two process shards: wire frames, "
            "pipes, the window barrier and re-verify on ingest",
            lanes=32,
            hops=(64, 192),
        ),
        Workload(
            "fanout_wide",
            "two-event spines, no patterns: scheduler, interpreter and "
            "the fixed per-delivery costs; vetting does nothing here",
            fanout=dict(
                n_regions=16, sources_per_region=100, burst=8, guard_depth=2
            ),
        ),
        Workload(
            "audit_read",
            "the read side: recover a many-generation store, resume its "
            "index and answer where/why queries; no capture is timed",
            lanes=32,
            hops=(32, 96),
            checkpoint_every=1024,
            queries=2000,
        ),
    )
}

TOY_WORKLOADS = {
    name: replace(
        workload,
        lanes=4 if workload.lanes else 0,
        hops=workload.hops and (8, 24),
        checkpoint_every=workload.checkpoint_every and 32,
        fanout=workload.fanout and dict(
            n_regions=2, sources_per_region=40, burst=2, guard_depth=1
        ),
        queries=40,
    )
    for name, workload in WORKLOADS.items()
}
"""The same workloads at sizes a smoke test runs in a second each."""


# -- inputs ---------------------------------------------------------------


def relay_layout(seed: int, workload: Workload) -> list[list[int]]:
    """Per lane, the server of its producer and of each hop.

    Lanes come in pairs whose hop counts add up to ``lo + hi``: each
    lane's length is still uniform over the range, but the total — and
    so the number of checkpoints a run cuts — is the same for every
    seed, which keeps seed-to-seed spread down.
    """

    lo, hi = workload.hops
    rng = random.Random(f"relay:{seed}")
    counts: list[int] = []
    for _ in range(workload.lanes // 2):
        hops = rng.randint(lo, hi)
        counts += [hops, lo + hi - hops]
    return [[rng.randrange(CAST) for _ in range(hops + 1)] for hops in counts]


def relay_system(layout: list[list[int]]):
    """Each hop is ``s_k[t_i((relay_guard(), x)).t_{i+1}<x>]``."""

    from repro.core.builder import ch, inp, located, nil, out, pr, sys_par, var
    from repro.workloads.scaling import relay_guard

    guard = relay_guard()
    x = var("x")
    components = []
    for lane, servers in enumerate(layout):
        channels = [ch(f"t{lane}_{i}") for i in range(len(servers))]
        components.append(
            located(pr(f"s{servers[0]}"), out(channels[0], ch(f"v{lane}")))
        )
        for i in range(1, len(servers)):
            body = out(channels[i], x) if i + 1 < len(servers) else nil()
            components.append(
                located(
                    pr(f"s{servers[i]}"),
                    inp(channels[i - 1], (guard, x), body=body),
                )
            )
    return sys_par(*components)


def relay_plan(layout: list[list[int]], shards: int):
    """Servers round-robin; each channel homed with its receiver."""

    from repro.runtime import LatencyModel
    from repro.runtime.shards import ShardPlan

    channels = {}
    for lane, servers in enumerate(layout):
        for i in range(1, len(servers)):
            channels[f"t{lane}_{i - 1}"] = servers[i] % shards
    principals = {f"s{k}": k % shards for k in range(CAST)}
    return ShardPlan(principals, channels, LatencyModel().base)


@dataclass
class Inputs:
    system: object
    expected: int
    senders: list
    """Principals the taint, derived-from and where queries ask about."""
    receivers: list
    topology: object = None
    plan: object = None


def make_inputs(workload: Workload, seed: int) -> Inputs:
    from repro.core.names import Principal

    if workload.fanout:
        from repro.workloads import wide_fanout

        built = wide_fanout(**workload.fanout)
        rng = random.Random(f"principals:{seed}")
        senders = rng.sample(sorted(built.sources, key=str), CAST)
        receivers = [*built.sinks, built.collector]
        return Inputs(
            built.system, built.expected_deliveries, senders, receivers,
            topology=built.topology,
        )
    layout = relay_layout(seed, workload)
    servers = [Principal(f"s{k}") for k in range(CAST)]
    return Inputs(
        relay_system(layout),
        sum(len(hops) - 1 for hops in layout),
        servers,
        servers,
        plan=relay_plan(layout, 2) if workload.name == "relay_sharded" else None,
    )


# -- queries --------------------------------------------------------------

QUERY_KINDS = ("cone", "witness", "happens_before", "where", "taint", "derived")


def query_mix(seed: int, deliveries: int, inputs: Inputs, count: int) -> list:
    """Distinct seeded queries, shuffled: 60% cone, 20% witness, 10%
    happens-before, 10% where, plus one taint and one derived-from per
    sender.

    Distinct, because the index caches answers: a repeated query would
    time a dictionary lookup.
    """

    rng = random.Random(f"queries:{seed}")
    cones = count * 6 // 10
    witnesses = count * 2 // 10
    pairs = count // 10
    mix = [("cone", o) for o in rng.sample(range(deliveries), cones)]
    mix += [("witness", o) for o in rng.sample(range(deliveries), witnesses)]
    chosen: set = set()
    while len(chosen) < pairs:
        a, b = rng.randrange(deliveries), rng.randrange(deliveries)
        if a != b:
            chosen.add((min(a, b), max(a, b)))
    mix += [("happens_before", pair) for pair in sorted(chosen)]
    where = [
        (sender, receiver)
        for sender in range(len(inputs.senders))
        for receiver in range(len(inputs.receivers))
    ]
    mix += [("where", pair) for pair in rng.sample(where, count - len(mix))]
    mix += [("taint", p) for p in range(len(inputs.senders))]
    mix += [("derived", p) for p in range(len(inputs.senders))]
    rng.shuffle(mix)
    return mix


def ask(index, kind: str, arg, inputs: Inputs, guard):
    if kind == "cone":
        return index.cone_of_influence(arg)
    if kind == "witness":
        return tuple(index.iter_value_witnesses(arg, guard))
    if kind == "happens_before":
        return index.happens_before(*arg)
    if kind == "where":
        from repro.query import run_where

        sender, receiver = arg
        return run_where(
            index,
            sender=inputs.senders[sender],
            receiver=inputs.receivers[receiver],
        )[0]
    if kind == "taint":
        return index.taint(inputs.senders[arg])
    return index.derived_from_sends(inputs.senders[arg])


def answer_key(kind: str, answer) -> int:
    """A process-independent fingerprint of one answer."""

    if kind == "witness":
        answer = tuple(
            (
                int.from_bytes(root.digest, "big"),
                witness and int.from_bytes(witness.digest, "big"),
            )
            for root, witness in answer
        )
    return hash(answer)


def run_queries(index, mix: list, inputs: Inputs) -> tuple[dict, list]:
    """Time each query alone (closed loop, one client)."""

    from repro.workloads.scaling import relay_guard

    guard = relay_guard()
    latencies: dict = {kind: [] for kind in QUERY_KINDS}
    answers = []
    for kind, arg in mix:
        start = perf_counter()
        answer = ask(index, kind, arg, inputs, guard)
        latencies[kind].append(perf_counter() - start)
        answers.append(answer)
    return latencies, [
        answer_key(kind, answer) for (kind, _), answer in zip(mix, answers)
    ]


# -- the reference ----------------------------------------------------------


def trace_digest(trace) -> str:
    """The journal's chained digest over ``(time, principal, channel,
    values, branch)`` tuples — what ``DurabilitySink`` computes."""

    from repro.storage.journal import ZERO_DIGEST, chain_digest, delivery_key

    digest = ZERO_DIGEST
    for time, principal, channel, values, branch in trace:
        digest = chain_digest(
            digest, delivery_key(time, principal, channel, branch, values)
        )
    return digest.hex()


def reference(workload: Workload, seed: int) -> dict:
    """The bare run's trace digest and a fresh index's query answers.

    ``relay_sharded`` is compared against ``ShardedRuntime(shards=1)``
    inline: its latency draws are keyed per link, like the process
    shards', so its trace is the one the partitioned run must merge to.
    """

    from repro.query import ProvenanceIndex

    inputs = make_inputs(workload, seed)
    if workload.name == "relay_sharded":
        from repro.runtime import ShardedRuntime

        runtime = ShardedRuntime(shards=1, seed=seed, crypto=False)
        runtime.deploy(inputs.system)
        runtime.run()
        trace = runtime.delivered_trace()
    else:
        from repro.runtime import DistributedRuntime

        runtime = DistributedRuntime(
            seed=seed, crypto=False, topology=inputs.topology
        )
        runtime.deploy(inputs.system)
        runtime.run()
        trace = [
            (r.time, r.principal, r.channel, r.values, r.branch_index)
            for r in runtime.metrics.delivered
        ]
    index = ProvenanceIndex()
    index.extend_trace(trace)
    mix = query_mix(seed, len(trace), inputs, workload.queries)
    return {
        "digest": trace_digest(trace),
        "expected": inputs.expected,
        "answers": run_queries(index, mix, inputs)[1],
    }


def fork_skip_reason() -> Optional[str]:
    """Why process shards cannot run here, or ``None`` when they can."""

    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return "multiprocessing has no 'fork' start method on this platform"
    context = multiprocessing.get_context("fork")
    try:
        reader, writer = context.Pipe(duplex=False)
        child = context.Process(target=writer.send, args=("ok",))
        child.start()
        answered = reader.poll(30) and reader.recv() == "ok"
        child.join(30)
    except OSError as error:
        return f"cannot start a worker process: {error}"
    if not answered or child.exitcode != 0:
        return "a forked worker process did not answer"
    return None


# -- one sample -----------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident memory of this process and its reaped children."""

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def store_bytes(root: Path) -> int:
    return sum(
        (Path(folder) / name).stat().st_size
        for folder, _, names in os.walk(root)
        for name in names
    )


class Sample:
    """What one sample measured and checked; becomes its JSON line."""

    def __init__(self, workload: Workload, seed: int, ref: dict, tracer):
        self.workload = workload
        self.seed = seed
        self.ref = ref
        self.tracer = tracer
        self.result: dict = {"attempted": 0, "failed": 0, "problems": []}
        self.facts: dict = {}
        """What the per-layer metrics read off the runtime."""

    def count(self, attempted: int, failed: int, problem: str) -> None:
        self.result["attempted"] += attempted
        self.result["failed"] += failed
        if failed:
            self.result["problems"].append(problem)

    def region(self):
        return self.tracer.region() if self.tracer else nullcontext()

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def timed(self, started: float, start: float, end: float, work: int):
        self.result.update(setup_s=start - started, region_s=end - start,
                           work=work)

    def deliveries(self, got: int, digest: str) -> None:
        """A delivery fails when missing; all fail on a digest mismatch."""

        expected = self.ref["expected"]
        self.result.update(deliveries=got, digest=digest)
        if digest != self.ref["digest"]:
            self.count(expected, expected,
                       f"trace digest {digest} != reference {self.ref['digest']}")
        else:
            missing = max(0, expected - got)
            self.count(expected, missing, f"{missing} deliveries missing")

    def queries(self, index, inputs: Inputs) -> None:
        """Run the query mix; an answer fails if it differs from the
        reference index's."""

        from repro.core.provenance import intern_table_sizes

        self.facts["dag_nodes"] = intern_table_sizes()[1]
        mix = query_mix(
            self.seed, index.delivered, inputs, self.workload.queries
        )
        latencies, answers = run_queries(index, mix, inputs)
        self.result["peak_rss_mb"] = peak_rss_mb()
        self.result["query_us"] = [
            round(t * 1e6, 2) for series in latencies.values() for t in series
        ]
        self.facts["query_p50_us"] = {
            kind: statistics.median(series) * 1e6
            for kind, series in latencies.items()
        }
        wrong = sum(a != b for a, b in zip(answers, self.ref["answers"]))
        wrong += abs(len(answers) - len(self.ref["answers"]))
        self.count(len(mix), wrong,
                   f"{wrong} query answers differ from a freshly built index")


def run_sample(
    workload: Workload, seed: int, phase: str, store: Path, ref: dict,
    tracer=None,
) -> dict:
    """One measured run of ``workload``.

    ``audit_read`` takes two processes: ``phase="capture"`` writes the
    store (its set-up), then ``phase="read"`` recovers and queries it.
    Set-up time starts after the program's modules are imported: it
    covers input generation, runtime construction and deployment.
    """

    import repro.query  # noqa: F401  (imports stay out of set-up time)
    import repro.runtime  # noqa: F401
    import repro.storage  # noqa: F401
    import repro.workloads  # noqa: F401

    started = perf_counter()
    sample = Sample(workload, seed, ref, tracer)
    if phase == "read":
        _read(sample, store)
    elif workload.name == "relay_sharded":
        _sharded(sample, store, started)
    else:
        _capture(sample, store, started, phase)
    result = sample.result
    result["stored_bytes"] = store_bytes(store)
    if tracer is not None:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer, sample.facts)
        result["stage_sum_s"] = sum(tracer.self_s.values())
        result["region_traced_s"] = tracer.region_s
    return result


def _capture(sample: Sample, store: Path, started: float, phase: str) -> None:
    from repro.runtime import DistributedRuntime

    workload = sample.workload
    inputs = make_inputs(workload, sample.seed)
    runtime = DistributedRuntime(
        seed=sample.seed,
        topology=inputs.topology,
        durable=str(store),
        durable_wipe=True,
        checkpoint_every=workload.checkpoint_every,
        metrics_retention=0,
        **FULL_STACK,
    )
    index = runtime.attach_query_index()
    runtime.deploy(inputs.system)
    start = perf_counter()
    with sample.region():
        runtime.run()
        index.commit()
        runtime.durability.close()
    end = perf_counter()
    deliveries = runtime.metrics.deliveries
    sample.timed(started, start, end, deliveries)
    sample.deliveries(deliveries, runtime.durability.trace_digest.hex())
    if phase == "capture":
        # audit_read's set-up is the whole capture; the read half, in a
        # fresh process, recovers and queries the store
        sample.result["setup_s"] = end - started
        return
    sample.queries(index, inputs)
    sample.facts.update(
        deliveries=deliveries,
        summary=runtime.metrics.summary(),
        index_events=index.events_indexed,
    )


def _sharded(sample: Sample, store: Path, started: float) -> None:
    from repro.runtime import ShardedRuntime

    inputs = make_inputs(sample.workload, sample.seed)
    runtime = ShardedRuntime(
        shards=2,
        shard_mode="process",
        seed=sample.seed,
        plan=inputs.plan,
        durable_dir=str(store),
        **FULL_STACK,
    )
    runtime.deploy(inputs.system)
    start = perf_counter()
    with sample.region():
        runtime.run()
        index = runtime.build_query_index()
    end = perf_counter()
    if sample.tracer is not None:
        sample.result["workers_traced"] = sample.tracer.absorb_workers(
            runtime.shard_summaries()
        )
    trace = runtime.delivered_trace()
    sample.timed(started, start, end, len(trace))
    sample.deliveries(len(trace), trace_digest(trace))
    sample.queries(index, inputs)
    stats = runtime.shard_stats()
    sample.facts.update(
        deliveries=len(trace),
        summary=runtime.metrics_summary(),
        index_events=index.events_indexed,
        shard_events=[row["events"] for row in stats],
        cross_sends=sum(row["cross_shard_sent"] for row in stats),
        barrier_rounds=runtime.barrier_rounds,
    )


def _read(sample: Sample, store: Path) -> None:
    """Recover (``load_state`` + ``verify_replay``), then resume the index:
    what ``repro recover DIR`` and ``repro query DIR`` do."""

    import repro.storage.recover as recover
    from repro.query import resume_index
    from repro.storage import DurableStore, load_state, verify_replay

    replays: list = []
    if sample.tracer is not None:
        sample.tracer.wrap(
            recover, "runtime_from_manifest", "storage.recover.replay",
            lambda tracer, args, runtime: replays.append(runtime),
        )
    durable = DurableStore(store)
    start = perf_counter()
    with sample.region():
        with sample.span("storage.recover.load"):
            state = load_state(durable)
        with sample.span("storage.recover.replay"):
            report = verify_replay(durable, state)
        with sample.span("query.persist.resume"):
            index, info = resume_index(durable)
    end = perf_counter()
    sample.result.update(region_s=end - start, work=state.delivered)
    sample.count(1, 0 if report.ok else 1, f"verify_replay: {report.detail}")
    digest = state.trace_digest.hex()
    sample.count(1, 0 if digest == sample.ref["digest"] else 1,
                 f"recovered digest {digest} != reference")
    sample.queries(index, make_inputs(sample.workload, sample.seed))
    sample.facts.update(
        deliveries=state.delivered,
        summary=replays[0].metrics.summary() if replays else {},
        index_events=info["extended_work"],
        extended_deliveries=info["extended_deliveries"],
    )
