"""Spans around the public calls of each layer, recorded from outside.

The benchmark never edits the program to time it.  :class:`Tracer`
replaces chosen class (or module) attributes with thin wrappers; Python
looks them up at call time, so every caller inside the program goes
through the wrappers, and :meth:`Tracer.restore` puts every original
object back.

A span is recorded only while the region is open (:meth:`Tracer.region`),
so set-up work before the timed region costs one check per call and
leaves no spans.  A span's *self time* is its duration minus the
durations of the spans it directly encloses, so the self times of all
stages plus the region's own self time add up to the region exactly.

Process-mode shard workers are forked while the region is open and so
inherit the wrappers.  A fork hook clears the totals a worker inherited;
the worker's own totals ride back inside its metrics summary (the
wrapped ``RuntimeMetrics.summary`` adds :data:`WORKER_KEY` in workers
only), and :meth:`Tracer.absorb_workers` pops them on the conductor
before anything merges the summaries.
"""

from __future__ import annotations

import gc
import importlib
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

WORKER_KEY = "_full_stack_trace"
ROOT = "region"


class Tracer:
    """Per-stage self times, counters and, optionally, every span."""

    def __init__(self, keep_spans: bool = False) -> None:
        self.keep_spans = keep_spans
        self.pid = os.getpid()
        self._stack: list[list] = []
        self._saved: list[tuple] = []
        self._next_id = 0
        self._gc_start = 0.0
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        """Self seconds per stage in this process (the root included)."""
        self.worker_self_s: dict[str, float] = defaultdict(float)
        """Self seconds per stage summed over absorbed shard workers."""
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.region_s = 0.0

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else 0
        frame = [name, perf_counter(), 0.0, self._next_id, parent]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> float:
        end = perf_counter()
        self._stack.pop()
        name, start, children, span_id, parent = frame
        duration = end - start
        self.self_s[name] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        if self.keep_spans:
            self.spans.append((span_id, parent, name, start, end))
        return duration

    @contextmanager
    def span(self, name: str):
        """A span around a call the benchmark makes itself."""

        if not self._stack:
            yield
            return
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    @contextmanager
    def region(self):
        """The traced region: the root span every stage nests under."""

        frame = self._open(ROOT)
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)
            self.region_s += self._close(frame)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
            return
        self.counters["gc_s"] += perf_counter() - self._gc_start
        if info.get("generation") == 2:
            self.counters["gc_gen2"] += 1

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, stage, observe=None) -> None:
        """Time every call of ``owner.attr`` as ``stage``.

        ``stage`` is a name, or a function of the call's positional
        arguments that returns one.  ``observe(tracer, args, result)``
        runs after each call made inside the region, to update counters.
        """

        original = owner.__dict__[attr]
        is_static = isinstance(original, staticmethod)
        func = original.__func__ if is_static else original
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return func(*args, **kwargs)
            frame = tracer._open(stage if isinstance(stage, str) else stage(args))
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(frame)
            if observe is not None:
                observe(tracer, args, result)
            return result

        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._saved.append((owner, attr, original))

    def restore(self) -> list[tuple]:
        """Put every wrapped attribute back; returns ``(owner, attr,
        original)`` for each, so callers can check the restoration."""

        restored = list(reversed(self._saved))
        for owner, attr, original in restored:
            setattr(owner, attr, original)
        self._saved.clear()
        return restored

    # -- shard workers -----------------------------------------------------

    def _worker_summary(self, tracer, args, result) -> None:
        if os.getpid() != self.pid and isinstance(result, dict):
            result[WORKER_KEY] = {
                "self_s": dict(self.self_s),
                "counters": dict(self.counters),
            }

    def absorb_workers(self, summaries) -> int:
        """Pop worker totals out of ``summaries`` and add them up here.

        Returns how many summaries carried totals.  Worker self times go
        to :attr:`worker_self_s` (their root is the worker's idle time,
        not part of any stage); counters add to ours.
        """

        absorbed = 0
        for summary in summaries:
            totals = summary.pop(WORKER_KEY, None)
            if totals is None:
                continue
            absorbed += 1
            for name, seconds in totals["self_s"].items():
                if name != ROOT:
                    self.worker_self_s[name] += seconds
            for name, value in totals["counters"].items():
                self.counters[name] += value
        return absorbed


def _one(args, result) -> int:
    return 1


def _adds(counter: str, amount):
    def observe(tracer, args, result):
        tracer.counters[counter] += amount(args, result)

    return observe


def _done_replies(tracer, args, result) -> None:
    """Price the cross-shard traffic a worker's ``done`` reply carries."""

    if result[0] != "done":
        return
    for envelope in result[3]:
        tracer.counters["cross_sends"] += 1
        tracer.counters["wire_bytes"] += len(envelope.data) + 16 * len(
            envelope.tags
        )


def install(tracer: Tracer) -> Tracer:
    """Wrap the public calls of every layer the benchmark reports on.

    Must run before the runtime is built: the query index's observer is
    bound when it is attached.
    """

    from repro.core.integrity import SpineVerifier
    from repro.query.index import ProvenanceIndex
    from repro.runtime.metrics import RuntimeMetrics
    from repro.runtime.middleware import ChannelManager, Middleware
    from repro.runtime.network import Network
    from repro.runtime.shards import ShardedRuntime, ShardRouter
    from repro.runtime.simulator import Simulator

    checkpoint = importlib.import_module("repro.storage.checkpoint")
    journal = importlib.import_module("repro.storage.journal")
    persist = importlib.import_module("repro.query.persist")
    sink = journal.DurabilitySink
    wrap = tracer.wrap

    wrap(Simulator, "run", "runtime.simulator", _adds("events", lambda a, r: r))
    for attr in ("deliver", "deliver_at", "fault_for"):
        wrap(Network, attr, "runtime.network")
    wrap(Middleware, "send", "runtime.middleware.send")
    wrap(ChannelManager, "post", "runtime.middleware.rendezvous")
    wrap(ChannelManager, "register", "runtime.middleware.rendezvous")
    for attr in ("record_send", "record_delivery", "record_delivery_streaming"):
        wrap(RuntimeMetrics, attr, "runtime.metrics")
    wrap(RuntimeMetrics, "record_verify", "runtime.metrics", _verify_counts)
    wrap(RuntimeMetrics, "summary", "runtime.metrics", tracer._worker_summary)
    wrap(Middleware, "stamp_output", "core.provenance.stamp")
    wrap(Middleware, "stamp_input", "core.provenance.stamp")
    wrap(SpineVerifier, "attest_chain", "core.integrity.attest")
    wrap(Middleware, "payload_verifies", "core.integrity.verify")
    wrap(Middleware, "vet", "patterns.vet")
    wrap(sink, "record_delivery", "storage.journal.append")
    wrap(sink, "flush", "storage.journal.flush")
    wrap(
        journal, "encode_delivery_entry", "storage.journal.flush",
        _adds("journal_bytes", lambda a, r: len(r[0])),
    )
    wrap(sink, "checkpoint", "storage.checkpoint", _adds("checkpoints", _one))
    wrap(
        checkpoint, "write_checkpoint", "storage.checkpoint",
        _adds("checkpoint_bytes", lambda a, r: os.path.getsize(r)),
    )
    wrap(ProvenanceIndex, "observe_delivery", "query.index.observe")
    wrap(ProvenanceIndex, "commit", "query.index.commit")
    wrap(persist, "save_index", "query.persist.save")
    wrap(
        ShardedRuntime, "_expect",
        lambda args: f"runtime.shards.wait_{args[1]}", _done_replies,
    )
    wrap(ShardedRuntime, "delivered_trace", "runtime.shards.merge")
    wrap(ShardedRuntime, "build_query_index", "query.index.commit")
    wrap(ShardRouter, "send_remote", "runtime.wire.send_remote")
    wrap(ShardRouter, "ingest", "runtime.wire.ingest")
    os.register_at_fork(after_in_child=tracer.reset)
    return tracer


def _verify_counts(tracer, args, result) -> None:
    tracer.counters["verify_nodes"] += args[1]
    tracer.counters["verify_hits"] += args[2]


SHARES = {
    "runtime.simulator.self_frac": "runtime.simulator",
    "runtime.network.self_frac": "runtime.network",
    "runtime.middleware.send_self_frac": "runtime.middleware.send",
    "runtime.middleware.rendezvous_self_frac": "runtime.middleware.rendezvous",
    "runtime.metrics.self_frac": "runtime.metrics",
    "core.provenance.stamp_self_frac": "core.provenance.stamp",
    "core.integrity.attest_self_frac": "core.integrity.attest",
    "core.integrity.verify_self_frac": "core.integrity.verify",
    "patterns.vet_self_frac": "patterns.vet",
    "storage.journal.append_self_frac": "storage.journal.append",
    "storage.journal.flush_self_frac": "storage.journal.flush",
    "storage.checkpoint.self_frac": "storage.checkpoint",
    "query.index.observe_self_frac": "query.index.observe",
    "query.index.commit_self_frac": "query.index.commit",
    "query.persist.save_self_frac": "query.persist.save",
    "query.persist.resume_self_frac": "query.persist.resume",
    "storage.recover.load_self_frac": "storage.recover.load",
    "storage.recover.replay_self_frac": "storage.recover.replay",
    "runtime.shards.ready_wait_frac": "runtime.shards.wait_ready",
    "runtime.shards.window_wait_frac": "runtime.shards.wait_done",
    "runtime.shards.result_wait_frac": "runtime.shards.wait_result",
    "runtime.shards.merge_self_frac": "runtime.shards.merge",
    "runtime.wire.send_remote_self_frac": "runtime.wire.send_remote",
    "runtime.wire.ingest_self_frac": "runtime.wire.ingest",
    "trace.unattributed_frac": ROOT,
}
"""Per-layer self time as a share of the traced region's wall time.

Shares rather than microseconds, so a layer that does no work on some
workload reads a plain zero share.  For process shards, worker stages
are summed over both workers, so those rows can add up past 1."""


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, facts: dict) -> dict:
    """The per-layer metrics of one traced sample.

    ``facts`` holds what the sample read off the runtime after the
    region: ``deliveries``, the merged metrics ``summary``,
    ``index_events``, ``dag_nodes``, per-kind ``query_p50_us`` and, for
    shards, ``shard_events``, ``cross_sends`` and ``barrier_rounds``.
    """

    region = tracer.region_s
    deliveries = facts["deliveries"]
    summary = facts.get("summary", {})
    counters = tracer.counters
    metrics = {
        name: _ratio(tracer.self_s.get(stage, 0.0)
                     + tracer.worker_self_s.get(stage, 0.0), region)
        for name, stage in SHARES.items()
    }
    shard_events = facts.get("shard_events") or [1]
    verified = counters["verify_nodes"] + counters["verify_hits"]
    metrics.update({
        "python.gc_frac": _ratio(counters["gc_s"], region),
        "python.gc_gen2_collections": counters["gc_gen2"],
        "runtime.simulator.events_per_delivery": _ratio(
            counters["events"], deliveries),
        "core.provenance.dag_nodes_per_delivery": _ratio(
            facts["dag_nodes"], deliveries),
        "core.integrity.verify_nodes_per_delivery": _ratio(
            counters["verify_nodes"], deliveries),
        "core.integrity.verify_cache_hit_ratio": _ratio(
            counters["verify_hits"], verified),
        "patterns.vet_transitions_per_delivery": _ratio(
            summary.get("vet_transitions", 0), deliveries),
        "patterns.vet_cache_hits_per_delivery": _ratio(
            summary.get("vet_cache_hits", 0), deliveries),
        "storage.journal.bytes_per_delivery": _ratio(
            counters["journal_bytes"], deliveries),
        "storage.checkpoint.calls": counters["checkpoints"],
        "storage.checkpoint.bytes_rewritten_per_delivery": _ratio(
            counters["checkpoint_bytes"], deliveries),
        "query.index.events_indexed_per_delivery": _ratio(
            facts.get("index_events", 0), deliveries),
        "query.persist.extended_deliveries": facts.get(
            "extended_deliveries", 0),
        "runtime.shards.barrier_rounds": facts.get("barrier_rounds", 0),
        "runtime.shards.cross_sends_per_delivery": _ratio(
            facts.get("cross_sends", 0), deliveries),
        "runtime.shards.event_imbalance": _ratio(
            max(shard_events), sum(shard_events) / len(shard_events)),
        "runtime.wire.bytes_per_cross_send": _ratio(
            counters["wire_bytes"], counters["cross_sends"]),
        "trace.region_us_per_delivery": _ratio(region * 1e6, deliveries),
    })
    for kind, p50 in facts.get("query_p50_us", {}).items():
        metrics[f"query.{kind}.p50_us"] = p50
    return metrics


PER_LAYER_UNITS = {
    **{name: "fraction" for name in SHARES},
    "python.gc_frac": "fraction",
    "python.gc_gen2_collections": "count",
    "runtime.simulator.events_per_delivery": "count",
    "core.provenance.dag_nodes_per_delivery": "count",
    "core.integrity.verify_nodes_per_delivery": "count",
    "core.integrity.verify_cache_hit_ratio": "ratio",
    "patterns.vet_transitions_per_delivery": "count",
    "patterns.vet_cache_hits_per_delivery": "count",
    "storage.journal.bytes_per_delivery": "B",
    "storage.checkpoint.calls": "count",
    "storage.checkpoint.bytes_rewritten_per_delivery": "B",
    "query.index.events_indexed_per_delivery": "count",
    "query.persist.extended_deliveries": "count",
    "runtime.shards.barrier_rounds": "count",
    "runtime.shards.cross_sends_per_delivery": "count",
    "runtime.shards.event_imbalance": "ratio",
    "runtime.wire.bytes_per_cross_send": "B",
    "trace.region_us_per_delivery": "us",
    "query.cone.p50_us": "us",
    "query.witness.p50_us": "us",
    "query.happens_before.p50_us": "us",
    "query.where.p50_us": "us",
    "query.taint.p50_us": "us",
    "query.derived.p50_us": "us",
    "query.p99_us": "us",
    "trace.overhead_ratio": "ratio",
}
"""Every per-layer metric and its unit.  ``bench.py`` computes the last
two across samples; :func:`layer_metrics` yields the rest."""
