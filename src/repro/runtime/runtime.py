"""The deployment facade: a whole system on the simulated cluster.

:class:`DistributedRuntime` assembles simulator, network, middleware and
one node per principal, deploys a calculus system onto them, and runs the
clock.  It is the entry point examples and benchmarks use::

    runtime = DistributedRuntime(seed=7)
    runtime.deploy(parse_system("a[m<v>] || b[m(x).0]"))
    runtime.run()
    print(runtime.metrics.summary())

A durable runtime appends its journal to the middleware's sink list
after the metrics, and :meth:`~DistributedRuntime.attach_query_index`
a query index after that.  :func:`place_components` is the one
deployment walk, shared with the sharded runtime.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.congruence import NormalForm, all_system_names, normalize
from repro.core.heap import settled_heap
from repro.core.names import Channel, NameSupply, Principal
from repro.core.semantics import SemanticsMode
from repro.core.system import Located, Message, System
from repro.runtime.metrics import RuntimeMetrics
from repro.core.integrity import KeyRing
from repro.runtime.middleware import Middleware
from repro.runtime.network import (
    FaultInjector,
    FaultPlan,
    LatencyModel,
    Network,
    Topology,
)
from repro.runtime.node import Node
from repro.runtime.simulator import SequenceSource, Simulator

__all__ = ["DistributedRuntime"]


def place_components(
    nf: NormalForm,
    principal_host: Callable[[Principal], Optional["DistributedRuntime"]],
    channel_host: Callable[[Channel], Optional["DistributedRuntime"]],
) -> None:
    """Place a normal form's components on the runtimes hosting them.

    Consecutive components of one principal ride one batched event
    (``spawn_group``); a group breaks wherever another principal's
    component or a message intervenes, even one hosted elsewhere, so
    every shard partition deploys with the single-runtime boundaries
    (part of the inline bit-identity argument).  A host callable
    returns ``None`` for components this caller does not host.
    """

    group_principal: Optional[Principal] = None
    group: list = []

    def flush() -> None:
        nonlocal group
        if group:
            host = principal_host(group_principal)
            if host is not None:
                host.node(group_principal).spawn_group(group)
        group = []

    for component in nf.components:
        if isinstance(component, Located):
            if component.principal != group_principal:
                flush()
                group_principal = component.principal
            group.append(component.process)
        elif isinstance(component, Message):
            flush()
            group_principal = None
            host = channel_host(component.channel)
            if host is not None:
                # deploy-time message literals carry histories the
                # middleware itself vouches for: attest them so chain
                # verification accepts what enforcement already did
                host.middleware.adopt(component.payload)
                host.middleware.manager(component.channel).post(
                    component.payload, host.simulator.now
                )
    flush()


class DistributedRuntime:
    """Simulator + network + middleware + nodes, wired together.

    The substrate is the two-tier run-queue/heap scheduler with batched
    process interpretation on the nodes, fully deterministic for a given
    seed: ``seed`` keys every latency and fault draw (see
    :mod:`repro.runtime.network`, :mod:`repro.runtime.simulator` and
    :mod:`repro.runtime.node`).
    """

    def __init__(
        self,
        seed: int = 0,
        latency: LatencyModel = LatencyModel(),
        mode: SemanticsMode = SemanticsMode.TRACKED,
        enforce_integrity: bool = True,
        replication_budget: int = 4,
        certificate: Optional[object] = None,
        detailed_metrics: bool = True,
        topology: Optional[Topology] = None,
        metrics_retention: Optional[int] = None,
        sequence_source: Optional[SequenceSource] = None,
        crypto: bool = True,
        verify_deliveries: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        keyring: Optional[KeyRing] = None,
        durable=None,
        checkpoint_every: Optional[int] = None,
        durable_wipe: bool = False,
    ) -> None:
        self.simulator = Simulator(sequence_source=sequence_source)
        faults = None
        if fault_plan is not None and not fault_plan.is_quiet:
            faults = FaultInjector(fault_plan, seed)
        self.network = Network(
            self.simulator, latency, topology=topology, faults=faults, seed=seed
        )
        self.metrics = RuntimeMetrics(
            detailed=detailed_metrics, retain=metrics_retention
        )
        self.middleware = Middleware(
            self.simulator,
            self.network,
            self.metrics,
            mode=mode,
            enforce_integrity=enforce_integrity,
            certificate=certificate,
            keyring=keyring,
            crypto=crypto,
            verify_deliveries=verify_deliveries,
        )
        # durable mode: a write-ahead journal joins the middleware's
        # sinks; it carries the delivered values and the attestation
        # tags of the spine nodes they introduce.  Imported lazily —
        # repro.storage pulls in recovery machinery most runs never need.
        self.durable = None
        self.durability = None
        self.checkpoint_every = checkpoint_every
        if durable is not None:
            from repro.storage.journal import DurabilitySink
            from repro.storage.segments import DurableStore

            store = (
                durable
                if isinstance(durable, DurableStore)
                else DurableStore(durable)
            )
            if durable_wipe:
                store.wipe()
            self.durable = store
            self.durability = DurabilitySink(
                store, attestation_lookup=self.middleware.attestations.tag
            )
            self.middleware.sinks.append(self.durability)
        self.query_index = None
        """A :class:`~repro.query.ProvenanceIndex` streaming this
        runtime's deliveries, once :meth:`attach_query_index` ran."""
        self.replication_budget = replication_budget
        self._nodes: dict[Principal, Node] = {}
        self._fault_plan = fault_plan
        self._config = dict(
            seed=seed,
            mode=mode.name,
            enforce_integrity=enforce_integrity,
            replication_budget=replication_budget,
            crypto=crypto,
            verify_deliveries=verify_deliveries,
            latency_base=latency.base,
            latency_jitter=latency.jitter,
        )

    def node(self, principal: Principal) -> Node:
        """The (lazily created) node hosting ``principal``."""

        existing = self._nodes.get(principal)
        if existing is None:
            existing = Node(
                principal,
                self.middleware,
                replication_budget=self.replication_budget,
            )
            self._nodes[principal] = existing
        return existing

    @property
    def nodes(self) -> dict[Principal, Node]:
        return dict(self._nodes)

    def deploy(self, system: System) -> None:
        """Place every located process on its node; post in-flight messages.

        The system is normalized first: top-level restrictions become
        ordinary (renamed-apart) channel names — on a real deployment they
        would be channels whose name is known only to their creators.
        """

        if self.durable is not None and not self.durable.manifest_path().exists():
            self.durable.write_manifest(self._manifest_for(system))
        # one name walk seeds both the runtime's supply and normalization's
        names = all_system_names(system)
        self.middleware.supply.reserve(names)
        nf = normalize(system, NameSupply(names))
        place_components(nf, lambda principal: self, lambda channel: self)

    def _manifest_for(self, system: System) -> dict:
        """Everything a later process needs to re-execute this run.

        The engine is deterministic, so config + system source *is* the
        run; recovery re-parses the pretty-printed source and replays
        (see :mod:`repro.storage.recover`).
        """

        from dataclasses import asdict

        from repro.core.system import system_principals
        from repro.lang import pretty_system

        return {
            "runtime": dict(self._config),
            "keyring_master": self.middleware.keyring.master.hex(),
            "checkpoint_every": self.checkpoint_every,
            "system": pretty_system(system),
            "principals": sorted(p.name for p in system_principals(system)),
            "faults": (
                asdict(self._fault_plan)
                if self._fault_plan is not None
                else None
            ),
        }

    def attach_query_index(self, index=None):
        """Stream every delivery into a provenance query index.

        Appends the index to the middleware's sinks, after the journal:
        it sees exactly what the journal sees, in delivery order, and
        absorbs batches at generation boundaries (each
        :meth:`checkpoint`, or on demand at query time).  The index is
        a pure consumer — the delivered trace is bit-identical with or
        without one attached (the E24 differential).  Pass an existing
        index to resume it; returns the attached index.
        """

        if self.query_index is not None:
            raise ValueError("a query index is already attached")
        if index is None:
            from repro.query import ProvenanceIndex

            index = ProvenanceIndex()
        self.query_index = index
        self.middleware.sinks.append(index)
        return index

    def checkpoint(self):
        """Seal the durable record's current generation; returns the
        seal's path.

        The journal is fsynced and a fixed-size seal (generation,
        delivered count, trace digest) is written beside it; nothing is
        re-encoded (see :mod:`repro.storage.checkpoint`).  With a query
        index attached, the index commits the generation and writes
        nothing: ``repro query`` rebuilds the same generations from the
        journal (see :mod:`repro.query.persist`).
        """

        if self.durability is None:
            from repro.core.errors import StorageError

            raise StorageError(
                "checkpoint() requires a durable runtime (pass durable=DIR)"
            )
        path = self.durability.checkpoint()
        if self.query_index is not None:
            from repro.query.persist import save_index

            # commits the generation the seal just closed (the sink
            # already rolled to generation+1)
            save_index(
                self.durable, self.query_index, self.durability.generation - 1
            )
        return path

    def run(
        self, until: Optional[float] = None, max_events: int = 1_000_000
    ) -> int:
        """Advance the simulation; returns events processed.

        On a durable runtime the journal is flushed when the run
        settles, and with ``checkpoint_every=N`` a checkpoint is cut
        after every ``N`` processed events.  Everything alive when the
        run starts is kept out of the cyclic collector's full passes
        until it ends (:func:`~repro.core.heap.settled_heap`).
        """

        with settled_heap():
            return self._run(until, max_events)

    def _run(self, until: Optional[float], max_events: int) -> int:
        if self.durability is None:
            return self.simulator.run(until=until, max_events=max_events)
        every = self.checkpoint_every
        if not every:
            processed = self.simulator.run(until=until, max_events=max_events)
            self.durability.flush()
            return processed
        processed = 0
        while processed < max_events:
            chunk = min(every, max_events - processed)
            ran = self.simulator.run(until=until, max_events=chunk)
            processed += ran
            if ran < chunk:
                break
            self.checkpoint()
        self.durability.flush()
        return processed

    def close(self) -> None:
        """Flush and close the durable journal (a no-op without one, or
        when already closed)."""

        if self.durability is not None:
            self.durability.close()

    @property
    def now(self) -> float:
        return self.simulator.now

    def blocked_threads(self) -> int:
        """Receivers currently waiting across all nodes."""

        return sum(node.blocked_threads for node in self._nodes.values())

    def threads_spawned(self) -> int:
        """Logical threads interpreted so far across all nodes.

        One per process-tree node, whether the node ran inside a batched
        worklist or on an event of its own.
        """

        return sum(node.threads_spawned for node in self._nodes.values())
