"""The deployment facade: a whole system on the simulated cluster.

:class:`DistributedRuntime` assembles simulator, network, middleware and
one node per principal, deploys a calculus system onto them, and runs the
clock.  It is the entry point examples and benchmarks use::

    runtime = DistributedRuntime(seed=7)
    runtime.deploy(parse_system("a[m<v>] || b[m(x).0]"))
    runtime.run()
    print(runtime.metrics.summary())
"""

from __future__ import annotations

from typing import Optional

from repro.core.congruence import all_system_names, normalize
from repro.core.heap import settled_heap
from repro.core.names import NameSupply, Principal
from repro.core.semantics import SemanticsMode
from repro.core.system import Located, Message, System
from repro.runtime.metrics import RuntimeMetrics
from repro.core.integrity import KeyRing
from repro.runtime.middleware import Middleware
from repro.runtime.network import (
    FaultInjector,
    FaultPlan,
    KeyedLatencySampler,
    LatencyModel,
    Network,
    Topology,
)
from repro.runtime.node import DEFAULT_BATCH_LIMIT, Node
from repro.runtime.simulator import SequenceSource, Simulator
from repro.runtime.wire import WIRE_V2

__all__ = ["DistributedRuntime"]


class DistributedRuntime:
    """Simulator + network + middleware + nodes, wired together.

    ``scheduler`` selects the substrate: ``"runq"`` (default) uses the
    two-tier run-queue/heap scheduler with batched process
    interpretation on the nodes; ``"heap"`` keeps the seed's
    single-heap, one-event-per-tree-node substrate as the A/B reference.
    Each is fully deterministic for a given seed, and for race-free
    programs (no concurrently enabled receives competing for one
    message in the same zero-latency instant) both execute the same run
    — identical deliveries, times, and stamped values
    (``benchmarks/bench_runtime_scaling.py`` gates that differential
    and the throughput ratio; see :mod:`repro.runtime.node` for the
    caveat on racy rendezvous).
    """

    def __init__(
        self,
        seed: int = 0,
        latency: LatencyModel = LatencyModel(),
        mode: SemanticsMode = SemanticsMode.TRACKED,
        enforce_integrity: bool = True,
        replication_budget: int = 4,
        processing_delay: float = 0.0,
        wire_version: int = WIRE_V2,
        vetting: str = "bank",
        certificate: Optional[object] = None,
        detailed_metrics: bool = True,
        scheduler: str = "runq",
        topology: Optional[Topology] = None,
        metrics_retention: Optional[int] = None,
        batch_limit: Optional[int] = None,
        sequence_source: Optional[SequenceSource] = None,
        latency_sampler: Optional[KeyedLatencySampler] = None,
        crypto: bool = True,
        verify_deliveries: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        keyring: Optional[KeyRing] = None,
        durable=None,
        checkpoint_every: Optional[int] = None,
        attestation_cache: Optional[int] = None,
        durable_wipe: bool = False,
    ) -> None:
        self.simulator = Simulator(
            seed, scheduler=scheduler, sequence_source=sequence_source
        )
        faults = None
        if fault_plan is not None and not fault_plan.is_quiet:
            faults = FaultInjector(fault_plan, seed)
        self.network = Network(
            self.simulator,
            latency,
            topology=topology,
            sampler=latency_sampler,
            faults=faults,
        )
        self.metrics = RuntimeMetrics(
            detailed=detailed_metrics, retain=metrics_retention
        )
        # durable mode: the attestation store spills to disk (bounded
        # RAM) and the middleware streams deliveries into a write-ahead
        # journal.  Imported lazily — repro.storage pulls in recovery
        # machinery most runs never need.
        self.durable = None
        self.durability = None
        self.checkpoint_every = checkpoint_every
        attestations = None
        spill = None
        if durable is not None:
            from repro.storage.segments import AttestationSpill, DurableStore
            from repro.core.integrity import AttestationStore

            store = (
                durable
                if isinstance(durable, DurableStore)
                else DurableStore(durable)
            )
            if durable_wipe:
                store.wipe()
            self.durable = store
            cache = (
                attestation_cache if attestation_cache is not None else 65536
            )
            spill = AttestationSpill(store.spill_path())
            attestations = AttestationStore(spill=spill, capacity=cache)
        self.middleware = Middleware(
            self.simulator,
            self.network,
            self.metrics,
            mode=mode,
            enforce_integrity=enforce_integrity,
            wire_version=wire_version,
            vetting=vetting,
            certificate=certificate,
            keyring=keyring,
            crypto=crypto,
            verify_deliveries=verify_deliveries,
            attestations=attestations,
        )
        if self.durable is not None:
            from repro.storage.journal import DurabilitySink

            self.durability = DurabilitySink(
                self.durable,
                attestation_lookup=self.middleware.attestations.tag,
                spill=spill,
            )
            self.middleware.journal = self.durability
        self.query_index = None
        """A :class:`~repro.query.ProvenanceIndex` streaming this
        runtime's deliveries, once :meth:`attach_query_index` ran."""
        self.replication_budget = replication_budget
        self.processing_delay = processing_delay
        if batch_limit is None and scheduler == "runq":
            batch_limit = DEFAULT_BATCH_LIMIT
        self.batch_limit = batch_limit
        self._nodes: dict[Principal, Node] = {}
        self._fault_plan = fault_plan
        self._config = dict(
            seed=seed,
            mode=mode.name,
            enforce_integrity=enforce_integrity,
            replication_budget=replication_budget,
            processing_delay=processing_delay,
            wire_version=wire_version,
            vetting=vetting,
            scheduler=scheduler,
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
                processing_delay=self.processing_delay,
                batch_limit=self.batch_limit,
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
        # consecutive components of one principal ride one batched
        # event (spawn_group); interleaving stays exactly the normal
        # form's component order, so heap and run-queue deployments
        # execute the same run
        group_principal: Optional[Principal] = None
        group: list = []
        for component in nf.components:
            if isinstance(component, Located):
                if component.principal != group_principal:
                    if group:
                        self.node(group_principal).spawn_group(group)
                    group_principal = component.principal
                    group = []
                group.append(component.process)
            elif isinstance(component, Message):
                if group:
                    self.node(group_principal).spawn_group(group)
                    group_principal, group = None, []
                # deploy-time message literals carry histories the
                # middleware itself vouches for: attest them so chain
                # verification accepts what enforcement already did
                self.middleware.adopt(component.payload)
                self.middleware.manager(component.channel).post(
                    component.payload, self.simulator.now
                )
        if group:
            self.node(group_principal).spawn_group(group)

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
            "format": 1,
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

        Registers a delivery observer on the middleware; the index sees
        exactly what the journal sees, in delivery order, and absorbs
        batches at generation boundaries (each :meth:`checkpoint`, or
        on demand at query time).  Observers are pure consumers — the
        delivered trace is bit-identical with or without one attached
        (the E24 differential).  Pass an existing index to resume it;
        returns the attached index.
        """

        if self.query_index is not None:
            raise ValueError("a query index is already attached")
        if index is None:
            from repro.query import ProvenanceIndex

            index = ProvenanceIndex()
        self.query_index = index
        self.middleware.delivery_observers.append(index.observe_delivery)
        return index

    def checkpoint(self):
        """Snapshot the durable record; returns the checkpoint path.

        The checkpoint header captures simulated time, events
        processed, the metrics summary, and the quarantine set; the
        body compacts every journaled delivery into one self-contained,
        atomically renamed segment (see :mod:`repro.storage.checkpoint`).
        With a query index attached, the index commits the generation
        and persists a snapshot beside the checkpoint so a later
        ``repro recover`` / ``repro query`` resumes it without a full
        rebuild (see :mod:`repro.query.persist`).
        """

        if self.durability is None:
            from repro.core.errors import StorageError

            raise StorageError(
                "checkpoint() requires a durable runtime (pass durable=DIR)"
            )
        middleware = self.middleware
        state = {
            "time": self.simulator.now,
            "events": self.simulator.events_processed,
            "summary": self.metrics.summary(),
            "quarantined": sorted(
                p.name for p in middleware.quarantined
            ),
            "revoked": bool(
                middleware.certificate is None
                and self.metrics.certificates_revoked
            ),
        }
        path = self.durability.checkpoint(state)
        if self.query_index is not None:
            from repro.query.persist import save_index

            # the sink already rolled to generation+1; the checkpoint
            # just written carries the previous generation number
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

    @property
    def now(self) -> float:
        return self.simulator.now

    def blocked_threads(self) -> int:
        """Receivers currently waiting across all nodes."""

        return sum(node.blocked_threads for node in self._nodes.values())

    def threads_spawned(self) -> int:
        """Logical threads interpreted so far across all nodes.

        One per process-tree node, whichever interpreter ran it — the
        batched worklist and the seed's one-event-per-node path count
        identically.
        """

        return sum(node.threads_spawned for node in self._nodes.values())
