"""Recovery: load the durable record and replay it deterministically.

Recovery has two halves:

* :func:`load_state` is pure reading — newest valid checkpoint, journal
  suffix decoded on top, notes folded into quarantine/revocation state,
  attestation tags collected.  No runtime is built; this is what
  ``repro recover DIR`` prints and what audits consume.

* :func:`verify_replay` is the paper's determinism contract cashed in:
  rebuild the runtime from the manifest's config, re-parse the
  manifest's system source, run it, and require the persisted record to
  be a **bit-identical prefix** of the fresh run's delivered trace —
  same times, principals, channels, branch indices, and stamped values
  (provenance spines compare by interned identity after decode).  The
  engine cannot snapshot its live scheduler (closures), so recovery is
  re-execution, not resumption — and re-execution is exact because
  every source of nondeterminism is keyed off the seed.

:func:`recover_runtime` builds a fresh runtime that *trusts like the
crashed one*: quarantined principals re-quarantined, certificate
revocation re-applied, the attestation store repopulated from journaled
tags, the keyring rebuilt from the manifest's master secret.

All :mod:`repro.runtime` imports are lazy (inside functions): the
runtime package imports :mod:`repro.storage` when ``durable=`` is in
play, and a module-level import here would make package init cyclic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Set, Tuple, Union

from repro.core.errors import StorageError
from repro.storage.checkpoint import collect_entries
from repro.storage.journal import DeliveryEntry, NoteEntry, ZERO_DIGEST
from repro.storage.segments import DurableStore

__all__ = [
    "RecoveredState",
    "ReplayReport",
    "load_state",
    "recover_runtime",
    "runtime_from_manifest",
    "verify_replay",
]


@dataclass(slots=True)
class RecoveredState:
    """Everything the durable store knows about the crashed run."""

    store: DurableStore
    manifest: dict
    entries: List[DeliveryEntry]
    notes: List[NoteEntry]
    quarantined: Set[str]
    revoked: bool
    tampered: int
    trace_digest: bytes
    checkpoint_generation: int
    torn: List[str] = field(default_factory=list)
    segments: List[Tuple[int, int]] = field(default_factory=list)
    """``(generation, cumulative delivery count)`` per source segment —
    see :attr:`repro.storage.checkpoint.RecordView.segments`."""

    def generation_of(self, index: int) -> Optional[int]:
        """The generation whose segment persisted delivery ``index``."""

        for generation, end in self.segments:
            if index < end:
                return generation
        return None

    @property
    def delivered(self) -> int:
        return len(self.entries)

    def attestation_pairs(self) -> List[Tuple[object, bytes]]:
        """All journaled ``(spine node, tag)`` pairs, first-write order."""

        pairs = []
        seen = set()
        for entry in self.entries:
            for node, tag in zip(entry.new_nodes, entry.tags):
                if tag is not None and node not in seen:
                    seen.add(node)
                    pairs.append((node, tag))
        return pairs

    def delivered_trace(self) -> list:
        """The persisted trace in the merged-trace comparison shape."""

        return [
            (
                entry.time,
                entry.principal,
                entry.channel,
                entry.values,
                entry.branch_index,
            )
            for entry in self.entries
        ]


@dataclass(frozen=True, slots=True)
class ReplayReport:
    """Outcome of a deterministic replay verification."""

    ok: bool
    persisted: int
    replayed: int
    detail: str
    divergence_index: Optional[int] = None
    """Index of the first persisted delivery the replay contradicts
    (``None`` when the replay verified)."""


def load_state(store: Union[DurableStore, str, Path]) -> RecoveredState:
    """Read the full durable record without building a runtime."""

    if not isinstance(store, DurableStore):
        store = DurableStore(store)
    manifest = store.read_manifest()
    if manifest is None:
        raise StorageError(
            f"{store.root} has no MANIFEST.json — not a durable store "
            f"(for sharded runs, point at a shard-N subdirectory or the "
            f"root)"
        )
    record = collect_entries(store)
    header = (
        record.checkpoint.header if record.checkpoint is not None else {}
    )
    quarantined = set(header.get("quarantined", []))
    revoked = bool(header.get("revoked", False))
    tampered = 0
    for note in record.notes:
        if note.kind == "quarantine":
            quarantined.add(note.detail)
        elif note.kind == "revoke":
            revoked = True
        elif note.kind == "tamper":
            tampered += 1
    return RecoveredState(
        store=store,
        manifest=manifest,
        entries=record.entries,
        notes=record.notes,
        quarantined=quarantined,
        revoked=revoked,
        tampered=tampered,
        trace_digest=record.trace_digest,
        checkpoint_generation=(
            record.checkpoint.generation if record.checkpoint else 0
        ),
        torn=record.torn,
        segments=record.segments,
    )


def runtime_from_manifest(
    manifest: dict,
    durable=None,
    **overrides,
):
    """Build a fresh runtime matching the manifest's recorded config.

    ``metrics_retention``/``detailed_metrics`` default to full retention
    (the replay comparison needs every delivered record); everything
    behavioral — seed, mode, vetting, scheduler, wire version, faults,
    latency, keyring — comes from the manifest.  Keyword ``overrides``
    win over the manifest.
    """

    from repro.core.integrity import KeyRing
    from repro.core.semantics import SemanticsMode
    from repro.runtime.network import FaultPlan, LatencyModel
    from repro.runtime.runtime import DistributedRuntime

    config = manifest.get("runtime")
    if not isinstance(config, dict):
        raise StorageError("manifest carries no runtime config to rebuild")
    kwargs = dict(
        seed=config["seed"],
        mode=SemanticsMode[config["mode"]],
        enforce_integrity=config["enforce_integrity"],
        replication_budget=config["replication_budget"],
        processing_delay=config["processing_delay"],
        wire_version=config["wire_version"],
        vetting=config["vetting"],
        scheduler=config["scheduler"],
        crypto=config["crypto"],
        verify_deliveries=config["verify_deliveries"],
        latency=LatencyModel(
            config["latency_base"], config["latency_jitter"]
        ),
        detailed_metrics=False,
        metrics_retention=None,
        durable=durable,
    )
    faults = manifest.get("faults")
    if faults:
        kwargs["fault_plan"] = FaultPlan(**faults)
    master = manifest.get("keyring_master")
    if master:
        kwargs["keyring"] = KeyRing(bytes.fromhex(master))
    kwargs.update(overrides)
    return DistributedRuntime(**kwargs)


def rebuild_system(manifest: dict, origin: str = "manifest"):
    """Re-parse the manifest's pretty-printed system source.

    A missing source, or one that does not parse, is a damaged record,
    not a caller bug: it raises :class:`StorageError` naming ``origin``
    (the manifest's path, when known) and, for a
    :class:`~repro.core.errors.ParseError`, its line:column.
    """

    from repro.core.errors import ParseError
    from repro.lang import parse_system

    source = manifest.get("system")
    if not source:
        raise StorageError(
            f"{origin} carries no system source — the run was deployed "
            "without repro-side source capture (e.g. a shard worker); "
            "replay verification needs the root store or a single-"
            "runtime store"
        )
    try:
        return parse_system(source, principals=manifest.get("principals", ()))
    except ParseError as error:
        raise StorageError(
            f"{origin}: system source does not parse: {error}"
        ) from error


def verify_replay(
    store: Union[DurableStore, str, Path],
    state: Optional[RecoveredState] = None,
    max_events: int = 10_000_000,
) -> ReplayReport:
    """Re-execute from the manifest; persisted record must be a prefix.

    The persisted record can be *shorter* than the fresh run (the crash
    happened mid-run, or the final journal tail was torn) but every
    record it does hold must match the uninterrupted run bit for bit,
    in order.  This is the merged-trace contract from the sharding work
    applied across process lifetimes.
    """

    if state is None:
        state = load_state(store)
    system = rebuild_system(state.manifest, str(state.store.manifest_path()))
    runtime = runtime_from_manifest(state.manifest)
    runtime.deploy(system)
    runtime.run(max_events=max_events)
    replayed = [
        (
            record.time,
            record.principal,
            record.channel,
            record.values,
            record.branch_index,
        )
        for record in runtime.metrics.delivered
    ]
    persisted = state.delivered_trace()
    if len(persisted) > len(replayed):
        return ReplayReport(
            False,
            len(persisted),
            len(replayed),
            f"persisted record has {len(persisted)} deliveries but the "
            f"replay produced only {len(replayed)}",
            divergence_index=len(replayed),
        )
    for index, (disk, fresh) in enumerate(zip(persisted, replayed)):
        if disk != fresh:
            return ReplayReport(
                False,
                len(persisted),
                len(replayed),
                f"first divergence at delivery {index}: "
                f"persisted {disk!r} != replayed {fresh!r}",
                divergence_index=index,
            )
    suffix = len(replayed) - len(persisted)
    return ReplayReport(
        True,
        len(persisted),
        len(replayed),
        f"bit-identical prefix of {len(persisted)} deliveries"
        + (f" ({suffix} post-crash deliveries re-executed)" if suffix else ""),
    )


def recover_runtime(
    store: Union[DurableStore, str, Path],
    state: Optional[RecoveredState] = None,
    **overrides,
):
    """A fresh runtime that trusts exactly what the crashed one did.

    Quarantine, certificate revocation, and the attestation store are
    restored from the durable record; the keyring is rebuilt from the
    manifest's master secret, so recovered tags verify.  Returns
    ``(runtime, state)``.  The recovered entries are pinned on the
    runtime (``runtime.recovered_state``) so the interned spines they
    reference stay alive as long as the runtime does.
    """

    if state is None:
        state = load_state(store)
    runtime = runtime_from_manifest(state.manifest, **overrides)
    middleware = runtime.middleware
    from repro.core.names import Principal

    for name in sorted(state.quarantined):
        principal = Principal(name)
        if principal not in middleware.quarantined:
            middleware.quarantined.add(principal)
    if state.revoked and middleware.certificate is not None:
        middleware.certificate = None
    for node, tag in state.attestation_pairs():
        middleware.attestations.record(node, tag)
    runtime.recovered_state = state
    return runtime, state
