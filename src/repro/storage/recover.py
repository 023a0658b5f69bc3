"""Recovery: load the durable record and replay it deterministically.

Recovery has two halves:

* :func:`load_state` is pure reading — every journal generation decoded
  through one codec and checked against its seal, journaled notes
  giving the quarantine/revocation state, attestation tags collected.
  No runtime is built; this is what ``repro recover DIR`` prints and
  what audits consume.

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

import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Set, Tuple, Union

from repro.core.errors import StorageError
from repro.core.semantics import SemanticsMode
from repro.storage.checkpoint import RecordView, collect_entries
from repro.storage.segments import DurableStore

__all__ = [
    "RecoveredState",
    "ReplayReport",
    "load_state",
    "recover_runtime",
    "runtime_from_manifest",
    "verify_replay",
]


@dataclass(frozen=True, slots=True)
class RecoveredState(RecordView):
    """Everything the durable store knows about the crashed run: its
    delivered record plus the manifest that re-executes it.

    Quarantine, revocation and tamper detections derive from the
    journaled notes alone."""

    store: DurableStore
    manifest: dict

    @property
    def delivered(self) -> int:
        return len(self.entries)

    @property
    def quarantined(self) -> Set[str]:
        return {
            note.detail for note in self.notes if note.kind == "quarantine"
        }

    @property
    def revoked(self) -> bool:
        return any(note.kind == "revoke" for note in self.notes)

    @property
    def tampered(self) -> int:
        return sum(note.kind == "tamper" for note in self.notes)

    def attestation_pairs(self) -> List[Tuple[object, bytes]]:
        """All journaled ``(spine node, tag)`` pairs, first-write order."""

        return list(self.attested.items())

    def delivered_trace(self) -> list:
        """The persisted trace as
        :class:`~repro.runtime.metrics.DeliveryRecord`\\ s — the shape
        of a live runtime's ``metrics.delivered`` and of
        ``ShardedRuntime.delivered_trace()``, so the three compare
        directly."""

        return list(self.entries)


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
    return collect_entries(
        store, RecoveredState, store=store, manifest=manifest
    )


def _is_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)


def _is_bool(value) -> bool:
    return type(value) is bool


def _is_delay(value) -> bool:
    return _is_number(value) and value >= 0


_RUNTIME_FIELDS = {
    "seed": (lambda value: type(value) is int, "an integer"),
    "mode": (
        lambda value: type(value) is str and value in SemanticsMode.__members__,
        f"one of {sorted(SemanticsMode.__members__)}",
    ),
    "enforce_integrity": (_is_bool, "a boolean"),
    "replication_budget": (
        lambda value: type(value) is int and value >= 0,
        "a non-negative integer",
    ),
    "crypto": (_is_bool, "a boolean"),
    "verify_deliveries": (_is_bool, "a boolean"),
    "latency_base": (_is_delay, "a non-negative number"),
    "latency_jitter": (_is_delay, "a non-negative number"),
}
"""Every runtime config key a manifest must carry: (check, description)."""

_LEGACY_RUNTIME_KEYS = {
    "vetting": "bank",
    "scheduler": "runq",
    "wire_version": 2,
    "processing_delay": 0.0,
}
"""Options older manifests recorded.  The runtime now has exactly one
configuration, so a record made under any other value cannot be
reproduced (a racy system recorded under the old single-heap scheduler
would replay differently, and a positive processing delay moved every
process-tree node onto an event of its own)."""


def _runtime_config(manifest: dict) -> dict:
    """The manifest's runtime config, every field checked."""

    config = manifest.get("runtime")
    if not isinstance(config, dict):
        raise StorageError("manifest carries no runtime config to rebuild")
    for key, (check, kind) in _RUNTIME_FIELDS.items():
        if key not in config:
            raise StorageError(f"manifest runtime config lacks {key!r}")
        if not check(config[key]):
            raise StorageError(
                f"manifest runtime {key} must be {kind}, got {config[key]!r}"
            )
    for key, only in _LEGACY_RUNTIME_KEYS.items():
        if key in config and not (
            type(config[key]) is type(only) and config[key] == only
        ):
            raise StorageError(
                f"manifest runtime {key}={config[key]!r} cannot be "
                f"reproduced: this runtime only runs {key}={only!r}"
            )
    return config


def runtime_from_manifest(
    manifest: dict,
    durable=None,
    **overrides,
):
    """Build a fresh runtime matching the manifest's recorded config.

    ``metrics_retention``/``detailed_metrics`` default to full retention
    (the replay comparison needs every delivered record); everything
    behavioral — seed, mode, faults, latency, keyring — comes from the
    manifest.  Keyword ``overrides`` win over the manifest.  A field
    that is missing or of the wrong kind raises :class:`StorageError`.
    """

    from dataclasses import fields

    from repro.core.integrity import KeyRing
    from repro.runtime.network import FaultPlan, LatencyModel
    from repro.runtime.runtime import DistributedRuntime

    config = _runtime_config(manifest)
    kwargs = dict(
        seed=config["seed"],
        mode=SemanticsMode[config["mode"]],
        enforce_integrity=config["enforce_integrity"],
        replication_budget=config["replication_budget"],
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
    if faults is not None:
        known = {spec.name for spec in fields(FaultPlan)}
        if not isinstance(faults, dict) or not all(
            key in known and _is_number(value)
            for key, value in faults.items()
        ):
            raise StorageError(
                f"manifest faults must map fault kinds {sorted(known)} "
                f"to numbers, got {faults!r}"
            )
        kwargs["fault_plan"] = FaultPlan(**faults)
    master = manifest.get("keyring_master")
    if master:
        try:
            kwargs["keyring"] = KeyRing(bytes.fromhex(master))
        except (TypeError, ValueError):
            raise StorageError(
                f"manifest keyring_master must be a hex string, "
                f"got {master!r}"
            ) from None
    kwargs.update(overrides)
    return DistributedRuntime(**kwargs)


def rebuild_system(manifest: dict, origin: str = "manifest"):
    """Re-parse the manifest's pretty-printed system source.

    A missing source, or one that does not parse, is a damaged record,
    not a caller bug: it raises :class:`StorageError` naming ``origin``
    (the manifest's path, when known) and, for a
    :class:`~repro.core.errors.ParseError`, its line:column.  So does a
    source or principal list of the wrong type.
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
    principals = manifest.get("principals", ())
    if not isinstance(source, str):
        raise StorageError(f"{origin}: system source must be a string")
    if not isinstance(principals, (list, tuple)) or not all(
        isinstance(name, str) for name in principals
    ):
        raise StorageError(
            f"{origin}: principals must be a list of names, "
            f"got {principals!r}"
        )
    try:
        return parse_system(source, principals=principals)
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
    replayed = list(runtime.metrics.delivered)
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
