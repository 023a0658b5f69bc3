"""Simulated network: latency models, link topology, and delivery.

A deliberately small abstraction: a message takes ``base + U(0, jitter)``
time units to reach its channel manager — latency never depends on
size, and byte accounting lives entirely in
:class:`repro.runtime.metrics.RuntimeMetrics` (deferred sizer thunks).

Every jitter draw is *keyed*: :class:`KeyedLatencySampler` maps a stable
digest of ``(seed, sender, channel, per-link ordinal)`` to ``U(0, 1)``,
so a message's latency depends only on its identity.  There is no
generator stream: a stream would hand the same message a different draw
depending on which simulator (which shard) it happened to be sent from,
and a partitioned run could not reproduce the bare one.  (The digest is
``blake2b``, not the builtin ``hash``, which is randomized per process
and would break cross-process determinism.)  :meth:`Network.delay` is
the one draw, and ``Middleware.send`` its one caller, for local and
cross-shard sends alike.

Delivery is reliable *by default* — the calculus' semantics assumes
reliable (if arbitrarily delayed) delivery — but a :class:`FaultPlan`
can be installed to exercise the integrity layer under a hostile
substrate: per-link, seeded, deterministic **drop / duplicate / reorder
/ corrupt** decisions.  Decisions are keyed draws too (one ordinal per
link, shared by the four fault kinds), so a faulty run replays
bit-identically under a fixed seed.  The injector only *decides*;
``Middleware.send`` applies and counts the decision in one order for
both transports: a dropped send draws no latency and encodes nothing,
and a reorder adds ``reorder_delay`` to the send's one draw.  Drop and
reorder therefore act the same whichever shard the receiver lives on.
Corrupt and duplicate keep transport-specific effects: locally a
corrupt send garbles the spine and a duplicate posts twice at one
instant; on the wire a corrupt frame fails its digest and a duplicate
envelope is blocked as a replay.

Which *model* a message samples from may vary per link: a ``topology``
callable maps ``(sender principal, channel)`` to the
:class:`LatencyModel` for that hop, so a multi-region deployment can
make intra-region hops free (they ride the simulator's O(1) run queue)
while cross-region hops pay distance (they go to the timed heap).  A
zero link (``LatencyModel(0.0, 0.0)``) draws nothing and advances no
ordinal, so adding or removing zero links never perturbs the draws
timed links see.
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import Callable, Optional

from repro.core.names import Channel, Principal
from repro.runtime.simulator import Simulator

__all__ = [
    "FaultDecision",
    "FaultInjector",
    "FaultPlan",
    "KeyedLatencySampler",
    "LatencyModel",
    "Network",
    "NO_FAULT",
    "ZERO_LATENCY",
]


@dataclass(frozen=True, slots=True)
class LatencyModel:
    """Uniform latency ``base + U(0, jitter)``; the unit draw is
    :class:`KeyedLatencySampler`'s."""

    base: float = 1.0
    jitter: float = 0.5


ZERO_LATENCY = LatencyModel(0.0, 0.0)
"""A free link: zero-delay delivery, scheduled on the run queue."""

Topology = Callable[[Optional[Principal], Optional[Channel]], LatencyModel]


class KeyedLatencySampler:
    """Partition-independent jitter: ``U(0, 1)`` from a stable digest.

    The ``i``-th message a given sender puts on a given channel always
    draws the same uniform value, whether the run uses one simulator or
    sixteen — the draw is ``blake2b(seed | sender | channel | i)``
    mapped to ``[0, 1)``.  Per-link ordinals live with the sender's
    shard, and per-principal program order is preserved by every
    scheduler mode, so the ordinal a message gets is itself
    partition-independent.  Every :class:`Network` owns one.  A dropped
    send never reaches it, whichever shard its receiver lives on, and
    zero-jitter links never touch the counter, so adding or removing
    them never perturbs the draws of timed links.
    """

    __slots__ = ("seed", "_ordinals")

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._ordinals: dict[tuple[str, str], int] = {}

    def sample(
        self,
        model: LatencyModel,
        sender: Optional[Principal],
        channel: Optional[Channel],
    ) -> float:
        if model.jitter <= 0:
            return model.base
        key = (
            sender.name if sender is not None else "",
            channel.name if channel is not None else "",
        )
        ordinal = self._ordinals.get(key, 0)
        self._ordinals[key] = ordinal + 1
        digest = blake2b(
            f"{self.seed}|{key[0]}|{key[1]}|{ordinal}".encode("utf-8"),
            digest_size=8,
        ).digest()
        unit = int.from_bytes(digest, "big") / 2**64
        return model.base + unit * model.jitter


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Per-message fault probabilities for every link of a run.

    Probabilities are independent per fault kind, but a dropped message
    manifests no other fault.  ``reorder`` manifests as an extra
    ``reorder_delay`` time units added to the affected message's one
    latency draw (enough to overtake later traffic on the link), since
    the simulator itself never reorders equal-time events.  Drop and
    reorder act the same on local and cross-shard sends, so a sharded
    run under a plan of only those two still reproduces the bare run;
    corrupt and duplicate act per transport (see :mod:`this module
    <repro.runtime.network>`).

    ``kill`` and ``torn`` are *process* faults, drawn per shard per
    barrier window rather than per message: ``kill`` SIGKILLs the shard
    worker mid-window, ``torn`` additionally truncates its journal's
    open segment mid-record first (the on-disk state a crash mid-append
    leaves; without a store it is a plain kill).  They require a
    durable sharded run to recover from — see
    :class:`~repro.runtime.shards.ShardedRuntime` — and they do not
    make a plan "loud" for :attr:`is_quiet`, which concerns per-message
    link faults only.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    corrupt: float = 0.0
    reorder_delay: float = 5.0
    kill: float = 0.0
    torn: float = 0.0

    _ALIASES = {
        "drop": "drop",
        "dup": "duplicate",
        "duplicate": "duplicate",
        "reorder": "reorder",
        "corrupt": "corrupt",
        "delay": "reorder_delay",
        "reorder_delay": "reorder_delay",
        "kill": "kill",
        "torn": "torn",
    }

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``"drop=0.01,dup=0.02,corrupt=0.005"`` CLI specs.

        Rejects unknown keys, repeated keys, malformed or out-of-range
        values — each error names the offending token, so a typo like
        ``dorp=0.1`` fails loudly instead of silently injecting
        nothing.
        """

        kwargs: dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(
                    f"bad fault spec {part!r}: expected key=value "
                    f"(no '=' found)"
                )
            field = cls._ALIASES.get(key)
            if field is None:
                raise ValueError(
                    f"unknown fault kind {key!r} in {part!r}: expected one "
                    f"of {sorted(set(cls._ALIASES))}"
                )
            if field in kwargs:
                raise ValueError(
                    f"fault kind {key!r} given twice (second: {part!r})"
                )
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(
                    f"bad fault value {raw.strip()!r} in {part!r}: "
                    f"not a number"
                ) from None
            if field == "reorder_delay":
                if value < 0.0:
                    raise ValueError(
                        f"reorder delay must be non-negative, got {part!r}"
                    )
            elif not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"fault probability out of [0, 1] in {part!r}"
                )
            kwargs[field] = value
        return cls(**kwargs)

    @property
    def is_quiet(self) -> bool:
        """No per-message link faults (process faults don't count)."""

        return not (self.drop or self.duplicate or self.reorder or self.corrupt)

    @property
    def has_process_faults(self) -> bool:
        return bool(self.kill or self.torn)


@dataclass(frozen=True, slots=True)
class FaultDecision:
    """What the injector decided for one message on one link."""

    drop: bool = False
    duplicate: bool = False
    extra_delay: float = 0.0
    corrupt: bool = False

    @property
    def is_clean(self) -> bool:
        return not (self.drop or self.duplicate or self.corrupt) and (
            self.extra_delay == 0.0
        )


NO_FAULT = FaultDecision()


class FaultInjector:
    """Seeded, deterministic per-link fault decisions.

    The ``i``-th message on a link draws one unit per fault kind from
    ``blake2b(seed | kind | sender | channel | i)``, so the fault pattern
    of a run is a pure function of the seed and the per-link message
    sequence — reruns and shard-partition changes that preserve per-link
    order reproduce it exactly.  A quiet plan draws nothing.  The
    injector only decides: ``Middleware.send`` asks it once per send
    (through :meth:`Network.fault_for`) and applies the decision.
    """

    __slots__ = ("plan", "seed", "_ordinals")

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        self.plan = plan
        self.seed = seed
        self._ordinals: dict[tuple[str, str], int] = {}

    def _unit(self, kind: str, link: tuple[str, str], ordinal: int) -> float:
        digest = blake2b(
            f"{self.seed}|{kind}|{link[0]}|{link[1]}|{ordinal}".encode("utf-8"),
            digest_size=8,
        ).digest()
        return int.from_bytes(digest, "big") / 2**64

    def process_fault(self, shard: int, window: int) -> Optional[str]:
        """Deterministic process-fault draw for one shard's next window.

        Returns ``"torn"``, ``"kill"``, or ``None``.  Keyed like the
        per-message draws — ``blake2b(seed | kind | shard | window)`` —
        so the same seed kills the same shard at the same window on
        every run, which is what makes the kill-injection differential
        reproducible.  ``torn`` wins when both fire: it is a kill plus
        a mangled journal tail.
        """

        plan = self.plan
        link = (f"shard-{shard}", "@window")
        if plan.torn > 0 and self._unit("torn", link, window) < plan.torn:
            return "torn"
        if plan.kill > 0 and self._unit("kill", link, window) < plan.kill:
            return "kill"
        return None

    def decide(
        self,
        sender: Optional[Principal],
        channel: Optional[Channel],
    ) -> FaultDecision:
        plan = self.plan
        if plan.is_quiet:
            return NO_FAULT
        link = (
            sender.name if sender is not None else "",
            channel.name if channel is not None else "",
        )
        ordinal = self._ordinals.get(link, 0)
        self._ordinals[link] = ordinal + 1
        drop = plan.drop > 0 and self._unit("drop", link, ordinal) < plan.drop
        if drop:
            # a dropped message manifests no other fault
            return FaultDecision(drop=True)
        duplicate = (
            plan.duplicate > 0
            and self._unit("dup", link, ordinal) < plan.duplicate
        )
        reorder = (
            plan.reorder > 0
            and self._unit("reorder", link, ordinal) < plan.reorder
        )
        corrupt = (
            plan.corrupt > 0
            and self._unit("corrupt", link, ordinal) < plan.corrupt
        )
        if not (duplicate or reorder or corrupt):
            return NO_FAULT
        return FaultDecision(
            drop=False,
            duplicate=duplicate,
            extra_delay=plan.reorder_delay if reorder else 0.0,
            corrupt=corrupt,
        )


class Network:
    """Routes messages to callbacks after a keyed per-link delay."""

    def __init__(
        self,
        simulator: Simulator,
        latency: LatencyModel = LatencyModel(),
        topology: Optional[Topology] = None,
        faults: Optional[FaultInjector] = None,
        seed: int = 0,
    ) -> None:
        self.simulator = simulator
        self.latency = latency
        self.topology = topology
        self.sampler = KeyedLatencySampler(seed)
        self.faults = faults
        self.messages_in_flight = 0

    def fault_for(
        self,
        sender: Optional[Principal] = None,
        channel: Optional[Channel] = None,
    ) -> FaultDecision:
        """The injector's decision for the next message on this link.

        Consumes one per-link ordinal; call exactly once per send.
        Returns :data:`NO_FAULT` when no injector is installed.
        """

        if self.faults is None:
            return NO_FAULT
        return self.faults.decide(sender, channel)

    def delay(
        self,
        sender: Optional[Principal] = None,
        channel: Optional[Channel] = None,
    ) -> float:
        """The keyed latency draw for the next message on ``sender →
        channel``, from the link's model (``topology``, else
        ``latency``)."""

        model = (
            self.latency
            if self.topology is None
            else self.topology(sender, channel)
        )
        return self.sampler.sample(model, sender, channel)

    def deliver(self, callback: Callable[[], None], delay: float = 0.0) -> None:
        """Schedule ``callback`` ``delay`` time units from now.

        The in-flight counter is balanced in a ``finally``: a callback
        that raises (middleware vetting is allowed to throw on hostile
        input) still retires its message, so the counter always returns
        to zero on a drained simulator instead of drifting upward.
        """

        self.messages_in_flight += 1

        def arrive() -> None:
            try:
                callback()
            finally:
                self.messages_in_flight -= 1

        self.simulator.schedule(delay, arrive)

    def deliver_at(self, callback: Callable[[], None], time: float) -> None:
        """Deliver at an absolute arrival instant (cross-shard ingress).

        The latency was already drawn on the sending shard and is
        baked into ``time``; this side only accounts the message as in
        flight until the scheduled arrival runs.
        """

        self.messages_in_flight += 1

        def arrive() -> None:
            try:
                callback()
            finally:
                self.messages_in_flight -= 1

        self.simulator.schedule_at(time, arrive)
