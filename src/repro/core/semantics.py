"""The provenance-tracking reduction semantics (Table 2).

Communication is split into *two* reductions, each touching the provenance
of the transmitted values exactly once:

* **R-Send** — ``a[m:κm⟨v:κv⟩]  →  m⟨⟨v : a!κm; κv⟩⟩`` : the sender's view
  of the channel (``κm``) is folded into the payload as an output event;
* **R-Recv** — ``a[Σᵢ m:κm(πᵢ as xᵢ).Pᵢ] ‖ m⟨⟨v:κv⟩⟩ → a[Pⱼ{v:a?κm;κv/xⱼ}]``
  provided ``κv ⊨ πⱼ`` : the message's provenance is vetted against the
  branch pattern *before* consumption and then extended with an input
  event.

plus **R-IFt/R-IFf** (plain-value equality, provenance ignored) and the
usual closure under restriction, composition and structural congruence.

Both provenance updates go through the hash-consing intern table of
:mod:`repro.core.provenance`: constructing the event and prepending it
(``AnnotatedValue.record``) are O(1) and return canonical shared nodes,
so stamping is constant-time no matter how long a value's history grows
— on both this from-scratch path and the incremental engine, which build
identical (indeed, *the same*) provenance objects.

:func:`enumerate_steps` returns *every* redex of a system up to structural
congruence, as :class:`ReductionStep` objects carrying a descriptive label
(consumed by the monitored semantics to build global logs) and the
precomputed target system.  Replication is unfolded lazily: because every
rule of this calculus involves at most one located thread (communication is
mediated by message terms, never a two-party synchronization), exposing a
single copy of each replication per enumeration suffices to surface every
enabled redex.

Redex enumeration is *per component*: every rule touches one located
thread (the acting component), consumes at most one message, and produces
a bounded number of replacement components.  :func:`component_redexes`
captures exactly that local footprint as :class:`Redex` descriptors, and
is shared by the three consumers of the reduction relation:

* :func:`enumerate_steps` — the from-scratch pass — normalizes the whole
  system, walks its components and materializes every descriptor into a
  full :class:`ReductionStep` (:func:`materialize_redex`);
* the incremental engine (:mod:`repro.core.incremental`) keeps a
  persistent normal form and only re-enumerates the components a fired
  step touched, splicing descriptors in place;
* :func:`repro.core.explore.explore` builds its transition systems on the
  same enumeration through :func:`enumerate_steps`.

Two modes are supported (:class:`SemanticsMode`): ``TRACKED`` is the
paper's semantics; ``ERASED`` is the plain asynchronous pi-calculus
baseline — no provenance updates, no vetting — used by the overhead
ablations (experiment E2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.core.congruence import NormalForm, all_system_names, normalize, to_system
from repro.core.errors import OpenTermError, ReductionError
from repro.core.names import Channel, NameSupply, Principal
from repro.core.process import InputBranch, InputSum, Match, Output, Process, Replication
from repro.core.provenance import InputEvent, OutputEvent
from repro.core.substitution import substitute
from repro.core.system import Located, Message, SysParallel, SysRestriction, System
from repro.core.values import AnnotatedValue, PlainValue

__all__ = [
    "SemanticsMode",
    "StepLabel",
    "SendLabel",
    "ReceiveLabel",
    "MatchLabel",
    "ReductionStep",
    "Redex",
    "component_redexes",
    "receive_candidates",
    "messages_by_channel",
    "materialize_redex",
    "enumerate_steps",
    "MAX_REPLICATION_DEPTH",
]

MAX_REPLICATION_DEPTH = 8
"""Unfolding depth bound for towers of replications (``∗∗P`` …).

A replication whose body is again a replication needs nested unfolding to
expose redexes; the bound prevents divergence on degenerate towers.  Depth
8 is far beyond anything a meaningful program needs (each level must
contribute an actual prefix to matter).
"""


class SemanticsMode(enum.Enum):
    """Which semantics the engine applies."""

    TRACKED = "tracked"
    ERASED = "erased"


class StepLabel:
    """Base class for reduction-step labels."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class SendLabel(StepLabel):
    """R-Send fired: ``principal`` sent ``values`` on ``channel``.

    ``values`` are the *plain* parts — exactly what the monitored
    semantics' action ``a.snd(m, v)`` records.
    """

    principal: Principal
    channel: Channel
    values: tuple[PlainValue, ...]

    def __str__(self) -> str:
        vals = ", ".join(str(v) for v in self.values)
        return f"{self.principal}.snd({self.channel}, {vals})"


@dataclass(frozen=True, slots=True)
class ReceiveLabel(StepLabel):
    """R-Recv fired: ``principal`` received ``values`` on ``channel``.

    ``branch_index`` identifies which summand's pattern admitted the
    message (useful to tests and to the static-analysis comparison).
    """

    principal: Principal
    channel: Channel
    values: tuple[PlainValue, ...]
    branch_index: int

    def __str__(self) -> str:
        vals = ", ".join(str(v) for v in self.values)
        return f"{self.principal}.rcv({self.channel}, {vals})"


@dataclass(frozen=True, slots=True)
class MatchLabel(StepLabel):
    """R-IFt / R-IFf fired with the given plain operands."""

    principal: Principal
    left: PlainValue
    right: PlainValue
    result: bool

    def __str__(self) -> str:
        op = "ift" if self.result else "iff"
        return f"{self.principal}.{op}({self.left}, {self.right})"


@dataclass(frozen=True, slots=True)
class ReductionStep:
    """One redex: its label and the system it produces.

    ``from_replication`` marks steps whose thread was exposed by unfolding
    a replication; fair strategies use it to avoid starving ordinary
    threads behind an always-enabled replicated sender.
    """

    label: StepLabel
    target: System
    from_replication: bool = False

    def __str__(self) -> str:
        return f"--{self.label}--> {self.target}"


# ---------------------------------------------------------------------------
# Redex enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Redex:
    """One enabled reduction, described *locally*.

    Every rule of the calculus touches exactly one located thread — the
    *acting* component — consumes at most one message, and produces a
    bounded number of replacement components.  A ``Redex`` records that
    footprint and nothing else:

    ``produced``
        The components that replace the acting component, in place.  For a
        replication-derived redex this includes the effect, the copy's
        sibling threads and the replication residue (``∗P ≡ P | ∗P``).
        Produced located components may still need flattening (a receive
        continuation can be a parallel or a restriction); consumers either
        re-normalize (:func:`enumerate_steps`) or splice deltas
        (:func:`repro.core.congruence.flatten_component`).
    ``consumed``
        The message removed by R-Recv, matched by identity against the
        component list (``None`` for sends and matches).
    ``extra_restricted``
        Fresh binders hoisted by replication unfolding; they are appended
        after the system's existing top-level restrictions.
    """

    label: StepLabel
    produced: tuple[System, ...]
    consumed: Message | None = None
    extra_restricted: tuple[Channel, ...] = ()
    from_replication: bool = False


MessageIndex = Mapping[Channel, Sequence[Message]]
"""Pending messages keyed by channel, each list in global component order."""


def messages_by_channel(components: Iterable[System]) -> dict[Channel, list[Message]]:
    """Index the in-flight messages of a component list by channel."""

    index: dict[Channel, list[Message]] = {}
    for component in components:
        if isinstance(component, Message):
            index.setdefault(component.channel, []).append(component)
    return index


def enumerate_steps(
    system: System,
    mode: SemanticsMode = SemanticsMode.TRACKED,
) -> list[ReductionStep]:
    """All reductions of ``system`` (up to structural congruence).

    Raises :class:`OpenTermError` if the system has free variables — the
    reduction relation is defined on closed systems only.
    """

    from repro.core.system import system_free_variables

    free = system_free_variables(system)
    if free:
        raise OpenTermError(free, "enumerate_steps")

    supply = NameSupply(all_system_names(system))
    nf = normalize(system, supply)
    components = list(nf.components)
    messages = messages_by_channel(components)
    steps: list[ReductionStep] = []
    for position, component in enumerate(components):
        for redex in component_redexes(component, messages, mode, supply):
            steps.append(materialize_redex(nf, components, position, redex))
    return steps


def component_redexes(
    component: System,
    messages: MessageIndex,
    mode: SemanticsMode,
    supply: NameSupply,
) -> Iterator[Redex]:
    """All redexes whose acting thread lives in ``component``.

    ``messages`` indexes the pending messages of the *whole* system (the
    acting thread may receive from any of them); ``supply`` provides fresh
    names for replication-copy restrictions and capture-avoiding
    substitution.  Message components have no redexes of their own.
    """

    if not isinstance(component, Located):
        return
    yield from _expand(
        component.principal,
        component.process,
        (),
        (),
        0,
        messages,
        mode,
        supply,
    )


def _expand(
    principal: Principal,
    thread: Process,
    suffix: tuple[System, ...],
    extra: tuple[Channel, ...],
    depth: int,
    messages: MessageIndex,
    mode: SemanticsMode,
    supply: NameSupply,
) -> Iterator[Redex]:
    if isinstance(thread, Output):
        redex = _send_redex(principal, thread, suffix, extra, mode, depth > 0)
        if redex is not None:
            yield redex
        return
    if isinstance(thread, InputSum):
        yield from _receive_redexes(
            principal, thread, suffix, extra, messages, mode, supply, depth > 0
        )
        return
    if isinstance(thread, Match):
        yield _match_redex(principal, thread, suffix, extra, depth > 0)
        return
    if not isinstance(thread, Replication):
        raise ReductionError(f"unexpected thread shape: {thread!r}")
    if depth >= MAX_REPLICATION_DEPTH:
        return

    # Materialize one copy: ∗P ≡ P | ∗P.  The copy's restrictions always
    # get fresh names (``taken=None``) — every unfolding owns private
    # instances; its threads become individually enabled, and firing any
    # of them keeps both the replication and the copy's other threads.
    copy_restricted: list[Channel] = []
    copy_components: list[System] = []
    from repro.core.congruence import _flatten_process

    _flatten_process(
        principal, thread.body, supply, copy_restricted, copy_components, None
    )

    residue = Located(principal, thread)
    for position, copy_component in enumerate(copy_components):
        assert isinstance(copy_component, Located)
        siblings = tuple(
            c for k, c in enumerate(copy_components) if k != position
        )
        yield from _expand(
            copy_component.principal,
            copy_component.process,
            siblings + (residue,) + suffix,
            extra + tuple(copy_restricted),
            depth + 1,
            messages,
            mode,
            supply,
        )


def materialize_redex(
    nf: NormalForm,
    components: Sequence[System],
    position: int,
    redex: Redex,
) -> ReductionStep:
    """Turn a local redex into a full step of the normal form ``nf``.

    ``components`` must be ``nf.components`` (as a sequence) and
    ``position`` the index of the redex's acting component.
    """

    parts = (
        list(components[:position])
        + list(redex.produced)
        + list(components[position + 1 :])
    )
    if redex.consumed is not None:
        parts = _remove_one(parts, redex.consumed)
    return ReductionStep(
        redex.label,
        _rebuild(nf, parts, redex.extra_restricted),
        redex.from_replication,
    )


def _rebuild(
    nf: NormalForm, components: Sequence[System], extra_restricted: Sequence[Channel]
) -> System:
    body: System
    parts = tuple(components)
    body = parts[0] if len(parts) == 1 else SysParallel(parts)
    for binder in reversed(tuple(nf.restricted) + tuple(extra_restricted)):
        body = SysRestriction(binder, body)
    return body


def _send_redex(
    principal: Principal,
    output: Output,
    suffix: tuple[System, ...],
    extra: tuple[Channel, ...],
    mode: SemanticsMode,
    replicated: bool,
) -> Redex | None:
    channel_id = output.channel
    if not isinstance(channel_id, AnnotatedValue):
        raise OpenTermError({channel_id}, "send subject")
    if not isinstance(channel_id.value, Channel):
        # Sending on a principal name: no rule applies; the thread is stuck.
        return None
    for w in output.payload:
        if not isinstance(w, AnnotatedValue):
            raise OpenTermError({w}, "send object")

    if mode is SemanticsMode.TRACKED:
        event = OutputEvent(principal, channel_id.provenance)
        payload = tuple(w.record(event) for w in output.payload)
    else:
        payload = tuple(output.payload)  # type: ignore[arg-type]
    message = Message(channel_id.value, payload)
    label = SendLabel(
        principal, channel_id.value, tuple(w.value for w in output.payload)
    )
    return Redex(label, (message,) + suffix, None, extra, replicated)


def receive_candidates(
    principal: Principal,
    input_sum: InputSum,
    message: Message,
    mode: SemanticsMode,
) -> Iterator[tuple[int, "InputBranch", ReceiveLabel, dict]]:
    """The branches of ``input_sum`` that admit ``message``.

    Yields ``(branch_index, branch, label, mapping)`` per admitting branch
    — the vetting (``κv ⊨ π``), input-event stamping and label
    construction of R-Recv, with the continuation substitution left to
    the caller (the from-scratch enumerator substitutes immediately; the
    incremental engine defers it until the redex is actually fired).

    The caller must guarantee the subject is an annotated channel matching
    ``message.channel``.
    """

    channel_id = input_sum.channel
    for branch_index, branch in enumerate(input_sum.branches):
        if branch.arity != message.arity:
            continue
        if mode is SemanticsMode.TRACKED:
            admitted = all(
                pattern.matches(component.provenance)
                for pattern, component in zip(branch.patterns, message.payload)
            )
            if not admitted:
                continue
            event = InputEvent(principal, channel_id.provenance)
            received = tuple(w.record(event) for w in message.payload)
        else:
            received = message.payload
        mapping = dict(zip(branch.binders, received))
        label = ReceiveLabel(
            principal,
            channel_id.value,
            tuple(w.value for w in message.payload),
            branch_index,
        )
        yield branch_index, branch, label, mapping


def _receive_redexes(
    principal: Principal,
    input_sum: InputSum,
    suffix: tuple[System, ...],
    extra: tuple[Channel, ...],
    messages: MessageIndex,
    mode: SemanticsMode,
    supply: NameSupply,
    replicated: bool,
) -> Iterator[Redex]:
    channel_id = input_sum.channel
    if not isinstance(channel_id, AnnotatedValue):
        raise OpenTermError({channel_id}, "receive subject")
    if not isinstance(channel_id.value, Channel):
        return

    for message in messages.get(channel_id.value, ()):
        for _, branch, label, mapping in receive_candidates(
            principal, input_sum, message, mode
        ):
            continuation = substitute(branch.continuation, mapping, supply)
            yield Redex(
                label,
                (Located(principal, continuation),) + suffix,
                message,
                extra,
                replicated,
            )


def _match_redex(
    principal: Principal,
    match: Match,
    suffix: tuple[System, ...],
    extra: tuple[Channel, ...],
    replicated: bool,
) -> Redex:
    if not isinstance(match.left, AnnotatedValue):
        raise OpenTermError({match.left}, "match operand")
    if not isinstance(match.right, AnnotatedValue):
        raise OpenTermError({match.right}, "match operand")
    # Only plain values are compared; provenance is ignored (R-IFt/R-IFf).
    result = match.left.value == match.right.value
    chosen = match.then_branch if result else match.else_branch
    label = MatchLabel(principal, match.left.value, match.right.value, result)
    return Redex(label, (Located(principal, chosen),) + suffix, None, extra, replicated)


def _remove_one(components: list[System], message: Message) -> list[System]:
    """Remove the consumed message (by identity, falling back to equality)."""

    for index, component in enumerate(components):
        if component is message:
            return components[:index] + components[index + 1 :]
    for index, component in enumerate(components):
        if component == message:
            return components[:index] + components[index + 1 :]
    raise ReductionError(f"consumed message {message} not present")


def reduces(system: System, mode: SemanticsMode = SemanticsMode.TRACKED) -> bool:
    """True when the system has at least one redex."""

    return bool(enumerate_steps(system, mode))


def normal_form_of(system: System) -> System:
    """Structural-congruence normal form as a plain system (convenience)."""

    return to_system(normalize(system))
