"""System syntax of the provenance calculus (Table 1).

Systems are flat compositions of located processes and in-flight messages::

    S ::= a[P]            located process
        | n⟨⟨w₁, …, wₖ⟩⟩   message in transit (sent, not yet received)
        | (νn)S           restriction
        | S ‖ T           parallel composition

A message's *address* is a bare channel name — the packaged value has left
its sender, and the channel annotation that mattered (the sender's view of
the channel) has already been folded into the payload's provenance by the
send rule.  The payload components are annotated values.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.errors import IllFormedTermError
from repro.core.names import Channel, Principal, Variable
from repro.core.process import (
    Process,
    annotated_values as process_annotated_values,
    free_channels as process_free_channels,
    free_variables as process_free_variables,
    process_size,
)
from repro.core.values import AnnotatedValue

__all__ = [
    "System",
    "Located",
    "Message",
    "SysRestriction",
    "SysParallel",
    "system_parallel",
    "system_free_variables",
    "system_free_channels",
    "system_principals",
    "system_size",
    "system_annotated_values",
    "located_components",
    "messages_of",
]


class System(abc.ABC):
    """Base class of system terms."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Located(System):
    """``a[P]`` — process ``P`` running under the authority of ``a``.

    Identities are units of trust: they determine the principal recorded in
    provenance events but have no effect on who may communicate with whom.
    """

    principal: Principal
    process: Process

    def __str__(self) -> str:
        return f"{self.principal}[{self.process}]"


@dataclass(frozen=True, slots=True)
class Message(System):
    """``n⟨⟨w₁, …, wₖ⟩⟩`` — a value sent on ``n`` but not yet received."""

    channel: Channel
    payload: tuple[AnnotatedValue, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.channel, Channel):
            raise IllFormedTermError(
                f"message address must be a channel, got {self.channel!r}"
            )
        for component in self.payload:
            if not isinstance(component, AnnotatedValue):
                raise IllFormedTermError(
                    f"message payload must be annotated values, got {component!r}"
                )

    @property
    def arity(self) -> int:
        return len(self.payload)

    def __str__(self) -> str:
        args = ", ".join(str(w) for w in self.payload)
        return f"{self.channel}<<{args}>>"


@dataclass(frozen=True, slots=True)
class SysRestriction(System):
    """``(νn)S`` — restriction at the system level."""

    channel: Channel
    body: System

    def __str__(self) -> str:
        return f"(new {self.channel})({self.body})"


@dataclass(frozen=True, slots=True)
class SysParallel(System):
    """n-ary system composition ``S₁ ‖ … ‖ Sₖ``."""

    parts: tuple[System, ...] = field(default=())

    def __str__(self) -> str:
        if not self.parts:
            return "0"
        return " || ".join(str(p) for p in self.parts)


def system_parallel(*parts: System) -> System:
    """Smart constructor: flatten nested compositions."""

    flat: list[System] = []
    for part in parts:
        if isinstance(part, SysParallel):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if len(flat) == 1:
        return flat[0]
    return SysParallel(tuple(flat))


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------


def system_free_variables(system: System) -> frozenset[Variable]:
    """Free variables of a system (closed systems have none)."""

    if isinstance(system, Located):
        return process_free_variables(system.process)
    if isinstance(system, Message):
        return frozenset()
    if isinstance(system, SysRestriction):
        return system_free_variables(system.body)
    if isinstance(system, SysParallel):
        result: set[Variable] = set()
        for part in system.parts:
            result.update(system_free_variables(part))
        return frozenset(result)
    raise TypeError(f"not a system: {system!r}")


def system_free_channels(system: System) -> frozenset[Channel]:
    """Free channel names of a system."""

    if isinstance(system, Located):
        return process_free_channels(system.process)
    if isinstance(system, Message):
        result = frozenset((system.channel,))
        for component in system.payload:
            if isinstance(component.value, Channel):
                result |= {component.value}
        return result
    if isinstance(system, SysRestriction):
        return system_free_channels(system.body) - {system.channel}
    if isinstance(system, SysParallel):
        channels: set[Channel] = set()
        for part in system.parts:
            channels.update(system_free_channels(part))
        return frozenset(channels)
    raise TypeError(f"not a system: {system!r}")


def system_principals(system: System) -> frozenset[Principal]:
    """Every principal hosting a process or mentioned in data."""

    if isinstance(system, Located):
        result = frozenset((system.principal,))
        for value in process_annotated_values(system.process):
            result |= value.provenance.principals()
            if isinstance(value.value, Principal):
                result |= {value.value}
        return result
    if isinstance(system, Message):
        result = frozenset()
        for component in system.payload:
            result |= component.provenance.principals()
            if isinstance(component.value, Principal):
                result |= {component.value}
        return result
    if isinstance(system, SysRestriction):
        return system_principals(system.body)
    if isinstance(system, SysParallel):
        principals: set[Principal] = set()
        for part in system.parts:
            principals.update(system_principals(part))
        return frozenset(principals)
    raise TypeError(f"not a system: {system!r}")


def system_size(system: System) -> int:
    """Structural size (constructor count) of a system."""

    if isinstance(system, Located):
        return 1 + process_size(system.process)
    if isinstance(system, Message):
        return 1
    if isinstance(system, SysRestriction):
        return 1 + system_size(system.body)
    if isinstance(system, SysParallel):
        return 1 + sum(system_size(p) for p in system.parts)
    raise TypeError(f"not a system: {system!r}")


def system_annotated_values(system: System) -> Iterator[AnnotatedValue]:
    """Yield every annotated value in the system, messages included.

    This is the raw collection; the paper's ``values(−)`` additionally
    substitutes ``?`` for restricted names — that refinement lives in
    :mod:`repro.monitor.checker`, which knows which restrictions are
    top-level (visible to the global log) and which are not.
    """

    if isinstance(system, Located):
        yield from process_annotated_values(system.process)
    elif isinstance(system, Message):
        yield from system.payload
    elif isinstance(system, SysRestriction):
        yield from system_annotated_values(system.body)
    elif isinstance(system, SysParallel):
        for part in system.parts:
            yield from system_annotated_values(part)
    else:
        raise TypeError(f"not a system: {system!r}")


def located_components(system: System) -> Iterator[Located]:
    """Yield located processes at any depth (ignoring restrictions)."""

    if isinstance(system, Located):
        yield system
    elif isinstance(system, Message):
        return
    elif isinstance(system, SysRestriction):
        yield from located_components(system.body)
    elif isinstance(system, SysParallel):
        for part in system.parts:
            yield from located_components(part)
    else:
        raise TypeError(f"not a system: {system!r}")


def messages_of(system: System) -> Iterator[Message]:
    """Yield in-flight messages at any depth (ignoring restrictions)."""

    if isinstance(system, Located):
        return
    elif isinstance(system, Message):
        yield system
    elif isinstance(system, SysRestriction):
        yield from messages_of(system.body)
    elif isinstance(system, SysParallel):
        for part in system.parts:
            yield from messages_of(part)
    else:
        raise TypeError(f"not a system: {system!r}")
