"""AST of the sample pattern matching language (Table 3).

The grammar::

    π ::= ε  |  α  |  π;π  |  π ∨ π  |  π*  |  Any
    α ::= G!π  |  G?π
    G ::= a  |  ∼  |  G + G  |  G − G

Patterns are regular expressions whose alphabet letters are *event tests*:
an event ``a!κ`` matches ``G!π`` when ``a ∈ ⟦G⟧`` and, recursively, the
channel provenance ``κ`` matches ``π``.  Group expressions denote sets of
principals: ``∼`` is the set of *all* principals (co-finite sets arise via
``G − G``), so groups expose a membership test rather than a materialized
set.

Every node implements the core :class:`~repro.core.patterns.Pattern`
interface; :meth:`matches` asks the process-wide lazy-DFA engine
(:func:`repro.patterns.dfa.default_engine`), the one decision procedure
for ``κ ⊨ π``.

Nodes are frozen and are hashed on every registration, bank lookup and
vet, so each hashes once, at construction (see :func:`_node`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, fields

from repro.core.names import Principal
from repro.core.patterns import Pattern
from repro.core.provenance import Provenance

__all__ = [
    "Group",
    "GroupSingle",
    "GroupAll",
    "GroupUnion",
    "GroupDifference",
    "SamplePattern",
    "Empty",
    "AnyPattern",
    "EventPattern",
    "Sequence",
    "Alternation",
    "Repetition",
    "seq",
    "alt",
    "sent_by",
    "received_by",
]


class _HashedOnce:
    """A frozen node whose hash is computed once, at construction.

    The value is exactly the dataclass formula ``hash(tuple(fields))`` —
    cheap, since every field that is a node answers from its own slot —
    so set and dict orders are those of an uncached hash.  Pickling
    rebuilds through the constructor, so an interpreter with another
    ``PYTHONHASHSEED`` recomputes the hash instead of inheriting it.
    """

    __slots__ = ("_hash",)
    _field_names: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._field_names)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self._fields()))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (type(self), self._fields())


def _node(cls):
    """``@dataclass(frozen=True, slots=True)`` with the hash of
    :class:`_HashedOnce`.

    The decorator generates a ``__hash__`` for every frozen class that
    does not define one itself, overriding the inherited one, so the
    cached hash is assigned here, class by class.
    """

    cls = dataclass(frozen=True, slots=True)(cls)
    cls._field_names = tuple(f.name for f in fields(cls))
    cls.__hash__ = _HashedOnce.__hash__
    return cls


class Group(_HashedOnce, abc.ABC):
    """A group expression ``G`` denoting a set of principals."""

    __slots__ = ()

    @abc.abstractmethod
    def contains(self, principal: Principal) -> bool:
        """Membership test ``a ∈ ⟦G⟧``."""

    @abc.abstractmethod
    def mentioned(self) -> frozenset[Principal]:
        """The principals named syntactically in the expression.

        Together with :meth:`contains` this suffices to reason about a
        group exactly: ``⟦G⟧`` is determined by membership of the
        mentioned principals plus the membership of any one fresh
        principal (all unmentioned principals behave alike).
        """


@_node
class GroupSingle(Group):
    """``a`` — the singleton group."""

    principal: Principal

    def contains(self, principal: Principal) -> bool:
        return principal == self.principal

    def mentioned(self) -> frozenset[Principal]:
        return frozenset((self.principal,))

    def __str__(self) -> str:
        return self.principal.name


@_node
class GroupAll(Group):
    """``∼`` — all principals."""

    def contains(self, principal: Principal) -> bool:
        return True

    def mentioned(self) -> frozenset[Principal]:
        return frozenset()

    def __str__(self) -> str:
        return "~"


@_node
class GroupUnion(Group):
    """``G + G'`` — union."""

    left: Group
    right: Group

    def contains(self, principal: Principal) -> bool:
        return self.left.contains(principal) or self.right.contains(principal)

    def mentioned(self) -> frozenset[Principal]:
        return self.left.mentioned() | self.right.mentioned()

    def __str__(self) -> str:
        return f"({self.left}+{self.right})"


@_node
class GroupDifference(Group):
    """``G − G'`` — difference (enables co-finite groups like ``∼ − a``)."""

    left: Group
    right: Group

    def contains(self, principal: Principal) -> bool:
        return self.left.contains(principal) and not self.right.contains(
            principal
        )

    def mentioned(self) -> frozenset[Principal]:
        return self.left.mentioned() | self.right.mentioned()

    def __str__(self) -> str:
        return f"({self.left}-{self.right})"


class SamplePattern(_HashedOnce, Pattern):
    """Base class of Table 3 patterns."""

    __slots__ = ()

    def matches(self, provenance: Provenance) -> bool:
        from repro.patterns.dfa import default_engine

        return default_engine().matches(provenance, self)

    def mentioned_principals(self) -> frozenset[Principal]:
        """Principals named anywhere in the pattern (for analyses)."""

        return frozenset()


@_node
class Empty(SamplePattern):
    """``ε`` — matches only the empty provenance."""

    def __str__(self) -> str:
        return "eps"


@_node
class AnyPattern(SamplePattern):
    """``Any`` — matches every provenance."""

    def __str__(self) -> str:
        return "any"


@_node
class EventPattern(SamplePattern):
    """``G!π`` (``direction='!'``) or ``G?π`` (``direction='?'``).

    Matches a *single* event whose principal is in ``⟦G⟧`` and whose
    channel provenance matches the nested ``channel_pattern``.
    """

    direction: str
    group: Group
    channel_pattern: SamplePattern

    def __post_init__(self) -> None:
        if self.direction not in ("!", "?"):
            raise ValueError(f"direction must be '!' or '?', got {self.direction!r}")
        _HashedOnce.__post_init__(self)

    def mentioned_principals(self) -> frozenset[Principal]:
        return self.group.mentioned() | self.channel_pattern.mentioned_principals()

    def __str__(self) -> str:
        inner = str(self.channel_pattern)
        if isinstance(self.channel_pattern, (Empty, AnyPattern, EventPattern)):
            return f"{self.group}{self.direction}{inner}"
        return f"{self.group}{self.direction}({inner})"


@_node
class Sequence(SamplePattern):
    """``π;π'`` — some split of the provenance matches the two parts."""

    left: SamplePattern
    right: SamplePattern

    def mentioned_principals(self) -> frozenset[Principal]:
        return (
            self.left.mentioned_principals()
            | self.right.mentioned_principals()
        )

    def __str__(self) -> str:
        return f"{self.left};{self.right}"


@_node
class Alternation(SamplePattern):
    """``π ∨ π'`` — either part matches the whole provenance."""

    left: SamplePattern
    right: SamplePattern

    def mentioned_principals(self) -> frozenset[Principal]:
        return (
            self.left.mentioned_principals()
            | self.right.mentioned_principals()
        )

    def __str__(self) -> str:
        return f"({self.left}|{self.right})"


@_node
class Repetition(SamplePattern):
    """``π*`` — zero or more consecutive chunks, each matching ``π``."""

    body: SamplePattern

    def mentioned_principals(self) -> frozenset[Principal]:
        return self.body.mentioned_principals()

    def __str__(self) -> str:
        if isinstance(self.body, (Empty, AnyPattern)):
            return f"{self.body}*"
        return f"({self.body})*"


def seq(*patterns: SamplePattern) -> SamplePattern:
    """Right-nested sequence of one or more patterns."""

    if not patterns:
        return Empty()
    result = patterns[-1]
    for pattern in reversed(patterns[:-1]):
        result = Sequence(pattern, result)
    return result


def alt(*patterns: SamplePattern) -> SamplePattern:
    """Right-nested alternation of one or more patterns."""

    if not patterns:
        raise ValueError("alternation of zero patterns")
    result = patterns[-1]
    for pattern in reversed(patterns[:-1]):
        result = Alternation(pattern, result)
    return result


def sent_by(group: Group | Principal, channel: SamplePattern | None = None) -> EventPattern:
    """Convenience: ``G!π`` with ``π`` defaulting to ``Any``."""

    if isinstance(group, Principal):
        group = GroupSingle(group)
    return EventPattern("!", group, channel or AnyPattern())


def received_by(
    group: Group | Principal, channel: SamplePattern | None = None
) -> EventPattern:
    """Convenience: ``G?π`` with ``π`` defaulting to ``Any``."""

    if isinstance(group, Principal):
        group = GroupSingle(group)
    return EventPattern("?", group, channel or AnyPattern())
