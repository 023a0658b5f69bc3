"""Process syntax of the provenance calculus (Table 1), polyadic.

The grammar (with ``w`` ranging over identifiers, ``π`` over patterns)::

    P ::= w⟨w₁, …, wₖ⟩                        output
        | Σᵢ w(πᵢ,₁ as xᵢ,₁, …).Pᵢ            input-guarded sum (same channel)
        | if w = w' then P else Q             matching
        | (νn)P                               restriction
        | P | Q                               parallel composition
        | ∗P                                  replication
        | 0                                   inaction (the empty sum)

We implement the *polyadic* calculus directly — outputs carry tuples of
identifiers, input branches carry per-position patterns and binders — since
the paper's photography-competition example uses polyadic communication and
notes the extension is straightforward.  Monadic communication is the
1-tuple special case.

All nodes are frozen dataclasses; helper functions at module level compute
free variables, free channel names, mentioned principals and structural
size.  Parallel composition is n-ary (a tuple of parts) which simplifies
normalization; the binary constructor of the paper is recovered by
:func:`parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.errors import IllFormedTermError, PatternArityError
from repro.core.names import Channel, Principal, Variable
from repro.core.patterns import Pattern
from repro.core.values import AnnotatedValue, Identifier

__all__ = [
    "Process",
    "Output",
    "InputBranch",
    "InputSum",
    "Match",
    "Restriction",
    "Parallel",
    "Replication",
    "Inaction",
    "parallel",
    "free_variables",
    "free_channels",
    "mentioned_principals",
    "process_size",
    "annotated_values",
]


class Process:
    """Base class of process terms.

    A plain class, not an ``abc.ABC``: it declares no abstract methods,
    and every term walk's ``isinstance`` against an ABC would go through
    ``ABCMeta.__instancecheck__`` instead of the interpreter's fast path.
    """

    __slots__ = ()


def _identifier_free_variables(identifier: Identifier) -> frozenset[Variable]:
    if isinstance(identifier, Variable):
        return frozenset((identifier,))
    return frozenset()


def _identifier_channels(identifier: Identifier) -> frozenset[Channel]:
    """Channel names occurring in an identifier.

    For an annotated value this is the plain part if it is a channel; the
    provenance contains no channel names (only principals), so it never
    contributes.
    """

    if isinstance(identifier, AnnotatedValue) and isinstance(
        identifier.value, Channel
    ):
        return frozenset((identifier.value,))
    return frozenset()


def _identifier_principals(identifier: Identifier) -> frozenset[Principal]:
    if isinstance(identifier, AnnotatedValue):
        result = identifier.provenance.principals()
        if isinstance(identifier.value, Principal):
            result |= {identifier.value}
        return result
    return frozenset()


@dataclass(frozen=True, slots=True)
class Output(Process):
    """``w⟨w₁, …, wₖ⟩`` — asynchronous (non-blocking) output.

    ``channel`` is the subject identifier (a channel value or a variable to
    be substituted); ``payload`` are the object identifiers.
    """

    channel: Identifier
    payload: tuple[Identifier, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.payload, tuple):
            raise IllFormedTermError("output payload must be a tuple")

    @property
    def arity(self) -> int:
        return len(self.payload)

    def __str__(self) -> str:
        args = ", ".join(str(w) for w in self.payload)
        return f"{self.channel}<{args}>"


@dataclass(frozen=True, slots=True)
class InputBranch:
    """One summand ``(π₁ as x₁, …, πₖ as xₖ).P`` of an input sum.

    The patterns vet, position by position, the provenance of the message
    components; the binders receive the components (with updated
    provenance) in the continuation.
    """

    patterns: tuple[Pattern, ...]
    binders: tuple[Variable, ...]
    continuation: Process

    def __post_init__(self) -> None:
        if len(self.patterns) != len(self.binders):
            raise PatternArityError(
                f"{len(self.patterns)} patterns for {len(self.binders)} binders"
            )
        if len(set(self.binders)) != len(self.binders):
            raise IllFormedTermError(
                f"duplicate binders in input branch: {self.binders}"
            )

    @property
    def arity(self) -> int:
        return len(self.binders)

    def __str__(self) -> str:
        parts = ", ".join(
            f"{p} as {x}" for p, x in zip(self.patterns, self.binders)
        )
        return f"({parts}).{self.continuation}"


@dataclass(frozen=True, slots=True)
class InputSum(Process):
    """``Σᵢ w(πᵢ as xᵢ).Pᵢ`` — pattern-restricted input-guarded choice.

    All branches listen on the *same* channel (the paper's restriction on
    summation); they may differ in patterns, arity and continuation.  The
    empty sum is represented by :class:`Inaction` instead.
    """

    channel: Identifier
    branches: tuple[InputBranch, ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise IllFormedTermError(
                "empty input sum: use Inaction() for the empty sum 0"
            )

    def __str__(self) -> str:
        if len(self.branches) == 1:
            return f"{self.channel}{self.branches[0]}"
        summands = " + ".join(f"{self.channel}{b}" for b in self.branches)
        return f"({summands})"


@dataclass(frozen=True, slots=True)
class Match(Process):
    """``if w = w' then P else Q``.

    Only the *plain* parts are compared; provenance is ignored by the test
    (rules R-IFt / R-IFf of the paper).
    """

    left: Identifier
    right: Identifier
    then_branch: Process
    else_branch: Process

    def __str__(self) -> str:
        return (
            f"if {self.left} = {self.right} "
            f"then {self.then_branch} else {self.else_branch}"
        )


@dataclass(frozen=True, slots=True)
class Restriction(Process):
    """``(νn)P`` — scope restriction of channel ``n`` to ``P``.

    The binder is a bare :class:`Channel`: within the scope, occurrences of
    ``n`` may carry different provenances, which is why the restriction
    itself carries none.
    """

    channel: Channel
    body: Process

    def __str__(self) -> str:
        return f"(new {self.channel})({self.body})"


@dataclass(frozen=True, slots=True)
class Parallel(Process):
    """n-ary parallel composition ``P₁ | … | Pₖ``."""

    parts: tuple[Process, ...] = field(default=())

    def __str__(self) -> str:
        if not self.parts:
            return "0"
        return "(" + " | ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True, slots=True)
class Replication(Process):
    """``∗P`` — unboundedly many parallel copies of ``P``."""

    body: Process

    def __str__(self) -> str:
        return f"*({self.body})"


@dataclass(frozen=True, slots=True)
class Inaction(Process):
    """``0`` — the empty sum; the process that can do nothing."""

    def __str__(self) -> str:
        return "0"


def parallel(*parts: Process) -> Process:
    """Smart constructor: flatten nested parallels and drop units."""

    flat: list[Process] = []
    for part in parts:
        if isinstance(part, Parallel):
            flat.extend(part.parts)
        elif isinstance(part, Inaction):
            continue
        else:
            flat.append(part)
    if not flat:
        return Inaction()
    if len(flat) == 1:
        return flat[0]
    return Parallel(tuple(flat))


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------


def free_variables(process: Process) -> frozenset[Variable]:
    """The free variables of ``process`` (input binds; nothing else does)."""

    if isinstance(process, Output):
        result = _identifier_free_variables(process.channel)
        for w in process.payload:
            result |= _identifier_free_variables(w)
        return result
    if isinstance(process, InputSum):
        result = _identifier_free_variables(process.channel)
        for branch in process.branches:
            inner = free_variables(branch.continuation) - set(branch.binders)
            result |= inner
        return result
    if isinstance(process, Match):
        return (
            _identifier_free_variables(process.left)
            | _identifier_free_variables(process.right)
            | free_variables(process.then_branch)
            | free_variables(process.else_branch)
        )
    if isinstance(process, Restriction):
        return free_variables(process.body)
    if isinstance(process, Parallel):
        result: frozenset[Variable] = frozenset()
        for part in process.parts:
            result |= free_variables(part)
        return result
    if isinstance(process, Replication):
        return free_variables(process.body)
    if isinstance(process, Inaction):
        return frozenset()
    raise TypeError(f"not a process: {process!r}")


def free_channels(process: Process) -> frozenset[Channel]:
    """The free channel names of ``process`` (restriction binds)."""

    if isinstance(process, Output):
        result = _identifier_channels(process.channel)
        for w in process.payload:
            result |= _identifier_channels(w)
        return result
    if isinstance(process, InputSum):
        result = _identifier_channels(process.channel)
        for branch in process.branches:
            result |= free_channels(branch.continuation)
        return result
    if isinstance(process, Match):
        return (
            _identifier_channels(process.left)
            | _identifier_channels(process.right)
            | free_channels(process.then_branch)
            | free_channels(process.else_branch)
        )
    if isinstance(process, Restriction):
        return free_channels(process.body) - {process.channel}
    if isinstance(process, Parallel):
        result: frozenset[Channel] = frozenset()
        for part in process.parts:
            result |= free_channels(part)
        return result
    if isinstance(process, Replication):
        return free_channels(process.body)
    if isinstance(process, Inaction):
        return frozenset()
    raise TypeError(f"not a process: {process!r}")


def mentioned_principals(process: Process) -> frozenset[Principal]:
    """Every principal occurring in values or provenances of ``process``."""

    result: frozenset[Principal] = frozenset()
    for value in annotated_values(process):
        result |= _identifier_principals(value)
    return result


def annotated_values(process: Process) -> Iterator[AnnotatedValue]:
    """Yield every annotated-value subterm ``v : κ`` of ``process``.

    This is the process half of the paper's ``values(−)`` function used by
    the correctness criterion: it reaches under prefixes and into every
    identifier position (including channel subjects).
    """

    if isinstance(process, Output):
        for w in (process.channel, *process.payload):
            if isinstance(w, AnnotatedValue):
                yield w
    elif isinstance(process, InputSum):
        if isinstance(process.channel, AnnotatedValue):
            yield process.channel
        for branch in process.branches:
            yield from annotated_values(branch.continuation)
    elif isinstance(process, Match):
        for w in (process.left, process.right):
            if isinstance(w, AnnotatedValue):
                yield w
        yield from annotated_values(process.then_branch)
        yield from annotated_values(process.else_branch)
    elif isinstance(process, Restriction):
        yield from annotated_values(process.body)
    elif isinstance(process, Parallel):
        for part in process.parts:
            yield from annotated_values(part)
    elif isinstance(process, Replication):
        yield from annotated_values(process.body)
    elif isinstance(process, Inaction):
        return
    else:
        raise TypeError(f"not a process: {process!r}")


def process_size(process: Process) -> int:
    """Number of process constructors in the term (a structural measure)."""

    if isinstance(process, (Output, Inaction)):
        return 1
    if isinstance(process, InputSum):
        return 1 + sum(process_size(b.continuation) for b in process.branches)
    if isinstance(process, Match):
        return 1 + process_size(process.then_branch) + process_size(
            process.else_branch
        )
    if isinstance(process, (Restriction, Replication)):
        return 1 + process_size(process.body)
    if isinstance(process, Parallel):
        return 1 + sum(process_size(p) for p in process.parts)
    raise TypeError(f"not a process: {process!r}")
