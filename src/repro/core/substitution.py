"""Capture-avoiding substitution and alpha-renaming.

The reduction rule R-Recv substitutes annotated values for the binders of
the chosen input branch in its continuation: ``P{v : a?κm;κv / x}``.  Two
binding constructs must be respected:

* input binders shadow substitution — ``m(π as x).P`` stops a substitution
  for ``x`` at the branch boundary;
* restriction binds channel *names* — substituting a value whose plain part
  is the channel ``n`` into the scope of ``(νn)P`` would capture it, so the
  restriction is alpha-renamed first.

Patterns are statically defined and contain no identifiers (the paper's §5
explicitly defers binding patterns to future work), so substitution never
descends into them.

The runtime substitutes on every input delivery without a supply of its
own, so the default supply is built lazily (most substitutions rename
nothing) and the name walk that seeds it is an explicit-stack loop: no
nested closures, so a substitution leaves no reference cycles behind
for the cyclic collector.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.names import Channel, NameSupply, Variable
from repro.core.process import (
    Inaction,
    InputBranch,
    InputSum,
    Match,
    Output,
    Parallel,
    Process,
    Replication,
    Restriction,
)
from repro.core.values import AnnotatedValue, Identifier

__all__ = [
    "substitute",
    "rename_free_channel",
    "identifier_substitute",
]

Substitution = Mapping[Variable, AnnotatedValue]


def identifier_substitute(identifier: Identifier, mapping: Substitution) -> Identifier:
    """Apply a substitution to a single identifier."""

    if isinstance(identifier, Variable):
        return mapping.get(identifier, identifier)
    return identifier


def _channels_in_range(mapping: Substitution) -> frozenset[Channel]:
    """Channel names that substitution may introduce (capture candidates)."""

    result: set[Channel] = set()
    for value in mapping.values():
        if isinstance(value.value, Channel):
            result.add(value.value)
    return frozenset(result)


def substitute(
    process: Process,
    mapping: Substitution,
    supply: NameSupply | None = None,
) -> Process:
    """Capture-avoiding substitution ``P{w₁…wₙ / x₁…xₙ}``.

    ``supply`` provides fresh names for alpha-renaming; the engine threads
    its own.  When omitted, a local supply is built the first time a
    restriction binder needs renaming, seeded with every name visible in
    ``process`` and in the substitution (domain and range).  That is
    always safe; building it only on demand spares the name walk on the
    common substitution that renames nothing, and the fresh names are
    the same as if the supply had been built up front.
    """

    if not mapping:
        return process
    mapping = dict(mapping)
    if supply is None:
        supply = _LazySupply(process, mapping)
    return _subst(process, mapping, supply)


class _LazySupply:
    """The default supply of :func:`substitute`, seeded on first use."""

    __slots__ = ("_process", "_mapping", "_supply")

    def __init__(self, process: Process, mapping: Substitution) -> None:
        self._process = process
        self._mapping = mapping
        self._supply: NameSupply | None = None

    def fresh_channel(self, base: Channel) -> Channel:
        supply = self._supply
        if supply is None:
            supply = NameSupply(_all_names(self._process))
            supply.reserve(c.name for c in _channels_in_range(self._mapping))
            supply.reserve(variable.name for variable in self._mapping)
            self._supply = supply
        return supply.fresh_channel(base)


def _subst(
    process: Process, mapping: dict, supply: NameSupply | _LazySupply
) -> Process:
    if isinstance(process, Output):
        return Output(
            identifier_substitute(process.channel, mapping),
            tuple(identifier_substitute(w, mapping) for w in process.payload),
        )
    if isinstance(process, InputSum):
        channel = identifier_substitute(process.channel, mapping)
        branches = []
        for branch in process.branches:
            inner = {
                x: v for x, v in mapping.items() if x not in branch.binders
            }
            if inner:
                continuation = _subst(branch.continuation, inner, supply)
            else:
                continuation = branch.continuation
            branches.append(
                InputBranch(branch.patterns, branch.binders, continuation)
            )
        return InputSum(channel, tuple(branches))
    if isinstance(process, Match):
        return Match(
            identifier_substitute(process.left, mapping),
            identifier_substitute(process.right, mapping),
            _subst(process.then_branch, mapping, supply),
            _subst(process.else_branch, mapping, supply),
        )
    if isinstance(process, Restriction):
        binder = process.channel
        body = process.body
        if binder in _channels_in_range(mapping):
            fresh = supply.fresh_channel(binder)
            body = rename_free_channel(body, binder, fresh)
            binder = fresh
        return Restriction(binder, _subst(body, mapping, supply))
    if isinstance(process, Parallel):
        return Parallel(tuple(_subst(p, mapping, supply) for p in process.parts))
    if isinstance(process, Replication):
        return Replication(_subst(process.body, mapping, supply))
    if isinstance(process, Inaction):
        return process
    raise TypeError(f"not a process: {process!r}")


def _rename_identifier(identifier: Identifier, old: Channel, new: Channel) -> Identifier:
    if isinstance(identifier, AnnotatedValue) and identifier.value == old:
        return AnnotatedValue(new, identifier.provenance)
    return identifier


def rename_free_channel(process: Process, old: Channel, new: Channel) -> Process:
    """Rename free occurrences of channel ``old`` to ``new`` (alpha helper).

    Stops at restrictions that rebind ``old``.  The caller must guarantee
    ``new`` is fresh for the process, which the :class:`NameSupply`
    discipline provides.
    """

    if isinstance(process, Output):
        return Output(
            _rename_identifier(process.channel, old, new),
            tuple(_rename_identifier(w, old, new) for w in process.payload),
        )
    if isinstance(process, InputSum):
        return InputSum(
            _rename_identifier(process.channel, old, new),
            tuple(
                InputBranch(
                    b.patterns,
                    b.binders,
                    rename_free_channel(b.continuation, old, new),
                )
                for b in process.branches
            ),
        )
    if isinstance(process, Match):
        return Match(
            _rename_identifier(process.left, old, new),
            _rename_identifier(process.right, old, new),
            rename_free_channel(process.then_branch, old, new),
            rename_free_channel(process.else_branch, old, new),
        )
    if isinstance(process, Restriction):
        if process.channel == old:
            return process
        return Restriction(
            process.channel, rename_free_channel(process.body, old, new)
        )
    if isinstance(process, Parallel):
        return Parallel(
            tuple(rename_free_channel(p, old, new) for p in process.parts)
        )
    if isinstance(process, Replication):
        return Replication(rename_free_channel(process.body, old, new))
    if isinstance(process, Inaction):
        return process
    raise TypeError(f"not a process: {process!r}")


def _all_names(process: Process) -> set[str]:
    """Every channel/variable/principal name occurring in the process.

    Used to seed conservative fresh-name supplies; over-approximating is
    harmless (fresh names just skip more candidates).
    """

    names: set[str] = set()
    stack = [process]
    while stack:
        p = stack.pop()
        if isinstance(p, Output):
            identifiers = (p.channel, *p.payload)
        elif isinstance(p, InputSum):
            identifiers = (p.channel,)
            for b in p.branches:
                names.update(x.name for x in b.binders)
                stack.append(b.continuation)
        elif isinstance(p, Match):
            identifiers = (p.left, p.right)
            stack.append(p.then_branch)
            stack.append(p.else_branch)
        elif isinstance(p, Restriction):
            names.add(p.channel.name)
            stack.append(p.body)
            continue
        elif isinstance(p, Parallel):
            stack.extend(p.parts)
            continue
        elif isinstance(p, Replication):
            stack.append(p.body)
            continue
        elif isinstance(p, Inaction):
            continue
        else:
            raise TypeError(f"not a process: {p!r}")
        for identifier in identifiers:
            if isinstance(identifier, Variable):
                names.add(identifier.name)
            else:
                names.add(identifier.value.name)
    return names
