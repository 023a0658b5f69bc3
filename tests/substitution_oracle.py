"""The recursive name walk and eager supply ``substitute`` replaced.

``repro.core.substitution`` walks names with an explicit stack and builds
its default fresh-name supply only when a restriction binder needs
renaming.  This is the previous reading: a recursive walk through nested
closures and a supply seeded up front on every call.  The property tests
in ``test_substitution.py`` require both to produce the same terms and
the same fresh names.  It is test-only: nothing in ``src/`` imports it.
"""

from __future__ import annotations

from repro.core.names import NameSupply, Variable
from repro.core.process import (
    Inaction,
    InputSum,
    Match,
    Output,
    Parallel,
    Process,
    Replication,
    Restriction,
)
from repro.core.substitution import Substitution, _channels_in_range, _subst
from repro.core.values import Identifier


def oracle_all_names(process: Process) -> set[str]:
    """Every channel/variable/principal name occurring in the process."""

    names: set[str] = set()

    def visit_identifier(identifier: Identifier) -> None:
        if isinstance(identifier, Variable):
            names.add(identifier.name)
        else:
            names.add(identifier.value.name)

    def visit(p: Process) -> None:
        if isinstance(p, Output):
            visit_identifier(p.channel)
            for w in p.payload:
                visit_identifier(w)
        elif isinstance(p, InputSum):
            visit_identifier(p.channel)
            for b in p.branches:
                for x in b.binders:
                    names.add(x.name)
                visit(b.continuation)
        elif isinstance(p, Match):
            visit_identifier(p.left)
            visit_identifier(p.right)
            visit(p.then_branch)
            visit(p.else_branch)
        elif isinstance(p, Restriction):
            names.add(p.channel.name)
            visit(p.body)
        elif isinstance(p, Parallel):
            for part in p.parts:
                visit(part)
        elif isinstance(p, Replication):
            visit(p.body)
        elif isinstance(p, Inaction):
            return
        else:
            raise TypeError(f"not a process: {p!r}")

    visit(process)
    return names


def oracle_substitute(process: Process, mapping: Substitution) -> Process:
    """``substitute(process, mapping)`` with the supply seeded eagerly."""

    if not mapping:
        return process
    supply = NameSupply(oracle_all_names(process))
    supply.reserve(c.name for c in _channels_in_range(mapping))
    for variable in mapping:
        supply.reserve((variable.name,))
    return _subst(process, dict(mapping), supply)
