"""Unit tests for the system AST."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.builder import ch, inp, located, msg, nil, out, pr, sys_new, sys_par, var
from repro.core.congruence import _used_channels, normalize
from repro.core.errors import IllFormedTermError
from repro.core.provenance import EMPTY, OutputEvent, Provenance
from repro.core.system import (
    Message,
    SysParallel,
    SysRestriction,
    located_components,
    messages_of,
    system_annotated_values,
    system_free_channels,
    system_free_variables,
    system_principals,
    system_size,
)
from repro.core.values import annotate
from repro.workloads.random_systems import GeneratorConfig, random_system

A, B = pr("a"), pr("b")
M, N, V = ch("m"), ch("n"), ch("v")
X = var("x")


class TestMessage:
    def test_address_must_be_channel(self):
        with pytest.raises(IllFormedTermError):
            Message(A, (annotate(V),))  # type: ignore[arg-type]

    def test_payload_must_be_annotated(self):
        with pytest.raises(IllFormedTermError):
            Message(M, (V,))  # type: ignore[arg-type]

    def test_polyadic_arity(self):
        assert msg(M, V, N).arity == 2


class TestSmartSysPar:
    def test_flattens(self):
        s = sys_par(sys_par(located(A, nil()), msg(M, V)), located(B, nil()))
        assert isinstance(s, SysParallel)
        assert len(s.parts) == 3

    def test_single_component_unwrapped(self):
        assert sys_par(msg(M, V)) == msg(M, V)


class TestQueries:
    def system(self):
        return sys_par(
            located(A, out(M, V)),
            located(B, inp(M, X, body=nil())),
            msg(N, annotate(V, Provenance.of(OutputEvent(A, EMPTY)))),
        )

    def test_closed_system_has_no_free_variables(self):
        assert system_free_variables(self.system()) == frozenset()

    def test_open_system_reports_variables(self):
        s = located(A, out(M, X))
        assert system_free_variables(s) == {X}

    def test_free_channels_include_message_addresses(self):
        assert system_free_channels(self.system()) == {M, N, V}

    def test_sys_restriction_binds(self):
        s = sys_new("n", self.system())
        assert system_free_channels(s) == {M, V}

    def test_principals_include_hosts_and_provenance(self):
        assert system_principals(self.system()) == {A, B}

    def test_size_counts_components(self):
        assert system_size(self.system()) > 3

    def test_located_components_and_messages(self):
        s = sys_new("n", self.system())
        assert {c.principal for c in located_components(s)} == {A, B}
        assert len(list(messages_of(s))) == 1

    def test_annotated_values_include_message_payloads(self):
        values = list(system_annotated_values(self.system()))
        assert any(v.provenance.events for v in values)


# -- the linear unions equal the fold they replaced ----------------------


def _folded(query, recurse):
    """The reference fold: ``result |= frozenset`` per parallel part."""

    def run(system):
        if isinstance(system, SysParallel):
            result = frozenset()
            for part in system.parts:
                result |= run(part)
            return result
        if isinstance(system, SysRestriction):
            return recurse(run(system.body), system)
        return query(system)

    return run


_FOLDED = {
    system_free_channels: _folded(
        system_free_channels, lambda body, s: body - {s.channel}
    ),
    system_free_variables: _folded(system_free_variables, lambda body, s: body),
    system_principals: _folded(system_principals, lambda body, s: body),
}


def _nested_system(seeds, binders):
    """Random systems under restrictions and nested parallels."""

    parts = []
    for index, seed in enumerate(seeds):
        part = random_system(
            seed, GeneratorConfig(n_components=3, n_messages=2, max_depth=2)
        )
        if index < len(binders):
            part = SysRestriction(ch(binders[index]), part)
        parts.append(part)
    return SysParallel((SysParallel(tuple(parts[:1])), *parts[1:]))


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 10_000), min_size=1, max_size=4),
    binders=st.lists(st.sampled_from(["c0", "c1", "m", "n"]), max_size=4),
)
def test_linear_unions_match_the_fold(seeds, binders):
    system = _nested_system(seeds, binders)
    for query, reference in _FOLDED.items():
        assert query(system) == reference(system), query.__name__
    components = normalize(system).components
    folded = frozenset()
    for component in components:
        folded |= system_free_channels(component)
    assert _used_channels(components) == folded
