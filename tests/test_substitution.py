"""Unit and property tests for capture-avoiding substitution."""

from hypothesis import given, settings, strategies as st

from repro.core.builder import ch, inp, match, new, out, par, pr, rep, var
from repro.core.names import Channel
from repro.core.process import (
    InputSum,
    Match,
    Parallel,
    Replication,
    Restriction,
    free_channels,
    free_variables,
)
from repro.core.provenance import EMPTY, OutputEvent, Provenance
from repro.core.substitution import _all_names, rename_free_channel, substitute
from repro.core.values import annotate
from repro.workloads.random_systems import GeneratorConfig, random_process
import random

from tests.substitution_oracle import oracle_all_names, oracle_substitute

M, N, K, V = ch("m"), ch("n"), ch("k"), ch("v")
A = pr("a")
X, Y = var("x"), var("y")


class TestBasicSubstitution:
    def test_substitutes_in_output_positions(self):
        p = out(X, Y)
        result = substitute(p, {X: annotate(M), Y: annotate(V)})
        assert result == out(M, V)

    def test_substitution_carries_provenance(self):
        k = Provenance.of(OutputEvent(A, EMPTY))
        result = substitute(out(M, X), {X: annotate(V, k)})
        assert result == out(M, annotate(V, k))

    def test_untouched_variables_stay(self):
        result = substitute(out(X, Y), {X: annotate(M)})
        assert result == out(M, Y)

    def test_empty_mapping_is_identity_object(self):
        p = out(M, V)
        assert substitute(p, {}) is p

    def test_match_positions_substituted(self):
        p = match(X, Y, out(M, X), out(N, Y))
        result = substitute(p, {X: annotate(V), Y: annotate(K)})
        assert free_variables(result) == frozenset()

    def test_substitution_descends_into_replication(self):
        result = substitute(rep(out(M, X)), {X: annotate(V)})
        assert result == rep(out(M, V))


class TestShadowing:
    def test_input_binder_shadows_mapping(self):
        p = inp(M, X, body=out(N, X))
        result = substitute(p, {X: annotate(V)})
        # the inner x is bound by the input, not replaced
        assert result == p

    def test_only_shadowed_branch_is_protected(self):
        from repro.core.builder import branch, choice

        sum_ = choice(M, branch(X, body=out(N, X)), branch(Y, body=out(N, X)))
        result = substitute(sum_, {X: annotate(V)})
        assert result.branches[0].continuation == out(N, X)
        assert result.branches[1].continuation == out(N, V)


class TestCaptureAvoidance:
    def test_restriction_renamed_when_value_would_be_captured(self):
        # (νn)(m⟨x⟩){n/x}: the substituted n must NOT be captured
        p = new("n", out(M, X))
        result = substitute(p, {X: annotate(N)})
        assert isinstance(result, Restriction)
        assert result.channel != N
        # the payload really is the free n
        assert N in free_channels(result)

    def test_no_rename_when_no_capture_risk(self):
        p = new("k", out(M, X))
        result = substitute(p, {X: annotate(N)})
        assert result.channel == K

    def test_nested_restrictions_each_renamed(self):
        p = new("n", new("n", out(M, X)))
        result = substitute(p, {X: annotate(N)})
        assert N in free_channels(result)


class TestRenameFreeChannel:
    def test_renames_free_occurrences(self):
        assert rename_free_channel(out(M, V), M, N) == out(N, V)

    def test_stops_at_rebinding(self):
        p = par(out(M, V), new("m", out(M, V)))
        result = rename_free_channel(p, M, N)
        inner = result.parts[1]
        assert isinstance(inner, Restriction)
        assert inner.body == out(M, V)

    def test_renames_inside_continuations(self):
        p = inp(K, X, body=out(M, X))
        result = rename_free_channel(p, M, N)
        assert result.branches[0].continuation == out(N, X)


class TestProperties:
    @given(st.integers(min_value=0, max_value=10_000))
    def test_substituting_an_absent_variable_is_identity(self, seed):
        rng = random.Random(seed)
        p = random_process(
            rng, GeneratorConfig(), [pr("a"), pr("b")], [M, N], []
        )
        fresh = var("zzz_not_used")
        assert substitute(p, {fresh: annotate(V)}) == p

    @given(st.integers(min_value=0, max_value=10_000))
    def test_substitution_eliminates_exactly_the_mapped_variables(self, seed):
        rng = random.Random(seed)
        p = random_process(
            rng, GeneratorConfig(), [pr("a")], [M, N], [X, Y]
        )
        mapping = {X: annotate(V), Y: annotate(K)}
        result = substitute(p, mapping)
        assert free_variables(result) == frozenset()


def _binders(process):
    """Every restriction binder in ``process``, outermost first."""

    found, stack = [], [process]
    while stack:
        p = stack.pop()
        if isinstance(p, Restriction):
            found.append(p.channel)
            stack.append(p.body)
        elif isinstance(p, Parallel):
            stack.extend(reversed(p.parts))
        elif isinstance(p, Replication):
            stack.append(p.body)
        elif isinstance(p, Match):
            stack += [p.else_branch, p.then_branch]
        elif isinstance(p, InputSum):
            stack.extend(b.continuation for b in reversed(p.branches))
    return found


class TestMatchesEagerSupplyOracle:
    """The lazy supply and iterative name walk against the old code."""

    CAPTURING = GeneratorConfig(p_restriction=0.45, max_depth=5)

    def capturing_case(self, seed):
        """An open process and a mapping aimed at its own binders."""

        rng = random.Random(seed)
        p = random_process(rng, self.CAPTURING, [A, pr("b")], [M, N], [X, Y])
        binders = _binders(p)
        # binders capture; their primed forms collide with the first
        # fresh candidate alpha-renaming would try
        pool = [M, N, *binders, *(ch(f"{c.name}'1") for c in binders)]
        mapping = {
            X: annotate(rng.choice(pool)),
            Y: annotate(rng.choice(pool + [A])),
        }
        return p, mapping

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_identical_terms_and_fresh_names(self, seed):
        p, mapping = self.capturing_case(seed)
        # term equality covers every binder, so the fresh names agree
        assert substitute(p, mapping) == oracle_substitute(p, mapping)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_name_walk_matches_the_recursive_walk(self, seed):
        p, _ = self.capturing_case(seed)
        assert _all_names(p) == oracle_all_names(p)

    def test_the_property_exercises_renaming(self):
        renamed = 0
        for seed in range(200):
            p, mapping = self.capturing_case(seed)
            renamed += _binders(substitute(p, mapping)) != _binders(p)
        assert renamed >= 20

    def test_nested_and_colliding_binders(self):
        n1 = ch("n'1")
        p = new(
            "n",
            par(out(M, X), new("n", out(N, Y)), out(n1, X), new("n'1", out(M, Y))),
        )
        mapping = {X: annotate(N), Y: annotate(n1)}
        result = substitute(p, mapping)
        assert result == oracle_substitute(p, mapping)
        assert {N, n1} <= free_channels(result)
