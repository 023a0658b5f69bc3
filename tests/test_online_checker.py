"""The online monitor: differential equivalence with the batch checkers,
⪯-monotonicity under log prepends, engine-path parity, and the
normal-form fast path behind ``monitored_values``."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.builder import ch, pr
from repro.core.congruence import as_normal_form, normalize
from repro.core.engine import RandomStrategy
from repro.lang import parse_system
from repro.logs.ast import Action, ActionKind, LogAction
from repro.logs.order import LogIndex, log_leq
from repro.monitor import (
    MonitoredEngine,
    MonitoredSystem,
    OnlineChecker,
    check_completeness,
    check_correctness,
    monitored_values,
    run_checked,
)
from repro.workloads import relay_chain
from repro.workloads.random_systems import GeneratorConfig, random_log, random_system
from tests.engine_oracle import from_scratch_monitored_run

SMALL = GeneratorConfig(
    n_principals=3, n_channels=4, n_components=4, max_depth=3, n_messages=2
)

PRINCIPALS = [pr(f"p{i}") for i in range(3)]
CHANNELS = [ch(f"k{i}") for i in range(3)]


def _random_trace(system_seed: int, schedule_seed: int):
    system = random_system(system_seed, SMALL)
    engine = MonitoredEngine(
        strategy=RandomStrategy(schedule_seed), max_steps=10
    )
    return engine.run(MonitoredSystem.start(system))


class TestDifferentialEquivalence:
    """One OnlineChecker carried along a run must reproduce, state by
    state, exactly the batch reports — verdicts, order, denotations."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_online_matches_batch_correctness(self, system_seed, schedule_seed):
        trace = _random_trace(system_seed, schedule_seed)
        checker = OnlineChecker()
        for state in trace.states():
            assert checker.check(state) == check_correctness(state)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_online_matches_batch_on_observer_components(
        self, system_seed, schedule_seed
    ):
        # The production feeding path: components straight from the
        # incremental reducer via the engine's state observer, rather
        # than re-derived from the state.
        system = random_system(system_seed, SMALL)
        recorded = []
        MonitoredEngine(
            strategy=RandomStrategy(schedule_seed), max_steps=10
        ).run(
            MonitoredSystem.start(system),
            state_observer=lambda state, components: recorded.append(
                (state, components)
            ),
        )
        checker = OnlineChecker()
        for state, components in recorded:
            assert components is not None
            assert checker.check(state, components) == check_correctness(state)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_online_matches_batch_completeness(self, system_seed, schedule_seed):
        trace = _random_trace(system_seed, schedule_seed)
        checker = OnlineChecker("completeness")
        for state in trace.states():
            assert checker.check(state) == check_completeness(state)

    def test_states_out_of_lineage_invalidate_caches(self):
        # Checking a state from a *different* run (not an extension of the
        # last log seen) must still be batch-equal: caches reset, not lie.
        first = MonitoredEngine(max_steps=20).run(
            MonitoredSystem.start(relay_chain(3).system)
        )
        second = MonitoredEngine(max_steps=20).run(
            MonitoredSystem.start(parse_system("a[m<v>] || b[m(x).0]"))
        )
        checker = OnlineChecker()
        for trace in (first, second, first):
            for state in trace.states():
                assert checker.check(state) == check_correctness(state)

    def test_run_checked_equals_per_state_batch(self):
        monitored = MonitoredSystem.start(relay_chain(5).system)
        report = run_checked(monitored)
        states = list(report.trace.states())
        assert len(report.reports) == len(states)
        for state, online in zip(states, report.reports):
            assert online == check_correctness(state)
        assert report.holds
        assert report.first_failure() is None

    def test_online_flags_forged_provenance(self):
        forged = MonitoredSystem.start(
            parse_system("m<<v:{b!{}}>>", principals={"b"})
        )
        report = OnlineChecker().check(forged)
        assert not report.holds
        assert check_correctness(forged) == report


class TestMonotonicity:
    """LEQ-Pre2 in the form the online monitor relies on: a positive ⪯
    verdict survives every prepend-extension of the right log."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=4),
    )
    def test_leq_monotone_under_log_prepends(self, left_seed, right_seed, grow):
        left = random_log(left_seed, PRINCIPALS, CHANNELS, max_actions=4)
        right = random_log(right_seed, PRINCIPALS, CHANNELS, max_actions=4)
        held_before = log_leq(left, right)
        rng = random.Random(right_seed ^ left_seed)
        grown = right
        for _ in range(grow):
            kind = rng.choice(list(ActionKind))
            operands = (rng.choice(CHANNELS), rng.choice(CHANNELS + PRINCIPALS))
            grown = LogAction(
                Action(kind, rng.choice(PRINCIPALS), operands), grown
            )
        if held_before:
            assert log_leq(left, grown)
        # the dual used by online completeness: refutation of log ⪯ δ
        # persists as the log grows
        if not log_leq(right, left):
            assert not log_leq(grown, left)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_extended_index_agrees_with_fresh_index(self, left_seed, right_seed):
        left = random_log(left_seed, PRINCIPALS, CHANNELS, max_actions=4)
        right = random_log(right_seed, PRINCIPALS, CHANNELS, max_actions=3)
        index = LogIndex(right)
        rng = random.Random(left_seed ^ ~right_seed)
        grown = right
        for _ in range(3):
            grown = LogAction(
                Action(
                    rng.choice(list(ActionKind)),
                    rng.choice(PRINCIPALS),
                    (rng.choice(CHANNELS), rng.choice(CHANNELS)),
                ),
                grown,
            )
            if index.try_extend(grown):
                assert index.leq(left) == LogIndex(grown).leq(left)


class TestEnginePathParity:
    """The incremental MonitoredEngine is trace-identical to from-scratch."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_incremental_and_from_scratch_traces_agree(
        self, system_seed, schedule_seed
    ):
        system = random_system(system_seed, SMALL)
        monitored = MonitoredSystem.start(system)
        fast = MonitoredEngine(
            strategy=RandomStrategy(schedule_seed), max_steps=8
        ).run(monitored)
        slow = from_scratch_monitored_run(
            MonitoredEngine(strategy=RandomStrategy(schedule_seed), max_steps=8),
            monitored,
        )
        assert fast.status == slow.status
        assert len(fast) == len(slow)
        for ours, theirs in zip(fast.entries, slow.entries):
            assert ours.label == theirs.label
            assert ours.actions == theirs.actions
            assert ours.target.log == theirs.target.log
            assert ours.target.system == theirs.target.system

    def test_observer_components_match_normalize(self):
        seen = []
        MonitoredEngine(max_steps=50).run(
            MonitoredSystem.start(relay_chain(3).system),
            state_observer=lambda state, components: seen.append(
                (state, components)
            ),
        )
        assert seen
        for state, components in seen:
            assert components is not None
            assert tuple(components) == normalize(state.system).components


class TestNormalFormFastPath:
    def test_engine_states_are_detected_normal(self):
        # Raw fired targets are normal whenever the step hoisted nothing;
        # the one step whose continuation carries a fresh restriction (the
        # consumer's freeze) legitimately reports None and re-normalizes.
        trace = MonitoredEngine(max_steps=50).run(
            MonitoredSystem.start(relay_chain(3).system)
        )
        states = list(trace.states())
        detected = 0
        for state in states:
            nf = as_normal_form(state.system)
            if nf is not None:
                assert nf == normalize(state.system)
                detected += 1
        assert detected == len(states) - 1

    def test_irregular_systems_fall_back(self):
        # nested located parallel: not a normal form
        system = parse_system("a[m<v> | n<w>]")
        assert as_normal_form(system) is None
        # monitored_values still works through the normalize fallback
        values = monitored_values(MonitoredSystem.start(system))
        assert {term for term, _ in values} == {ch("m"), ch("v"), ch("n"), ch("w")}

    def test_values_from_precomputed_normal_form(self):
        monitored = MonitoredSystem.start(parse_system("a[m<v>]"))
        nf = normalize(monitored.system)
        assert monitored_values(monitored, nf) == monitored_values(monitored)
