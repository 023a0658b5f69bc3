"""The run-scoped collector freeze and the cycle-free runtime it relies on.

``settled_heap`` keeps a run's long-lived heap out of the cyclic
collector's full passes.  That is only safe if the runtime makes no
reference cycles, so the second half pins the cyclic garbage of
full-stack runs (crypto, ``verify_deliveries``, the journal,
checkpoints and the query index all on), and the third checks that the
collector's state never shows in a delivered trace.
"""

import gc

import pytest

from repro.core.heap import settled_heap
from repro.runtime import DistributedRuntime, ShardedRuntime
from repro.storage import load_state, verify_replay
from repro.storage.journal import ZERO_DIGEST, chain_digest, delivery_key
from repro.workloads import vetted_relay_chain, wide_fanout
from repro.workloads.random_systems import GeneratorConfig, random_system


@pytest.fixture
def thawed():
    """Tests start and end with nothing frozen and the collector on."""

    assert gc.get_freeze_count() == 0 and gc.isenabled()
    yield
    gc.enable()
    gc.unfreeze()


class TestSettledHeap:
    def test_freezes_inside_and_thaws_after(self, thawed):
        with settled_heap():
            assert gc.get_freeze_count() > 0
        assert gc.get_freeze_count() == 0

    def test_nested_scopes_thaw_only_at_the_outermost_exit(self, thawed):
        with settled_heap():
            frozen = gc.get_freeze_count()
            with settled_heap():
                assert gc.get_freeze_count() == frozen
            assert gc.get_freeze_count() == frozen
        assert gc.get_freeze_count() == 0

    def test_an_exception_thaws_and_resets_the_depth(self, thawed):
        with pytest.raises(KeyError):
            with settled_heap():
                with settled_heap():
                    raise KeyError("boom")
        assert gc.get_freeze_count() == 0
        with settled_heap():
            assert gc.get_freeze_count() > 0
        assert gc.get_freeze_count() == 0

    def test_no_op_while_the_collector_is_disabled(self, thawed):
        gc.disable()
        with settled_heap():
            assert gc.get_freeze_count() == 0
            gc.enable()  # enabling mid-scope must not make the exit act
        assert gc.get_freeze_count() == 0
        assert gc.isenabled()

    def test_no_op_when_the_host_already_froze(self, thawed):
        gc.freeze()
        before = gc.get_freeze_count()
        newborn = [[] for _ in range(100)]  # tracked, not yet frozen
        with settled_heap():
            assert gc.get_freeze_count() == before
        assert gc.get_freeze_count() == before
        del newborn

    def test_thresholds_untouched(self, thawed):
        thresholds = gc.get_threshold()
        with settled_heap():
            assert gc.get_threshold() == thresholds
        assert gc.get_threshold() == thresholds


# -- cyclic garbage of full-stack runs ---------------------------------------

FULL_STACK = dict(crypto=True, verify_deliveries=True, detailed_metrics=False)


def cyclic_garbage(run) -> tuple[int, int]:
    """``(collected while run() works, left once its result is dropped)``.

    The first count includes a collection after ``run`` returns, while
    its result is still alive, so garbage the freeze deferred counts.
    """

    gc.collect()
    collected = []

    def count(phase, info):
        if phase == "stop":
            collected.append(info["collected"])

    gc.callbacks.append(count)
    try:
        kept = run()
        gc.collect()
    finally:
        gc.callbacks.remove(count)
    del kept
    return sum(collected), gc.collect()


def capture(store, system, topology=None, checkpoint_every=64):
    """A full-stack capture as the full-stack benchmark times it."""

    def run():
        runtime = DistributedRuntime(
            seed=1,
            topology=topology,
            durable=str(store),
            durable_wipe=True,
            checkpoint_every=checkpoint_every,
            metrics_retention=0,
            **FULL_STACK,
        )
        index = runtime.attach_query_index()
        runtime.deploy(system)
        runtime.run()
        index.commit()
        runtime.durability.close()
        assert runtime.metrics.deliveries > 0
        return runtime, index

    return cyclic_garbage(run)


class TestCycleFreeRuntime:
    def test_relay_capture(self, tmp_path, thawed):
        during, left = capture(tmp_path, vetted_relay_chain(128).system)
        assert during <= 100
        assert left == 0

    def test_fanout_capture(self, tmp_path, thawed):
        workload = wide_fanout(
            n_regions=2, sources_per_region=40, burst=2, guard_depth=1
        )
        during, left = capture(
            tmp_path, workload.system, topology=workload.topology
        )
        assert during <= 100
        assert left == 0

    def test_verify_replay(self, tmp_path, thawed):
        capture(tmp_path, vetted_relay_chain(64).system)
        state = load_state(tmp_path)

        def replay():
            report = verify_replay(tmp_path, state)
            assert report.ok, report.detail
            return report

        _, left = cyclic_garbage(replay)
        assert left == 0

    def test_capture_garbage_does_not_grow_with_hops(self, tmp_path, thawed):
        short, _ = capture(tmp_path / "32", vetted_relay_chain(32).system)
        long, _ = capture(tmp_path / "128", vetted_relay_chain(128).system)
        assert long <= short

    def test_discarded_sharded_mesh(self, thawed):
        def run():
            runtime = ShardedRuntime(shards=2, seed=1, **FULL_STACK)
            runtime.deploy(vetted_relay_chain(32).system)
            runtime.run()
            return runtime

        _, left = cyclic_garbage(run)
        assert left == 0


# -- the collector never shows in a trace ------------------------------------


def trace_digest(trace) -> bytes:
    digest = ZERO_DIGEST
    for time, principal, channel, values, branch in trace:
        digest = chain_digest(
            digest, delivery_key(time, principal, channel, branch, values)
        )
    return digest


def delivered_digest(system, shards: int, seed: int) -> bytes:
    runtime = ShardedRuntime(shards=shards, seed=seed, **FULL_STACK)
    runtime.deploy(system)
    try:
        runtime.run(max_events=4_000)
    except TypeError:
        # random systems can be dynamically ill-typed (receiving on a
        # principal); the failure must not depend on the collector either
        return b"ill-typed"
    return trace_digest(runtime.delivered_trace())


@pytest.mark.parametrize("shards", [1, 2])
def test_trace_identical_under_every_collector_state(shards, thawed):
    config = GeneratorConfig(n_components=5, n_messages=2, max_depth=4)
    for seed in range(12):
        system = random_system(seed, config)
        enabled = delivered_digest(system, shards, seed)
        gc.disable()
        try:
            disabled = delivered_digest(system, shards, seed)
        finally:
            gc.enable()
        gc.freeze()
        try:
            host_frozen = delivered_digest(system, shards, seed)
        finally:
            gc.unfreeze()
        assert enabled == disabled == host_frozen, seed
