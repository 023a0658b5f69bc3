"""Adversarial DAG shapes: sharing must stay O(1) per suffix.

The query layer's cost model rests on two hash-consing guarantees —
``suffixes()`` yields interned nodes with zero allocation, and
``dag_size()``/``dag_event_count`` count shared structure once — so
this module pins both on the shapes most likely to break them: wide
fan-in onto one long shared tail, deeply nested channel provenances,
and spines re-interned from another process (the cross-shard wire
path).
"""

import pickle

from repro.core.builder import av, ch
from repro.core.names import Principal
from repro.core.provenance import (
    EMPTY,
    InputEvent,
    OutputEvent,
    Provenance,
    dag_event_count,
    intern_table_sizes,
)
from repro.runtime.wire import Codec

A, B = Principal("a"), Principal("b")


def long_spine(depth, prefix="s"):
    # one distinct principal per level: events intern per (principal,
    # channel provenance), so a repeated event would collapse the DAG
    # to a single node — distinct levels keep dag_size == depth.
    # Quadratic in depth (per-node principal sets), so keep it short.
    spine = EMPTY
    for i in range(depth):
        spine = spine.cons(OutputEvent(Principal(f"{prefix}{i}")))
    return spine


from functools import lru_cache


@lru_cache(maxsize=None)
def deep_spine(depth, principals=8):
    # the realistic deep shape: a bounded principal set cycling over a
    # very long spine — every spine *node* is distinct (interning is
    # per (event, tail)) while the event set stays small, so building
    # is O(depth)
    people = [Principal(f"p{i}") for i in range(principals)]
    spine = EMPTY
    for i in range(depth):
        spine = spine.cons(OutputEvent(people[i % principals]))
    return spine


class TestWideFanInSharedTail:
    """Many roots consing distinct heads onto one long shared tail."""

    def fan(self, width=64, depth=300):
        tail = long_spine(depth)
        return tail, [
            tail.cons(InputEvent(Principal(f"r{i}"))) for i in range(width)
        ]

    def test_dag_counts_the_shared_tail_once(self):
        tail, roots = self.fan()
        # collectively: width distinct heads + depth shared tail events
        assert dag_event_count(roots) == len(roots) + len(tail)
        # per root: its head + the whole tail, tree == DAG on a spine
        for root in roots[:4]:
            assert root.dag_size() == len(tail) + 1

    def test_suffixes_alias_the_interned_tail_across_roots(self):
        tail, roots = self.fan(width=8, depth=64)
        for root in roots:
            chain = list(root.suffixes())
            assert chain[0] is root
            assert chain[1] is tail
            # every suffix of every root below the head is the *same*
            # object — O(1) identity, no per-root copies
            assert chain[-1] is EMPTY

    def test_sweeping_suffixes_allocates_no_new_spine_nodes(self):
        tail, roots = self.fan(width=8, depth=256)
        _, spines_before = intern_table_sizes()
        for root in roots:
            for _ in root.suffixes():
                pass
        _, spines_after = intern_table_sizes()
        assert spines_after == spines_before

    def test_shared_tail_interns_to_one_object(self):
        assert long_spine(300) is long_spine(300)


class TestReinternedCrossShardSpines:
    """Spines decoded from the wire (or pickle) re-intern to the same
    DAG nodes — the property that makes the sharded query index merge
    per-shard streams without duplicating history."""

    def nested(self):
        channel_history = long_spine(40, prefix="c")
        spine = EMPTY
        for i in range(40):
            spine = spine.cons(
                OutputEvent(Principal(f"out{i}"), channel_history)
            )
            spine = spine.cons(
                InputEvent(Principal(f"in{i}"), channel_history)
            )
        return spine

    @staticmethod
    def wire_copy(spine):
        """``spine`` through a fresh codec pair, as a shard link ships it."""

        body, _ = Codec().encode_payload((av(ch("v"), spine),))
        values, _, _ = Codec().decode_payload(body)
        return values[0].provenance

    def test_wire_roundtrip_is_identity(self):
        spine = self.nested()
        assert self.wire_copy(spine) is spine

    def test_pickle_roundtrip_is_identity(self):
        spine = self.nested()
        assert pickle.loads(pickle.dumps(spine)) is spine

    def test_reinterned_suffixes_share_with_the_original(self):
        spine = self.nested()
        copy = self.wire_copy(spine)
        for ours, theirs in zip(spine.suffixes(), copy.suffixes()):
            assert ours is theirs

    def test_nested_channel_history_counts_once_in_the_dag(self):
        spine = self.nested()
        # 80 spine events sharing one 40-event channel history
        assert spine.total_events() == 80 * 41
        assert spine.dag_size() == 80 + 40

    def test_dag_event_count_with_disjoint_and_shared_roots(self):
        shared = long_spine(100)
        other = long_spine(100, prefix="q")
        assert dag_event_count([shared, other]) == 200
        assert dag_event_count([shared, shared.cons(InputEvent(B))]) == 101
        assert dag_event_count([]) == 0


class TestDeepSpineScaling:
    def test_suffix_walk_at_depth_100k_is_iterative(self):
        # no recursion: suffixes() is a loop over the cons list, so a
        # 100k-deep spine sweeps without touching the recursion limit
        spine = deep_spine(100_000)
        count = 0
        for _ in spine.suffixes():
            count += 1
        assert count == 100_001

    def test_dag_size_at_depth_100k_is_iterative(self):
        # 100k spine nodes share just 8 distinct event objects; the
        # identity walk must visit every node without recursing
        spine = deep_spine(100_000)
        assert spine.dag_size() == 8
        assert spine.total_events() == 100_000

    def test_rebuilding_the_same_deep_spine_is_pure_lookup(self):
        spine = deep_spine(20_000)
        _, before = intern_table_sizes()
        again = deep_spine.__wrapped__(20_000)
        _, after = intern_table_sizes()
        assert again is spine
        assert after == before
