"""Cryptographic integrity for provenance spines.

The Merkle digests of :mod:`repro.core.provenance` make a node's identity
*portable* — equal digests mean equal histories across processes — but a
digest alone proves nothing about *who* produced the history: anyone can
re-cons an arbitrary spine and obtain internally consistent digests.
Tamper evidence comes from three cooperating pieces, all owned by the
middleware (the paper's footnote-1 trusted base):

* :class:`KeyRing` — derives one secret HMAC key per principal from a
  master secret and computes **attestation tags**: for a spine node
  whose head event names principal ``a``, the tag is
  ``blake2b(node.digest, key=key(a))``.  Because ``node.digest`` commits
  to the entire history below the node, a valid tag says "``a`` (or the
  middleware acting for ``a``) really extended *this exact* history".
* :class:`AttestationStore` — a weak node→tag map recording the tag of
  every node the middleware stamped.  Weak so attestation never pins
  provenance DAG memory beyond the values that reference it.
* :class:`SpineVerifier` — checks a value's history: a node is good iff
  its recorded tag verifies under its head principal's key *and* its
  tail and nested channel provenance are good.  Verdicts are cached per
  interned node (weakly), so verifying at every hop of an n-hop chain
  does O(1) amortized new work per hop — O(new hops) total, never a full
  re-walk — the cost model gated by ``benchmarks/bench_adversary.py``.

What this detects (and what it cannot): forged origins, spliced or
truncated histories, and replays of genuine history through an
unauthorized door are all caught, because the offender cannot produce
tags for nodes involving any honest principal.  A *coalition signing
only its own events* is indistinguishable from honest operation — with
symmetric per-principal keys, colluders who pool keys can fabricate a
history composed purely of their own hops.  The detectable boundary is
implicating an honest principal; see README, *Threat model & integrity*.
"""

from __future__ import annotations

import weakref
from hashlib import blake2b

from repro.core.names import Principal
from repro.core.provenance import Provenance

__all__ = [
    "KeyRing",
    "AttestationStore",
    "SpineVerifier",
    "TAG_SIZE",
]


TAG_SIZE = 16
"""Bytes per attestation tag (keyed blake2b digest)."""

_KEY_SIZE = 32


class KeyRing:
    """Derives and applies per-principal HMAC keys from a master secret.

    Key derivation is deterministic — ``key(a) = blake2b(master ‖ name)``
    — so two middleware instances (e.g. shards of one deployment) built
    from the same master secret agree on every principal's key without
    any key-exchange protocol.
    """

    __slots__ = ("_master", "_keys")

    def __init__(self, master: bytes | str = b"repro-master-secret") -> None:
        if isinstance(master, str):
            master = master.encode("utf-8")
        self._master = bytes(master)
        self._keys: dict[Principal, bytes] = {}

    @property
    def master(self) -> bytes:
        """The master secret — persisted in durable-run manifests so a
        recovered runtime derives the same per-principal keys."""

        return self._master

    def key_of(self, principal: Principal) -> bytes:
        key = self._keys.get(principal)
        if key is None:
            key = blake2b(
                self._master + b"|" + principal.name.encode("utf-8"),
                digest_size=_KEY_SIZE,
            ).digest()
            self._keys[principal] = key
        return key

    def leak(self, principal: Principal) -> bytes:
        """Hand ``principal``'s key to an adversary (collusion modeling).

        Same bytes as :meth:`key_of`; the separate name keeps attack code
        honest about which accesses model a compromise.
        """

        return self.key_of(principal)

    # -- node attestation ------------------------------------------------

    @staticmethod
    def tag_with(key: bytes, node: Provenance) -> bytes:
        """The attestation tag for ``node`` under an explicit ``key``.

        Exposed so threat-suite adversaries holding a leaked key can
        forge exactly what a colluding principal could forge — and
        nothing more.
        """

        return blake2b(node.digest, key=key, digest_size=TAG_SIZE).digest()

    def attest(self, node: Provenance) -> bytes:
        """Tag ``node`` under its head event's principal key."""

        return self.tag_with(self.key_of(node.head.principal), node)

    def verify_tag(self, node: Provenance, tag: bytes) -> bool:
        return tag == self.attest(node)

    # -- detached payload auth -------------------------------------------

    def sign_payload(self, principal: Principal, data: bytes) -> bytes:
        """HMAC over arbitrary bytes — used for ingress message auth."""

        return blake2b(
            b"payload|" + data, key=self.key_of(principal), digest_size=TAG_SIZE
        ).digest()

    def verify_payload(
        self, principal: Principal, data: bytes, tag: bytes
    ) -> bool:
        return tag == self.sign_payload(principal, data)


class AttestationStore:
    """Weak map from interned spine nodes to their attestation tags.

    Weak so a tag lives exactly as long as its node.  This map is not
    durable: a durable runtime's journal carries the tags of the spine
    nodes each delivery introduces, and recovery rebuilds the store from
    the journal alone (:func:`repro.storage.recover.recover_runtime`).
    """

    __slots__ = ("_tags",)

    def __init__(self) -> None:
        self._tags: "weakref.WeakKeyDictionary[Provenance, bytes]" = (
            weakref.WeakKeyDictionary()
        )

    def record(self, node: Provenance, tag: bytes) -> None:
        self._tags[node] = tag

    def tag(self, node: Provenance) -> bytes | None:
        return self._tags.get(node)

    def __len__(self) -> int:
        return len(self._tags)


class SpineVerifier:
    """Checks whole histories with per-node verdict caching.

    ``verify(κ)`` is True iff every non-empty node reachable from ``κ``
    (down the spine and into nested channel provenances) carries a tag
    that verifies under its head principal's key.  Verdicts are cached in
    a weak per-verifier map keyed by node identity, so repeated
    verification of growing histories — the middleware re-verifying at
    every hop — does new work only for nodes never seen before.

    ``nodes_checked`` / ``cache_hits`` count tag verifications performed
    vs. nodes answered from cache; the runtime surfaces both through
    :class:`~repro.runtime.metrics.RuntimeMetrics` as the verify-cost
    signal (amortized checks per delivery must stay O(1)).
    """

    __slots__ = ("_ring", "_store", "_verdicts", "nodes_checked", "cache_hits")

    def __init__(self, ring: KeyRing, store: AttestationStore) -> None:
        self._ring = ring
        self._store = store
        self._verdicts: "weakref.WeakKeyDictionary[Provenance, bool]" = (
            weakref.WeakKeyDictionary()
        )
        self.nodes_checked = 0
        self.cache_hits = 0

    def attest_chain(self, node: Provenance) -> int:
        """Record tags for every not-yet-attested node under ``node``.

        Walks down the spine (and into nested channel provenances)
        stopping at the first already-attested node — the store's
        invariant is that a tagged node sits on a fully tagged chain, so
        the walk is amortized O(1) per freshly consed node.  Returns the
        number of new tags recorded.  This is how the middleware *adopts*
        histories it constructed itself (stamping, deploy-time literals).
        """

        store, ring = self._store, self._ring
        fresh = 0
        stack = [node]
        while stack:
            cursor = stack.pop()
            while cursor._length and store.tag(cursor) is None:
                store.record(cursor, ring.attest(cursor))
                fresh += 1
                nested = cursor.head.channel_provenance
                if nested._length:
                    stack.append(nested)
                cursor = cursor.tail
        return fresh

    def verify(self, node: Provenance) -> bool:
        """True iff the entire history is attested and untampered.

        Iterative (no recursion — spines reach thousands of hops) with
        memoized verdicts: a node is re-answered from cache, so the cost
        of verifying at hop *n* is proportional to the hops added since
        the last verification, not to *n*.
        """

        if not node._length:
            return True
        verdicts = self._verdicts
        cached = verdicts.get(node)
        if cached is not None:
            self.cache_hits += 1
            return cached
        stack = [node]
        while stack:
            cursor = stack[-1]
            if not cursor._length or verdicts.get(cursor) is not None:
                stack.pop()
                continue
            tail = cursor._tail
            nested = cursor._head.channel_provenance
            pending = [
                child
                for child in (tail, nested)
                if child._length and verdicts.get(child) is None
            ]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            self.nodes_checked += 1
            tag = self._store.tag(cursor)
            good = tag is not None and self._ring.verify_tag(cursor, tag)
            if good and tail._length:
                good = verdicts[tail]
            if good and nested._length:
                good = verdicts[nested]
            verdicts[cursor] = good
        return verdicts[node]

    def first_bad_node(self, node: Provenance) -> Provenance | None:
        """Deepest-first spine node that fails verification, if any.

        Diagnostic helper for quarantine attribution and tests; reuses
        (and fills) the verdict cache.
        """

        if self.verify(node):
            return None
        candidate: Provenance | None = None
        cursor = node
        while cursor._length:
            nested = cursor._head.channel_provenance
            if nested._length and not self.verify(nested):
                inner = self.first_bad_node(nested)
                if inner is not None:
                    candidate = inner
            if not self._verdicts.get(cursor, False):
                candidate = cursor
            cursor = cursor._tail
        return candidate
