"""Simulated distributed runtime: the trusted-middleware deployment."""

from repro.runtime.adversary import (
    ATTACK_MIXES,
    AttackOutcome,
    CollusionAdversary,
    ForgingAdversary,
    GarblingAdversary,
    SplicingAdversary,
    TruncatingAdversary,
    run_threat_suite,
)
from repro.core.errors import ShardLostError
from repro.runtime.metrics import DeliveryRecord, RuntimeMetrics
from repro.runtime.middleware import (
    ChannelManager,
    Middleware,
    PendingReceive,
    ReceiveBranch,
)
from repro.runtime.network import (
    ZERO_LATENCY,
    FaultInjector,
    FaultPlan,
    KeyedLatencySampler,
    LatencyModel,
    Network,
)
from repro.runtime.node import Node
from repro.runtime.runtime import DistributedRuntime
from repro.runtime.shards import (
    Partitioner,
    ShardedRuntime,
    ShardPlan,
    ShardRouter,
    WireEnvelope,
)
from repro.runtime.simulator import SequenceSource, Simulator
from repro.runtime.wire import Codec, decode_plain, encode_plain

__all__ = [name for name in dir() if not name.startswith("_")]
