"""E13 (§5 overhead): measured provenance metadata cost in the runtime.

The simulated middleware serializes everything it ships, so byte counts
are real.  Two series over relay pipelines of growing depth:

* wire bytes, TRACKED vs ERASED — the metadata tax;
* provenance spine length at delivery — grows ``2·hop`` exactly, so the
  per-message tax grows linearly with pipeline depth (quadratic in total
  over a whole pipeline run, since every hop re-ships the accumulated
  history).

This is the measurement the paper's §5 gestures at when motivating a
static alternative to dynamic tracking.
"""

import pytest

from repro.core.semantics import SemanticsMode
from repro.lang import parse_system, pretty_system
from repro.runtime import DistributedRuntime
from repro.workloads import relay_chain

from conftest import record_row

HOPS = [2, 8, 32]


def chain_source(hops: int) -> str:
    return pretty_system(relay_chain(hops).system)


@pytest.mark.parametrize("hops", HOPS)
@pytest.mark.parametrize("mode", ["tracked", "erased"])
def test_pipeline_on_runtime(benchmark, hops, mode):
    semantics = SemanticsMode.TRACKED if mode == "tracked" else SemanticsMode.ERASED
    source = chain_source(hops)

    def deploy_and_run():
        runtime = DistributedRuntime(seed=13, mode=semantics)
        runtime.deploy(parse_system(source))
        runtime.run()
        return runtime

    runtime = benchmark(deploy_and_run)
    summary = runtime.metrics.summary()
    assert summary["deliveries"] == hops + 1
    record_row(
        "E13-overhead",
        f"hops={hops:3d} mode={mode:7s}: total={summary['bytes_total']:6d}B "
        f"provenance={summary['bytes_provenance']:6d}B "
        f"(ratio {summary['provenance_overhead_ratio']:.2f}) "
        f"max spine={summary['max_provenance_spine']}",
    )


@pytest.mark.parametrize("hops", HOPS)
def test_serialization_cost_at_depth(benchmark, hops):
    """Encoding one fully-grown annotated value (the hot codec path)."""

    from repro.core.engine import run as engine_run
    from repro.core.system import located_components
    from repro.core.process import annotated_values
    from repro.runtime.wire import Codec

    workload = relay_chain(hops)
    trace = engine_run(workload.system)
    value = max(
        (
            v
            for c in located_components(trace.final)
            for v in annotated_values(c.process)
        ),
        key=lambda v: len(v.provenance),
    )
    def encode() -> bytes:
        body, _ = Codec().encode_payload((value,))  # one-shot: fresh tables
        return body

    encoded = benchmark(encode)
    record_row(
        "E13-overhead",
        f"encode hops={hops:3d}: value+provenance = {len(encoded)} bytes",
    )
