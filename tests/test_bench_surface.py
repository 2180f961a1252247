"""The benchmark under ``bench/`` imports the program by name and its
tracer rebinds named functions; a rename in ``src/`` that it depends on
must fail here, not only when the benchmark runs."""

import sys
from pathlib import Path

import pytest

import triboost

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    return tracing, workloads


def _triboost_bindings() -> dict[tuple[str, str], object]:
    return {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name.partition(".")[0] == "triboost"
        for key, value in vars(module).items()
    }


def test_workloads_read_the_stage_list(bench):
    _, workloads = bench
    assert workloads.STAGES == triboost.pipeline.STAGES
    assert set(workloads.WORKLOADS) == {"default-cli", "tall-train", "wide-cascade"}


def test_tracer_wraps_every_layer_and_restores_it(bench):
    tracing, _ = bench
    layers = {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in tracing.LAYERS}
    before = _triboost_bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert all(owner.__dict__[attr] is not raw for (owner, attr), raw in layers.items())
    finally:
        tracer.close()
    assert all(owner.__dict__[attr] is raw for (owner, attr), raw in layers.items())
    after = _triboost_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
