"""The benchmark under ``bench/`` imports the program by name and its
tracer rebinds named functions; a rename in ``src/`` that it depends on
must fail here, not only when the benchmark runs."""

import sys
from pathlib import Path

import numpy as np
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


def test_tracer_counts_the_split_search(bench):
    # The tracer counts a search's rows as the length of find_best_split's
    # first positional argument; the nodes it searched are the tree's
    # splits and the leaves above max_depth that hold two rows or more.
    tracing, _ = bench
    dataset, _ = triboost.scenario.generate(triboost.ScenarioConfig())
    X = dataset.features[: dataset.m]
    objective = triboost.objectives.Stage1Objective(
        triboost.objectives.StageTargets(dataset.actuals))
    cfg = triboost.TrainConfig(num_rounds=1, max_depth=6)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with tracer.active("job", "fit"):
            (tree,) = triboost.gbdt.fit(X, objective, cfg).model.trees
    finally:
        tracer.close()
    searched, rows, found = 0, 0, 0
    stack = [(0, np.arange(len(X)), 0)]
    while stack:
        idx, node_rows, depth = stack.pop()
        node = tree.nodes[idx]
        if isinstance(node, triboost.gbdt.SplitNode):
            left = X[node_rows, node.feature] < node.threshold
            stack += [(node.left, node_rows[left], depth + 1),
                      (node.right, node_rows[~left], depth + 1)]
        if depth < cfg.max_depth and len(node_rows) >= 2:
            searched += 1
            rows += len(node_rows)
            found += isinstance(node, triboost.gbdt.SplitNode)
    assert found == sum(isinstance(node, triboost.gbdt.SplitNode) for node in tree.nodes)
    assert 0 < found < searched  # some nodes searched and left as leaves
    assert dict(tracer.counts["job"]) == {"split_found": found, "split_rows": rows}
    calls = [span for span in tracer.spans if span[0] == "gbdt.find_best_split"]
    assert len(calls) == searched
