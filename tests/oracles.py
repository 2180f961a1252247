"""Independent reference implementations the test suite checks against.

Everything here is written the slow, obvious way — scalar loops, explicit
enumeration of every split candidate, plain Python float accumulation in
ascending row order — so that agreement with the vectorized engine is
meaningful.  The one algebraic convention shared with the engine is that
right-child statistics are the complement of the left prefix (``G_R = G -
G_L``), which is part of the split-scan contract under test, and that the
gain expression is evaluated in the same written order; both sides are IEEE
doubles, so agreement can be asserted bitwise, not just approximately.
"""

from __future__ import annotations

import numpy as np

from triboost.gbdt import GbdtModel, LeafNode, SplitNode, TrainConfig


def seq_sum(values) -> float:
    total = 0.0
    for v in values:
        total += float(v)
    return total


# ---------------------------------------------------------------------------
# brute-force split search / tree growth / boosting for squared error


def brute_force_split(rows, grad, hess, X, config: TrainConfig):
    """Enumerate every (feature, midpoint) candidate; return the best as a
    (feature, threshold, gain) tuple or None, under the engine's contract:
    gain must exceed min_gain, both children must meet min_child_weight,
    ties resolve to the lowest feature then the lowest threshold."""
    best = None
    for f in range(X.shape[1]):
        ordered = sorted(rows, key=lambda r: (X[r, f], r))
        xs = [X[r, f] for r in ordered]
        G = seq_sum(grad[r] for r in ordered)
        H = seq_sum(hess[r] for r in ordered)
        lam = config.reg_lambda
        GL = 0.0
        HL = 0.0
        for i in range(len(ordered) - 1):
            GL += float(grad[ordered[i]])
            HL += float(hess[ordered[i]])
            if xs[i] == xs[i + 1]:
                continue
            threshold = 0.5 * (xs[i] + xs[i + 1])
            if not threshold > xs[i]:  # midpoint collapsed onto left value
                continue
            GR = G - GL
            HR = H - HL
            if HL < config.min_child_weight or HR < config.min_child_weight:
                continue
            gain = 0.5 * (
                GL * GL / (HL + lam) + GR * GR / (HR + lam) - G * G / (H + lam)
            )
            if gain <= config.min_gain:
                continue
            if best is None or gain > best[2]:
                best = (f, threshold, gain)
    return best


def brute_force_leaf(rows, grad, hess, config: TrainConfig) -> float:
    G = seq_sum(grad[r] for r in rows)
    H = seq_sum(hess[r] for r in rows)
    return -G / (H + config.reg_lambda)


def brute_force_tree(rows, grad, hess, X, config: TrainConfig, depth: int = 0):
    """Nested-dict tree mirroring the engine's growth rules."""
    split = None
    if depth < config.max_depth and len(rows) >= 2:
        split = brute_force_split(rows, grad, hess, X, config)
    if split is None:
        return {"leaf": brute_force_leaf(rows, grad, hess, config)}
    f, threshold, gain = split
    left_rows = [r for r in rows if X[r, f] < threshold]
    right_rows = [r for r in rows if not X[r, f] < threshold]
    return {
        "feature": f,
        "threshold": threshold,
        "gain": gain,
        "left": brute_force_tree(left_rows, grad, hess, X, config, depth + 1),
        "right": brute_force_tree(right_rows, grad, hess, X, config, depth + 1),
    }


def brute_force_fit_squared_error(X, y, config: TrainConfig):
    """Boost ``config.num_rounds`` trees against mean squared error.

    Returns (base_score, list of nested-dict trees, final per-row preds).
    Gradients are the same 1/m-scaled ones the stage-1 objective uses.
    """
    n = len(y)
    base = float(np.mean(y))
    preds = [base] * n
    trees = []
    for _ in range(config.num_rounds):
        grad = np.array([-2.0 * (y[i] - preds[i]) / n for i in range(n)])
        hess = np.array([2.0 / n] * n)
        tree = brute_force_tree(list(range(n)), grad, hess, X, config)
        trees.append(tree)
        for i in range(n):
            preds[i] += config.learning_rate * _eval_dict_tree(tree, X[i])
    return base, trees, preds


def brute_force_fit(X, objective, config: TrainConfig):
    """Boost ``config.num_rounds`` trees against any objective, calling its
    ``grad_hess`` once per round at the running predictions.

    Returns (base_score, list of nested-dict trees, final per-row preds).
    """
    n = X.shape[0]
    base = float(objective.base_score())
    preds = [base] * n
    trees = []
    for _ in range(config.num_rounds):
        gh = objective.grad_hess(np.array(preds))
        tree = brute_force_tree(list(range(n)), gh.grad, np.full(n, gh.hess), X, config)
        trees.append(tree)
        for i in range(n):
            preds[i] += config.learning_rate * _eval_dict_tree(tree, X[i])
    return base, trees, preds


def _eval_dict_tree(tree, x) -> float:
    while "leaf" not in tree:
        tree = tree["left"] if x[tree["feature"]] < tree["threshold"] else tree["right"]
    return tree["leaf"]


def assert_same_tree(engine_tree, oracle_tree, node_idx: int = 0, where: str = "root"):
    """Structural, bitwise comparison of an engine tree against an oracle
    nested-dict tree."""
    node = engine_tree.nodes[node_idx]
    if "leaf" in oracle_tree:
        assert isinstance(node, LeafNode), f"{where}: engine split, oracle leaf"
        assert node.weight == oracle_tree["leaf"], (
            f"{where}: leaf weight {node.weight!r} != {oracle_tree['leaf']!r}"
        )
        return
    assert isinstance(node, SplitNode), f"{where}: engine leaf, oracle split"
    assert node.feature == oracle_tree["feature"], f"{where}: feature differs"
    assert node.threshold == oracle_tree["threshold"], (
        f"{where}: threshold {node.threshold!r} != {oracle_tree['threshold']!r}"
    )
    assert_same_tree(engine_tree, oracle_tree["left"], node.left, where + ".L")
    assert_same_tree(engine_tree, oracle_tree["right"], node.right, where + ".R")


def assert_same_model(model: GbdtModel, base, oracle_trees):
    assert model.base_score == base
    assert len(model.trees) == len(oracle_trees)
    for r, (engine_tree, oracle_tree) in enumerate(zip(model.trees, oracle_trees)):
        assert_same_tree(engine_tree, oracle_tree, where=f"round{r}")


# ---------------------------------------------------------------------------
# finite differences


def fd_gradient(loss_fn, preds: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar loss over the prediction
    vector.  Exact (up to roundoff) for the quadratic losses under test."""
    preds = np.asarray(preds, dtype=np.float64)
    out = np.empty_like(preds)
    for i in range(preds.shape[0]):
        up = preds.copy()
        dn = preds.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (loss_fn(up) - loss_fn(dn)) / (2.0 * h)
    return out


def fd_hessian_diag(loss_fn, preds: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Second central difference along each coordinate."""
    preds = np.asarray(preds, dtype=np.float64)
    mid = loss_fn(preds)
    out = np.empty_like(preds)
    for i in range(preds.shape[0]):
        up = preds.copy()
        dn = preds.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (loss_fn(up) - 2.0 * mid + loss_fn(dn)) / (h * h)
    return out


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / scale))
