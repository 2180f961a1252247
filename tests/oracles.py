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

import math
from pathlib import Path

import numpy as np

from triboost.errors import SchemaError, ValidationError
from triboost.gbdt import (
    MODEL_FORMAT_VERSION,
    GbdtModel,
    LeafNode,
    SplitNode,
    TrainConfig,
)
from triboost.panel import (
    PANEL_COLUMNS,
    PanelDataset,
    _parse_blank_or_float,
    _parse_float,
    _parse_int,
    _read_csv,
)
from triboost.scenario import _ATTRACT_PROXY_SD, _FEATURE_NAMES, ScenarioConfig


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
    gain must exceed 0, the midpoint must lie above the left value, ties
    resolve to the lowest feature then the lowest threshold."""
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
            lo, hi = float(xs[i]), float(xs[i + 1])
            if math.isfinite(lo + hi):
                threshold = 0.5 * (lo + hi)
            else:  # the sum overflows: halve each value first
                threshold = 0.5 * lo + 0.5 * hi
            if not threshold > xs[i]:  # midpoint collapsed onto left value
                continue
            GR = G - GL
            HR = H - HL
            gain = 0.5 * (
                GL * GL / (HL + lam) + GR * GR / (HR + lam) - G * G / (H + lam)
            )
            if gain <= 0.0:
                continue
            if best is None or gain > best[2]:
                best = (f, threshold, gain)
    return best


def node_block(rows, X) -> dict:
    """The ``block`` and ``columns`` keywords ``fit`` passes
    ``find_best_split`` for a node of ``rows``: the features transposed, and
    an int32 block listing the node's rows in stable ascending order of each
    feature."""
    columns = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
    node = np.unique(np.asarray(rows, dtype=np.intp))
    block = node[np.argsort(columns[:, node], axis=1, kind="stable")]
    return {"block": block.astype(np.int32), "columns": columns}


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
# model document


def model_document(model: GbdtModel) -> dict:
    """The JSON document of a model, built as nested dicts: ``save_model``
    must write ``json.dumps(model_document(model), indent=2, sort_keys=True)``
    plus a newline, and ``GbdtModel.from_dict`` must read it back."""
    def node_doc(node):
        if isinstance(node, LeafNode):
            return {"kind": "leaf", "weight": node.weight}
        return {
            "kind": "split",
            "feature": node.feature,
            "threshold": node.threshold,
            "left": node.left,
            "right": node.right,
        }

    return {
        "version": MODEL_FORMAT_VERSION,
        "base_score": model.base_score,
        "learning_rate": model.learning_rate,
        "feature_count": model.feature_count,
        "trees": [
            {
                "max_depth_reached": t.max_depth_reached,
                "nodes": [node_doc(n) for n in t.nodes],
            }
            for t in model.trees
        ],
    }


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


# ---------------------------------------------------------------------------
# panel CSV reader, one cell at a time


def reference_load_panel_csv(paths) -> PanelDataset:
    """Load panel CSVs row by row and cell by cell, sort the rows with
    ``sorted`` over ``(week, product_id)`` tuples, and build the dataset
    with ``PanelDataset.from_columns``: the reader ``load_panel_csv`` must
    agree with, dataset and error message alike."""
    if isinstance(paths, (str, Path)):
        paths = [paths]
    if not paths:
        raise ValidationError("no input files given")
    feature_names = None
    products, weeks, sales, totals, features = [], [], [], [], []
    categories = set()
    for path in paths:
        path = Path(path)
        rows = _read_csv(path, PANEL_COLUMNS)
        header = next(rows)
        col = {name: i for i, name in enumerate(header)}
        names = [n for n in header if n not in PANEL_COLUMNS and n != "category"]
        for lineno, row in rows:
            products.append(row[col["product_id"]])
            weeks.append(_parse_int(row[col["week"]], path, lineno, "week"))
            sales.append(_parse_blank_or_float(row[col["sales"]], path, lineno, "sales"))
            totals.append(_parse_blank_or_float(
                row[col["category_total"]], path, lineno, "category_total"))
            features.append([_parse_float(row[col[n]], path, lineno, n) for n in names])
            if "category" in col:
                categories.add(row[col["category"]])
        if feature_names is None:
            feature_names = names
        elif names != feature_names:
            raise SchemaError(
                f"{path}: feature columns {names} do not match {feature_names}"
            )
    if len(categories) > 1:
        raise ValidationError(
            f"multiple categories {sorted(categories)}; one category per dataset"
        )
    order = sorted(range(len(weeks)), key=list(zip(weeks, products)).__getitem__)
    matrix = np.array(features, dtype=np.float64).reshape(len(order), len(feature_names))
    return PanelDataset.from_columns(
        [products[i] for i in order],
        [weeks[i] for i in order],
        matrix[order],
        [sales[i] for i in order],
        feature_names,
        [totals[i] for i in order],
    )


# ---------------------------------------------------------------------------
# scenario generator, one week at a time


def reference_generate(config: ScenarioConfig) -> tuple[PanelDataset, np.ndarray]:
    """Draw a scenario one week at a time: the same random draws and entrant
    calibration as ``scenario.generate``, then, for each week, the softmax
    over the products on sale, the noise, both share sums as ``np.sum`` of
    the week's 1-D share vector, the pinning of the last member and the
    recorded total; then every row's features with Python scalars.  Returns
    the dataset and the future rows' true sales, which ``generate`` must
    reproduce bit for bit."""
    rng = np.random.default_rng(config.seed)
    P = config.num_products
    hist = config.num_weeks_hist
    T = hist + config.num_weeks_future
    pids = config.product_ids()
    launch_week = np.zeros(P, dtype=np.intp)
    for pid, week in config.launch_schedule.items():
        launch_week[pids.index(pid)] = week

    base_alpha = rng.normal(0.0, 0.6, P)
    drift = rng.normal(0.0, 0.25, P)
    proxy_noise = rng.normal(0.0, 1.0, (T, P)) * _ATTRACT_PROXY_SD
    share_noise = rng.normal(0.0, 1.0, (T, P))
    denom = float(T - 1) if T > 1 else 1.0
    d = config.share_decay_on_launch
    for pid, L in sorted(config.launch_schedule.items(), key=lambda kv: kv[1]):
        i = pids.index(pid)
        incumbents = [j for j in range(P) if launch_week[j] < L and j != i]
        mass = sum(math.exp(base_alpha[j] + drift[j] * (L / denom)) for j in incumbents)
        base_alpha[i] = math.log(d / (1.0 - d) * mass) - drift[i] * (L / denom)

    curve = config.curve.totals(T)
    sales = np.zeros((T, P))
    recorded_totals = np.zeros(T)
    for w in range(T):
        active = np.nonzero(launch_week <= w)[0]
        a = base_alpha[active] + drift[active] * (w / denom)
        ex = np.exp(a)
        share = ex / np.sum(ex)
        if config.noise_sd > 0:
            share = share * np.exp(config.noise_sd * share_noise[w, active])
            share = share / np.sum(share)
        week_sales = share * curve[w]
        if week_sales.shape[0] > 1:
            head = float(np.cumsum(week_sales[:-1])[-1])
            week_sales[-1] = curve[w] - head
        else:
            week_sales[0] = curve[w]
        sales[w, active] = week_sales
        recorded_totals[w] = float(np.cumsum(sales[w, active])[-1])

    events = sorted({0, *config.launch_schedule.values()})
    bias = 1.0 + config.stage1_bias_injection
    ids, weeks, features, row_sales, totals = [], [], [], [], []
    for w in range(T):
        later = [e for e in events if e > w]
        for p in range(P):
            L = int(launch_week[p])
            if L > w:
                continue
            lag = 0.0 if L == w else float(sales[min(max(w - 1, 0), hist - 1), p])
            if w >= hist:
                lag = lag * bias
            proxy = float(base_alpha[p]) + float(drift[p]) * (w / denom) + float(proxy_noise[w, p])
            ids.append(pids[p])
            weeks.append(w)
            features.append([
                w - L,
                w - max(e for e in events if e <= w),
                later[0] - w if later else T,
                lag,
                proxy,
            ])
            row_sales.append(float(sales[w, p]))
            totals.append(float(recorded_totals[w]))
    m = sum(1 for w in weeks if w < hist)
    dataset = PanelDataset.from_columns(
        ids, weeks, features, row_sales[:m] + [None] * (len(ids) - m),
        _FEATURE_NAMES, [None] * m + totals[m:],
    )
    return dataset, np.array(row_sales[m:])
