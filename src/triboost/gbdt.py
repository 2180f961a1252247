"""Second-order (Newton) gradient-boosted regression trees.

A deliberately small, exact engine: no histogram binning and no row/column
subsampling, so nothing in training is random and it takes no seed.  Split
finding enumerates midpoints between consecutive distinct sorted feature
values and scores them with the usual second-order gain; leaf weights are
``-G/(H + lambda)``.  Objectives are pluggable — anything that maps the
full prediction vector to per-row diagonal gradient/Hessian pairs (see
:class:`Objective`) — which is how the week-coupled losses in
:mod:`triboost.objectives` drive the same engine as plain squared error.

Split search is XGBoost's exact greedy algorithm on column blocks (Chen &
Guestrin 2016, §4.1): ``fit`` argsorts the feature matrix once into a (k, n)
block of row indices, one presorted row per feature, and every tree node
holds its own block, a stable partition of its parent's.  A node of c rows
thus costs O(c·k), and all its features are scanned in a few 2-D passes.

Determinism contract: identical inputs give bit-identical models.
Gradient/Hessian prefix sums are accumulated strictly left to right along
each feature's stable order (``np.cumsum`` along a row, never pairwise),
leaf sums left to right in ascending row order, and ties between candidate
splits resolve to the lowest feature index then the lowest threshold.
Everything runs on the calling thread.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .errors import (
    DegenerateLeafError,
    ObjectiveError,
    PersistenceError,
    ValidationError,
)

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class GradHess:
    """Per-row first/second derivatives of a loss at the current predictions.

    Stored as two aligned vectors.  Hessians must be strictly positive —
    the engine divides by their sums.
    """

    grad: np.ndarray
    hess: np.ndarray

    def __post_init__(self) -> None:
        grad = np.asarray(self.grad, dtype=np.float64)
        hess = np.asarray(self.hess, dtype=np.float64)
        object.__setattr__(self, "grad", grad)
        object.__setattr__(self, "hess", hess)
        if grad.shape != hess.shape or grad.ndim != 1:
            raise ObjectiveError(
                f"grad/hess must be aligned vectors, got {grad.shape} and {hess.shape}"
            )
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
            raise ObjectiveError("non-finite gradient or hessian")
        if np.any(hess <= 0.0):
            bad = int(np.argmax(hess <= 0.0))
            raise ObjectiveError(
                f"non-positive hessian {hess[bad]} at row {bad}; "
                "objectives must return strictly positive second derivatives"
            )

    def __len__(self) -> int:
        return self.grad.shape[0]


class Objective(Protocol):
    """What the boosting loop needs from a loss function.

    ``grad_hess`` is called once per round at the current predictions;
    ``loss`` is only used for curve recording and tests; ``base_score``
    seeds the ensemble (mean of the stage's targets for the built-in
    losses).
    """

    def base_score(self) -> float: ...

    def loss(self, preds: np.ndarray) -> float: ...

    def grad_hess(self, preds: np.ndarray) -> GradHess: ...


@dataclass(frozen=True)
class TrainConfig:
    """Boosting hyperparameters.

    Note the built-in losses carry 1/m or 1/n factors inside their
    gradients, so Hessian sums per leaf are O(rows/n) and ``reg_lambda`` is
    on that same scale: the default 1.0 acts like a per-sample ridge of
    roughly ``n``, i.e. a much stronger damping than the same number means
    in engines with O(1) per-row hessians.  That damping is deliberate — it
    keeps small leaves from chasing individual rows, at the cost of needing
    a few hundred rounds to converge.  All defaults here are tuning choices
    for the bundled synthetic panels, not universal constants.
    """

    num_rounds: int = 300
    max_depth: int = 4
    learning_rate: float = 0.1
    reg_lambda: float = 1.0
    min_child_weight: float = 0.0
    min_gain: float = 0.0

    def __post_init__(self) -> None:
        if self.num_rounds < 1:
            raise ValidationError(f"num_rounds must be >= 1, got {self.num_rounds}")
        if self.max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {self.max_depth}")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValidationError(
                f"learning_rate must be in (0, 1], got {self.learning_rate}"
            )
        if self.reg_lambda < 0.0:
            raise ValidationError(f"reg_lambda must be >= 0, got {self.reg_lambda}")
        if self.min_child_weight < 0.0:
            raise ValidationError(
                f"min_child_weight must be >= 0, got {self.min_child_weight}"
            )
        if self.min_gain < 0.0:
            raise ValidationError(f"min_gain must be >= 0, got {self.min_gain}")


@dataclass(frozen=True)
class SplitCandidate:
    feature: int
    threshold: float
    gain: float


@dataclass(frozen=True)
class SplitNode:
    feature: int
    threshold: float
    left: int
    right: int


@dataclass(frozen=True)
class LeafNode:
    weight: float


@dataclass(frozen=True)
class RegressionTree:
    """One regression tree as a flat node array; node 0 is the root.

    Routing: feature value < threshold goes left, >= threshold goes right.
    """

    nodes: tuple[SplitNode | LeafNode, ...]
    max_depth_reached: int

    def evaluate(self, features: np.ndarray) -> np.ndarray:
        """Per-row raw tree output (no learning rate applied)."""
        out = np.empty(features.shape[0], dtype=np.float64)
        stack: list[tuple[int, np.ndarray]] = [
            (0, np.arange(features.shape[0], dtype=np.intp))
        ]
        while stack:
            idx, rows = stack.pop()
            node = self.nodes[idx]
            if isinstance(node, LeafNode):
                out[rows] = node.weight
            else:
                goes_left = features[rows, node.feature] < node.threshold
                stack.append((node.left, rows[goes_left]))
                stack.append((node.right, rows[~goes_left]))
        return out

    def leaf_count(self) -> int:
        return sum(1 for n in self.nodes if isinstance(n, LeafNode))


@dataclass(frozen=True)
class GbdtModel:
    """A fitted ensemble: prediction = base_score + lr * sum of tree outputs.

    Immutable; prediction is safe under concurrent callers.
    """

    base_score: float
    learning_rate: float
    feature_count: int
    trees: tuple[RegressionTree, ...]

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.feature_count:
            raise ValidationError(
                f"expected feature matrix with {self.feature_count} columns, "
                f"got shape {features.shape}"
            )
        out = np.full(features.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            out += self.learning_rate * tree.evaluate(features)
        return out

    def to_dict(self) -> dict:
        return {
            "version": MODEL_FORMAT_VERSION,
            "base_score": self.base_score,
            "learning_rate": self.learning_rate,
            "feature_count": self.feature_count,
            "trees": [
                {
                    "max_depth_reached": t.max_depth_reached,
                    "nodes": [_node_to_dict(n) for n in t.nodes],
                }
                for t in self.trees
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "GbdtModel":
        try:
            version = doc["version"]
            if version != MODEL_FORMAT_VERSION:
                raise PersistenceError(f"unknown model version {version!r}")
            base_score = float(doc["base_score"])
            learning_rate = float(doc["learning_rate"])
            feature_count = int(doc["feature_count"])
            if not (math.isfinite(base_score) and math.isfinite(learning_rate)):
                raise PersistenceError("non-finite base_score or learning_rate")
            if feature_count < 0:
                raise PersistenceError(f"negative feature_count {feature_count}")
            trees = []
            for tdoc in doc["trees"]:
                nodes = [_node_from_dict(nd) for nd in tdoc["nodes"]]
                _check_tree_shape(nodes, feature_count)
                trees.append(
                    RegressionTree(
                        nodes=tuple(nodes),
                        max_depth_reached=int(tdoc["max_depth_reached"]),
                    )
                )
            return cls(
                base_score=base_score,
                learning_rate=learning_rate,
                feature_count=feature_count,
                trees=tuple(trees),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise PersistenceError(f"malformed model document: {exc}") from exc


def _node_to_dict(node: SplitNode | LeafNode) -> dict:
    if isinstance(node, LeafNode):
        return {"kind": "leaf", "weight": node.weight}
    return {
        "kind": "split",
        "feature": node.feature,
        "threshold": node.threshold,
        "left": node.left,
        "right": node.right,
    }


def _node_from_dict(doc: dict) -> SplitNode | LeafNode:
    kind = doc["kind"]
    if kind == "leaf":
        return LeafNode(weight=float(doc["weight"]))
    if kind == "split":
        return SplitNode(
            feature=int(doc["feature"]),
            threshold=float(doc["threshold"]),
            left=int(doc["left"]),
            right=int(doc["right"]),
        )
    raise PersistenceError(f"unknown node kind {kind!r}")


def _check_tree_shape(nodes: list[SplitNode | LeafNode], feature_count: int) -> None:
    """Prove the node list is a tree rooted at node 0 with every child
    listed after its parent, as ``fit`` writes it: then ``predict`` visits
    each node at most once, so no document can make it loop."""
    if not nodes:
        raise PersistenceError("tree with no nodes")
    n = len(nodes)
    has_parent = [False] * n
    for i, node in enumerate(nodes):
        if isinstance(node, LeafNode):
            if not math.isfinite(node.weight):
                raise PersistenceError(f"node {i}: non-finite weight")
            continue
        if not (0 <= node.left < n and 0 <= node.right < n):
            raise PersistenceError(f"node {i}: child index out of range")
        if node.left == i or node.right == i or node.left == node.right:
            raise PersistenceError(f"node {i}: malformed children")
        if node.left < i or node.right < i:
            raise PersistenceError(f"node {i}: child listed before its parent")
        if not 0 <= node.feature < feature_count:
            raise PersistenceError(
                f"node {i}: feature {node.feature} outside [0, {feature_count})"
            )
        if not math.isfinite(node.threshold):
            raise PersistenceError(f"node {i}: non-finite threshold")
        for child in (node.left, node.right):
            if has_parent[child]:
                raise PersistenceError(f"node {child}: more than one parent")
            has_parent[child] = True
    # Children follow their parents, so a node with a parent is reachable
    # from node 0 by induction; the root cannot have one.
    orphans = [i for i in range(1, n) if not has_parent[i]]
    if orphans:
        raise PersistenceError(f"node {orphans[0]}: unreachable from the root")


def save_model(model: GbdtModel, path: str | Path) -> None:
    """Write a model as JSON.  Floats keep full precision, so a reload
    predicts bit-identically."""
    path = Path(path)
    try:
        text = json.dumps(model.to_dict(), indent=2, sort_keys=True)
        path.write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise PersistenceError(f"cannot write model to {path}: {exc}") from exc


def load_model(path: str | Path) -> GbdtModel:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise PersistenceError(f"cannot read model from {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise PersistenceError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PersistenceError(f"{path}: expected a JSON object")
    return GbdtModel.from_dict(doc)


def leaf_weight(G: float, H: float, reg_lambda: float) -> float:
    """Newton leaf weight -G/(H + lambda)."""
    denom = H + reg_lambda
    if denom <= 0.0:
        raise DegenerateLeafError(
            f"leaf with non-positive hessian sum {H} + lambda {reg_lambda}"
        )
    return -G / denom


def _seq_sum(values: np.ndarray) -> float:
    """Strict left-to-right sum (unlike np.sum's pairwise blocking), so leaf
    statistics are reproducible by any accumulator that walks rows in
    ascending order."""
    if values.shape[0] == 0:
        return 0.0
    return float(np.cumsum(values)[-1])


# Most elements one pass of ``find_best_split`` gathers.  A node of c rows
# scans max(1, SCAN_BUDGET // c) features per pass, so small nodes do every
# feature in one pass and a large node does one feature at a time, with
# temporaries the size of one feature.  2**12 float64s are 32 KiB, within a
# core's 48 KiB L1 data cache on a 2-vCPU Xeon, where this budget scanned
# 600- to 4,910-row nodes of the wide benchmark panel faster than 2**14 to
# 2**17 did.
SCAN_BUDGET = 1 << 12


def find_best_split(
    rows: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    features: np.ndarray,
    config: TrainConfig,
    *,
    block: np.ndarray | None = None,
    columns: np.ndarray | None = None,
) -> SplitCandidate | None:
    """Exhaustive best split over all (feature, midpoint) candidates.

    ``rows`` are the node's row indices; their order and repeats do not
    matter.  ``block`` is the node's presorted column block: a (k, c) array
    whose row f lists the node's c rows in stable ascending order of
    feature f (ties keep ascending row index).  ``columns`` is ``features``
    transposed to a contiguous (k, n) array.  Both are built here when not
    given; ``fit`` passes them in.  The block is scanned in passes of whole
    features, at most ``SCAN_BUDGET`` elements per pass, each pass one 2-D
    gather, cumulative sum and gain evaluation.  Gradient/Hessian prefix
    sums run strictly left to right along each feature's order.

    Returns the maximum-gain candidate whose gain exceeds ``min_gain`` and
    whose children both meet ``min_child_weight``; ties go to the lowest
    feature index, then the lowest threshold.  Returns None when no
    candidate qualifies — a valid outcome, not an error.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if rows.shape[0] == 0:
        raise ValidationError("cannot search for a split over zero rows")
    X = np.asarray(features, dtype=np.float64)
    if columns is None:
        columns = np.ascontiguousarray(X.T)
    if block is None:
        rows = np.unique(rows)
        block = rows[np.argsort(columns[:, rows], axis=1, kind="stable")]
    num_features, c = block.shape
    if c < 2:
        return None
    lam = config.reg_lambda
    min_child = config.min_child_weight
    values = columns.ravel()  # column f starts at values[starts[f]]
    starts = np.arange(num_features)[:, None] * columns.shape[1]
    per_pass = max(1, SCAN_BUDGET // c)

    best: SplitCandidate | None = None
    for f0 in range(0, num_features, per_pass):  # ascending f: ties keep lowest
        idx = block[f0 : f0 + per_pass].astype(np.intp)  # faster gathers
        x = values[idx + starts[f0 : f0 + per_pass]]
        gs = grad[idx].cumsum(axis=1)
        hs = hess[idx].cumsum(axis=1)
        G, H = gs[:, -1:], hs[:, -1:]
        GL, HL = gs[:, :-1], hs[:, :-1]
        GR, HR = G - GL, H - HL
        # 0.5 * (GL²/(HL+λ) + GR²/(HR+λ) - G²/(H+λ)): the same operations
        # in the same order, with fewer temporaries.
        gains = GL * GL
        gains /= HL + lam
        right = GR * GR
        right /= HR + lam
        gains += right
        gains -= G * G / (H + lam)
        gains *= 0.5
        lo, hi = x[:, :-1], x[:, 1:]
        thresholds = 0.5 * (lo + hi)
        # Cut only between distinct values, and never where the midpoint
        # rounds down onto the left value (only possible for adjacent
        # floats): such a threshold would not reproduce the scored
        # partition under the `<` routing rule.
        valid = (lo < hi) & (thresholds > lo)
        if min_child > 0.0:  # else every cut qualifies: HL > 0, and H >= HL
            valid &= (HL >= min_child) & (HR >= min_child)
        gains = np.where(valid, gains, -np.inf)
        f, i = divmod(int(gains.argmax()), c - 1)  # first max: lowest f, then threshold
        gain = float(gains[f, i])
        if gain > (config.min_gain if best is None else best.gain):
            best = SplitCandidate(
                feature=f0 + f, threshold=float(thresholds[f, i]), gain=gain
            )
    return best


def _grow_tree(
    X: np.ndarray,
    columns: np.ndarray,
    presort: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    config: TrainConfig,
) -> tuple[RegressionTree, list[tuple[np.ndarray, float]]]:
    """Grow one tree on fixed grad/hess; returns it plus (rows, weight) per
    leaf so the caller can update predictions without re-routing.

    ``presort`` is the root's column block (see :func:`find_best_split`).
    Each child's block is a stable partition of its parent's, so a node
    costs O(c·k) for its own c rows, and its rows stay in ascending order
    for the leaf sums."""
    nodes: list[SplitNode | LeafNode | None] = []
    leaves: list[tuple[np.ndarray, float]] = []
    deepest = 0
    goes_left = np.zeros(X.shape[0], dtype=bool)  # flags of the node being split

    def build(rows: np.ndarray, block: np.ndarray | None, depth: int) -> int:
        nonlocal deepest
        deepest = max(deepest, depth)
        split = None
        if depth < config.max_depth and rows.shape[0] >= 2:
            split = find_best_split(
                rows, grad, hess, X, config, block=block, columns=columns
            )
        idx = len(nodes)
        if split is None:
            G = _seq_sum(grad[rows])
            H = _seq_sum(hess[rows])
            w = leaf_weight(G, H, config.reg_lambda)
            nodes.append(LeafNode(weight=w))
            leaves.append((rows, w))
            return idx
        nodes.append(None)  # reserve pre-order slot; children follow
        row_left = columns[split.feature, rows] < split.threshold
        blocks: list[np.ndarray | None] = [None, None]  # leaves need no block
        if depth + 1 < config.max_depth:
            goes_left[rows] = row_left
            # np.take/np.compress on the flat block: several times faster
            # than fancy and boolean indexing with int32 indices.
            in_left = goes_left.take(block.ravel())
            k, n_left = block.shape[0], int(np.count_nonzero(row_left))
            blocks = [
                np.compress(~in_left, block.ravel()).reshape(k, rows.shape[0] - n_left),
                np.compress(in_left, block.ravel()).reshape(k, n_left),
            ]
            del in_left
        # Popped straight into the calls, so a child's block is owned by its
        # own frame and freed once it is split in turn.
        del block
        left = build(rows[row_left], blocks.pop(), depth + 1)
        right = build(rows[~row_left], blocks.pop(), depth + 1)
        nodes[idx] = SplitNode(
            feature=split.feature,
            threshold=split.threshold,
            left=left,
            right=right,
        )
        return idx

    build(np.arange(X.shape[0], dtype=np.intp), presort, 0)
    # ``build`` refers to itself through its closure; break that cycle, or
    # the round's gradients, blocks and leaf rows stay alive until the
    # cyclic garbage collector happens to run.
    del build
    return RegressionTree(nodes=tuple(nodes), max_depth_reached=deepest), leaves


def fit(
    features: np.ndarray,
    objective: Objective,
    config: TrainConfig,
    *,
    loss_history: list[float] | None = None,
) -> GbdtModel:
    """Train an ensemble of ``num_rounds`` trees against ``objective``.

    Each round re-evaluates gradients/Hessians at the current predictions,
    grows one tree maximizing Newton gain, and advances predictions by
    ``learning_rate`` times the leaf weights.  If ``loss_history`` is a
    list, the objective's loss is appended before the first round and after
    every round (length num_rounds + 1).

    The feature matrix is transposed once per fit into contiguous (k, n)
    columns and argsorted into a (k, n) int32 column block, which every
    tree partitions node by node (see :func:`_grow_tree`).  Training runs
    on the calling thread.
    """
    X = np.ascontiguousarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValidationError(f"expected a non-empty 2-D feature matrix, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValidationError("feature matrix contains non-finite values")
    n = X.shape[0]
    columns = np.ascontiguousarray(X.T)
    presort = np.argsort(columns, axis=1, kind="stable").astype(np.int32)
    base = float(objective.base_score())
    preds = np.full(n, base, dtype=np.float64)
    if loss_history is not None:
        loss_history.append(float(objective.loss(preds)))

    trees: list[RegressionTree] = []
    for _ in range(config.num_rounds):
        gh = objective.grad_hess(preds)
        if len(gh) != n:
            raise ObjectiveError(
                f"objective returned {len(gh)} grad/hess pairs for {n} rows"
            )
        tree, leaves = _grow_tree(X, columns, presort, gh.grad, gh.hess, config)
        for rows, w in leaves:
            preds[rows] += config.learning_rate * w
        trees.append(tree)
        if loss_history is not None:
            loss_history.append(float(objective.loss(preds)))

    return GbdtModel(
        base_score=base,
        learning_rate=config.learning_rate,
        feature_count=X.shape[1],
        trees=tuple(trees),
    )
