"""Second-order (Newton) gradient-boosted regression trees.

A deliberately small, exact engine: no histogram binning and no row/column
subsampling, so nothing in training is random and it takes no seed.  Split
finding enumerates midpoints between consecutive distinct sorted feature
values and scores them with the usual second-order gain; leaf weights are
``-G/(H + lambda)``.  Objectives are pluggable — anything that maps the
full prediction vector to per-row gradients and one diagonal Hessian shared
by every row (see :class:`Objective`) — which is how the week-coupled
losses in :mod:`triboost.objectives` drive the same engine as plain squared
error.

Split search is XGBoost's exact greedy algorithm on column blocks (Chen &
Guestrin 2016, §4.1): ``fit`` argsorts the feature matrix once into a (k, n)
block of row indices, one presorted row per feature, and every tree node
holds its own block, a stable partition of its parent's.  A node of c rows
thus costs O(c·k), and all its features are scanned in a few 2-D passes.

Determinism contract: identical inputs give bit-identical models.
Gradient prefix sums are accumulated strictly left to right along each
feature's stable order (``np.cumsum`` along a row, never pairwise), leaf
sums left to right in ascending row order, and ties between candidate
splits resolve to the lowest feature index then the lowest threshold.  A
round's Hessian h is one number for every row, so ``fit`` takes its
left-to-right prefix sum once (``np.full(n, h).cumsum()``) and every node
and leaf reads its Hessian sums from that vector: every order of equal
values has the same prefix, so no feature needs its own.  A cut's midpoint
must lie above its left value, which only adjacent floats can fail; the
scan checks that at the winning cut alone and falls back to the next best,
which picks what checking every cut would.  Everything runs on the calling
thread.
"""

from __future__ import annotations

import json
import math
import numbers
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
    """First and second derivatives of a loss at the current predictions.

    ``grad`` is one entry per row.  ``hess`` is one number, the diagonal
    Hessian shared by every row; it must be finite and strictly positive,
    since the engine divides by its sums.
    """

    grad: np.ndarray
    hess: float

    def __post_init__(self) -> None:
        grad = np.asarray(self.grad, dtype=np.float64)
        object.__setattr__(self, "grad", grad)
        if grad.ndim != 1:
            raise ObjectiveError(f"grad must be a vector, got shape {grad.shape}")
        if not np.all(np.isfinite(grad)):
            raise ObjectiveError("non-finite gradient")
        hess = self.hess
        if isinstance(hess, bool) or not isinstance(hess, numbers.Real):
            raise ObjectiveError(
                f"hess must be one number shared by every row, got {type(hess).__name__}"
            )
        hess = float(hess)
        if not 0.0 < hess < math.inf:  # false for NaN
            raise ObjectiveError(
                f"hessian {hess}; objectives must return a finite, strictly "
                "positive second derivative"
            )
        object.__setattr__(self, "hess", hess)

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
    gradients, so one row's Hessian is 2/m in stage 1 and 4/n in stages
    2–3, and ``reg_lambda`` is in those units: it weighs as much as
    ``reg_lambda * m / 2`` rows in stage 1 and ``reg_lambda * n / 4`` rows
    in stages 2–3.  The default 1.0 is thus 160 and 105 rows on the
    default panel (m = 320, n = 420), 2,205 and 1,227.5 on the benchmark's
    wide-cascade panel (m = 4,410, n = 4,910), and 44,910 and 22,505 on its
    tall-train panel (m = 89,820, n = 90,020): a much stronger damping than
    the same number means in engines with O(1) per-row hessians.
    That damping is deliberate — it keeps small leaves from chasing
    individual rows, at the cost of needing a few hundred rounds to
    converge.  All defaults here are tuning choices for the bundled
    synthetic panels, not universal constants.

    There is no minimum child weight or minimum gain: a node splits at its
    best cut of positive gain, down to ``max_depth``.  Every row shares one
    Hessian per round, so a Hessian floor would stand for a different row
    count in each stage.  ``num_rounds`` and ``max_depth`` are integers
    (``numbers.Integral``, numpy's included, but not ``bool``).
    """

    num_rounds: int = 300
    max_depth: int = 4
    learning_rate: float = 0.1
    reg_lambda: float = 1.0

    def __post_init__(self) -> None:
        for name in ("num_rounds", "max_depth"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if self.num_rounds < 1:
            raise ValidationError(f"num_rounds must be >= 1, got {self.num_rounds}")
        if self.max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {self.max_depth}")
        if not (0.0 < self.learning_rate <= 1.0):
            raise ValidationError(
                f"learning_rate must be in (0, 1], got {self.learning_rate}"
            )
        if not 0.0 <= self.reg_lambda < math.inf:
            raise ValidationError(
                f"reg_lambda must be finite and >= 0, got {self.reg_lambda}"
            )


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

    @classmethod
    def from_dict(cls, doc: dict) -> "GbdtModel":
        try:
            version = _json_int(doc, "version")
            if version != MODEL_FORMAT_VERSION:
                raise PersistenceError(f"unknown model version {version!r}")
            base_score = _json_number(doc, "base_score")
            learning_rate = _json_number(doc, "learning_rate")
            feature_count = _json_int(doc, "feature_count")
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
                        max_depth_reached=_json_int(tdoc, "max_depth_reached"),
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


@dataclass(frozen=True)
class StageFit:
    """A trained model, its predictions (:func:`fit`'s on its training
    rows, a pipeline stage's on every row of the panel) and the loss
    recorded before round 1 and after every round."""

    preds: np.ndarray
    model: GbdtModel
    loss_curve: tuple[float, ...]


def _node_from_dict(doc: dict) -> SplitNode | LeafNode:
    kind = doc["kind"]
    if kind == "leaf":
        return LeafNode(weight=_json_number(doc, "weight"))
    if kind == "split":
        return SplitNode(
            feature=_json_int(doc, "feature"),
            threshold=_json_number(doc, "threshold"),
            left=_json_int(doc, "left"),
            right=_json_int(doc, "right"),
        )
    raise PersistenceError(f"unknown node kind {kind!r}")


def _json_int(doc: dict, key: str) -> int:
    """``doc[key]`` if it is a JSON integer: a float, a string or a ``bool``
    (``json`` reads ``true`` as one) is malformed, not coerced by ``int()``."""
    value = doc[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be a JSON integer, got {value!r}")
    return value


def _json_number(doc: dict, key: str) -> float:
    """``doc[key]`` as a float if it is a JSON number: not a string or a ``bool``."""
    value = doc[key]
    if type(value) not in (int, float):
        raise TypeError(f"{key} must be a JSON number, got {value!r}")
    return float(value)


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


def _json_float(x: float) -> str:
    """A float as ``json.dumps`` writes it: ``float.__repr__`` (plain
    ``repr`` of a numpy float names its type), or NaN/Infinity/-Infinity."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


_LEAF_TEXT = '        {\n          "kind": "leaf",\n          "weight": %s\n        }'
_SPLIT_TEXT = (
    '        {\n          "feature": %d,\n          "kind": "split",\n'
    '          "left": %d,\n          "right": %d,\n          "threshold": %s\n        }'
)


def _tree_text(tree: RegressionTree) -> str:
    """One tree as it appears in the ``"trees"`` list of a saved model."""
    nodes = ",\n".join(
        _LEAF_TEXT % _json_float(node.weight)
        if isinstance(node, LeafNode)
        else _SPLIT_TEXT
        % (node.feature, node.left, node.right, _json_float(node.threshold))
        for node in tree.nodes
    )
    return (
        f'    {{\n      "max_depth_reached": {tree.max_depth_reached:d},\n'
        f'      "nodes": [\n{nodes}\n      ]\n    }}'
    )


def save_model(model: GbdtModel, path: str | Path) -> None:
    """Write a model as JSON.  Floats keep full precision, so a reload
    predicts bit-identically.

    The file is written tree by tree straight from the nodes, one string per
    tree, as ``json.dumps(..., indent=2, sort_keys=True)`` plus a newline
    would write the document :meth:`GbdtModel.from_dict` reads: ``version``,
    ``base_score``, ``learning_rate``, ``feature_count`` and ``trees``, each
    tree its ``max_depth_reached`` and its ``nodes`` in pre-order, a leaf
    ``{"kind": "leaf", "weight"}`` and a split ``{"kind": "split",
    "feature", "threshold", "left", "right"}``.  Keys are sorted, floats are
    ``float.__repr__`` (NaN and the infinities as ``json`` writes them).
    Any ``OSError`` is a :class:`PersistenceError` naming the path."""
    path = Path(path)
    head = (
        f'{{\n  "base_score": {_json_float(model.base_score)},\n'
        f'  "feature_count": {model.feature_count:d},\n'
        f'  "learning_rate": {_json_float(model.learning_rate)},\n'
    )
    tail = f'  "version": {MODEL_FORMAT_VERSION:d}\n}}\n'
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(head)
            if model.trees:
                fh.write('  "trees": [\n')
                for i, tree in enumerate(model.trees):
                    fh.write((",\n" if i else "") + _tree_text(tree))
                fh.write("\n  ],\n")
            else:
                fh.write('  "trees": [],\n')
            fh.write(tail)
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
    hess_prefix: np.ndarray,
    config: TrainConfig,
    *,
    block: np.ndarray,
    columns: np.ndarray,
) -> SplitCandidate | None:
    """Exhaustive best split over all (feature, midpoint) candidates.

    ``rows`` are the node's c row indices.  ``block`` is the node's
    presorted column block: a (k, c) array whose row f lists those rows in
    stable ascending order of feature f (ties keep ascending row index).
    ``columns`` is the feature matrix transposed to a contiguous (k, n)
    array.  ``fit`` builds both, and :func:`_grow_tree` each child's block.
    The block is scanned in passes of whole features, at most
    ``SCAN_BUDGET`` elements per pass, each pass one 2-D gather, cumulative
    sum and gain evaluation.  Gradient prefix sums run strictly left to
    right along each feature's order.

    Every row has the same Hessian h, and ``hess_prefix`` is
    ``np.full(n, h).cumsum()`` for any n >= c.  Every order of equal values
    has that same left-to-right prefix, so a node takes its Hessian sums
    from it once, not once per feature: ``hess_prefix[:c - 1]`` left of
    each cut, ``hess_prefix[c - 1]`` in all.

    Returns the maximum-gain candidate of gain > 0; ties go to the lowest
    feature index, then the lowest threshold.  A cut lies between two
    distinct values, at their midpoint, and the midpoint must lie above
    the left value, which fails only for adjacent floats.  That last rule
    is checked at the winner alone: a winner that fails it is dropped and
    the next best taken, so the result is the same as checking every
    candidate.  The midpoint is ``0.5 * (lo + hi)``, or ``0.5*lo + 0.5*hi``
    where ``lo + hi`` overflows.  Returns None when no candidate qualifies
    — a valid outcome, not an error.
    """
    if len(rows) == 0:
        raise ValidationError("cannot search for a split over zero rows")
    num_features, c = block.shape
    if c < 2:
        return None
    values = columns.ravel()  # column f starts at values[starts[f]]
    starts = np.arange(num_features)[:, None] * columns.shape[1]
    per_pass = max(1, SCAN_BUDGET // c)
    # One node's Hessian sums serve every feature's gain denominators.
    HL, H = hess_prefix[: c - 1], hess_prefix[c - 1]
    lam = config.reg_lambda
    HL_lam, HR_lam, H_lam = HL + lam, (H - HL) + lam, H + lam

    best: SplitCandidate | None = None
    for f0 in range(0, num_features, per_pass):  # ascending f: ties keep lowest
        idx = block[f0 : f0 + per_pass].astype(np.intp)  # faster gathers
        x = values[idx + starts[f0 : f0 + per_pass]]
        gs = grad[idx].cumsum(axis=1)
        G, GL = gs[:, -1:], gs[:, :-1]
        GR = G - GL
        # 0.5 * (GL²/(HL+λ) + GR²/(HR+λ) - G²/(H+λ)): the same operations
        # in the same order, with fewer temporaries.
        gains = GL * GL
        gains /= HL_lam
        right = GR * GR
        right /= HR_lam
        gains += right
        gains -= G * G / H_lam
        gains *= 0.5
        valid = x[:, :-1] < x[:, 1:]  # cut only between distinct values
        gains = np.where(valid, gains, -np.inf)
        bar = 0.0 if best is None else best.gain
        while True:
            f, i = divmod(int(gains.argmax()), c - 1)  # first max: lowest f, then threshold
            gain = float(gains[f, i])
            if gain <= bar:  # argmax puts a NaN first, so nothing left beats the bar
                break
            # A midpoint that rounds down onto the left value (adjacent
            # floats) would not reproduce the scored partition under the
            # `<` routing rule: drop that cut and take the next best.
            lo, hi = float(x[f, i]), float(x[f, i + 1])
            total = lo + hi  # Python floats: an overflow to inf raises no warning
            threshold = 0.5 * total if math.isfinite(total) else 0.5 * lo + 0.5 * hi
            if threshold > lo:
                if gain > bar:  # false for a NaN gain
                    best = SplitCandidate(feature=f0 + f, threshold=threshold, gain=gain)
                break
            gains[f, i] = -np.inf
    return best


def _grow_tree(
    X: np.ndarray,
    columns: np.ndarray,
    presort: np.ndarray,
    grad: np.ndarray,
    hess_prefix: np.ndarray,
    config: TrainConfig,
) -> tuple[RegressionTree, list[tuple[np.ndarray, float]]]:
    """Grow one tree on fixed gradients and Hessian prefix (see
    :func:`find_best_split`); returns it plus (rows, weight) per leaf so the
    caller can update predictions without re-routing.

    ``presort`` is the root's column block (see :func:`find_best_split`).
    Each child's block is a stable partition of its parent's, so a node
    costs O(c·k) for its own c rows, and its rows stay in ascending order
    for the gradient sums of the leaves, which run left to right.  A leaf
    of c rows takes its Hessian sum from ``hess_prefix[c - 1]``."""
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
                rows, grad, hess_prefix, config, block=block, columns=columns
            )
        idx = len(nodes)
        if split is None:
            # The last of a left-to-right prefix sum; sum() would not keep
            # that order (it compensates from Python 3.12 on).
            G = float(grad[rows].cumsum()[-1])
            H = float(hess_prefix[rows.shape[0] - 1])
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


def fit(features: np.ndarray, objective: Objective, config: TrainConfig) -> StageFit:
    """Train an ensemble of ``num_rounds`` trees against ``objective``.

    Each round re-evaluates gradients/Hessians at the current predictions,
    grows one tree maximizing Newton gain, and advances predictions by
    ``learning_rate`` times the leaf weights.  Returns the model, the
    running predictions on the training rows, which are bit-identical to
    ``model.predict(features)`` (each row gets the same ``lr * w``
    additions in the same order), and the objective's loss before the
    first round and after every round (length num_rounds + 1).

    The feature matrix is transposed once per fit into contiguous (k, n)
    columns and argsorted into a (k, n) int32 column block, which every
    tree partitions node by node (see :func:`_grow_tree`).  Every tree takes
    its Hessian sums from one prefix vector of the round's Hessian, built
    again only when that number changes (see :func:`find_best_split`).
    Training runs on the calling thread.
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
    preds = np.full(n, base)
    losses = [float(objective.loss(preds))]

    trees: list[RegressionTree] = []
    hess_prefix = None  # of the last round's Hessian, rebuilt when it changes
    for _ in range(config.num_rounds):
        gh = objective.grad_hess(preds)
        if len(gh) != n:
            raise ObjectiveError(f"objective returned {len(gh)} gradients for {n} rows")
        if hess_prefix is None or hess_prefix[0] != gh.hess:
            hess_prefix = np.full(n, gh.hess).cumsum()
        tree, leaves = _grow_tree(X, columns, presort, gh.grad, hess_prefix, config)
        for rows, w in leaves:
            preds[rows] += config.learning_rate * w
        trees.append(tree)
        losses.append(float(objective.loss(preds)))

    model = GbdtModel(
        base_score=base,
        learning_rate=config.learning_rate,
        feature_count=X.shape[1],
        trees=tuple(trees),
    )
    return StageFit(preds=preds, model=model, loss_curve=tuple(losses))
