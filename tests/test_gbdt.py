import json
import math
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    assert_same_model,
    brute_force_fit,
    brute_force_fit_squared_error,
    brute_force_split,
    model_document,
    node_block,
)
from triboost import gbdt
from triboost.errors import (
    DegenerateLeafError,
    ObjectiveError,
    PersistenceError,
    ValidationError,
)
from triboost.gbdt import (
    GbdtModel,
    GradHess,
    LeafNode,
    RegressionTree,
    SplitNode,
    TrainConfig,
    find_best_split,
    fit,
    leaf_weight,
    load_model,
    save_model,
)
from triboost.objectives import Stage1Objective, StageTargets


def mse_objective(y):
    return Stage1Objective(StageTargets(values=np.asarray(y, float)))


# Feature values with ties and adjacent floats: the midpoint of 1.0 and the
# next float up rounds down onto 1.0, so no cut may fall between them.
ONE_UP = np.nextafter(1.0, 2.0)
TIGHT_VALUES = np.array([-0.5, 1.0, ONE_UP, np.nextafter(ONE_UP, 2.0), 1.5, 2.0])
# Finite values whose pairwise sums overflow, the largest two adjacent.
BIG = float(np.finfo(np.float64).max)
NEAR_MAX_VALUES = np.array([-BIG, -1.5e308, 1e308, 1.5e308, np.nextafter(BIG, 0.0), BIG])


def prefix(h, n):
    """The Hessian prefix ``fit`` passes the split search: n rows of h."""
    return np.full(n, h).cumsum()


class ScheduledHessObjective:
    """Squared error whose one Hessian follows a per-round schedule."""

    def __init__(self, y, schedule):
        self.y = np.asarray(y, dtype=np.float64)
        self.schedule = schedule
        self.calls = 0

    def base_score(self):
        return float(np.mean(self.y))

    def loss(self, preds):
        return float(np.mean((self.y - preds) ** 2))

    def grad_hess(self, preds):
        n = self.y.shape[0]
        h = self.schedule[self.calls % len(self.schedule)]
        self.calls += 1
        return GradHess(-2.0 * (self.y - preds) / n, h)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"num_rounds": 0},
        {"max_depth": 0},
        {"learning_rate": 0.0},
        {"learning_rate": 1.5},
        {"reg_lambda": -0.1},
        {"reg_lambda": float("nan")},
        {"reg_lambda": float("inf")},
        {"reg_lambda": float("-inf")},
        {"learning_rate": -0.1},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"num_rounds": -1},
        {"max_depth": -1},
    ])
    def test_bounds(self, kwargs):
        with pytest.raises(ValidationError):
            TrainConfig(**kwargs)

    def test_defaults_valid(self):
        TrainConfig()

    @pytest.mark.parametrize("kwargs", [
        {"num_rounds": 2.5}, {"num_rounds": 3.0}, {"num_rounds": True}, {"num_rounds": "3"},
        {"max_depth": float("nan")}, {"max_depth": 2.0}, {"max_depth": False},
    ])
    def test_counts_must_be_integers(self, kwargs):
        # NaN depth used to grow stumps only, and a fractional round count
        # failed in range() once training started.
        (name,) = kwargs
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": True}, {"learning_rate": "0.1"}, {"learning_rate": None},
        {"reg_lambda": True}, {"reg_lambda": False}, {"reg_lambda": "1"},
    ])
    def test_rates_must_be_numbers(self, kwargs):
        # True passed the range checks as 1, and a string failed in them
        # with a bare TypeError.
        ((name, value),) = kwargs.items()
        with pytest.raises(ValidationError, match=f"^{name} must be a number, got {value!r}$"):
            TrainConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        X = np.arange(8.0).reshape(-1, 1)
        y = np.array([0.0, 1.0, 0.0, 2.0, 3.0, 1.0, 4.0, 2.0])
        got = fit(X, mse_objective(y), TrainConfig(num_rounds=np.int64(3), max_depth=np.int32(2)))
        want = fit(X, mse_objective(y), TrainConfig(num_rounds=3, max_depth=2))
        assert got.model == want.model


class TestGradHess:
    def test_shape_mismatch(self):
        with pytest.raises(ObjectiveError):
            GradHess(np.zeros((3, 1)), 1.0)

    def test_non_finite_grad(self):
        with pytest.raises(ObjectiveError):
            GradHess(np.array([np.inf]), 1.0)

    def test_non_positive_hess(self):
        with pytest.raises(ObjectiveError):
            GradHess(np.zeros(2), 0.0)

    @pytest.mark.parametrize("hess", [
        0, -0.5, np.nan, np.inf, -np.inf,
        np.ones(2), np.ones(1), np.array(1.0), [1.0, 1.0], "1.0", None, True,
    ])
    def test_hess_must_be_one_positive_finite_number(self, hess):
        # A per-row array, from an objective written for per-row Hessians,
        # is rejected too, not coerced.
        with pytest.raises(ObjectiveError):
            GradHess(np.zeros(2), hess)

    @pytest.mark.parametrize("hess", [0.25, 3, np.float64(0.5), np.float32(0.5)])
    def test_hess_is_a_float(self, hess):
        gh = GradHess(np.zeros(2), hess)
        assert type(gh.hess) is float and gh.hess == hess

    def test_len(self):
        assert len(GradHess(np.zeros(4), 1.0)) == 4


class TestLeafWeight:
    def test_formula(self):
        assert leaf_weight(3.0, 2.0, 0.0) == -1.5
        assert leaf_weight(3.0, 1.0, 2.0) == -1.0

    def test_degenerate(self):
        with pytest.raises(DegenerateLeafError):
            leaf_weight(1.0, 0.0, 0.0)


class TestFindBestSplit:
    def test_hand_computed_gain(self):
        # grads [-1,-1,1,1], unit hessians, lambda 0: the middle cut has
        # gain 1/2 * (4/2 + 4/2 - 0/4) = 2.
        grad = np.array([-1.0, -1.0, 1.0, 1.0])
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        got = find_best_split(np.arange(4), grad, prefix(1.0, 4),
                              TrainConfig(reg_lambda=0.0), **node_block(range(4), X))
        assert got is not None
        assert (got.feature, got.threshold, got.gain) == (0, 1.5, 2.0)

    def test_constant_feature_gives_none(self):
        grad = np.array([-1.0, 1.0])
        X = np.zeros((2, 1))
        assert find_best_split(np.arange(2), grad, prefix(1.0, 2), TrainConfig(),
                               **node_block(range(2), X)) is None

    def test_tie_breaks_to_lowest_feature(self):
        grad = np.array([-1.0, -1.0, 1.0, 1.0])
        col = np.array([0.0, 1.0, 2.0, 3.0])
        X = np.column_stack([col, col])  # identical columns, identical gains
        got = find_best_split(np.arange(4), grad, prefix(1.0, 4),
                              TrainConfig(reg_lambda=0.0), **node_block(range(4), X))
        assert got.feature == 0

    def test_tie_breaks_to_lowest_threshold(self):
        # Symmetric gradients: cutting before or after the middle row gives
        # the same gain; the scan must keep the earlier midpoint.
        grad = np.array([1.0, -2.0, 1.0])
        X = np.array([[0.0], [1.0], [2.0]])
        got = find_best_split(np.arange(3), grad, prefix(1.0, 3),
                              TrainConfig(reg_lambda=0.0), **node_block(range(3), X))
        assert got.threshold == 0.5

    def test_row_subset_only(self):
        grad = np.array([-1.0, 5.0, -1.0, 1.0])
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        rows = np.array([0, 2, 3])
        got = find_best_split(rows, grad, prefix(1.0, 4),
                              TrainConfig(reg_lambda=0.0), **node_block(rows, X))
        # row 1 is outside the node; best cut separates {0,2} from {3}
        assert got.threshold == 2.5

    def test_empty_rows_rejected(self):
        with pytest.raises(ValidationError):
            find_best_split(np.array([], dtype=np.intp), np.zeros(1), prefix(1.0, 1),
                            TrainConfig(), **node_block([], np.zeros((1, 1))))

    @given(
        n=st.integers(min_value=2, max_value=14),
        k=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        h=st.sampled_from([2.0 / 7.0, 0.5, 1.0 / 3.0, 1.0, 2.0]),
        lam=st.sampled_from([0.0, 1e-3, 0.5, 2.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, n, k, seed, h, lam):
        rng = np.random.default_rng(seed)
        # Ties, adjacent floats whose midpoint may not be a threshold, and
        # values near the float maximum whose sums overflow.
        X = np.where(rng.random(size=(n, k)) < 0.5,
                     rng.choice(TIGHT_VALUES, size=(n, k)),
                     np.round(rng.normal(size=(n, k)), 1))
        X = np.where(rng.random(size=(n, k)) < 0.2,
                     rng.choice(NEAR_MAX_VALUES, size=(n, k)), X)
        grad = rng.normal(size=n)
        cfg = TrainConfig(reg_lambda=lam)
        # The root and a random node below it.
        subset = np.unique(rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1))))
        for rows in (np.arange(n), subset):
            # The oracle sums one Hessian per row, in each feature's order.
            want = brute_force_split(rows.tolist(), grad, np.full(n, h), X, cfg)
            # Scan budgets: one feature per pass; passes of two features for
            # nodes of 5-6 rows (of all features for smaller ones); the
            # default, under which every node here is a single pass.
            for budget in (1, 12, gbdt.SCAN_BUDGET):
                with mock.patch.object(gbdt, "SCAN_BUDGET", budget):
                    got = find_best_split(rows, grad, prefix(h, n), cfg,
                                          **node_block(rows, X))
                if want is None:
                    assert got is None
                else:
                    assert got is not None
                    assert (got.feature, got.threshold, got.gain) == want

    @given(
        n=st.integers(min_value=2, max_value=14),
        k=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        h=st.sampled_from([2.0 / 7.0, 0.5, 1.0 / 3.0, 1.0, 2.0]),
        lam=st.sampled_from([0.0, 1e-3, 0.5, 2.0]),
    )
    @settings(max_examples=50, deadline=None)
    def test_constant_hess_prefix_matches_general_path(self, n, k, seed, h, lam):
        # The node's Hessian sums come from one shared prefix of any length
        # n >= c, whatever the node's rows; the oracle sums a per-row
        # Hessian along each feature's own order.  The int32 block ``fit``
        # passes in gives the same split as the same block in intp.
        rng = np.random.default_rng(seed)
        X = np.where(rng.random(size=(n, k)) < 0.5,
                     rng.choice(TIGHT_VALUES, size=(n, k)),
                     np.round(rng.normal(size=(n, k)), 1))
        grad = rng.normal(size=n)
        cfg = TrainConfig(reg_lambda=lam)
        subset = np.unique(rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1))))
        for node in (np.arange(n), subset):
            c = node.shape[0]
            want = brute_force_split(node.tolist(), grad, np.full(n, h), X, cfg)
            kw = node_block(node, X)
            for budget in (1, 12, gbdt.SCAN_BUDGET):
                with mock.patch.object(gbdt, "SCAN_BUDGET", budget):
                    got = [find_best_split(node, grad, prefix(h, m), cfg, **kw)
                           for m in (c, n, 2 * n + 1)]
                    got.append(find_best_split(
                        node, grad, prefix(h, n), cfg,
                        block=kw["block"].astype(np.intp), columns=kw["columns"]))
                assert all(g == got[0] for g in got[1:])
                if want is None:
                    assert got[0] is None
                else:
                    assert got[0] is not None
                    assert (got[0].feature, got[0].threshold, got[0].gain) == want

    @pytest.mark.parametrize("budget", [1, gbdt.SCAN_BUDGET])
    def test_adjacent_float_cut_is_skipped(self, budget):
        # Feature 0's best cut, between 1.0 and the next float up, scores
        # highest (it separates the negative from the positive gradients),
        # but its midpoint rounds down to 1.0 and would send both values
        # left.  The scan must take the next best: feature 1 at 1.5.
        X = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 3.0],
                      [ONE_UP, 2.0], [ONE_UP, 4.0], [3.0, 5.0]])
        assert 0.5 * (1.0 + ONE_UP) == 1.0
        grad = np.array([-1.0, -2.0, -2.0, 2.0, 2.0, 1.0])
        cfg = TrainConfig(reg_lambda=0.0)
        spread = X.copy()
        spread[3:5, 0] = 2.0  # the same order with room for a midpoint
        rows = np.arange(6)
        with mock.patch.object(gbdt, "SCAN_BUDGET", budget):
            got = find_best_split(rows, grad, prefix(1.0, 6), cfg, **node_block(rows, X))
            top = find_best_split(rows, grad, prefix(1.0, 6), cfg,
                                  **node_block(rows, spread))
        assert (top.feature, top.threshold) == (0, 1.5)
        assert (got.feature, got.threshold, got.gain) == (1, 1.5, 3.375)
        assert got.gain < top.gain
        assert (got.feature, got.threshold, got.gain) == brute_force_split(
            range(6), grad, np.ones(6), X, cfg)
        # With no other cut, the node does not split at all.
        pair = np.array([[1.0], [ONE_UP]])
        assert find_best_split(np.arange(2), grad[2:4], prefix(1.0, 2), cfg,
                               **node_block(range(2), pair)) is None

    @pytest.mark.parametrize("lo, hi", [
        (1e308, 1.5e308), (-1.5e308, -1e308), (1.5e308, BIG),
    ])
    def test_near_max_cut_lies_between_the_values(self, lo, hi):
        # lo + hi overflows to +-inf; a threshold of inf would send every
        # row left and leave the right child empty.
        assert math.isinf(lo + hi)
        X = np.array([[lo], [lo], [hi], [hi]])
        grad = np.array([-1.0, -1.0, 1.0, 1.0])
        got = find_best_split(np.arange(4), grad, prefix(1.0, 4),
                              TrainConfig(reg_lambda=0.0), **node_block(range(4), X))
        assert got is not None
        assert lo < got.threshold < hi
        assert got.threshold == 0.5 * lo + 0.5 * hi


def sorted_runs(rng, n, boundary):
    """n sorted feature values whose gaps are ties, adjacent floats or
    ordinary steps at random positions; the gap between sorted positions
    ``boundary - 1`` and ``boundary`` is a tie."""
    kinds = rng.integers(0, 3, size=n - 1)
    kinds[boundary - 1] = 0
    values = [1.0]
    for kind in kinds:
        v = values[-1]
        values.append(v if kind == 0 else np.nextafter(v, 2.0 * v) if kind == 1
                      else v + float(rng.choice([0.25, 0.5, 1.0])))
    return np.array(values)


class TestChunkedScan:
    # Nodes of more than SCAN_CHUNK rows are scanned one feature at a time
    # in chunks of SCAN_CHUNK cuts; it is patched to 2-4 here, so every
    # node of five rows or more takes that path over several chunks.

    @given(
        n=st.integers(min_value=5, max_value=40),
        k=st.integers(min_value=1, max_value=3),
        chunk=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        h=st.sampled_from([2.0 / 7.0, 1.0, 2.0]),
        lam=st.sampled_from([0.0, 0.5]),
    )
    @settings(max_examples=60, deadline=None)
    # Nodes whose cuts fill their chunks exactly, so the last row is the
    # only one past the last full chunk: two chunks, and a single one
    # (n = chunk + 1).
    @example(n=5, k=1, chunk=2, seed=0, h=2.0 / 7.0, lam=0.0)
    @example(n=5, k=2, chunk=4, seed=1, h=1.0, lam=0.5)
    def test_matches_brute_force(self, n, k, chunk, seed, h, lam):
        # Ties and adjacent floats (whose midpoint is no threshold) fall at
        # every chunk position, and a tie straddles the first boundary.
        rng = np.random.default_rng(seed)
        X = np.empty((n, k))
        for f in range(k):
            X[rng.permutation(n), f] = sorted_runs(rng, n, min(chunk, n - 1))
        grad = rng.normal(size=n)
        cfg = TrainConfig(reg_lambda=lam)
        subset = np.unique(rng.integers(0, n, size=2 * n))
        for rows in (np.arange(n), subset):
            want = brute_force_split(rows.tolist(), grad, np.full(n, h), X, cfg)
            with mock.patch.object(gbdt, "SCAN_CHUNK", chunk):
                got = find_best_split(rows, grad, prefix(h, n), cfg, **node_block(rows, X))
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert (got.feature, got.threshold, got.gain) == want

    @given(
        n=st.integers(min_value=5, max_value=30),
        k=st.integers(min_value=1, max_value=3),
        chunk=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_keeps_the_whole_pass_rules(self, n, k, chunk, seed):
        # Gradients of 1e160 make some gains NaN (their squares overflow)
        # and others inf.  The chunked scan must pick what one whole-feature
        # pass per feature picks (SCAN_BUDGET = c), and never a NaN.
        rng = np.random.default_rng(seed)
        X = np.empty((n, k))
        for f in range(k):
            X[rng.permutation(n), f] = sorted_runs(rng, n, min(chunk, n - 1))
        grad = np.where(rng.random(n) < 0.3, rng.choice([-1e160, 1e160], size=n),
                        rng.normal(size=n))
        cfg = TrainConfig(reg_lambda=0.5)
        kw = node_block(range(n), X)
        with np.errstate(over="ignore", invalid="ignore"):
            with mock.patch.object(gbdt, "SCAN_BUDGET", n):
                whole = find_best_split(np.arange(n), grad, prefix(1.0, n), cfg, **kw)
            with mock.patch.object(gbdt, "SCAN_CHUNK", chunk):
                chunked = find_best_split(np.arange(n), grad, prefix(1.0, n), cfg, **kw)
        assert chunked == whole


class TestFit:
    def test_two_level_exact(self):
        # One depth-1 tree at lr 1, lambda 0 reproduces the step targets.
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        cfg = TrainConfig(num_rounds=1, max_depth=1, learning_rate=1.0,
                          reg_lambda=0.0)
        model = fit(X, mse_objective(y), cfg).model
        assert model.predict(X).tolist() == [0.0, 0.0, 1.0, 1.0]
        tree = model.trees[0]
        assert isinstance(tree.nodes[0], SplitNode)
        assert tree.nodes[0].threshold == 1.5

    def test_lambda_shrinks_leaves(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        cfg = TrainConfig(num_rounds=1, max_depth=1, learning_rate=1.0,
                          reg_lambda=2.0)
        model = fit(X, mse_objective(y), cfg).model
        # grads at base 0.5 are +-0.25, hessians 0.5 per row: the left leaf
        # (y=0 rows) has G = 0.5, H = 1, weight -0.5/(1+2); right mirrors.
        leaves = [nd.weight for nd in model.trees[0].nodes
                  if isinstance(nd, LeafNode)]
        assert leaves == [-0.5 / 3.0, 0.5 / 3.0]

    def test_constant_targets_exact_at_round_zero(self):
        X = np.arange(6.0).reshape(-1, 1)
        y = np.full(6, 3.25)
        result = fit(X, mse_objective(y), TrainConfig(num_rounds=3))
        assert result.model.base_score == 3.25
        assert np.allclose(result.model.predict(X), 3.25, atol=1e-9)
        assert result.loss_curve[0] == 0.0

    def test_loss_history_length_and_descent(self):
        # The loss curve ``fit`` returns, on squared error and on an
        # objective whose Hessian changes between rounds (each at least the
        # true curvature 2/40, so every round descends).
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(scale=0.1, size=40)
        cfg = TrainConfig(num_rounds=25, max_depth=3, reg_lambda=1e-3)
        for objective in (mse_objective(y), ScheduledHessObjective(y, [0.5, 0.75, 0.1])):
            history = fit(X, objective, cfg).loss_curve
            assert type(history) is tuple and len(history) == 26
            assert all(b <= a for a, b in zip(history, history[1:]))
            assert history[-1] < history[0]

    def test_max_depth_bounds_leaves(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(64, 2))
        y = rng.normal(size=64)
        cfg = TrainConfig(num_rounds=2, max_depth=3, reg_lambda=1e-3)
        model = fit(X, mse_objective(y), cfg).model
        for tree in model.trees:
            assert sum(isinstance(node, LeafNode) for node in tree.nodes) <= 2**3
            assert tree.max_depth_reached <= 3

    def test_bad_feature_matrix(self):
        with pytest.raises(ValidationError):
            fit(np.zeros((0, 2)), mse_objective(np.zeros(0)), TrainConfig())
        with pytest.raises(ValidationError):
            fit(np.array([[np.nan]]), mse_objective(np.zeros(1)), TrainConfig())

    def test_objective_length_mismatch(self):
        class Broken:
            def base_score(self):
                return 0.0

            def loss(self, preds):
                return 0.0

            def grad_hess(self, preds):
                return GradHess(np.zeros(2), 1.0)

        with pytest.raises(ObjectiveError, match="2 gradients for 3 rows"):
            fit(np.zeros((3, 1)), Broken(), TrainConfig(num_rounds=1))

    def test_preds_out_holds_predict_bitwise(self):
        # The running predictions ``fit`` returns are ``model.predict`` bit
        # for bit, also when the Hessian prefix is rebuilt between rounds.
        rng = np.random.default_rng(8)
        X = np.round(rng.normal(size=(50, 3)), 1)
        y = rng.normal(size=50)
        cfg = TrainConfig(num_rounds=6, max_depth=3, learning_rate=0.3)
        for objective in (mse_objective(y), ScheduledHessObjective(y, [0.5, 0.04, 2.0])):
            result = fit(X, objective, cfg)
            assert result.preds.dtype == np.float64 and result.preds.shape == (50,)
            bits = result.model.predict(X).view(np.int64).tolist()
            assert result.preds.view(np.int64).tolist() == bits
            assert len(result.loss_curve) == cfg.num_rounds + 1

    @given(
        n=st.integers(min_value=2, max_value=8),
        k=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_boosting(self, n, k, seed):
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(n, k)), 2)
        y = rng.normal(size=n)
        cfg = TrainConfig(num_rounds=2, max_depth=2, learning_rate=0.5,
                          reg_lambda=0.0)
        base, trees, preds = brute_force_fit_squared_error(X, y, cfg)
        for budget in (1, gbdt.SCAN_BUDGET):
            with mock.patch.object(gbdt, "SCAN_BUDGET", budget):
                model = fit(X, mse_objective(y), cfg).model
            assert_same_model(model, base, trees)
            assert model.predict(X).tolist() == preds

    @pytest.mark.parametrize("schedule", [
        [0.5, 0.5, 2.0, 0.5],  # a Hessian that changes and comes back
        [0.5, 0.75, 0.5, 1.0 / 3.0],  # a new Hessian on every round
        [2.0 / 7.0],  # one Hessian throughout
    ])
    @pytest.mark.parametrize("reg_lambda", [0.0, 0.5])
    def test_hess_schedule_matches_general_path(self, schedule, reg_lambda):
        # The engine rebuilds its Hessian prefix only when the Hessian
        # changes; the oracle's general path sums one Hessian per row.
        rng = np.random.default_rng(5)
        n = 24
        X = np.where(rng.random(size=(n, 2)) < 0.3, rng.choice(TIGHT_VALUES, size=(n, 2)),
                     np.round(rng.normal(size=(n, 2)), 1))
        y = X @ np.array([1.0, -2.0]) + rng.normal(size=n)
        cfg = TrainConfig(num_rounds=6, max_depth=3, learning_rate=0.5,
                          reg_lambda=reg_lambda)
        model = fit(X, ScheduledHessObjective(y, schedule), cfg).model
        base, trees, preds = brute_force_fit(X, ScheduledHessObjective(y, schedule), cfg)
        assert_same_model(model, base, trees)
        assert model.predict(X).tolist() == preds

    @pytest.mark.parametrize("budget", [1, 150, gbdt.SCAN_BUDGET])
    def test_deep_trees_match_brute_force(self, budget):
        # Nodes of up to 120 rows, partitioned four levels deep, with the
        # scan in one-feature passes, mixed passes and single passes.
        rng = np.random.default_rng(11)
        X = np.round(rng.normal(size=(120, 3)), 1)  # many ties
        y = X @ np.array([1.0, -0.5, 2.0]) + rng.normal(size=120)
        cfg = TrainConfig(num_rounds=2, max_depth=4, learning_rate=0.5,
                          reg_lambda=0.1)
        with mock.patch.object(gbdt, "SCAN_BUDGET", budget):
            model = fit(X, mse_objective(y), cfg).model
        base, trees, preds = brute_force_fit_squared_error(X, y, cfg)
        assert_same_model(model, base, trees)
        assert model.predict(X).tolist() == preds

    @pytest.mark.parametrize("chunk", [2, 100, gbdt.SCAN_CHUNK])
    def test_leaf_rows_are_ascending_and_partition_the_rows(self, chunk):
        # Every tree partitions one work block and one row vector in place,
        # nodes of more than SCAN_CHUNK rows one feature per pass; each
        # leaf's rows are its segment of that vector: ascending, the rows
        # the tree routes to it, and together every row once.  The
        # presorted block the tree starts from is left as it was.
        rng = np.random.default_rng(13)
        X = np.round(rng.normal(size=(300, 3)), 1)
        columns = np.ascontiguousarray(X.T)
        presort = np.argsort(columns, axis=1, kind="stable").astype(np.int32)
        before = presort.copy()
        cfg = TrainConfig(max_depth=4, reg_lambda=0.1)
        with mock.patch.object(gbdt, "SCAN_CHUNK", chunk):
            tree, leaves = gbdt._grow_tree(
                columns, presort, rng.normal(size=300), prefix(1.0, 300), cfg)
        assert len(leaves) == sum(isinstance(nd, LeafNode) for nd in tree.nodes) > 4
        routed = tree.evaluate(X)
        for rows, w in leaves:
            assert np.all(np.diff(rows) > 0)
            assert np.all(routed[rows] == w)
        every = np.concatenate([rows for rows, _ in leaves])
        assert np.array_equal(np.sort(every), np.arange(300))
        assert np.array_equal(presort, before)

    def test_near_max_features_fit_save_and_reload(self, tmp_path):
        # Features 1e308 + v * 5e305: finite, but the sum of two overflows.
        # Every split must leave rows on both sides, at a finite threshold.
        rng = np.random.default_rng(12)
        v = rng.integers(0, 100, size=(60, 3)).astype(np.float64)
        X = 1e308 + v * 5e305
        X[:, 2] *= -1.0
        y = v @ np.array([1.0, -0.5, 2.0]) + rng.normal(size=60)
        cfg = TrainConfig(num_rounds=3, max_depth=3, reg_lambda=0.0)
        result = fit(X, mse_objective(y), cfg)
        model, preds = result.model, result.preds
        base, trees, oracle_preds = brute_force_fit_squared_error(X, y, cfg)
        assert_same_model(model, base, trees)
        assert preds.tolist() == oracle_preds
        splits = [nd for t in model.trees for nd in t.nodes if isinstance(nd, SplitNode)]
        assert splits
        for nd in splits:
            col = X[:, nd.feature]
            assert col.min() < nd.threshold <= col.max()
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        assert again == model
        assert again.predict(X).tolist() == preds.tolist()


class TestFitLayout:
    @given(
        n=st.integers(min_value=2, max_value=60),
        k=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_model_in_every_memory_layout(self, n, k, seed):
        # fit reads a column-major matrix in place and copies the others,
        # here a C-ordered one and every other column of a wider one; the
        # bytes of the model, the predictions and the loss curve must not
        # depend on which.  Values come from a small set, so ties occur.
        rng = np.random.default_rng(seed)
        X = rng.choice(np.append(TIGHT_VALUES, [0.0, -3.0]), size=(n, k))
        y = rng.normal(size=n)
        wide = np.zeros((n, 2 * k))
        wide[:, ::2] = X
        layouts = {"C": np.ascontiguousarray(X), "F": np.asfortranarray(X), "strided": wide[:, ::2]}
        cfg = TrainConfig(num_rounds=3, max_depth=3, learning_rate=0.5, reg_lambda=0.1)
        results = {}
        with tempfile.TemporaryDirectory() as tmp:
            for name, features in layouts.items():
                assert np.array_equal(features, X)
                result = fit(features, mse_objective(y), cfg)
                save_model(result.model, Path(tmp) / "model.json")
                saved = (Path(tmp) / "model.json").read_bytes()
                results[name] = (saved, result.preds.tobytes(), result.loss_curve)
        assert results["C"] == results["F"] == results["strided"]

    def test_column_major_matrix_is_not_copied(self):
        # A one-round fit on a 20,000 x 5 column-major matrix reads it in
        # place; on the C-ordered copy it first lays out a (5, 20,000) block.
        rng = np.random.default_rng(2)
        X = np.asfortranarray(rng.normal(size=(20_000, 5)))
        X_c = np.ascontiguousarray(X)
        objective = mse_objective(rng.normal(size=20_000))
        cfg = TrainConfig(num_rounds=1)
        fit(X, objective, cfg)  # warm up: first-call allocations trace in neither
        peaks = {}
        for name, features in (("F", X), ("C", X_c)):
            tracemalloc.start()
            try:
                fit(features, objective, cfg)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["C"] - peaks["F"] >= 0.9 * X.nbytes

    def test_row_prefix_of_a_block_is_read_in_place(self):
        # Stage 1 and the held-out refit train on a row prefix of a
        # dataset's block.  fit reads the block that prefix views, as it
        # reads a whole block, and copies a C-ordered prefix; all three
        # give the same model bytes.
        rng = np.random.default_rng(4)
        block = np.ascontiguousarray(rng.normal(size=(5, 24_000)))
        view = block.T[:20_000]
        layouts = {"view": view, "F": np.asfortranarray(view), "C": np.ascontiguousarray(view)}
        objective = mse_objective(rng.normal(size=20_000))
        cfg = TrainConfig(num_rounds=1)
        fit(view, objective, cfg)  # warm up
        peaks, models = {}, {}
        for name, features in layouts.items():
            tracemalloc.start()
            try:
                models[name] = fit(features, objective, cfg).model
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert models["view"] == models["F"] == models["C"]
        assert abs(peaks["view"] - peaks["F"]) < 0.1 * view.nbytes
        assert peaks["C"] - peaks["view"] >= 0.9 * view.nbytes

    def test_one_round_peak_is_bounded(self):
        # Beside the features and their presorted block, tree growth holds
        # one work block, a row vector and a few n-long vectors, and scans
        # nodes of more than SCAN_CHUNK rows in chunks.  A one-round fit on
        # a 90,000 x 5 column-major matrix peaks at 2.2x the matrix; it
        # peaked at 3.5x when every node allocated its own block and the
        # root's scan held about ten n-long temporaries.
        rng = np.random.default_rng(2)
        X = np.asfortranarray(rng.normal(size=(90_000, 5)))
        objective = mse_objective(rng.normal(size=90_000))
        cfg = TrainConfig(num_rounds=1)
        fit(X, objective, cfg)  # warm up: first-call allocations trace in neither
        tracemalloc.start()
        try:
            fit(X, objective, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * X.nbytes


class TestFitLossCheck:
    def test_overflowing_initial_loss_is_objective_error(self):
        # A finite target of 1e200 squares to inf: the loss at the base
        # score is not finite, and no RuntimeWarning escapes.
        X = np.arange(4.0).reshape(-1, 1)
        with pytest.raises(ObjectiveError, match="loss after round 0 is inf"):
            fit(X, mse_objective([0.0, 1.0, 2.0, 1e200]), TrainConfig(num_rounds=2))

    def test_non_finite_loss_names_its_round(self):
        class NanFromRoundThree:
            inner = mse_objective(np.arange(6.0))
            base_score, grad_hess = inner.base_score, inner.grad_hess
            losses = 0

            def loss(self, preds):
                self.losses += 1  # the first is round 0's
                return math.nan if self.losses > 3 else self.inner.loss(preds)

        X = np.arange(6.0).reshape(-1, 1)
        with pytest.raises(ObjectiveError, match="loss after round 3 is nan"):
            fit(X, NanFromRoundThree(), TrainConfig(num_rounds=5))

    def test_loss_above_its_start_names_the_round(self):
        # A loss may rise on a round, but not above its value before round 1.
        class RisingOnRoundsTwoAndThree:
            inner = mse_objective(np.arange(6.0))
            base_score, grad_hess = inner.base_score, inner.grad_hess
            rounds = -1

            def loss(self, preds):
                self.rounds += 1
                return {0: 2.9, 1: 2.0, 2: 2.5, 3: 3.0}[self.rounds]

        X = np.arange(6.0).reshape(-1, 1)
        with pytest.raises(ObjectiveError, match=r"loss after round 3 is 3\.0, above "
                           r"the 2\.9 before round 1: the fit diverges"):
            fit(X, RisingOnRoundsTwoAndThree(), TrainConfig(num_rounds=5))


class TestPredict:
    def test_routing(self):
        tree = RegressionTree(
            nodes=(
                SplitNode(feature=0, threshold=1.5, left=1, right=2),
                LeafNode(weight=0.0),
                LeafNode(weight=1.0),
            ),
            max_depth_reached=1,
        )
        model = GbdtModel(base_score=0.0, learning_rate=1.0, feature_count=1,
                          trees=(tree,))
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        assert model.predict(X).tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_boundary_goes_right(self):
        tree = RegressionTree(
            nodes=(
                SplitNode(feature=0, threshold=1.5, left=1, right=2),
                LeafNode(weight=-1.0),
                LeafNode(weight=1.0),
            ),
            max_depth_reached=1,
        )
        model = GbdtModel(base_score=0.0, learning_rate=1.0, feature_count=1,
                          trees=(tree,))
        assert model.predict(np.array([[1.5]])).tolist() == [1.0]

    def test_sum_of_trees_with_learning_rate(self):
        leafy = RegressionTree(nodes=(LeafNode(weight=1.0),), max_depth_reached=0)
        model = GbdtModel(base_score=0.0, learning_rate=0.5, feature_count=1,
                          trees=(leafy, leafy))
        assert model.predict(np.zeros((2, 1))).tolist() == [1.0, 1.0]

    def test_wrong_width_rejected(self):
        model = GbdtModel(base_score=0.0, learning_rate=1.0, feature_count=2,
                          trees=())
        with pytest.raises(ValidationError, match="2 columns"):
            model.predict(np.zeros((3, 1)))


def _json_dumps_bytes(model):
    return (json.dumps(model_document(model), indent=2, sort_keys=True) + "\n").encode()


# Floats json writes in every form: signed zero, subnormal, near-overflow,
# the non-finite three, and numpy scalars (whose plain repr names the type).
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan]
_ANY_FLOAT = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())
_MODEL_FLOAT = st.one_of(_ANY_FLOAT, _ANY_FLOAT.map(np.float64))


@st.composite
def _trees(draw, feature_count):
    """A tree of random shape in ``fit``'s pre-order layout."""
    nodes = []

    def build(depth):
        idx = len(nodes)
        nodes.append(None)
        if depth < 3 and draw(st.booleans()):
            left = build(depth + 1)
            right = build(depth + 1)
            feature = draw(st.integers(0, max(feature_count - 1, 0)))
            nodes[idx] = SplitNode(feature, draw(_MODEL_FLOAT), left, right)
        else:
            nodes[idx] = LeafNode(draw(_MODEL_FLOAT))
        return idx

    build(0)
    return RegressionTree(tuple(nodes), max_depth_reached=draw(st.integers(0, 3)))


@st.composite
def _models(draw):
    feature_count = draw(st.integers(0, 5))
    trees = draw(st.lists(_trees(feature_count), max_size=3))
    return GbdtModel(draw(_MODEL_FLOAT), draw(_MODEL_FLOAT), feature_count, tuple(trees))


class TestPersistence:
    def _small_model(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        return fit(X, mse_objective(y), TrainConfig(num_rounds=4)).model, X

    def test_round_trip_bitwise(self, tmp_path):
        model, X = self._small_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        assert again == model
        assert again.predict(X).tolist() == model.predict(X).tolist()

    def test_save_is_deterministic(self, tmp_path):
        model, _ = self._small_model()
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_save_writes_without_a_document(self, tmp_path):
        model, _ = self._small_model()
        with mock.patch("json.dumps", side_effect=AssertionError):
            save_model(model, tmp_path / "m.json")
        assert (tmp_path / "m.json").read_bytes() == _json_dumps_bytes(model)

    def test_unwritable_path_names_it(self, tmp_path):
        model, _ = self._small_model()
        (tmp_path / "file").write_text("")
        target = tmp_path / "file" / "m.json"
        with pytest.raises(PersistenceError, match=f"cannot write model to {target}"):
            save_model(model, target)

    @given(model=_models())
    @settings(max_examples=80, deadline=None)
    def test_save_equals_json_dumps(self, tmp_path_factory, model):
        path = tmp_path_factory.mktemp("models") / "m.json"
        save_model(model, path)
        assert path.read_bytes() == _json_dumps_bytes(model)

    def test_dict_round_trip(self):
        model, _ = self._small_model()
        assert GbdtModel.from_dict(model_document(model)) == model

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(PersistenceError, match="invalid JSON"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError, match="cannot read"):
            load_model(tmp_path / "absent.json")

    def test_unknown_version(self):
        model, _ = self._small_model()
        doc = model_document(model)
        doc["version"] = 99
        with pytest.raises(PersistenceError, match="version"):
            GbdtModel.from_dict(doc)

    def test_missing_key(self):
        with pytest.raises(PersistenceError, match="malformed"):
            GbdtModel.from_dict({"version": 1})

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(PersistenceError, match="object"):
            load_model(path)

    def test_bad_child_index(self):
        model, _ = self._small_model()
        doc = model_document(model)
        doc["trees"][0]["nodes"] = [
            {"kind": "split", "feature": 0, "threshold": 0.0, "left": 5,
             "right": 1},
            {"kind": "leaf", "weight": 0.0},
        ]
        with pytest.raises(PersistenceError, match="child index"):
            GbdtModel.from_dict(doc)

    def test_self_referential_node(self):
        doc = {
            "version": 1, "base_score": 0.0, "learning_rate": 1.0,
            "feature_count": 1,
            "trees": [{"max_depth_reached": 1, "nodes": [
                {"kind": "split", "feature": 0, "threshold": 0.0, "left": 0,
                 "right": 0},
            ]}],
        }
        with pytest.raises(PersistenceError, match="malformed children"):
            GbdtModel.from_dict(doc)

    def test_unknown_node_kind(self):
        doc = {
            "version": 1, "base_score": 0.0, "learning_rate": 1.0,
            "feature_count": 1,
            "trees": [{"max_depth_reached": 0,
                       "nodes": [{"kind": "stump", "weight": 1.0}]}],
        }
        with pytest.raises(PersistenceError, match="node kind"):
            GbdtModel.from_dict(doc)


def _one_tree_doc(nodes, feature_count=2, **top):
    doc = {
        "version": 1, "base_score": 0.0, "learning_rate": 1.0,
        "feature_count": feature_count,
        "trees": [{"max_depth_reached": 2, "nodes": nodes}],
    }
    doc.update(top)
    return doc


def _split(feature, left, right, threshold=0.0):
    return {"kind": "split", "feature": feature, "threshold": threshold,
            "left": left, "right": right}


LEAF = {"kind": "leaf", "weight": 0.5}


class TestModelShapeChecks:
    def test_valid_tree_loads(self):
        doc = _one_tree_doc([_split(0, 1, 2), LEAF, _split(1, 3, 4), LEAF, LEAF])
        model = GbdtModel.from_dict(doc)
        assert model.predict(np.zeros((2, 2))).tolist() == [0.5, 0.5]

    def test_cycle_rejected(self):
        # 0 -> 1 -> 0: loaded before, then predict never returned.
        doc = _one_tree_doc([_split(0, 1, 2), _split(0, 0, 2), LEAF])
        with pytest.raises(PersistenceError, match="before its parent"):
            GbdtModel.from_dict(doc)

    def test_shared_child_rejected(self):
        doc = _one_tree_doc([_split(0, 1, 2), _split(1, 2, 3), LEAF, LEAF])
        with pytest.raises(PersistenceError, match="more than one parent"):
            GbdtModel.from_dict(doc)

    def test_unreachable_node_rejected(self):
        doc = _one_tree_doc([_split(0, 1, 2), LEAF, LEAF, LEAF])
        with pytest.raises(PersistenceError, match="node 3: unreachable"):
            GbdtModel.from_dict(doc)

    @pytest.mark.parametrize("feature", [2, 7, -1])
    def test_feature_out_of_range_rejected(self, feature):
        doc = _one_tree_doc([_split(feature, 1, 2), LEAF, LEAF])
        with pytest.raises(PersistenceError, match="outside"):
            GbdtModel.from_dict(doc)

    def test_negative_feature_count_rejected(self):
        with pytest.raises(PersistenceError, match="feature_count"):
            GbdtModel.from_dict(_one_tree_doc([LEAF], feature_count=-1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, bad):
        doc = _one_tree_doc([_split(0, 1, 2, threshold=bad), LEAF, LEAF])
        with pytest.raises(PersistenceError, match="threshold"):
            GbdtModel.from_dict(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, bad):
        doc = _one_tree_doc([{"kind": "leaf", "weight": bad}])
        with pytest.raises(PersistenceError, match="weight"):
            GbdtModel.from_dict(doc)

    @pytest.mark.parametrize("key", ["base_score", "learning_rate"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_top_level_rejected(self, key, bad):
        with pytest.raises(PersistenceError, match="non-finite"):
            GbdtModel.from_dict(_one_tree_doc([LEAF], **{key: bad}))

    # Each of these loaded before, coerced by int() or float(): a feature of
    # 0.9 or true routed its split on feature 0 or 1.
    @pytest.mark.parametrize("where, key, bad", [
        ("model", "version", True),
        ("model", "version", 1.0),
        ("model", "feature_count", 2.9),
        ("model", "feature_count", "2"),
        ("model", "base_score", "12.5"),
        ("model", "base_score", True),
        ("model", "learning_rate", "1"),
        ("model", "learning_rate", True),
        ("tree", "max_depth_reached", 2.5),
        ("tree", "max_depth_reached", "2"),
        ("split", "feature", 0.9),
        ("split", "feature", True),
        ("split", "feature", "1"),
        ("split", "left", 1.0),
        ("split", "right", "2"),
        ("split", "threshold", "0.5"),
        ("split", "threshold", False),
        ("leaf", "weight", "0.5"),
        ("leaf", "weight", True),
    ])
    def test_wrong_json_type_rejected(self, where, key, bad):
        doc = _one_tree_doc([_split(0, 1, 2), dict(LEAF), dict(LEAF)])
        tree = doc["trees"][0]
        target = {"model": doc, "tree": tree,
                  "split": tree["nodes"][0], "leaf": tree["nodes"][1]}[where]
        target[key] = bad
        with pytest.raises(PersistenceError, match=f"malformed model document: {key} "):
            GbdtModel.from_dict(doc)

    def test_overflowing_feature_index_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        doc = json.dumps(_one_tree_doc([_split(0, 1, 2), LEAF, LEAF]))
        path.write_text(doc.replace('"feature": 0', '"feature": 1e999'))
        with pytest.raises(PersistenceError, match="malformed"):
            load_model(path)
