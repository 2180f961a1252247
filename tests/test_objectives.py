import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_panel, random_panel
from oracles import fd_gradient, fd_hessian_diag, rel_err
from triboost.errors import DegenerateRatioError, ValidationError
from triboost.objectives import (
    ConstraintOnlyObjective,
    Stage1Objective,
    Stage2Objective,
    Stage3Objective,
    StageTargets,
    pred_ratio,
    stage3_target,
)
from triboost.panel import GroupLayout


def targets(values):
    return StageTargets(values=np.asarray(values, float))


def stage1(values):
    return Stage1Objective(targets(values))


def stage2(data, values):
    return Stage2Objective(data.layout, targets(values))


def stage3(data, values):
    return Stage3Objective(data.layout, targets(values))


@pytest.fixture()
def two_week_panel():
    # week 0: sales [3, 1] (total 4); week 1: future, 2 rows, total 10
    return make_panel({0: [3.0, 1.0]}, {1: (2, 10.0)})


class TestStageTargets:
    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            targets([1.0, np.nan])

    def test_matrix_rejected(self):
        with pytest.raises(ValidationError):
            StageTargets(values=np.zeros((2, 2)))


class TestStage1:
    def test_loss_is_mse(self):
        assert stage1([1.0, 3.0]).loss(np.array([0.0, 0.0])) == 5.0

    def test_grad_hand_value(self):
        gh = stage1([1.0, 3.0]).grad_hess(np.array([0.0, 0.0]))
        assert gh.grad.tolist() == [-1.0, -3.0]
        assert gh.hess == 1.0

    def test_zero_gradient_at_targets(self):
        obj = stage1([1.0, 3.0])
        assert obj.grad_hess(obj.targets.values).grad.tolist() == [0.0, 0.0]

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            stage1([1.0, 3.0]).loss(np.zeros(3))


class TestStage2:
    def test_loss_hand_value(self, two_week_panel):
        # preds [2, 2, 3, 3]: fit errors (1, -1, 1, 1), weekly residuals
        # (0, 4): loss = (1+1+1+1)/4 + (0+16)/4 = 5.
        obj = stage2(two_week_panel, [3.0, 1.0, 4.0, 4.0])
        preds = np.array([2.0, 2.0, 3.0, 3.0])
        assert obj.loss(preds) == 5.0

    def test_grad_hand_value(self, two_week_panel):
        obj = stage2(two_week_panel, [3.0, 1.0, 4.0, 4.0])
        gh = obj.grad_hess(np.array([2.0, 2.0, 3.0, 3.0]))
        # row grad = (-2 fit_err - 2 R_week)/n
        assert gh.grad.tolist() == [-0.5, 0.5, -2.5, -2.5]
        assert gh.hess == 1.0

    def test_zero_gradient_needs_both_terms(self, two_week_panel):
        # Matching the pseudo-labels alone leaves the constraint pulling.
        obj = stage2(two_week_panel, [3.0, 1.0, 4.0, 4.0])
        gh = obj.grad_hess(obj.targets.values)
        assert gh.grad[:2].tolist() == [0.0, 0.0]  # historical week consistent
        assert np.all(gh.grad[2:] < 0)  # future week still short of total

    def test_layout_or_dataset_equivalent(self, two_week_panel):
        # The dataset's layout and one rebuilt from its week column agree.
        ds = two_week_panel
        rebuilt = GroupLayout.from_week_column(
            ds.week_of_row, ds.actuals, [None, None, 10.0, 10.0]
        )
        t = targets([3.0, 1.0, 4.0, 4.0])
        preds = np.array([2.0, 2.0, 3.0, 3.0])
        assert Stage2Objective(ds.layout, t).loss(preds) == Stage2Objective(
            rebuilt, t
        ).loss(preds)

    def test_wrong_target_count(self, two_week_panel):
        with pytest.raises(ValidationError):
            stage2(two_week_panel, [1.0, 2.0]).loss(np.zeros(2))


class TestPredRatio:
    def test_hand_values(self, two_week_panel):
        ratios = pred_ratio(np.array([3.0, 1.0, 5.0, 15.0]), two_week_panel.layout)
        assert ratios.tolist() == [0.75, 0.25, 0.25, 0.75]

    def test_weekly_sums_are_one(self, two_week_panel):
        rng = np.random.default_rng(0)
        preds = rng.uniform(1.0, 9.0, size=4)
        ratios = pred_ratio(preds, two_week_panel.layout)
        sums = two_week_panel.layout.weekly_sums(ratios)
        assert np.all(np.abs(sums - 1.0) <= 1e-9)

    def test_degenerate_sum_names_week(self, two_week_panel):
        with pytest.raises(DegenerateRatioError, match="week 1"):
            pred_ratio(np.array([3.0, 1.0, 1.0, -1.0]), two_week_panel.layout)

    @pytest.mark.parametrize("k", [0.5, 1.3, 10.0])
    def test_scale_invariance(self, two_week_panel, k):
        preds = np.array([3.0, 1.0, 5.0, 15.0])
        scaled = preds.copy()
        scaled[2:] *= k  # uniform within-week rescale
        base = pred_ratio(preds, two_week_panel.layout)
        bumped = pred_ratio(scaled, two_week_panel.layout)
        assert np.max(np.abs(base - bumped)) < 1e-12


class TestStage3Targets:
    def test_quarter_share_of_hundred(self):
        ds = make_panel({0: [1.0]}, {1: (4, 100.0)})
        t = stage3_target(np.array([1.0, 0.25, 0.25, 0.25, 0.25]), ds.layout)
        assert isinstance(t, StageTargets)
        assert t.values[1:].tolist() == [25.0, 25.0, 25.0, 25.0]

    def test_weekly_sums_equal_totals_exactly(self, two_week_panel):
        preds = np.array([3.0, 1.0, 5.0, 15.0])
        layout = two_week_panel.layout
        t = stage3_target(pred_ratio(preds, layout), layout)
        sums = two_week_panel.layout.weekly_sums(t.values)
        totals = two_week_panel.layout.totals
        assert np.all(np.abs(sums - totals) <= 1e-9 * np.abs(totals))

    def test_uniform_ratios_reproduce_trivial_constant(self):
        ds = make_panel({0: [2.0, 2.0]}, {1: (4, 12.0)})
        ratios = np.array([0.5, 0.5, 0.25, 0.25, 0.25, 0.25])
        t = stage3_target(ratios, ds.layout)
        assert t.values[2:].tolist() == [3.0, 3.0, 3.0, 3.0]


class TestStage3Loss:
    def test_hand_value(self, two_week_panel):
        obj = stage3(two_week_panel, [3.0, 1.0, 2.5, 7.5])
        preds = np.array([3.0, 1.0, 2.0, 7.0])
        # residuals (0, 1); pulls (0, 0, -0.5, -0.5)
        assert obj.loss(preds) == (1.0 + 0.5) / 4.0

    def test_grad_hand_value(self, two_week_panel):
        obj = stage3(two_week_panel, [3.0, 1.0, 2.5, 7.5])
        gh = obj.grad_hess(np.array([3.0, 1.0, 2.0, 7.0]))
        assert gh.grad.tolist() == [0.0, 0.0, -0.75, -0.75]
        assert gh.hess == 1.0

    def test_minimum_at_consistent_targets(self, two_week_panel):
        # Targets that already satisfy the constraint zero the gradient.
        obj = stage3(two_week_panel, [3.0, 1.0, 2.5, 7.5])
        gh = obj.grad_hess(obj.targets.values)
        assert gh.grad.tolist() == [0.0, 0.0, 0.0, 0.0]


class TestConstraintOnly:
    def test_loss_hand_value(self, two_week_panel):
        preds = np.array([1.0, 1.0, 2.0, 3.0])
        # residuals (2, 5)
        obj = ConstraintOnlyObjective(two_week_panel.layout)
        assert obj.loss(preds) == (4.0 + 25.0) / 4.0

    def test_grad_is_week_constant(self, two_week_panel):
        preds = np.array([1.0, 1.0, 2.0, 3.0])
        gh = ConstraintOnlyObjective(two_week_panel.layout).grad_hess(preds)
        assert gh.grad.tolist() == [-1.0, -1.0, -2.5, -2.5]
        assert gh.hess == 0.5

    def test_zero_at_satisfied_constraint(self, two_week_panel):
        preds = np.array([2.0, 2.0, 5.0, 5.0])
        obj = ConstraintOnlyObjective(two_week_panel.layout)
        assert obj.loss(preds) == 0.0
        assert obj.grad_hess(preds).grad.tolist() == [
            0.0, 0.0, 0.0, 0.0,
        ]


class TestObjectiveWrappers:
    def test_base_scores(self, two_week_panel):
        assert stage1([2.0, 4.0]).base_score() == 3.0
        assert stage2(two_week_panel, [1.0, 2.0, 3.0, 4.0]).base_score() == 2.5
        assert ConstraintOnlyObjective(two_week_panel.layout).base_score() == 0.0

    def test_wrapper_matches_functions(self, two_week_panel):
        # Stage 3 trains on stage 2's loss, bit for bit, under its own name.
        values = [3.0, 1.0, 4.0, 4.0]
        s2, s3 = stage2(two_week_panel, values), stage3(two_week_panel, values)
        preds = np.array([2.0, 2.0, 3.0, 3.0])
        assert s3.loss(preds) == s2.loss(preds)
        assert np.array_equal(s3.grad_hess(preds).grad, s2.grad_hess(preds).grad)
        for method in ("loss", "grad_hess"):
            assert method in vars(Stage3Objective)


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_stage2_derivatives_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    ds = random_panel(rng)
    obj = stage2(ds, rng.uniform(0.5, 40.0, size=ds.n))
    preds = rng.uniform(0.0, 40.0, size=ds.n)
    gh = obj.grad_hess(preds)
    fd = fd_gradient(obj.loss, preds)
    assert rel_err(gh.grad, fd) < 1e-6
    # The one Hessian is the exact diagonal of every row.
    fd2 = fd_hessian_diag(obj.loss, preds)
    assert rel_err(np.full(ds.n, gh.hess), fd2) < 1e-4


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_stage3_derivatives_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    ds = random_panel(rng)
    obj = stage3(ds, rng.uniform(0.5, 40.0, size=ds.n))
    preds = rng.uniform(0.0, 40.0, size=ds.n)
    gh = obj.grad_hess(preds)
    fd = fd_gradient(obj.loss, preds)
    assert rel_err(gh.grad, fd) < 1e-6
    # The one Hessian is the exact diagonal of every row.
    fd2 = fd_hessian_diag(obj.loss, preds)
    assert rel_err(np.full(ds.n, gh.hess), fd2) < 1e-4
