import numpy as np
import pytest

from conftest import make_panel
from triboost.errors import MetricError, ValidationError
from triboost.metrics import category_adherence, product_metrics
from triboost.panel import GroupLayout


class TestProductMetrics:
    def test_hand_values(self):
        m = product_metrics(np.array([2.0, 4.0]), np.array([1.0, 2.0]))
        assert m["mae"] == 1.5
        assert m["rmse"] == np.sqrt(2.5)
        assert m["wmape"] == 1.0

    def test_perfect_predictions(self):
        m = product_metrics(np.array([3.0, 5.0]), np.array([3.0, 5.0]))
        assert m == {"mae": 0.0, "rmse": 0.0, "wmape": 0.0}

    def test_wmape_weighs_by_volume(self):
        # Same absolute errors, bigger truth -> smaller wmape.
        small = product_metrics(np.array([2.0]), np.array([1.0]))
        large = product_metrics(np.array([101.0]), np.array([100.0]))
        assert small["mae"] == large["mae"] == 1.0
        assert large["wmape"] == 0.01 < small["wmape"]

    def test_zero_truth_rejected(self):
        with pytest.raises(MetricError, match="WMAPE"):
            product_metrics(np.array([1.0, -1.0]), np.array([0.0, 0.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="aligned"):
            product_metrics(np.array([1.0, 2.0]), np.array([1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            product_metrics(np.array([]), np.array([]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            product_metrics(np.array([np.inf]), np.array([1.0]))

    @pytest.mark.parametrize("preds, truth, named", [
        ([1e200, 1.0], [1.0, 1.0], "rmse is inf"),  # the squared error overflows
        ([1e308, 1.0], [-1e308, 1.0], "mae is inf"),  # so does the error itself
        ([1e308, 1e308], [1e308, 1e308], "truth values sum to inf"),
    ])
    def test_overflowing_metric_rejected(self, preds, truth, named):
        # Finite inputs whose metric overflows: no RuntimeWarning, and no
        # Infinity for the report's JSON.
        with pytest.raises(MetricError, match=named):
            product_metrics(np.array(preds), np.array(truth))

    def test_large_finite_metrics_keep_their_bits(self):
        p, t = np.array([1e150, 3.0]), np.array([1.0, 2.0])
        err = p - t
        assert product_metrics(p, t) == {
            "mae": float(np.mean(np.abs(err))),
            "rmse": float(np.sqrt(np.mean(err * err))),
            "wmape": float(np.sum(np.abs(err)) / 3.0),
        }


@pytest.fixture()
def panel():
    # week 0 (hist): rows sum to 4; week 1 (future): 2 rows, total 10
    return make_panel({0: [3.0, 1.0]}, {1: (2, 10.0)})


class TestCategoryAdherence:
    def test_hand_values(self, panel):
        rep = category_adherence(np.array([2.0, 2.0, 4.0, 4.0]), panel)
        # week 0: |4-4|/4 = 0; week 1: |8-10|/10 = 0.2
        assert rep.weeks.tolist() == [0, 1]
        assert rep.deviations.tolist() == [0.0, 0.2]
        assert rep.mean == 0.1
        assert rep.max == 0.2

    def test_future_only(self, panel):
        rep = category_adherence(
            np.array([0.0, 0.0, 4.0, 4.0]), panel, future_only=True
        )
        assert rep.weeks.tolist() == [1]
        assert rep.deviations.tolist() == [0.2]
        assert rep.mean == rep.max == 0.2

    def test_layout_accepted_directly(self, panel):
        p = np.array([2.0, 2.0, 4.0, 4.0])
        a = category_adherence(p, panel)
        b = category_adherence(p, panel.layout)
        assert a.deviations.tolist() == b.deviations.tolist()

    def test_weekly_sum_uses_plain_float_addition(self, panel):
        # No compensated summation: 1e16 + 1.0 rounds back to 1e16.
        p = np.array([1e16, 1.0, 5.0, 5.0])
        rep = category_adherence(p, panel)
        expected = abs((1e16 + 1.0) - 4.0) / 4.0
        assert rep.deviations[0] == expected

    def test_wrong_length(self, panel):
        with pytest.raises(ValidationError, match="expected 4"):
            category_adherence(np.zeros(3), panel)

    def test_nonpositive_total_named(self):
        # The dataset layer refuses such totals; feed a raw layout to hit
        # the metric's own guard.
        bad = GroupLayout(
            starts=np.array([0, 1], dtype=np.intp),
            counts=np.array([1, 1], dtype=np.intp),
            totals=np.array([4.0, 0.0]),
            weeks=np.array([0, 1], dtype=np.intp),
            is_future=np.array([False, True]),
            n=2,
        )
        with pytest.raises(MetricError, match="week 1"):
            category_adherence(np.zeros(2), bad)

    def test_no_weeks_selected(self):
        hist_only = make_panel({0: [1.0, 2.0]})
        with pytest.raises(MetricError, match="no weeks"):
            category_adherence(np.zeros(2), hist_only, future_only=True)

    def test_to_dict_round_trip(self, panel):
        rep = category_adherence(np.array([2.0, 2.0, 4.0, 4.0]), panel)
        d = rep.to_dict()
        assert d == {
            "per_week": {"0": 0.0, "1": 0.2},
            "mean": 0.1,
            "max": 0.2,
        }
