import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_panel
from triboost.errors import (
    ConstraintDataError,
    OrderingError,
    SchemaError,
    ValidationError,
)
from triboost.panel import (
    CsvSchema,
    GroupLayout,
    PanelDataset,
    PanelRecord,
    load_panel_csv,
    save_panel_csv,
)


def rec(p, w, feats, sales=None):
    return PanelRecord(
        product_id=p, week_index=w, features=np.asarray(feats, float),
        actual_sales=sales,
    )


class TestFromRecords:
    def test_basic_shape(self):
        ds = make_panel({0: [1, 2], 1: [3, 4]}, {2: (2, 10.0)})
        assert (ds.m, ds.n) == (4, 6)
        assert ds.feature_names == ("f_0", "f_1")
        assert ds.features.shape == (6, 2)
        assert ds.actuals.tolist() == [1, 2, 3, 4]

    def test_unsorted_rows_rejected(self):
        records = [rec("P1", 0, [0.0], 1.0), rec("P0", 0, [0.0], 1.0)]
        with pytest.raises(OrderingError):
            PanelDataset.from_records(records, ["f_0"])

    def test_weeks_out_of_order_rejected(self):
        records = [rec("P0", 1, [0.0], 1.0), rec("P0", 0, [0.0], 1.0)]
        with pytest.raises(OrderingError):
            PanelDataset.from_records(records, ["f_0"])

    def test_duplicate_row_rejected(self):
        records = [rec("P0", 0, [0.0], 1.0), rec("P0", 0, [1.0], 2.0)]
        with pytest.raises(ValidationError, match="duplicate"):
            PanelDataset.from_records(records, ["f_0"])

    def test_future_before_historical_rejected(self):
        records = [rec("P0", 0, [0.0]), rec("P0", 1, [0.0], 1.0)]
        with pytest.raises(OrderingError, match="contiguous prefix"):
            PanelDataset.from_records(records, ["f_0"], {0: 5.0})

    def test_mixed_week_rejected(self):
        records = [rec("P0", 0, [0.0], 1.0), rec("P1", 0, [0.0])]
        with pytest.raises(OrderingError, match="mixes"):
            PanelDataset.from_records(records, ["f_0"], {0: 5.0})

    def test_all_future_rejected(self):
        records = [rec("P0", 0, [0.0])]
        with pytest.raises(ValidationError, match="historical"):
            PanelDataset.from_records(records, ["f_0"], {0: 5.0})

    def test_negative_sales_rejected(self):
        records = [rec("P0", 0, [0.0], -1.0)]
        with pytest.raises(ValidationError, match=">= 0"):
            PanelDataset.from_records(records, ["f_0"])

    @pytest.mark.parametrize("sales", [np.nan, -2.5])
    def test_bad_sales_on_later_row_named(self, sales):
        records = [rec("P0", 0, [0.0], 1.0), rec("P1", 0, [0.0], 2.0),
                   rec("P0", 1, [0.0], sales)]
        with pytest.raises(ValidationError) as info:
            PanelDataset.from_records(records, ["f_0"])
        assert str(info.value) == (
            f"row 2: actual sales must be finite and >= 0, got {sales}"
        )

    def test_negative_week_rejected(self):
        records = [rec("P0", -1, [0.0], 1.0), rec("P0", 0, [0.0], 1.0)]
        with pytest.raises(ValidationError) as info:
            PanelDataset.from_records(records, ["f_0"])
        assert str(info.value) == "row 0: negative week index -1"

    def test_nan_feature_rejected(self):
        records = [rec("P0", 0, [np.nan], 1.0)]
        with pytest.raises(ValidationError, match="non-finite"):
            PanelDataset.from_records(records, ["f_0"])

    def test_non_finite_feature_on_later_row_named(self):
        records = [rec("P0", 0, [0.0, 1.0], 1.0), rec("P1", 0, [2.0, 3.0], 1.0),
                   rec("P0", 1, [4.0, np.inf]), rec("P1", 1, [np.nan, 5.0])]
        with pytest.raises(ValidationError) as info:
            PanelDataset.from_records(records, ["f_0", "f_1"], {1: 3.0})
        assert str(info.value) == (
            "row 2 (product P0, week 1): non-finite feature value"
        )

    def test_feature_width_mismatch_rejected(self):
        records = [rec("P0", 0, [0.0, 1.0], 1.0)]
        with pytest.raises(ValidationError, match="features"):
            PanelDataset.from_records(records, ["f_0"])

    def test_missing_future_total_rejected(self):
        records = [rec("P0", 0, [0.0], 1.0), rec("P0", 1, [0.0])]
        with pytest.raises(ConstraintDataError, match="no category total"):
            PanelDataset.from_records(records, ["f_0"], {})

    def test_negative_future_total_rejected(self):
        records = [rec("P0", 0, [0.0], 1.0), rec("P0", 1, [0.0])]
        with pytest.raises(ConstraintDataError):
            PanelDataset.from_records(records, ["f_0"], {1: -3.0})

    def test_feature_matrix_read_only(self):
        ds = make_panel({0: [1, 2]})
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

    def test_round_trip_through_records(self):
        ds = make_panel({0: [1.25, 2.5], 3: [0.1, 0.2, 0.3]}, {4: (2, 10.7)})
        future = dict(zip(ds.layout.weeks.tolist(), ds.layout.totals.tolist()))
        assert PanelDataset.from_records(ds.records, ds.feature_names, future) == ds

    def test_equality_sees_one_product_or_week(self):
        def panel(first_id, first_week):
            return PanelDataset.from_records(
                [rec(first_id, first_week, [0.5], 1.0), rec("P1", 2, [0.5], 2.0)],
                ["f_0"],
            )

        base = panel("P0", 1)
        assert panel("P0", 1) == base
        assert panel("P2", 1) != base  # one product id differs
        assert panel("P0", 0) != base  # one week differs


class TestWeekGroups:
    def test_historical_total_is_member_order_sum(self):
        # 0.1 + 0.2 + 0.3 left-to-right differs in the last bit from other
        # association orders, which is exactly what the contract pins down.
        sales = [0.1, 0.2, 0.3]
        ds = make_panel({0: sales})
        expected = 0.0
        for s in sales:
            expected += s
        assert ds.layout.totals[0] == expected

    def test_wide_week_total_is_member_order_sum_not_reduceat(self):
        # np.add.reduceat does not add left to right; on these twelve
        # sales it gives different last bits, so the total must come from
        # the left-to-right loop.
        sales = [0.1 * (i + 1) for i in range(12)]
        expected = 0.0
        for s in sales:
            expected += s
        reduced = np.add.reduceat(np.asarray(sales), [0])[0]
        assert reduced != expected
        layout = GroupLayout.from_week_column([3] * 12, sales)
        assert layout.totals.tolist() == [expected]

    def test_future_total_comes_from_mapping(self):
        ds = make_panel({0: [1.0]}, {1: (2, 42.5)})
        assert ds.layout.totals[1] == 42.5
        assert ds.layout.is_future[1]

    def test_group_membership(self):
        ds = make_panel({0: [1, 2, 3], 2: [4, 5]}, {5: (2, 9.0)})
        lay = ds.layout
        assert lay.weeks.tolist() == [0, 2, 5]
        members = [list(range(s, s + c)) for s, c in zip(lay.starts, lay.counts)]
        assert members == [[0, 1, 2], [3, 4], [5, 6]]
        assert lay.is_future.tolist() == [False, False, True]
        assert ds.week_of_row.tolist() == [0, 0, 0, 2, 2, 5, 5]


class TestGroupLayout:
    def test_arrays(self):
        ds = make_panel({0: [1, 2], 1: [3, 4, 5]}, {2: (1, 7.0)})
        lay = ds.layout
        assert lay.starts.tolist() == [0, 2, 5]
        assert lay.counts.tolist() == [2, 3, 1]
        assert lay.weeks.tolist() == [0, 1, 2]
        assert lay.is_future.tolist() == [False, False, True]
        assert lay.totals.tolist() == [3.0, 12.0, 7.0]

    def test_weekly_sums_match_python_loop(self):
        ds = make_panel({0: [1, 2], 1: [3, 4, 5]}, {2: (2, 7.0)})
        values = np.arange(1.0, 8.0) * 1.37
        slow = []
        for s, c in zip(ds.layout.starts, ds.layout.counts):
            acc = 0.0
            for i in range(s, s + c):
                acc += values[i]
            slow.append(acc)
        assert ds.layout.weekly_sums(values).tolist() == slow

    def test_residuals(self):
        ds = make_panel({0: [1, 2]}, {1: (2, 10.0)})
        preds = np.array([1.0, 2.0, 3.0, 4.0])
        assert ds.layout.residuals(preds).tolist() == [0.0, 3.0]

    def test_expand(self):
        ds = make_panel({0: [1, 2], 1: [3]})
        out = ds.layout.expand(np.array([5.0, 7.0]))
        assert out.tolist() == [5.0, 5.0, 7.0]

    def test_non_contiguous_members_rejected(self):
        # week 0's rows are 0 and 2: the week column is not sorted
        with pytest.raises(OrderingError, match="contiguous"):
            GroupLayout.from_week_column([0, 1, 0], [1.0, 1.0, 1.0])

    def test_coverage_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="cover"):
            GroupLayout.from_week_column([0, 0], [1.0] * 5)

    def test_zero_groups_rejected(self):
        with pytest.raises(ValidationError):
            GroupLayout.from_week_column([], [])

    @given(
        counts=st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                        max_size=8),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_expand_then_sum_scales_by_count(self, counts, seed):
        rng = np.random.default_rng(seed)
        weeks = np.repeat(np.arange(len(counts)), counts)
        lay = GroupLayout.from_week_column(weeks, rng.uniform(1, 100, weeks.size))
        weekly = rng.normal(size=len(counts))
        sums = lay.weekly_sums(lay.expand(weekly))
        assert np.allclose(sums, weekly * lay.counts, rtol=1e-12)


class TestCsvIo:
    def test_round_trip_exact(self, tmp_path):
        ds = make_panel({0: [1.25, 2.5], 3: [0.1, 0.2]}, {4: (2, 10.7)})
        path = tmp_path / "panel.csv"
        save_panel_csv(ds, path)
        again = load_panel_csv(path)
        assert again == ds
        assert np.array_equal(again.features, ds.features)

    def test_multi_file_load_equals_concatenation(self, tmp_path):
        ds = make_panel({0: [1, 2], 1: [3, 4]}, {2: (2, 10.0), 3: (2, 11.0)})
        whole = tmp_path / "all.csv"
        hist = tmp_path / "hist.csv"
        fut = tmp_path / "fut.csv"
        save_panel_csv(ds, whole)
        save_panel_csv(ds, hist, rows=range(ds.m))
        save_panel_csv(ds, fut, rows=range(ds.m, ds.n))
        assert load_panel_csv([hist, fut]) == load_panel_csv(whole)
        # order of the file list must not matter: rows are re-sorted
        assert load_panel_csv([fut, hist]) == ds

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("product_id,week,sales\nP0,0,1.0\n")
        with pytest.raises(SchemaError, match="category_total"):
            load_panel_csv(path)

    def test_unmapped_columns_become_features(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "product_id,week,sales,category_total,alpha,beta\n"
            "P0,0,1.0,,0.5,1.5\n"
        )
        ds = load_panel_csv(path)
        assert ds.feature_names == ("alpha", "beta")
        assert ds.features.tolist() == [[0.5, 1.5]]

    def test_explicit_feature_subset(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "product_id,week,sales,category_total,alpha,beta\n"
            "P0,0,1.0,,0.5,1.5\n"
        )
        ds = load_panel_csv(path, CsvSchema(features=("beta",)))
        assert ds.feature_names == ("beta",)
        assert ds.features.tolist() == [[1.5]]

    def test_category_column_must_be_constant(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "product_id,week,sales,category_total,category,alpha\n"
            "P0,0,1.0,,snacks,0.5\n"
            "P1,0,2.0,,drinks,0.6\n"
        )
        with pytest.raises(ValidationError, match="categories"):
            load_panel_csv(path)

    def test_category_column_not_a_feature(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "product_id,week,sales,category_total,category,alpha\n"
            "P0,0,1.0,,snacks,0.5\n"
        )
        ds = load_panel_csv(path)
        assert ds.feature_names == ("alpha",)

    def test_conflicting_future_totals_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "product_id,week,sales,category_total,alpha\n"
            "P0,0,1.0,,0.5\n"
            "P0,1,,10.0,0.5\n"
            "P1,1,,11.0,0.5\n"
        )
        with pytest.raises(ConstraintDataError, match="conflicting"):
            load_panel_csv(path)

    def test_future_row_without_total_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "product_id,week,sales,category_total,alpha\n"
            "P0,0,1.0,,0.5\n"
            "P0,1,,,0.5\n"
        )
        with pytest.raises(ConstraintDataError, match="lacks"):
            load_panel_csv(path)

    def test_bad_number_reported_with_location(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "product_id,week,sales,category_total,alpha\n"
            "P0,0,one,,0.5\n"
        )
        with pytest.raises(ValidationError, match=r"p\.csv:2.*sales"):
            load_panel_csv(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_panel_csv(tmp_path / "nope.csv")

    def test_feature_names_must_agree_across_files(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("product_id,week,sales,category_total,alpha\nP0,0,1.0,,0.5\n")
        b.write_text("product_id,week,sales,category_total,beta\nP0,1,,5.0,0.5\n")
        with pytest.raises(SchemaError, match="feature columns"):
            load_panel_csv([a, b])


def test_build_week_groups_marks_future_from_m():
    records = [
        rec("P0", 0, [0.0], 1.5),
        rec("P1", 0, [0.0], 2.5),
        rec("P0", 1, [0.0]),
    ]
    layout = GroupLayout.from_week_column(
        [r.week_index for r in records],
        [r.actual_sales for r in records[:2]],
        {1: 9.0},
    )
    assert layout.is_future.tolist() == [False, True]
    assert layout.totals[0] == 4.0
