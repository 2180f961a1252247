import csv

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
    GroupLayout,
    PanelDataset,
    PANEL_COLUMNS,
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


class TestFromColumns:
    def test_equals_from_records_and_copies_features(self):
        ds = make_panel({0: [1.25, 2.5], 3: [0.1, 0.2, 0.3]}, {4: (2, 10.7)})
        features = ds.features.copy()
        sales = ds.actuals.tolist() + [None] * (ds.n - ds.m)
        again = PanelDataset.from_columns(
            ds.product_ids, ds.week_of_row, features, sales, ds.feature_names,
            [None] * ds.m + [10.7, 10.7],
        )
        assert again == ds
        features[0, 0] = 99.0
        assert again == ds

    @pytest.mark.parametrize("column, value", [
        ("product_ids", ["P0"]),
        ("week_of_row", [0]),
        ("features", [[0.5]]),
        ("sales", [1.0]),
        ("features", [[0.5, 1.0], [0.6, 1.0]]),  # two features, one name
        ("category_totals", [5.0]),
    ])
    def test_column_shapes_must_agree(self, column, value):
        columns = dict(product_ids=["P0", "P1"], week_of_row=[0, 0],
                       features=[[0.5], [0.6]], sales=[1.0, 2.0])
        columns[column] = value
        with pytest.raises(ValidationError, match="columns disagree"):
            PanelDataset.from_columns(feature_names=["f_0"], **columns)


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

    @pytest.mark.parametrize("column, fragment", [
        ([None, None, 9.0], r"future week 1: no category total \(row 1 lacks one\)"),
        ([None, 9.0, 8.0], "future week 1: conflicting category totals 9.0 and 8.0"),
        ([None, np.nan, np.nan], "future week 1: category total must be finite"),
        ([None, np.inf, np.inf], "future week 1: category total must be finite"),
        ([None, -1.0, -1.0], r"future week 1: category total must be .* >= 0"),
    ])
    def test_future_total_column_checked_per_week(self, column, fragment):
        with pytest.raises(ConstraintDataError, match=fragment):
            GroupLayout.from_week_column([0, 1, 1], [2.0], column)

    def test_total_column_ignored_on_historical_rows(self):
        layout = GroupLayout.from_week_column([0, 1], [2.0], [np.nan, 5.0])
        assert layout.totals.tolist() == [2.0, 5.0]

    def test_total_column_must_cover_every_row(self):
        with pytest.raises(ValidationError, match="category totals 1; the week column has 2"):
            GroupLayout.from_week_column([0, 1], [2.0], [5.0])

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


def _save_panel_csv_by_row(dataset, path, rows=None):
    """The per-row panel writer ``save_panel_csv`` replaced: the reference
    its bytes are held to."""
    totals = dict(zip(dataset.layout.weeks.tolist(), dataset.layout.totals.tolist()))
    weeks = dataset.week_of_row.tolist()
    actuals = dataset.actuals.tolist()
    features = dataset.features.tolist()
    indices = range(dataset.n) if rows is None else rows
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*PANEL_COLUMNS, *dataset.feature_names])
        for i in indices:
            sales = repr(actuals[i]) if i < dataset.m else ""
            total = "" if i < dataset.m else repr(totals[weeks[i]])
            writer.writerow(
                [dataset.product_ids[i], str(weeks[i]), sales, total]
                + [repr(v) for v in features[i]]
            )


def _awkward_panel():
    """Two historical weeks and one future week of three products whose ids
    need CSV quoting, with features at float extremes."""
    ids = sorted(["a,b", 'a"b', "a\nb"])
    features = [
        [-0.0, 5e-324], [1.7e308, -1.7e308], [0.1, 1 / 3],
        [2.5, -7.0], [1e-300, 123456789.125], [0.0, -2.0],
        [0.3, 0.7], [9.0, 8.0], [1e16, -1e-16],
    ]
    return PanelDataset.from_columns(
        ids * 3, [0, 0, 0, 1, 1, 1, 2, 2, 2], features,
        [0.1, 0.2, 0.30000000000000004, 4.0, 5e-5, 6.0, None, None, None],
        ["f_0", "f_1"], [None] * 6 + [10.7] * 3,
    )


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

    @pytest.mark.parametrize("rows", [
        None,
        range(4, 8),  # across the historical/future boundary at row 6
        [7, 0, 5, 6, 5, 1],  # unordered, with a repeated row
        "generator",
    ])
    def test_bytes_equal_the_per_row_writer(self, tmp_path, rows):
        ds = _awkward_panel()
        if rows == "generator":
            rows = (i for i in (8, 6, 2, 7))
            expected_rows = [8, 6, 2, 7]
        else:
            expected_rows = rows if rows is None else list(rows)
        save_panel_csv(ds, tmp_path / "columns.csv", rows=rows)
        _save_panel_csv_by_row(ds, tmp_path / "rows.csv", rows=expected_rows)
        got = (tmp_path / "columns.csv").read_bytes()
        assert got == (tmp_path / "rows.csv").read_bytes()
        assert b'"a,b"' in got and b'"a""b"' in got and b'"a\nb"' in got

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("product_id,week,sales\nP0,0,1.0\n")
        with pytest.raises(SchemaError, match="category_total"):
            load_panel_csv(path)

    @pytest.mark.parametrize("header", [
        "product_id,week,sales,category_total,alpha,sales",
        "product_id,week,sales,category_total,alpha,alpha",
    ], ids=["sales", "feature"])
    def test_repeated_column_rejected(self, tmp_path, header):
        path = tmp_path / "p.csv"
        path.write_text(f"{header}\nP0,0,1.0,,0.5,1.5\n")
        column = header.rsplit(",", 1)[1]
        with pytest.raises(SchemaError, match=f"column '{column}' appears more than once"):
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

    def test_non_finite_future_total_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "product_id,week,sales,category_total,alpha\n"
            "P0,0,1.0,,0.5\n"
            "P0,1,,nan,0.5\n"
            "P1,1,,nan,0.5\n"
        )
        with pytest.raises(ConstraintDataError, match="week 1: category total must"):
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
        [None, None, 9.0],
    )
    assert layout.is_future.tolist() == [False, True]
    assert layout.totals[0] == 4.0
