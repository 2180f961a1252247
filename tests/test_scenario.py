import numpy as np
import pytest

from triboost.errors import PersistenceError, ScenarioConfigError
from triboost.panel import load_panel_csv
from triboost.scenario import (
    CategoryCurve,
    GroundTruth,
    ScenarioConfig,
    generate,
    write_scenario,
)


def row_index(dataset):
    keys = zip(dataset.product_ids, dataset.week_of_row.tolist())
    return {key: i for i, key in enumerate(keys)}


def sales_in_week(dataset, week):
    """{product: actual sales} of one historical week."""
    rows = np.flatnonzero(dataset.week_of_row[: dataset.m] == week)
    return {dataset.product_ids[i]: float(dataset.actuals[i]) for i in rows}


SMALL = dict(
    num_products=4,
    num_weeks_hist=10,
    num_weeks_future=5,
    launch_schedule={"P3": 10},
    curve=CategoryCurve(kind="flat", base=100.0),
    noise_sd=0.0,
    seed=3,
)


class TestCurve:
    def test_flat(self):
        t = CategoryCurve(kind="flat", base=50.0).totals(4)
        assert t.tolist() == [50.0, 50.0, 50.0, 50.0]

    def test_linear_trend(self):
        t = CategoryCurve(kind="linear-trend", base=10.0, slope=2.0).totals(3)
        assert t.tolist() == [10.0, 12.0, 14.0]

    def test_seasonal_zero_amplitude_is_flat(self):
        t = CategoryCurve(kind="seasonal", base=7.0, amplitude=0.0).totals(5)
        assert t.tolist() == [7.0] * 5

    def test_seasonal_oscillates_around_base(self):
        c = CategoryCurve(kind="seasonal", base=100.0, amplitude=0.2, period=8.0)
        t = c.totals(8)
        assert t.max() > 100.0 > t.min()
        assert np.all(t > 0)

    def test_unknown_kind(self):
        with pytest.raises(ScenarioConfigError, match="curve kind"):
            CategoryCurve(kind="bathtub")

    def test_nonpositive_base(self):
        with pytest.raises(ScenarioConfigError, match="base"):
            CategoryCurve(kind="flat", base=0.0)

    @pytest.mark.parametrize("field", ["base", "slope", "amplitude", "period"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_field_rejected(self, field, value):
        # period=inf used to give a flat curve; a NaN failed later as a
        # non-finite feature on some row of the generated panel.
        with pytest.raises(ScenarioConfigError, match=f"curve {field} must be finite"):
            CategoryCurve(**{field: value})

    def test_totals_must_stay_positive(self):
        c = CategoryCurve(kind="seasonal", base=100.0, amplitude=1.5)
        with pytest.raises(ScenarioConfigError, match="positive"):
            c.totals(60)

    def test_declining_trend_caught(self):
        c = CategoryCurve(kind="linear-trend", base=10.0, slope=-3.0)
        with pytest.raises(ScenarioConfigError, match="positive"):
            c.totals(10)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = ScenarioConfig()
        assert cfg.product_ids() == ("P0", "P1", "P2", "P3", "P4")
        assert cfg.launch_schedule == {"P4": 80}

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(num_products=0), "num_products"),
            (dict(num_weeks_hist=0), "week counts"),
            (dict(num_weeks_future=0), "week counts"),
            (dict(share_decay_on_launch=0.0), "share_decay_on_launch"),
            (dict(share_decay_on_launch=1.0), "share_decay_on_launch"),
            (dict(noise_sd=-0.1), "noise_sd"),
            (dict(stage1_bias_injection=-1.0), "bias"),
            (dict(launch_schedule={"P9": 80}), "unknown product"),
            (dict(launch_schedule={"P4": 0}), "outside"),
            (dict(launch_schedule={"P4": 100}), "outside"),
            (dict(launch_schedule={"P3": 80, "P4": 80}), "share week"),
            (dict(launch_schedule={"P4": 5}), "future window"),
            (
                dict(
                    num_products=2,
                    launch_schedule={"P0": 40, "P1": 80},
                ),
                "on sale from week 0",
            ),
            (dict(noise_sd=float("nan")), "noise_sd"),
            (dict(noise_sd=float("inf")), "noise_sd"),
            (dict(stage1_bias_injection=float("nan")), "stage1_bias_injection"),
            (dict(stage1_bias_injection=float("inf")), "stage1_bias_injection"),
            (dict(seed=-1), "seed"),
            # Counts, weeks and the seed are integers.  A float used to pass
            # the range checks and fail later in range() or SeedSequence; a
            # fractional launch week put its rows on the floored week with
            # f_2 still reading the fraction.
            (dict(num_products=5.0), "num_products must be an integer, got 5.0"),
            (dict(num_products=True), "num_products must be an integer"),
            (dict(num_weeks_hist=80.0), "num_weeks_hist must be an integer"),
            (dict(num_weeks_future=20.5), "num_weeks_future must be an integer"),
            (dict(seed=1.5), "seed must be an integer, got 1.5"),
            (dict(seed=True), "seed must be an integer, got True"),
            (dict(seed="7"), "seed must be an integer"),
            (dict(launch_schedule={"P4": 80.5}), "launch week of 'P4' must be an integer"),
            (dict(launch_schedule={"P4": 80.0}), "launch week of 'P4' must be an integer"),
        ],
    )
    def test_rejects(self, kwargs, fragment):
        with pytest.raises(ScenarioConfigError, match=fragment):
            ScenarioConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = ScenarioConfig(num_products=np.int64(5), num_weeks_hist=np.int32(80),
                             num_weeks_future=np.int64(20), seed=np.uint8(7),
                             launch_schedule={"P4": np.int64(80)})
        ds, truth = generate(cfg)
        want, want_truth = generate(ScenarioConfig())
        assert np.array_equal(ds.features, want.features)
        assert np.array_equal(truth.sales, want_truth.sales)

    def test_product_id_width_grows(self):
        cfg = ScenarioConfig(num_products=12, launch_schedule={"P11": 80})
        assert cfg.product_ids()[:2] == ("P00", "P01")
        assert cfg.product_ids()[-1] == "P11"


class TestShapes:
    def test_default_scenario_dimensions(self):
        ds, truth = generate(ScenarioConfig())
        # 4 products over 80 historical weeks, 5 over 20 future weeks
        assert ds.m == 320
        assert ds.n == 420
        assert ds.feature_names == ("f_0", "f_1", "f_2", "f_3", "f_4")
        assert len(truth) == 100
        assert truth.weeks.min() == 80 and truth.weeks.max() == 99

    def test_truth_aligns_with_future_rows(self):
        ds, truth = generate(ScenarioConfig())
        assert ds.product_ids[ds.m :] == truth.product_ids
        assert ds.week_of_row[ds.m :].tolist() == truth.weeks.tolist()
        assert ds.actuals.shape == (ds.m,)  # future rows carry no sales


class TestDeterminism:
    def test_regeneration_is_bitwise_identical(self):
        a_ds, a_truth = generate(ScenarioConfig())
        b_ds, b_truth = generate(ScenarioConfig())
        assert np.array_equal(a_ds.features, b_ds.features)
        assert np.array_equal(a_ds.actuals[: a_ds.m], b_ds.actuals[: b_ds.m])
        assert np.array_equal(a_ds.layout.totals, b_ds.layout.totals)
        assert np.array_equal(a_truth.sales, b_truth.sales)

    def test_seed_changes_output(self):
        a, _ = generate(ScenarioConfig())
        b, _ = generate(ScenarioConfig(seed=8))
        assert not np.array_equal(a.features, b.features)


class TestConservation:
    """The weekly sum of true sales must equal the recorded category total
    to the last bit, noise or no noise."""

    @pytest.mark.parametrize("noise_sd", [0.0, 0.02, 0.3])
    def test_totals_match_member_order_sums(self, noise_sd):
        ds, truth = generate(ScenarioConfig(noise_sd=noise_sd))
        by_week: dict[int, float] = {}
        for week, sales in zip(ds.week_of_row[: ds.m].tolist(), ds.actuals.tolist()):
            by_week[week] = by_week.get(week, 0.0) + sales
        for pid, week, value in zip(truth.product_ids, truth.weeks, truth.sales):
            w = int(week)
            by_week[w] = by_week.get(w, 0.0) + float(value)
        for week, total in zip(ds.layout.weeks.tolist(), ds.layout.totals.tolist()):
            assert by_week[week] == total  # bitwise

    def test_noise_perturbs_split_not_total(self):
        quiet, t0 = generate(ScenarioConfig(noise_sd=0.0))
        loud, t1 = generate(ScenarioConfig(noise_sd=0.1))
        assert not np.array_equal(t0.sales, t1.sales)
        assert np.array_equal(quiet.layout.totals, loud.layout.totals)


class TestLaunchCalibration:
    def test_entrant_takes_configured_share(self):
        ds, truth = generate(ScenarioConfig(**SMALL))
        idx = {(p, int(w)): s for p, w, s in
               zip(truth.product_ids, truth.weeks, truth.sales)}
        total = dict(zip(ds.layout.weeks.tolist(), ds.layout.totals.tolist()))
        assert idx[("P3", 10)] / total[10] == pytest.approx(0.25, abs=1e-12)

    def test_incumbents_keep_the_rest(self):
        ds, truth = generate(ScenarioConfig(**SMALL))
        idx = {(p, int(w)): s for p, w, s in
               zip(truth.product_ids, truth.weeks, truth.sales)}
        total = dict(zip(ds.layout.weeks.tolist(), ds.layout.totals.tolist()))
        incumbents = sum(idx[(p, 10)] for p in ("P0", "P1", "P2"))
        assert incumbents / total[10] == pytest.approx(0.75, abs=1e-12)

    def test_every_incumbent_share_drops_at_launch(self):
        ds, truth = generate(ScenarioConfig(**SMALL))
        idx = {(p, int(w)): s for p, w, s in
               zip(truth.product_ids, truth.weeks, truth.sales)}
        before = sales_in_week(ds, 9)
        total = dict(zip(ds.layout.weeks.tolist(), ds.layout.totals.tolist()))
        for p in ("P0", "P1", "P2"):
            assert idx[(p, 10)] / total[10] < before[p] / total[9]

    def test_historical_launch_calibrated_too(self):
        cfg = ScenarioConfig(
            num_products=4,
            num_weeks_hist=10,
            num_weeks_future=5,
            launch_schedule={"P2": 5, "P3": 12},
            curve=CategoryCurve(kind="flat", base=100.0),
            noise_sd=0.0,
            seed=3,
        )
        ds, truth = generate(cfg)
        week5 = sales_in_week(ds, 5)
        assert week5["P2"] / 100.0 == pytest.approx(0.25, abs=1e-12)
        assert ("P2", 4) not in row_index(ds)
        idx = {(p, int(w)): s for p, w, s in
               zip(truth.product_ids, truth.weeks, truth.sales)}
        assert idx[("P3", 12)] / 100.0 == pytest.approx(0.25, abs=1e-12)


@pytest.fixture(scope="module")
def small(request):
    ds, _ = generate(ScenarioConfig(**SMALL))
    return ds, row_index(ds)


class TestFeatureSemantics:
    def test_age_counts_from_launch(self, small):
        ds, idx = small
        assert ds.features[idx[("P0", 7)], 0] == 7.0
        assert ds.features[idx[("P3", 10)], 0] == 0.0
        assert ds.features[idx[("P3", 14)], 0] == 4.0

    def test_weeks_since_and_to_launch(self, small):
        ds, idx = small
        r = idx[("P0", 9)]
        assert ds.features[r, 1] == 9.0  # since week-0 event
        assert ds.features[r, 2] == 1.0  # launch next week
        r = idx[("P0", 10)]
        assert ds.features[r, 1] == 0.0
        assert ds.features[r, 2] == 15.0  # no further event: panel length
        r = idx[("P0", 13)]
        assert ds.features[r, 1] == 3.0

    def test_historical_lag_is_previous_week_sales(self, small):
        ds, idx = small
        for w in range(1, 10):
            prev = ds.actuals[idx[("P1", w - 1)]]
            assert ds.features[idx[("P1", w)], 3] == prev
        assert ds.features[idx[("P1", 0)], 3] == 0.0

    def test_future_lag_frozen_at_last_observation(self, small):
        ds, idx = small
        last = ds.actuals[idx[("P1", 9)]]
        # SMALL keeps the default 0.15 bias injection on future rows
        for w in range(10, 15):
            assert ds.features[idx[("P1", w)], 3] == last * 1.15

    def test_entrant_has_zero_lag_at_launch(self, small):
        ds, idx = small
        assert ds.features[idx[("P3", 10)], 3] == 0.0

    def test_bias_scales_future_lag_only(self):
        cfg = dict(SMALL)
        plain, _ = generate(ScenarioConfig(**cfg, stage1_bias_injection=0.0))
        warped, _ = generate(ScenarioConfig(**cfg, stage1_bias_injection=0.3))
        f0, f1 = plain.features, warped.features
        m = plain.m
        assert np.array_equal(f0[:m], f1[:m])
        assert np.array_equal(f1[m:, 3], f0[m:, 3] * 1.3)
        keep = [0, 1, 2, 4]
        assert np.array_equal(f0[m:][:, keep], f1[m:][:, keep])
        assert np.array_equal(plain.actuals[:m], warped.actuals[:m])


class TestWriteScenario:
    def test_round_trip_through_csv(self, tmp_path):
        ds, truth = generate(ScenarioConfig(**SMALL))
        paths = write_scenario(ds, truth, tmp_path / "s")
        loaded = load_panel_csv([paths["train"], paths["test"]])
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.actuals[: ds.m], ds.actuals[: ds.m])
        assert np.array_equal(loaded.layout.totals, ds.layout.totals)
        assert loaded.m == ds.m and loaded.n == ds.n

    def test_truth_file_contents(self, tmp_path):
        ds, truth = generate(ScenarioConfig(**SMALL))
        paths = write_scenario(ds, truth, tmp_path / "s")
        lines = paths["truth"].read_text().splitlines()
        assert lines[0] == "product_id,week,true_sales"
        assert len(lines) == 1 + len(truth)
        pid, week, value = lines[1].split(",")
        assert pid == truth.product_ids[0]
        assert int(week) == int(truth.weeks[0])
        assert float(value) == truth.sales[0]  # repr round-trips exactly

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds, truth = generate(ScenarioConfig(**SMALL))
        a = write_scenario(ds, truth, tmp_path / "a")
        b = write_scenario(ds, truth, tmp_path / "b")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()

    def test_unwritable_directory_is_persistence(self, tmp_path):
        ds, truth = generate(ScenarioConfig(**SMALL))
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(PersistenceError, match="cannot write"):
            write_scenario(ds, truth, blocker / "s")


def test_ground_truth_len():
    t = GroundTruth(
        product_ids=("P0", "P1"),
        weeks=np.array([5, 5]),
        sales=np.array([1.0, 2.0]),
    )
    assert len(t) == 2
