from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_panel, random_panel
import triboost
from triboost import gbdt, pipeline
from triboost.errors import DegenerateRatioError, ValidationError
from triboost.gbdt import GbdtModel, TrainConfig
from triboost.objectives import StageTargets, pred_ratio, stage3_target
from triboost.panel import GroupLayout
from triboost.pipeline import (
    PROBE_CONFIG,
    PipelineConfig,
    bias_tally,
    diagnose,
    probe_config,
    pseudo_label_targets,
    run_pipeline,
    run_stage1,
    stage3_features,
    trivial_solution_probe,
)
from triboost.scenario import ScenarioConfig, generate

FAST = TrainConfig(num_rounds=60, max_depth=3, learning_rate=0.1)


@pytest.fixture(scope="module")
def panel():
    # two historical weeks, two future weeks with known totals
    return make_panel(
        {0: [6.0, 2.0], 1: [5.0, 3.0]},
        {2: (2, 9.0), 3: (2, 8.0)},
        seed=11,
    )


@pytest.fixture(scope="module")
def fast_result(panel):
    return run_pipeline(panel, PipelineConfig(stage1=FAST))


class TestPseudoLabels:
    def test_splices_actuals_and_predictions(self, panel):
        s1 = np.arange(panel.n, dtype=np.float64) + 1.0
        t = pseudo_label_targets(panel, s1)
        assert isinstance(t, StageTargets)
        assert np.array_equal(t.values[: panel.m], panel.actuals)
        assert np.array_equal(t.values[panel.m :], s1[panel.m :])

    def test_wrong_length(self, panel):
        with pytest.raises(ValidationError, match="stage-1"):
            pseudo_label_targets(panel, np.zeros(panel.m))


class TestStage3Features:
    def test_appends_one_column(self, panel):
        p = np.arange(panel.n, dtype=np.float64)
        X3 = stage3_features(panel.features, p)
        assert X3.shape == (panel.n, panel.features.shape[1] + 1)
        assert np.array_equal(X3[:, :-1], panel.features)
        assert np.array_equal(X3[:, -1], p)

    def test_wrong_length(self, panel):
        with pytest.raises(ValidationError, match="stage-2"):
            stage3_features(panel.features, np.zeros(3))


class TestPipelineConfig:
    def test_stages_fall_back_to_stage1(self):
        cfg = PipelineConfig(stage1=FAST)
        assert cfg.resolved() == (FAST, FAST, FAST)

    def test_explicit_stage_configs_win(self):
        other = TrainConfig(num_rounds=5)
        cfg = PipelineConfig(stage1=FAST, stage3=other)
        assert cfg.resolved() == (FAST, FAST, other)


class TestRunPipeline:
    def test_output_shapes_and_alignment(self, panel, fast_result):
        out = fast_result.outputs
        for v in (out.stage1, out.stage2, out.stage3):
            assert v.shape == (panel.n,)
        assert pred_ratio(out.stage1, panel.layout).shape == (panel.n,)
        assert isinstance(out.stage3_targets, StageTargets)
        assert out.stage3_targets.values.shape == (panel.n,)

    def test_stage_fits_carry_models_and_curves(self, fast_result):
        for fit_ in (fast_result.stage1, fast_result.stage2, fast_result.stage3):
            assert len(fit_.loss_curve) == FAST.num_rounds + 1
            assert fit_.model.predict is not None

    def test_loss_curves_never_increase(self, fast_result):
        for fit_ in (fast_result.stage1, fast_result.stage2, fast_result.stage3):
            c = fit_.loss_curve
            assert all(b <= a for a, b in zip(c, c[1:]))

    def test_ratios_and_targets_come_from_stage1(self, panel, fast_result):
        out = fast_result.outputs
        expect = pred_ratio(out.stage1, panel.layout)
        expect_t = stage3_target(expect, panel.layout)
        assert np.array_equal(out.stage3_targets.values, expect_t.values)

    def test_thread_count_does_not_change_bits(self, panel):
        a = run_pipeline(panel, PipelineConfig(stage1=FAST),
                         with_diagnostics=False)
        b = run_pipeline(panel, PipelineConfig(stage1=FAST), n_threads=4,
                         with_diagnostics=False)
        assert np.array_equal(a.outputs.stage3, b.outputs.stage3)
        assert a.stage3.model == b.stage3.model

    def test_diagnostics_optional(self, panel):
        r = run_pipeline(panel, PipelineConfig(stage1=FAST),
                         with_diagnostics=False)
        assert r.diagnostics is None

    def test_single_product_weeks_converge_to_totals(self):
        # One product per week: shares are 1, so the fine-tune target is the
        # category total itself and training should nail it.
        ds = make_panel({0: [5.0]}, {1: (1, 10.0)}, seed=2)
        cfg = TrainConfig(num_rounds=300, max_depth=2, learning_rate=0.1,
                          reg_lambda=0.0)
        r = run_pipeline(ds, PipelineConfig(stage1=cfg), with_diagnostics=False)
        assert r.outputs.stage3_targets.values[1] == 10.0
        assert r.outputs.stage3[1] == pytest.approx(10.0, abs=1e-6)

    def test_stage_errors_name_their_stage(self):
        # All-zero history makes stage-1 predict zeros, so the share ratios
        # degenerate -- and the failure should say it happened in stage 3.
        ds = make_panel({0: [0.0, 0.0]}, {1: (2, 10.0)}, seed=3)
        with pytest.raises(DegenerateRatioError, match="^stage3: "):
            run_pipeline(ds, PipelineConfig(stage1=FAST))


class TestTrivialProbe:
    def test_recovers_per_week_constants(self, panel):
        probe = trivial_solution_probe(panel)
        assert probe.max_rel_gap < 1e-9
        assert probe.max_abs_gap < 1e-8

    def test_probe_config_is_unregularized(self):
        # lambda 0 keeps total/count the exact optimum; 200 rounds is the cap
        # that probe_config's rule never exceeds.
        assert PROBE_CONFIG.reg_lambda == 0.0
        assert PROBE_CONFIG.num_rounds == 200

    def test_loss_curve_shape(self, panel):
        # Four weeks of two rows each: one round at learning rate 1/2.
        probe = trivial_solution_probe(panel)
        assert probe.rounds == probe_config(panel.layout).num_rounds == 1
        assert len(probe.loss_curve) == probe.rounds + 1
        assert all(b <= a for a, b in
                   zip(probe.loss_curve, probe.loss_curve[1:]))


def panel_layout(counts) -> GroupLayout:
    """A layout of consecutive weeks with the given row counts."""
    weeks = np.repeat(np.arange(len(counts)), counts)
    return GroupLayout.from_week_column(weeks, np.ones(weeks.shape[0]))


def assert_probe_converges(dataset) -> None:
    """The probe rule's guarantees: a loss that never rises, one recorded
    loss per round plus the start, and total/count to within rounding
    whenever the rule's round count is below its cap."""
    probe = trivial_solution_probe(dataset)
    config = probe_config(dataset.layout)
    assert probe.rounds == config.num_rounds
    assert len(probe.loss_curve) == probe.rounds + 1
    assert np.all(np.diff(probe.loss_curve) <= 0.0)
    if probe.rounds < PROBE_CONFIG.num_rounds:
        assert probe.max_rel_gap <= 1e-12


class TestProbeRule:
    @pytest.mark.parametrize("counts, rounds, depth, lr", [
        ([5, 5, 5], 1, 2, 1 / 5),      # equal weeks: one exact step
        ([4, 5], 23, 1, 1 / 5),        # the default panel's counts
        ([49, 50, 50], 10, 2, 1 / 50),  # the wide benchmark panel's
        ([9, 12], 26, 1, 1 / 12),      # a 9-12-product multi-launch panel
        ([1], 1, 1, 1.0),              # one week still grows a valid tree
        ([1, 50], 200, 1, 1 / 50),     # a slow contraction hits the cap
    ])
    def test_rule(self, counts, rounds, depth, lr):
        config = probe_config(panel_layout(counts))
        assert (config.num_rounds, config.max_depth) == (rounds, depth)
        assert config.learning_rate == lr
        assert config.reg_lambda == 0.0

    def test_more_weeks_than_leaves_keep_the_base_config(self):
        # 10 rows in each of 10,000 weeks: 1/10 is the base learning rate.
        assert probe_config(panel_layout(np.full(10_000, 10))) == PROBE_CONFIG

    def test_256_weeks_get_one_level_fewer(self):
        assert probe_config(panel_layout(np.full(256, 3))).max_depth == 255
        assert probe_config(panel_layout(np.full(257, 3))).max_depth == 8

    def test_a_chain_of_255_levels_converges(self):
        # Totals 3**w make nearly every best cut peel off the largest week,
        # so the tree is a chain about as deep as the rule allows: 255
        # levels of recursion in the tree builder.
        dataset = make_panel({w: [3.0**w, 1.0, 1.0] for w in range(255)}, {255: (3, 10.0)})
        fits = []
        real_fit_stage = pipeline._fit_stage

        def fit_stage(*args):
            fits.append(real_fit_stage(*args))
            return fits[-1]

        with mock.patch.object(pipeline, "_fit_stage", fit_stage):
            assert_probe_converges(dataset)
        assert fits[0].model.trees[0].max_depth_reached > 250

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_panels(self, seed):
        assert_probe_converges(random_panel(np.random.default_rng(seed)))

    @pytest.mark.parametrize("scenario", [
        ScenarioConfig(num_products=50, num_weeks_hist=18, num_weeks_future=6,
                       launch_schedule={"P49": 18}),
        ScenarioConfig(num_products=200, num_weeks_hist=8, num_weeks_future=4,
                       launch_schedule={"P199": 8}),
        ScenarioConfig(num_products=12, launch_schedule={"P09": 30, "P10": 60, "P11": 90}),
    ], ids=["50-a-week", "200-a-week", "multi-launch"])
    def test_scenarios(self, scenario):
        dataset, _ = generate(scenario)
        assert_probe_converges(dataset)


class TestBiasTally:
    def test_all_over(self):
        assert bias_tally(np.array([0.1, 2.0, 0.3])) == ("over", 1.0)

    def test_all_under(self):
        assert bias_tally(np.array([-0.1, -2.0])) == ("under", 1.0)

    def test_majority_wins(self):
        direction, rate = bias_tally(np.array([1.0, 1.0, -1.0, 1.0]))
        assert direction == "over"
        assert rate == 0.75

    def test_tie_is_mixed(self):
        direction, rate = bias_tally(np.array([1.0, -1.0]))
        assert direction == "mixed"
        assert rate == 0.5

    def test_zeros_count_for_neither_side(self):
        direction, rate = bias_tally(np.array([0.0, 0.0, 1.0]))
        assert direction == "over"
        assert rate == pytest.approx(1 / 3)

    def test_empty(self):
        assert bias_tally(np.array([])) == ("mixed", 0.0)


class TestDiagnose:
    def test_report_is_internally_consistent(self, panel, fast_result):
        rep = diagnose(panel, fast_result.outputs, PipelineConfig(stage1=FAST))
        future_weeks = panel.layout.weeks[panel.layout.is_future].tolist()
        assert sorted(rep.stage1_weekly_deviation) == future_weeks
        assert rep.stage1_squared_deviation_sum == pytest.approx(
            sum(d * d for d in rep.stage1_weekly_deviation.values())
        )
        assert rep.stage2_term_ratio == pytest.approx(
            rep.stage2_fit_term_future / rep.stage2_constraint_term
        )
        assert rep.stage2_constraint_term >= rep.stage2_constraint_term_future
        assert rep.bias_direction in ("over", "under", "mixed")
        assert 0.0 <= rep.bias_consistency_rate <= 1.0

    def test_matches_pipeline_report(self, panel, fast_result):
        rep = diagnose(panel, fast_result.outputs, PipelineConfig(stage1=FAST))
        assert rep == fast_result.diagnostics

    def test_to_dict_structure(self, fast_result):
        d = fast_result.diagnostics.to_dict()
        assert set(d) == {
            "stage1_weekly_deviation",
            "stage1_squared_deviation_sum",
            "bias",
            "stage2_terms",
            "trivial_probe",
        }
        assert set(d["stage2_terms"]) == {
            "fit_future", "constraint", "constraint_future", "ratio",
        }
        assert all(isinstance(k, str) for k in d["stage1_weekly_deviation"])


class TestOnScenario:
    """Slower checks against the bundled synthetic scenario."""

    def test_inflated_lag_reads_as_over_forecast(self, default_result):
        rep = default_result.diagnostics
        assert rep.bias_direction == "over"
        assert rep.bias_consistency_rate > 0.5

    def test_scaled_stage1_gives_identical_stage3_targets(self, bias_sweep):
        ds, result = bias_sweep[0.15]
        s1 = result.outputs.stage1
        ratios = pred_ratio(s1, ds.layout)
        for k in (0.5, 1.3, 10.0):
            scaled = pred_ratio(s1 * k, ds.layout)
            assert np.max(np.abs(scaled - ratios)) < 1e-12
            t = stage3_target(scaled, ds.layout)
            base = result.outputs.stage3_targets.values
            assert np.max(np.abs(t.values - base) / np.maximum(1.0, np.abs(base))) < 1e-9

    def test_probe_flatlines_on_week_feature(self, default_result):
        rep = default_result.diagnostics
        assert rep.trivial_probe_max_rel_gap < 0.01


@pytest.fixture(scope="module")
def recorded_run(default_dataset):
    """``run_pipeline`` on the default scenario, diagnostics included, with
    every ``fit``, stage fit and ``GbdtModel.predict`` call recorded."""
    fits, stage_fits, predicts = [], [], []
    real_fit, real_fit_stage, real_predict = (
        pipeline.fit, pipeline._fit_stage, GbdtModel.predict,
    )

    def fit(X, *args):
        result = real_fit(X, *args)
        fits.append((result.model, np.array(X)))
        return result

    def fit_stage(X, *args):
        result = real_fit_stage(X, *args)
        stage_fits.append((X, result))
        return result

    def predict(model, X):
        predicts.append((model, np.array(X)))
        return real_predict(model, X)

    with mock.patch.object(pipeline, "fit", fit), \
            mock.patch.object(pipeline, "_fit_stage", fit_stage), \
            mock.patch.object(GbdtModel, "predict", predict):
        run_pipeline(default_dataset, PipelineConfig(stage1=FAST))
    return fits, stage_fits, predicts


class TestPredictionReuse:
    """Stages keep the predictions ``fit`` made on their training rows."""

    def test_stage_preds_equal_predict_bitwise(self, recorded_run):
        _, stage_fits, _ = recorded_run
        assert len(stage_fits) == 5  # stages 1-3, the held-out refit, the probe
        for X, result in stage_fits:
            expected = result.model.predict(X)
            assert result.preds.view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_no_trained_row_is_predicted(self, default_dataset, recorded_run):
        fits, stage_fits, predicts = recorded_run
        trained = {id(model): {row.tobytes() for row in X} for model, X in fits}
        for model, X in predicts:
            assert not any(row.tobytes() in trained[id(model)] for row in X)
        # Only stage 1's future rows and the held-out refit's tail weeks.
        _, held_out_head = fits[3]  # stages 1-3 fit first, the probe last
        ds = default_dataset
        tail = ds.m - held_out_head.shape[0]
        assert sum(len(X) for _, X in predicts) == (ds.n - ds.m) + tail

    def test_stage_fit_is_the_class_fit_returns(self, recorded_run):
        # One class, importable from the package, gbdt and pipeline.
        assert triboost.StageFit is gbdt.StageFit is pipeline.StageFit
        _, stage_fits, _ = recorded_run
        assert all(type(result) is gbdt.StageFit for _, result in stage_fits)
