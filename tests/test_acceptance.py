"""Release gate: nine numbered end-to-end checks.

Each check prints one ``[criterion N] PASS/FAIL - detail`` line (past any
output capture) and then asserts, so a full run always shows the scoreboard.
They cover derivative correctness against finite differences, bit-exact
agreement of the tree engine with a brute-force enumerator, the constraint
identities the targets are built on, the comparative claim on the bundled
scenario, thread-count determinism of the CLI artifacts, and per-round loss
monotonicity.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import BIAS_LEVELS, random_panel
from oracles import (
    assert_same_model,
    brute_force_fit_squared_error,
    fd_gradient,
    fd_hessian_diag,
    rel_err,
)
from triboost.cli import main
from triboost.gbdt import TrainConfig, fit
from triboost.metrics import category_adherence
from triboost.objectives import (
    ConstraintOnlyObjective,
    Stage1Objective,
    Stage2Objective,
    Stage3Objective,
    StageTargets,
    pred_ratio,
    stage3_target,
)
from triboost.pipeline import PROBE_CONFIG, probe_config, run_pipeline, trivial_solution_probe
from triboost.scenario import CategoryCurve, ScenarioConfig, generate


@pytest.fixture
def report(capsys):
    def _report(num: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
        assert ok, f"criterion {num}: {detail}"

    return _report


def test_criterion_1_gradients_match_finite_differences(report):
    rng = np.random.default_rng(1)
    worst_grad = worst_hess = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        ds = random_panel(rng)
        layout = ds.layout
        cases = [
            (
                Stage1Objective(
                    StageTargets(rng.uniform(0.5, 40.0, ds.m))
                ),
                ds.m,
            ),
            (
                Stage2Objective(
                    layout,
                    StageTargets(rng.uniform(0.5, 40.0, ds.n)),
                ),
                ds.n,
            ),
            (
                Stage3Objective(
                    layout,
                    StageTargets(rng.uniform(0.5, 40.0, ds.n)),
                ),
                ds.n,
            ),
            (ConstraintOnlyObjective(layout), ds.n),
        ]
        for objective, size in cases:
            preds = rng.uniform(0.0, 40.0, size)
            gh = objective.grad_hess(preds)
            worst_grad = max(
                worst_grad, rel_err(gh.grad, fd_gradient(objective.loss, preds))
            )
            # The one Hessian is the exact diagonal of every row.
            worst_hess = max(
                worst_hess,
                rel_err(np.full(size, gh.hess), fd_hessian_diag(objective.loss, preds)),
            )
    elapsed = time.perf_counter() - t0
    ok = worst_grad < 1e-6 and worst_hess < 1e-4 and elapsed < 5.0
    report(
        1,
        ok,
        f"100 instances x 4 objectives: grad rel err {worst_grad:.2e} (< 1e-6), "
        f"hessian diag rel err {worst_hess:.2e} (< 1e-4), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_engine_matches_brute_force(report):
    rng = np.random.default_rng(2)
    ok, detail = True, ""
    try:
        for case in range(20):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, 3))
            X = np.round(rng.uniform(0.0, 4.0, size=(n, k)), 1)
            y = np.round(rng.uniform(0.0, 10.0, size=n), 2)
            config = TrainConfig(
                num_rounds=3,
                max_depth=int(rng.integers(1, 4)),
                learning_rate=float(rng.choice([0.1, 0.5, 1.0])),
                reg_lambda=float(rng.choice([0.0, 1e-3, 2.0])),
            )
            base, oracle_trees, oracle_preds = brute_force_fit_squared_error(
                X, y, config
            )
            targets = StageTargets(values=y)
            model = fit(X, Stage1Objective(targets), config).model
            assert_same_model(model, base, oracle_trees)
            assert np.array_equal(model.predict(X), np.asarray(oracle_preds)), (
                f"case {case}: predictions differ"
            )
        detail = (
            "20 random datasets (n<=8, k<=2): split choices, thresholds, leaf "
            "values and predictions identical to the enumerator for 3 rounds"
        )
    except AssertionError as exc:
        ok, detail = False, str(exc)
    report(2, ok, detail)


def test_criterion_3_constraint_only_probe_hits_trivial_solution(
    report, bias_sweep
):
    dataset, result = bias_sweep[0.15]  # the default scenario
    diagnostics = result.diagnostics
    gap, rounds = diagnostics.trivial_probe_max_rel_gap, diagnostics.trivial_probe_rounds
    expected = probe_config(dataset.layout).num_rounds
    ok = gap < 0.01 and rounds == expected < PROBE_CONFIG.num_rounds
    report(
        3,
        ok,
        f"probe on the zero-variance week feature: every weekly mean within "
        f"{gap:.2e} of total/count after {rounds} rounds (< 1%; the week-count "
        f"rule gives {expected}, cap {PROBE_CONFIG.num_rounds})",
    )


def _weekly_target_gap(ds, values: np.ndarray) -> float:
    sums = ds.layout.weekly_sums(values)
    return float(np.max(np.abs(sums - ds.layout.totals) / np.abs(ds.layout.totals)))


def test_criterion_4_rescaled_targets_sum_to_totals(report, bias_sweep):
    worst = 0.0
    for ds, result in bias_sweep.values():
        worst = max(
            worst, _weekly_target_gap(ds, result.outputs.stage3_targets.values)
        )
    # a differently shaped scenario, with arbitrary positive predictions
    other = ScenarioConfig(
        num_products=6,
        num_weeks_hist=40,
        num_weeks_future=12,
        launch_schedule={"P4": 40, "P5": 46},
        curve=CategoryCurve(kind="linear-trend", base=800.0, slope=2.5),
        seed=11,
    )
    ds2, _ = generate(other)
    rng = np.random.default_rng(4)
    ratios = pred_ratio(rng.uniform(1.0, 50.0, ds2.n), ds2.layout)
    worst = max(
        worst, _weekly_target_gap(ds2, stage3_target(ratios, ds2.layout).values)
    )
    ok = worst <= 1e-9
    report(
        4,
        ok,
        f"weekly sums of fine-tune targets match category totals within "
        f"{worst:.2e} relative (<= 1e-9) across 4 scenarios",
    )


def test_criterion_5_ratios_invariant_to_uniform_scaling(report, bias_sweep):
    ds, result = bias_sweep[0.15]
    s1 = result.outputs.stage1
    base_ratios = pred_ratio(s1, ds.layout)
    base_targets = result.outputs.stage3_targets.values
    worst_ratio = worst_target = 0.0
    for k in (0.5, 1.3, 10.0):
        scaled = pred_ratio(s1 * k, ds.layout)
        worst_ratio = max(
            worst_ratio, float(np.max(np.abs(scaled - base_ratios)))
        )
        targets = stage3_target(scaled, ds.layout).values
        worst_target = max(
            worst_target,
            float(
                np.max(
                    np.abs(targets - base_targets)
                    / np.maximum(1.0, np.abs(base_targets))
                )
            ),
        )
    ok = worst_ratio < 1e-12 and worst_target < 1e-9
    report(
        5,
        ok,
        f"scaling stage-1 predictions by k in {{0.5, 1.3, 10}} moves ratios by "
        f"{worst_ratio:.2e} (< 1e-12) and targets by {worst_target:.2e} rel (< 1e-9)",
    )


def test_criterion_6_cascade_beats_stage1_on_default_scenario(report, bias_sweep):
    ds, _ = bias_sweep[0.15]
    t0 = time.perf_counter()
    result = run_pipeline(ds)  # fresh single-threaded run, timed
    elapsed = time.perf_counter() - t0
    a1 = category_adherence(result.outputs.stage1, ds, future_only=True)
    a2 = category_adherence(result.outputs.stage2, ds, future_only=True)
    a3 = category_adherence(result.outputs.stage3, ds, future_only=True)
    beat = float(np.mean(a2.deviations < a1.deviations))
    ok = (
        a3.mean <= 0.05
        and a3.mean <= 0.5 * a1.mean
        and beat >= 0.9
        and elapsed < 60.0
    )
    report(
        6,
        ok,
        f"stage-3 adherence {a3.mean:.5f} (<= 0.05 and <= 0.5 x stage-1 "
        f"{a1.mean:.5f}); stage-2 beats stage-1 on {beat:.0%} of future weeks "
        f"(>= 90%); pipeline {elapsed:.1f}s single-threaded (< 60s)",
    )


def test_criterion_7_fit_constraint_ratio_grows_with_bias(report, bias_sweep):
    ratios = [bias_sweep[b][1].diagnostics.stage2_term_ratio for b in BIAS_LEVELS]
    ok = ratios[0] < ratios[1] < ratios[2]
    levels = ", ".join(f"{int(b * 100)}%" for b in BIAS_LEVELS)
    chain = (" < " if ok else " !< ").join(f"{r:.4f}" for r in ratios)
    report(
        7,
        ok,
        f"stage-2 fit/constraint term ratio strictly increases with injected "
        f"bias ({levels}): {chain}",
    )


def test_criterion_8_artifacts_identical_across_threads(report, tmp_path):
    d1, d2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["generate", "--out", str(d1)]) == 0
    assert main(["generate", "--out", str(d2)]) == 0
    data_files = ("train.csv", "test.csv", "truth.csv", "manifest.json")
    same = [(d1 / f).read_bytes() == (d2 / f).read_bytes() for f in data_files]

    data_args = ["--data", str(d1 / "train.csv"), str(d1 / "test.csv")]
    m1, m4 = tmp_path / "m1", tmp_path / "m4"
    assert main(["train", *data_args, "--out", str(m1), "--threads", "1"]) == 0
    assert main(["train", *data_args, "--out", str(m4), "--threads", "4"]) == 0
    model_files = (
        "model_stage1.json",
        "model_stage2.json",
        "model_stage3.json",
        "manifest.json",
    )
    same += [(m1 / f).read_bytes() == (m4 / f).read_bytes() for f in model_files]

    p1, p4 = tmp_path / "p1.csv", tmp_path / "p4.csv"
    assert main(["predict", *data_args, "--models", str(m1), "--out", str(p1),
                 "--threads", "1"]) == 0
    assert main(["predict", *data_args, "--models", str(m1), "--out", str(p4),
                 "--threads", "4"]) == 0
    same.append(p1.read_bytes() == p4.read_bytes())
    same.append(
        Path(str(p1) + ".manifest.json").read_bytes()
        == Path(str(p4) + ".manifest.json").read_bytes()
    )
    ok = all(same)
    report(
        8,
        ok,
        f"{sum(same)}/{len(same)} artifacts byte-identical across a rerun and "
        f"--threads 1 vs 4 (datasets, models, predictions, manifests)",
    )


def test_criterion_9_loss_curves_never_increase(report, bias_sweep):
    worst = -np.inf
    rounds = 0
    for ds, result in bias_sweep.values():
        for stage_fit in (result.stage1, result.stage2, result.stage3):
            curve = np.asarray(stage_fit.loss_curve)
            worst = max(worst, float(np.max(np.diff(curve))))
            rounds += curve.size - 1
    probe = trivial_solution_probe(bias_sweep[0.15][0])
    curve = np.asarray(probe.loss_curve)
    worst = max(worst, float(np.max(np.diff(curve))))
    rounds += curve.size - 1
    ok = worst <= 0.0
    report(
        9,
        ok,
        f"per-round loss deltas <= 0: max delta {worst:.3e} over "
        f"{rounds} rounds (3 scenarios x 3 stages + constraint-only probe)",
    )
