"""The three-pass cascade and its diagnostics.

Pass 1 fits plain squared error on the historical rows and predicts
everything.  Pass 2 splices those predictions in as pseudo-labels for the
future rows and refits under the weekly sum penalty.  Pass 3 converts the
pass-1 predictions into within-week shares, rescales them to the category
totals to get constraint-consistent targets, appends the pass-2 predictions
as an extra feature column ("back-period filling"), and fine-tunes.

Diagnostics quantify why the extra passes are needed: how far pass-1 weekly
sums drift from the known totals, whether its errors are one-sided
(systematic bias), how the pass-2 loss splits between fit and constraint
terms on future rows, and whether constraint-only training degenerates to
the per-week constant total/count when features carry no within-week
signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import TriboostError, ValidationError
from .gbdt import GbdtModel, TrainConfig, fit
from .objectives import (
    ConstraintOnlyObjective,
    Stage1Objective,
    Stage2Objective,
    Stage3Objective,
    StageTargets,
    pred_ratio,
    stage3_target,
)
from .panel import PanelDataset

PROBE_CONFIG = TrainConfig(
    num_rounds=200,
    max_depth=8,
    learning_rate=0.1,
    reg_lambda=0.0,
    min_gain=0.0,
)


@dataclass(frozen=True)
class PipelineConfig:
    """Per-stage training configs; stages 2 and 3 fall back to stage 1's."""

    stage1: TrainConfig = TrainConfig()
    stage2: TrainConfig | None = None
    stage3: TrainConfig | None = None

    def resolved(self) -> tuple[TrainConfig, TrainConfig, TrainConfig]:
        return (
            self.stage1,
            self.stage2 if self.stage2 is not None else self.stage1,
            self.stage3 if self.stage3 is not None else self.stage1,
        )


@dataclass(frozen=True)
class StageFit:
    """One stage's trained model, its full-panel predictions, and the loss
    recorded before round 1 and after every round."""

    preds: np.ndarray
    model: GbdtModel
    loss_curve: tuple[float, ...]


@dataclass(frozen=True)
class StageOutputs:
    """Row-aligned prediction vectors of the three passes plus the share
    ratios and fine-tuning targets that connect passes 1 and 3."""

    stage1: np.ndarray
    stage2: np.ndarray
    stage3: np.ndarray
    ratios: np.ndarray
    stage3_targets: StageTargets


@dataclass(frozen=True)
class ProbeResult:
    """Constraint-only training on a week-only view of the data."""

    weekly_preds: np.ndarray
    weekly_targets: np.ndarray
    max_abs_gap: float
    max_rel_gap: float
    loss_curve: tuple[float, ...]


@dataclass(frozen=True)
class DiagnosticsReport:
    stage1_weekly_deviation: dict[int, float]
    stage1_squared_deviation_sum: float
    bias_direction: str
    bias_consistency_rate: float
    stage2_fit_term_future: float
    stage2_constraint_term: float
    stage2_constraint_term_future: float
    stage2_term_ratio: float
    trivial_probe_max_abs_gap: float
    trivial_probe_max_rel_gap: float

    def to_dict(self) -> dict:
        return {
            "stage1_weekly_deviation": {
                str(w): v for w, v in self.stage1_weekly_deviation.items()
            },
            "stage1_squared_deviation_sum": self.stage1_squared_deviation_sum,
            "bias": {
                "direction": self.bias_direction,
                "consistency_rate": self.bias_consistency_rate,
            },
            "stage2_terms": {
                "fit_future": self.stage2_fit_term_future,
                "constraint": self.stage2_constraint_term,
                "constraint_future": self.stage2_constraint_term_future,
                "ratio": self.stage2_term_ratio,
            },
            "trivial_probe": {
                "max_abs_gap": self.trivial_probe_max_abs_gap,
                "max_rel_gap": self.trivial_probe_max_rel_gap,
            },
        }


@dataclass(frozen=True)
class PipelineResult:
    outputs: StageOutputs
    diagnostics: DiagnosticsReport | None
    stage1: StageFit
    stage2: StageFit
    stage3: StageFit


def pseudo_label_targets(dataset: PanelDataset, stage1_preds: np.ndarray) -> StageTargets:
    """Length-n targets: actuals on the historical prefix, stage-1
    predictions (verbatim) on the future rows."""
    p = np.asarray(stage1_preds, dtype=np.float64)
    if p.shape != (dataset.n,):
        raise ValidationError(
            f"expected {dataset.n} stage-1 predictions, got shape {p.shape}"
        )
    values = np.concatenate([dataset.actuals, p[dataset.m :]])
    return StageTargets(values)


def stage3_features(features: np.ndarray, stage2_preds: np.ndarray) -> np.ndarray:
    """The dataset's features plus one column of stage-2 predictions."""
    p = np.asarray(stage2_preds, dtype=np.float64)
    if p.shape != (features.shape[0],):
        raise ValidationError(
            f"expected {features.shape[0]} stage-2 predictions, got shape {p.shape}"
        )
    return np.column_stack([features, p])


def _fit_stage(X: np.ndarray, objective, config: TrainConfig, fit_rows: int) -> StageFit:
    """Fit ``objective`` on the first ``fit_rows`` rows of ``X``, recording
    the loss curve, then predict every row of ``X``."""
    losses: list[float] = []
    model = fit(X[:fit_rows], objective, config, loss_history=losses)
    return StageFit(preds=model.predict(X), model=model, loss_curve=tuple(losses))


def run_stage1(dataset: PanelDataset, config: TrainConfig) -> StageFit:
    """Fit squared error on the m historical rows; predict all n rows."""
    objective = Stage1Objective(StageTargets(dataset.actuals))
    return _fit_stage(dataset.features, objective, config, dataset.m)


def run_stage2(
    dataset: PanelDataset, stage1_preds: np.ndarray, config: TrainConfig
) -> StageFit:
    """Refit on all n rows with pseudo-labels and the weekly sum penalty."""
    targets = pseudo_label_targets(dataset, stage1_preds)
    objective = Stage2Objective(dataset.layout, targets)
    return _fit_stage(dataset.features, objective, config, dataset.n)


def run_stage3(
    dataset: PanelDataset,
    stage1_preds: np.ndarray,
    stage2_preds: np.ndarray,
    config: TrainConfig,
) -> tuple[StageFit, np.ndarray, StageTargets]:
    """Fine-tune toward rescaled-share targets on the augmented features.

    Stage-2 predictions enter as an input column only — the targets come
    from stage-1 shares and the category totals.
    """
    ratios = pred_ratio(stage1_preds, dataset.layout)
    targets = stage3_target(ratios, dataset.layout)
    X3 = stage3_features(dataset.features, stage2_preds)
    objective = Stage3Objective(dataset.layout, targets)
    return _fit_stage(X3, objective, config, dataset.n), ratios, targets


def _in_stage(name: str, call: Callable):
    try:
        return call()
    except TriboostError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def run_pipeline(
    dataset: PanelDataset,
    config: PipelineConfig | None = None,
    *,
    n_threads: int = 1,
    with_diagnostics: bool = True,
) -> PipelineResult:
    """All three passes in order, plus diagnostics unless disabled.

    Deterministic: the same dataset and config give bit-identical outputs.
    ``n_threads`` is accepted for compatibility and changes nothing.
    """
    config = config or PipelineConfig()
    cfg1, cfg2, cfg3 = config.resolved()
    s1 = _in_stage("stage1", lambda: run_stage1(dataset, cfg1))
    s2 = _in_stage("stage2", lambda: run_stage2(dataset, s1.preds, cfg2))
    s3, ratios, targets3 = _in_stage(
        "stage3", lambda: run_stage3(dataset, s1.preds, s2.preds, cfg3)
    )
    outputs = StageOutputs(
        stage1=s1.preds,
        stage2=s2.preds,
        stage3=s3.preds,
        ratios=ratios,
        stage3_targets=targets3,
    )
    report = None
    if with_diagnostics:
        report = diagnose(dataset, outputs, config)
    return PipelineResult(
        outputs=outputs, diagnostics=report, stage1=s1, stage2=s2, stage3=s3
    )


def trivial_solution_probe(
    dataset: PanelDataset, config: TrainConfig = PROBE_CONFIG
) -> ProbeResult:
    """Train on the constraint term alone with the week index as the only
    feature (zero variance within each week).

    With nothing to distinguish same-week rows, the minimizer is the
    per-week constant total/count; the reported gap says how close training
    got.  A small gap on real features too would mean the constraint term
    is drowning out the fit term.
    """
    layout = dataset.layout
    week_col = dataset.week_of_row.astype(np.float64)[:, None]
    probe = _fit_stage(week_col, ConstraintOnlyObjective(layout), config, dataset.n)
    weekly = layout.weekly_sums(probe.preds) / layout.counts
    targets = layout.totals / layout.counts
    gap = np.abs(weekly - targets)
    return ProbeResult(
        weekly_preds=weekly,
        weekly_targets=targets,
        max_abs_gap=float(np.max(gap)),
        max_rel_gap=float(np.max(gap / np.abs(targets))),
        loss_curve=probe.loss_curve,
    )


def bias_tally(errors: np.ndarray) -> tuple[str, float]:
    """Sign consistency of an error vector (prediction minus actual).

    Returns a direction — "over" when positive errors dominate, "under"
    when negative do, "mixed" on a tie — and the dominant sign's share of
    all errors.
    """
    e = np.asarray(errors, dtype=np.float64)
    if e.size == 0:
        return "mixed", 0.0
    pos = int(np.sum(e > 0))
    neg = int(np.sum(e < 0))
    rate = max(pos, neg) / e.size
    if pos > neg:
        return "over", rate
    if neg > pos:
        return "under", rate
    return "mixed", rate


def diagnose(
    dataset: PanelDataset,
    outputs: StageOutputs,
    config: PipelineConfig | None = None,
) -> DiagnosticsReport:
    """Failure-mode report for a finished run; see the module docstring."""
    config = config or PipelineConfig()
    layout = dataset.layout
    n = dataset.n

    future = layout.is_future
    sums = layout.weekly_sums(outputs.stage1)
    deviation = sums - layout.totals
    weekly_dev = {
        int(w): float(d) for w, d in zip(layout.weeks[future], deviation[future])
    }
    squared_sum = float(np.sum(deviation[future] ** 2))

    direction, rate = _held_out_bias(dataset, config)

    # Term magnitudes of the stage-2 objective at its trained solution.  The
    # fit term is restricted to pseudo-labelled rows (where the two terms can
    # actually disagree); the constraint term is the full one the objective
    # optimizes, with its future-week restriction reported alongside.  The
    # ratio grows with stage-1 bias: inflated pseudo-labels pump mass into
    # both future-row terms while the historical constraint residual stays a
    # fixed fit-capacity floor.
    pseudo = pseudo_label_targets(dataset, outputs.stage1).values
    fit_err = pseudo[dataset.m :] - outputs.stage2[dataset.m :]
    fit_term = float(np.sum(fit_err * fit_err) / n)
    R = layout.residuals(outputs.stage2)
    constraint_term = float(np.sum(R * R) / n)
    constraint_future = float(np.sum(R[future] * R[future]) / n)
    ratio = fit_term / constraint_term if constraint_term > 0 else float("inf")

    probe = trivial_solution_probe(dataset)

    return DiagnosticsReport(
        stage1_weekly_deviation=weekly_dev,
        stage1_squared_deviation_sum=squared_sum,
        bias_direction=direction,
        bias_consistency_rate=rate,
        stage2_fit_term_future=fit_term,
        stage2_constraint_term=constraint_term,
        stage2_constraint_term_future=constraint_future,
        stage2_term_ratio=ratio,
        trivial_probe_max_abs_gap=probe.max_abs_gap,
        trivial_probe_max_rel_gap=probe.max_rel_gap,
    )


def _held_out_bias(
    dataset: PanelDataset, config: PipelineConfig
) -> tuple[str, float]:
    """Refit stage 1 without the last fifth of historical weeks and tally
    the sign of its errors there.  One-sided errors on weeks the model
    never saw are the evidence that its future predictions will be biased
    the same way."""
    layout = dataset.layout
    hist_weeks = layout.weeks[~layout.is_future]
    if len(hist_weeks) < 2:
        return "mixed", 0.0
    tail_count = max(1, round(0.2 * len(hist_weeks)))
    # Rows are sorted by week, so the tail weeks' rows end the historical prefix.
    in_tail = dataset.week_of_row[: dataset.m] >= hist_weeks[-tail_count]

    head_X = dataset.features[: dataset.m][~in_tail]
    head_y = dataset.actuals[~in_tail]
    model = fit(head_X, Stage1Objective(StageTargets(head_y)), config.resolved()[0])
    tail_pred = model.predict(dataset.features[: dataset.m][in_tail])
    return bias_tally(tail_pred - dataset.actuals[in_tail])
