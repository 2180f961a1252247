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

:data:`STAGES` names the passes; ``run_stage1/2/3`` each return a
:class:`StageFit`.  :func:`predict_stages` turns three trained models into
:class:`StageOutputs`, as :func:`run_pipeline` does with the ones it fits;
stage 3's targets are formed only where read: in its fit and in
:attr:`StageOutputs.stage3_targets`.  Every ensemble here, the held-out
refit and the probe included, is one ``fit`` call on a whole block, which
returns predictions on every row: stage 1 and the held-out refit train on
a row prefix of the dataset's block (``train_rows``), and ``fit``
predicts the rows after it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import MetricError, TriboostError, ValidationError
from .gbdt import GbdtModel, StageFit, TrainConfig, fit
from .objectives import (
    ConstraintOnlyObjective,
    Stage1Objective,
    Stage2Objective,
    Stage3Objective,
    StageTargets,
    pred_ratio,
    stage3_target,
)
from .panel import GroupLayout, PanelDataset

# The cascade's passes in order: model file, manifest and CSV column names.
STAGES = ("stage1", "stage2", "stage3")

# The constraint-only probe's base config: unregularized, and its round
# count is a cap.  :func:`probe_config` sets the learning rate, and on
# panels of at most 2**max_depth weeks the depth and rounds, from the
# panel's week layout.
PROBE_CONFIG = TrainConfig(
    num_rounds=200,
    max_depth=8,
    learning_rate=0.1,
    reg_lambda=0.0,
)


@dataclass(frozen=True)
class PipelineConfig:
    """Per-stage training configs; stages 2 and 3 fall back to stage 1's."""

    stage1: TrainConfig = TrainConfig()
    stage2: TrainConfig | None = None
    stage3: TrainConfig | None = None

    def resolved(self) -> tuple[TrainConfig, TrainConfig, TrainConfig]:
        return (self.stage1, self.stage2 or self.stage1, self.stage3 or self.stage1)


@dataclass(frozen=True)
class StageOutputs:
    """Row-aligned predictions of the three passes and the panel's week
    ``layout``, from which stage 3's targets are formed when first read."""

    stage1: np.ndarray
    stage2: np.ndarray
    stage3: np.ndarray
    layout: GroupLayout

    @cached_property
    def stage3_targets(self) -> StageTargets:
        """Stage 3's targets as its fit forms them, on first access: stage
        1's shares, ``pred_ratio(stage1, layout)``, rescaled to the totals."""
        return stage3_target(pred_ratio(self.stage1, self.layout), self.layout)


@dataclass(frozen=True)
class ProbeResult:
    """Constraint-only training on a week-only view of the data: its gaps to
    each week's total/count and its loss curve (one loss per round, plus the start)."""

    max_abs_gap: float
    max_rel_gap: float
    loss_curve: tuple[float, ...]


@dataclass(frozen=True)
class DiagnosticsReport:
    """What :func:`diagnose` reports.  ``stage2_term_ratio`` is the fit
    term over the constraint term, None (JSON null) when the constraint
    term is zero and the ratio is undefined; ``trivial_probe_rounds`` is
    the number of rounds the probe ran (:func:`probe_config`)."""

    stage1_weekly_deviation: dict[int, float]
    stage1_squared_deviation_sum: float
    bias_direction: str
    bias_consistency_rate: float
    stage2_fit_term_future: float
    stage2_constraint_term: float
    stage2_constraint_term_future: float
    stage2_term_ratio: float | None
    trivial_probe_max_abs_gap: float
    trivial_probe_max_rel_gap: float
    trivial_probe_rounds: int

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
                "rounds": self.trivial_probe_rounds,
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
    """The dataset's features plus one column of stage-2 predictions: the
    (n, k + 1) transpose view of a new read-only, C-contiguous (k + 1, n)
    block, the features' block with the stage-2 row appended, which
    ``fit`` reads in place."""
    p = np.asarray(stage2_preds, dtype=np.float64)
    if p.shape != (features.shape[0],):
        raise ValidationError(
            f"expected {features.shape[0]} stage-2 predictions, got shape {p.shape}"
        )
    block = np.vstack([features.T, p])
    block.setflags(write=False)
    return block.T


def run_stage1(dataset: PanelDataset, config: TrainConfig) -> StageFit:
    """Fit squared error on the m historical rows; predict all n rows."""
    objective = Stage1Objective(StageTargets(dataset.actuals))
    return fit(dataset.features, objective, config, train_rows=dataset.m)


def run_stage2(
    dataset: PanelDataset, stage1_preds: np.ndarray, config: TrainConfig
) -> StageFit:
    """Refit on all n rows with pseudo-labels and the weekly sum penalty."""
    targets = pseudo_label_targets(dataset, stage1_preds)
    objective = Stage2Objective(dataset.layout, targets)
    return fit(dataset.features, objective, config)


def run_stage3(
    dataset: PanelDataset,
    stage1_preds: np.ndarray,
    stage2_preds: np.ndarray,
    config: TrainConfig,
) -> StageFit:
    """Fine-tune toward rescaled-share targets on the augmented features.

    Stage-2 predictions enter as an input column only — the targets come
    from stage-1 shares and the category totals.
    """
    targets = stage3_target(pred_ratio(stage1_preds, dataset.layout), dataset.layout)
    X3 = stage3_features(dataset.features, stage2_preds)
    objective = Stage3Objective(dataset.layout, targets)
    return fit(X3, objective, config)


def predict_stages(dataset: PanelDataset, models: Sequence[GbdtModel]) -> StageOutputs:
    """Apply the three stages' models, in :data:`STAGES` order, to every
    row; stage 3 reads the stage-2 predictions as its extra column."""
    model1, model2, model3 = models
    X = dataset.features
    s1, s2 = model1.predict(X), model2.predict(X)
    s3 = model3.predict(stage3_features(X, s2))
    return StageOutputs(s1, s2, s3, dataset.layout)


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
    name1, name2, name3 = STAGES
    s1 = _in_stage(name1, lambda: run_stage1(dataset, cfg1))
    s2 = _in_stage(name2, lambda: run_stage2(dataset, s1.preds, cfg2))
    s3 = _in_stage(name3, lambda: run_stage3(dataset, s1.preds, s2.preds, cfg3))
    report = diagnose(dataset, s1.preds, s2.preds, cfg1) if with_diagnostics else None
    return PipelineResult(
        outputs=StageOutputs(s1.preds, s2.preds, s3.preds, dataset.layout),
        diagnostics=report, stage1=s1, stage2=s2, stage3=s3,
    )


def probe_config(layout: GroupLayout) -> TrainConfig:
    """:data:`PROBE_CONFIG` fitted to a panel's week layout.

    The probe's only feature is the week index, so every leaf holds whole
    weeks.  Moving a leaf by d changes the penalty by a quadratic whose
    curvature, (2/n) times the sum of its weeks' squared row counts, is at
    most c_max times the leaf's Hessian sum, c_max being the largest
    week's row count.  So learning rate 1/c_max never raises the loss
    (Böhning & Lindsay 1988), and a week of c rows in a leaf of its own
    keeps (1 - c/c_max) of its gap per round; sharing a leaf only with
    weeks of the same residual moves it the same way.

    With W <= ``2**PROBE_CONFIG.max_depth`` weeks the depth becomes W - 1.
    At lambda 0 a node splits while its weeks' residuals
    differ, so every tree then separates every pair of weeks whose
    residuals differ, and the rounds follow from that contraction at the
    smallest count c_min: ceil(ln eps / ln(1 - c_min/c_max)) with
    eps = 2**-52, which shrinks every week's gap, its total at the start
    from zero, below eps of that total.  That is one round when all weeks
    have the same count; the base config's rounds cap it.  More weeks keep
    the base depth and rounds, with learning rate 1/c_max.
    """
    counts = layout.counts
    c_max, c_min = int(counts.max()), int(counts.min())
    config = replace(PROBE_CONFIG, learning_rate=1.0 / c_max)
    weeks = counts.shape[0]
    if weeks > 2**PROBE_CONFIG.max_depth:
        return config
    keep = 1.0 - c_min / c_max
    rounds = 1
    if keep > 0.0:
        rounds = math.ceil(math.log(np.finfo(np.float64).eps) / math.log(keep))
    return replace(
        config,
        num_rounds=min(rounds, PROBE_CONFIG.num_rounds),
        max_depth=max(weeks - 1, 1),
    )


def trivial_solution_probe(dataset: PanelDataset) -> ProbeResult:
    """Train on the constraint term alone with the week index as the only
    feature (zero variance within each week), with :func:`probe_config`.

    With nothing to distinguish same-week rows, the minimizer is the
    per-week constant total/count; the reported gap says how close training
    got.  A small gap on real features too would mean the constraint term
    is drowning out the fit term.  The relative gap is taken over the weeks
    whose target is non-zero (0.0 if none is); a zero-target week still
    counts in the absolute gap.
    """
    layout = dataset.layout
    config = probe_config(layout)
    week_col = dataset.week_of_row.astype(np.float64)[:, None]
    probe = fit(week_col, ConstraintOnlyObjective(layout), config)
    weekly = layout.weekly_sums(probe.preds) / layout.counts
    targets = layout.totals / layout.counts
    gap = np.abs(weekly - targets)
    nonzero = targets != 0
    rel_gap = gap[nonzero] / np.abs(targets[nonzero])
    return ProbeResult(
        max_abs_gap=float(np.max(gap)),
        max_rel_gap=float(np.max(rel_gap, initial=0.0)),
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
    stage1: np.ndarray,
    stage2: np.ndarray,
    config: TrainConfig = TrainConfig(),
) -> DiagnosticsReport:
    """Failure-mode report from a run's stage-1 and stage-2 predictions; the
    held-out refit trains with ``config``, stage 1's.  See the module docstring."""
    layout = dataset.layout
    n = dataset.n

    future = layout.is_future
    # Sums of squares of finite predictions can overflow: they are computed
    # with numpy's warnings off, and one that is not finite is a
    # MetricError naming its stage, so the report never holds Infinity or
    # NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = layout.weekly_sums(stage1)
        deviation = sums - layout.totals
        squared_sum = float(np.sum(deviation[future] ** 2))
    _check_finite("stage1", {"squared weekly deviation sum": squared_sum})
    weekly_dev = {
        int(w): float(d) for w, d in zip(layout.weeks[future], deviation[future])
    }

    direction, rate = _held_out_bias(dataset, config)

    # Term magnitudes of the stage-2 objective at its trained solution.  The
    # fit term is restricted to pseudo-labelled rows (where the two terms can
    # actually disagree); the constraint term is the full one the objective
    # optimizes, with its future-week restriction reported alongside.  The
    # ratio grows with stage-1 bias: inflated pseudo-labels pump mass into
    # both future-row terms while the historical constraint residual stays a
    # fixed fit-capacity floor.
    # The future rows' pseudo-labels are the stage-1 predictions verbatim.
    with np.errstate(over="ignore", invalid="ignore"):
        fit_err = stage1[dataset.m :] - stage2[dataset.m :]
        fit_term = float(np.sum(fit_err * fit_err) / n)
        R = layout.residuals(stage2)
        constraint_term = float(np.sum(R * R) / n)
        constraint_future = float(np.sum(R[future] * R[future]) / n)
    # Python floats: a ratio that overflows is inf, with no warning.
    ratio = fit_term / constraint_term if constraint_term > 0 else None
    _check_finite("stage2", {
        "fit term on future rows": fit_term,
        "constraint term": constraint_term,
        "fit/constraint term ratio": 0.0 if ratio is None else ratio,
    })

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
        trivial_probe_rounds=len(probe.loss_curve) - 1,
    )


def _check_finite(stage: str, terms: dict[str, float]) -> None:
    """A :class:`MetricError` naming ``stage`` and the first of its report
    ``terms`` that is not finite."""
    for name, value in terms.items():
        if not math.isfinite(value):
            raise MetricError(
                f"{stage}: {name} is {value}: the predictions overflow float64"
            )


def _held_out_bias(dataset: PanelDataset, config: TrainConfig) -> tuple[str, float]:
    """Refit stage 1 without the last fifth of historical weeks and tally
    the sign of its errors there.  One-sided errors on weeks the model
    never saw are the evidence that its future predictions will be biased
    the same way.  The refit predicts every row after its training rows,
    the future rows too, which the tally does not read."""
    layout = dataset.layout
    hist_weeks = layout.weeks[~layout.is_future]
    if len(hist_weeks) < 2:
        return "mixed", 0.0
    tail_count = max(1, round(0.2 * len(hist_weeks)))
    # Each week is one slice of rows, so the tail weeks' rows end the
    # historical block, and the head is the rows before the first of them.
    head = int(layout.starts[len(hist_weeks) - tail_count])
    objective = Stage1Objective(StageTargets(dataset.actuals[:head]))
    refit = fit(dataset.features, objective, config, train_rows=head)
    return bias_tally(refit.preds[head : dataset.m] - dataset.actuals[head:])
