"""The cascade's three distinct losses, as objectives the engine trains on.

Stage 1 is plain mean squared error on the m historical rows.  Stages 2 and
3 share one loss over all n rows: squared error against per-row targets
plus the weekly-sum penalty,

    loss = (1/n) sum_i (t_i - p_i)^2 + (1/n) sum_w R_w^2,
    R_w  = category_total_w - sum of week w's predictions,

so every row's gradient picks up its week's residual.  The stages differ
only in their targets: stage 2 uses pseudo-labels (actuals, then stage-1
predictions), stage 3 each row's share of its week's stage-1 prediction
mass rescaled to the category total (:func:`pred_ratio`,
:func:`stage3_target`).  The penalty alone is the constraint-only
objective of the trivial-solution probe.

Every objective hands the engine per-row gradients, which carry the 1/m or
1/n normalization, and one diagonal Hessian for every row (Chen & Guestrin
2016): 2/m for stage 1, 4/n for stages 2 and 3 and 2/n for the penalty
alone.  The penalty's 2/n cross terms between same-week rows are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateRatioError, ValidationError
from .gbdt import GradHess
from .panel import GroupLayout


@dataclass(frozen=True)
class StageTargets:
    """Training targets for one stage, a finite vector.

    Stage 1 targets are the m historical actuals.  Stage 2 targets cover
    all n rows: actuals first, then stage-1 predictions as pseudo-labels.
    Stage 3 targets are the rescaled-share values, also length n.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValidationError(f"targets must be a vector, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("targets contain non-finite values")


def _as_preds(preds: np.ndarray, n: int) -> np.ndarray:
    p = np.asarray(preds, dtype=np.float64)
    if p.shape != (n,):
        raise ValidationError(f"expected {n} predictions, got shape {p.shape}")
    return p


def pred_ratio(stage1_preds: np.ndarray, layout: GroupLayout) -> np.ndarray:
    """Each row's share of its week's summed stage-1 prediction.

    A week's shares sum to 1, and scaling a week's predictions by any
    positive constant leaves them unchanged.  A week whose predictions sum
    to (near) zero has no meaningful shares; the tolerance scales with the
    week's typical prediction magnitude.
    """
    p = _as_preds(stage1_preds, layout.n)
    sums = layout.weekly_sums(p)
    scale = layout.weekly_sums(np.abs(p)) / layout.counts
    eps = 1e-9 * (scale + 1.0)
    bad = np.nonzero(np.abs(sums) < eps)[0]
    if bad.size:
        w = int(layout.weeks[bad[0]])
        raise DegenerateRatioError(
            f"week {w}: stage-1 predictions sum to {float(sums[bad[0]])}, "
            "cannot form shares"
        )
    return p / layout.expand(sums)


def stage3_target(ratios: np.ndarray, layout: GroupLayout) -> StageTargets:
    """Rescale each week's shares to its category total.

    Because a week's ratios sum to 1, its targets sum to the category total
    identically — the fine-tuning targets are constraint-consistent by
    construction.
    """
    return StageTargets(np.asarray(ratios, dtype=np.float64) * layout.expand(layout.totals))


@dataclass(frozen=True)
class Stage1Objective:
    """Mean squared error over historical rows."""

    targets: StageTargets

    def base_score(self) -> float:
        return float(np.mean(self.targets.values))

    def loss(self, preds: np.ndarray) -> float:
        t = self.targets.values
        r = t - _as_preds(preds, t.shape[0])
        return float(np.mean(r * r))

    def grad_hess(self, preds: np.ndarray) -> GradHess:
        t = self.targets.values
        m = t.shape[0]
        grad = -2.0 * (t - _as_preds(preds, m)) / m
        return GradHess(grad, 2.0 / m)


@dataclass(frozen=True)
class Stage2Objective:
    """Squared error against per-row targets plus the weekly sum penalty:
    stage 2 with pseudo-labels."""

    layout: GroupLayout
    targets: StageTargets

    def __post_init__(self) -> None:
        if self.targets.values.shape != (self.layout.n,):
            raise ValidationError(
                f"expected {self.layout.n} targets, got {self.targets.values.shape[0]}"
            )

    def base_score(self) -> float:
        return float(np.mean(self.targets.values))

    def loss(self, preds: np.ndarray) -> float:
        p = _as_preds(preds, self.layout.n)
        r = self.targets.values - p
        R = self.layout.residuals(p)
        return float((np.sum(r * r) + np.sum(R * R)) / self.layout.n)

    def grad_hess(self, preds: np.ndarray) -> GradHess:
        n = self.layout.n
        p = _as_preds(preds, n)
        R_rows = self.layout.expand(self.layout.residuals(p))
        grad = (-2.0 * (self.targets.values - p) - 2.0 * R_rows) / n
        return GradHess(grad, 4.0 / n)


@dataclass(frozen=True)
class Stage3Objective(Stage2Objective):
    """Stage 2's loss with the rescaled-share targets of stage 3."""

    # Bound again so that each class holds its own entry in ``__dict__``:
    # span tracing wraps methods per class.
    loss = Stage2Objective.loss
    grad_hess = Stage2Objective.grad_hess


@dataclass(frozen=True)
class ConstraintOnlyObjective:
    """Weekly sum penalty alone; minimized by the per-week constant
    total/count when features cannot tell same-week rows apart.  There are
    no per-row targets, so the ensemble starts from zero."""

    layout: GroupLayout

    def base_score(self) -> float:
        return 0.0

    def loss(self, preds: np.ndarray) -> float:
        R = self.layout.residuals(_as_preds(preds, self.layout.n))
        return float(np.sum(R * R) / self.layout.n)

    def grad_hess(self, preds: np.ndarray) -> GradHess:
        n = self.layout.n
        R_rows = self.layout.expand(self.layout.residuals(_as_preds(preds, n)))
        return GradHess(-2.0 * R_rows / n, 2.0 / n)
