"""Scoring: per-product error metrics and weekly category adherence.

Adherence is the claim the whole pipeline exists for: how far each week's
summed predictions land from the known category total, relative to that
total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricError, ValidationError
from .panel import GroupLayout, PanelDataset


def product_metrics(preds: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    """MAE, RMSE, and WMAPE (= sum |error| / sum |truth|) of aligned vectors.

    WMAPE rather than MAPE: per-row percentage errors blow up on low-volume
    products, weighting by actual volume does not.  The metrics are computed
    with numpy's overflow and invalid-value warnings off; one that is not
    finite (finite inputs whose errors or squares overflow float64), or a
    sum of |truth| that is zero or overflows, is a :class:`MetricError`.
    """
    p = np.asarray(preds, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1 or p.shape[0] == 0:
        raise ValidationError(
            f"need aligned non-empty vectors, got shapes {p.shape} and {t.shape}"
        )
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(t))):
        raise ValidationError("non-finite values in predictions or truth")
    with np.errstate(over="ignore", invalid="ignore"):
        err = p - t
        abs_truth = float(np.sum(np.abs(t)))
        if not 0.0 < abs_truth < math.inf:
            raise MetricError(
                f"WMAPE undefined: truth values sum to {abs_truth} in absolute value"
            )
        scores = {
            "mae": float(np.mean(np.abs(err))),
            "rmse": float(np.sqrt(np.mean(err * err))),
            "wmape": float(np.sum(np.abs(err)) / abs_truth),
        }
    for name, value in scores.items():
        if not math.isfinite(value):
            raise MetricError(f"{name} is {value}: the errors overflow float64")
    return scores


@dataclass(frozen=True)
class AdherenceReport:
    """Per-week |sum of predictions - category total| / total."""

    weeks: np.ndarray
    deviations: np.ndarray
    mean: float
    max: float

    def to_dict(self) -> dict:
        return {
            "per_week": {
                str(int(w)): float(d) for w, d in zip(self.weeks, self.deviations)
            },
            "mean": self.mean,
            "max": self.max,
        }


def category_adherence(
    preds: np.ndarray,
    data: PanelDataset | GroupLayout,
    *,
    future_only: bool = False,
) -> AdherenceReport:
    """Relative weekly deviation of summed predictions from category totals.

    Weekly sums use the same deterministic reduction as the objectives, so
    results are reproducible bit-for-bit.  ``future_only`` restricts the
    report to future weeks — the ones whose totals are domain knowledge
    rather than bookkeeping.
    """
    layout = data.layout if isinstance(data, PanelDataset) else data
    p = np.asarray(preds, dtype=np.float64)
    if p.shape != (layout.n,):
        raise ValidationError(f"expected {layout.n} predictions, got shape {p.shape}")
    keep = layout.is_future if future_only else np.ones(len(layout.totals), dtype=bool)
    totals = layout.totals[keep]
    if totals.size == 0:
        raise MetricError("no weeks selected for adherence")
    if np.any(totals <= 0):
        w = int(layout.weeks[keep][np.argmax(totals <= 0)])
        raise MetricError(f"week {w}: non-positive category total")
    sums = layout.weekly_sums(p)[keep]
    dev = np.abs(sums - totals) / totals
    return AdherenceReport(
        weeks=layout.weeks[keep],
        deviations=dev,
        mean=float(np.mean(dev)),
        max=float(np.max(dev)),
    )
