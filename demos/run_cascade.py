"""Run the three-pass cascade on the bundled scenario and score each pass.

Pass 1 is a plain squared-error fit on history. Pass 2 refits with the
weekly sum penalty on pseudo-labelled future rows. Pass 3 fine-tunes toward
stage-1 shares rescaled to the known totals. The point of the exercise:
watch the weekly adherence collapse while per-product accuracy holds up.
"""

import numpy as np

from triboost import (
    ScenarioConfig,
    category_adherence,
    generate,
    product_metrics,
    run_pipeline,
)

dataset, truth = generate(ScenarioConfig())
result = run_pipeline(dataset)

future = slice(dataset.m, dataset.n)
print(f"{'':8s}{'wmape':>8s}{'mae':>8s}{'adherence mean':>16s}{'max':>8s}")
for name, preds in (
    ("stage 1", result.outputs.stage1),
    ("stage 2", result.outputs.stage2),
    ("stage 3", result.outputs.stage3),
):
    m = product_metrics(preds[future], truth.sales)
    a = category_adherence(preds, dataset, future_only=True)
    print(f"{name:8s}{m['wmape']:8.4f}{m['mae']:8.2f}{a.mean:16.5f}{a.max:8.5f}")

# One week in detail: the launch week, where stage 1 has never seen the
# entrant and its inflated lag features push every incumbent too high.
w = 80
rows = [i for i in range(dataset.m, dataset.n) if dataset.week_of_row[i] == w]
total = float(dataset.layout.totals[list(dataset.layout.weeks).index(w)])
print(f"\nweek {w} (category total {total:.1f}):")
print(f"{'product':>8s}{'truth':>9s}{'stage1':>9s}{'stage2':>9s}{'stage3':>9s}")
for i in rows:
    t = truth.sales[i - dataset.m]
    print(f"{dataset.product_ids[i]:>8s}{t:9.1f}"
          f"{result.outputs.stage1[i]:9.1f}"
          f"{result.outputs.stage2[i]:9.1f}"
          f"{result.outputs.stage3[i]:9.1f}")
sums = [float(np.sum([result.outputs.stage1[i] for i in rows])),
        float(np.sum([result.outputs.stage2[i] for i in rows])),
        float(np.sum([result.outputs.stage3[i] for i in rows]))]
print(f"{'sum':>8s}{total:9.1f}{sums[0]:9.1f}{sums[1]:9.1f}{sums[2]:9.1f}")

report = result.diagnostics
print(f"\nheld-out bias check: {report.bias_direction}-forecasting on "
      f"{report.bias_consistency_rate:.0%} of held-out rows")
print(f"stage-2 fit/constraint term ratio: {report.stage2_term_ratio:.3f}")
