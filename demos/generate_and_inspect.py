"""
Generate a synthetic cannibalization scenario and look inside it
================================================================

Five products share a fixed weekly category total. P4 launches at week 80
(the first forecast week) and takes 25% of the market; everyone else gets
squeezed proportionally. Nothing downstream is special about these numbers
-- tweak the config and rerun.
"""

import numpy as np

from triboost import ScenarioConfig, generate

config = ScenarioConfig()
dataset, truth = generate(config)

print(f"products:        {config.product_ids()}")
print(f"historical rows: {dataset.m}  (weeks 0..{config.num_weeks_hist - 1})")
print(f"future rows:     {dataset.n - dataset.m}")
print(f"features:        {dataset.feature_names}")

# Weekly sums of the true sales match the recorded category totals exactly
# (to the last bit) -- the noise moves shares around, never the total.
true_sales = np.concatenate([dataset.actuals, truth.sales])
layout = dataset.layout
gap = 0.0
for start, count, total in zip(layout.starts, layout.counts, layout.totals):
    week_sum = 0.0
    for i in range(start, start + count):
        week_sum += float(true_sales[i])
    gap = max(gap, abs(week_sum - total))
print(f"\nmax |weekly sum - category total| over all 100 weeks: {gap:g}")

# Watch the launch eat everyone's share.
launch = 80
pids = np.array([r.product_id for r in dataset.records])
weeks = dataset.week_of_row
for w in (launch - 1, launch, launch + 1):
    rows = np.nonzero(weeks == w)[0]
    total = dataset.layout.totals[list(dataset.layout.weeks).index(w)]
    shares = {pids[i]: float(true_sales[i] / total) for i in rows}
    line = "  ".join(f"{p}={s:.3f}" for p, s in sorted(shares.items()))
    print(f"week {w}: {line}")

# The lagged-sales feature on future rows carries last week's observation
# forward, inflated by the configured bias -- the planted flaw stage 1
# will happily learn.
f3 = dataset.features[:, 3]
last_obs = {r.product_id: r.actual_sales for r in dataset.records[: dataset.m]
            if r.week_index == launch - 1}
row = next(i for i, r in enumerate(dataset.records)
           if r.week_index == launch and r.product_id == "P0")
print(f"\nP0 sales at week {launch - 1}:      {last_obs['P0']:.3f}")
print(f"P0 lag feature at week {launch}:  {f3[row]:.3f}"
      f"  (x{1 + config.stage1_bias_injection:.2f} bias injection)")
