"""Finite-difference sanity check of the group-coupled objectives.

The weekly-sum penalty couples every row in a week, so its gradient is easy
to get subtly wrong. Central differences on the loss catch that class of
bug; this is the same check the test suite runs at scale.
"""

import numpy as np

from triboost import (
    PanelDataset,
    PanelRecord,
    Stage2Objective,
    StageTargets,
    TrainConfig,
    fit,
)

rng = np.random.default_rng(0)

# A small panel by hand: two historical weeks, two future weeks with known
# category totals of 30 and 32.
records = []
for week, sales in [(0, [9.0, 7.0, 5.0]), (1, [10.0, 6.0, 5.5])]:
    for p, s in enumerate(sales):
        records.append(PanelRecord(f"P{p}", week, rng.normal(size=3), s))
for week in (2, 3):
    for p in range(3):
        records.append(PanelRecord(f"P{p}", week, rng.normal(size=3), None))
dataset = PanelDataset.from_records(
    records, ("f_0", "f_1", "f_2"), {2: 30.0, 3: 32.0}
)

targets = StageTargets(rng.uniform(4.0, 11.0, dataset.n))
objective = Stage2Objective(dataset.layout, targets)
preds = rng.uniform(4.0, 11.0, dataset.n)

gh = objective.grad_hess(preds)

h = 1e-4
fd = np.empty(dataset.n)
for i in range(dataset.n):
    up, dn = preds.copy(), preds.copy()
    up[i] += h
    dn[i] -= h
    fd[i] = (objective.loss(up) - objective.loss(dn)) / (2 * h)

err = np.max(np.abs(gh.grad - fd) / np.maximum(1.0, np.abs(fd)))
print(f"analytic vs finite-difference gradient, max rel err: {err:.2e}")

# The same objective drives the booster; the recorded loss curve should
# fall monotonically (it is asserted to in the tests).
losses = fit(dataset.features, objective, TrainConfig(num_rounds=80)).loss_curve
print(f"loss round 0: {losses[0]:.5f}")
print(f"loss round 40: {losses[40]:.5f}")
print(f"loss round 80: {losses[-1]:.5f}")
print(f"monotone non-increasing: {all(b <= a for a, b in zip(losses, losses[1:]))}")
