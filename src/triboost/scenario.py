"""Synthetic cannibalization scenarios with known ground truth.

Each week, a fixed category total is split across the active products by a
softmax over latent attractiveness.  When a product launches, the entrant's
attractiveness is calibrated so that, in the launch week, it takes exactly
``share_decay_on_launch`` of the market while every incumbent's share is
rescaled by one minus that — cannibalization by construction, with the
category total conserved.

Noise perturbs shares (then renormalizes), never the total, so the weekly
sum of true sales equals the recorded category total to the last bit.  The
optional bias injection corrupts the lagged-sales feature on future rows
only (a covariate shift), which makes a model trained on history
systematically over- or under-forecast the future — the failure mode the
downstream diagnostics are built to expose.

Products never leave the market and launches fall in distinct weeks, so the
set of products on sale is fixed between consecutive launch weeks: sales
are drawn one such block of weeks at a time, as (weeks, products) arrays.
Only the two share normalisations stay per week, one 1-D sum of each
week's contiguous row, so the bits do not depend on the blocks.  Features,
sales and ground truth are arrays over the (week, product) grid, masked to
launched products; :meth:`PanelDataset.from_columns` builds the dataset
from them.

Feature columns (named ``f_0..f_4`` in files):
  f_0  product age in weeks (0 at launch)
  f_1  weeks since the most recent launch event in the category
  f_2  weeks until the next launch event (total panel length if none)
  f_3  lagged own sales; last observed value is carried forward on future
       rows; multiplied by (1 + stage1_bias_injection) on future rows
  f_4  noisy proxy of the product's latent attractiveness
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ScenarioConfigError, ValidationError, plain_number, store_plain_numbers
from .panel import PanelDataset, _csv_field, _open_output, save_panel_csv

_FEATURE_NAMES = ("f_0", "f_1", "f_2", "f_3", "f_4")
_ATTRACT_PROXY_SD = 0.05

CURVE_KINDS = ("flat", "linear-trend", "seasonal")


@dataclass(frozen=True)
class CategoryCurve:
    """Weekly category total as a function of the week index."""

    kind: str = "seasonal"
    base: float = 1000.0
    slope: float = 0.0
    amplitude: float = 0.15
    period: float = 52.0

    def __post_init__(self) -> None:
        store_plain_numbers(self, ScenarioConfigError)
        if self.kind not in CURVE_KINDS:
            raise ScenarioConfigError(
                f"unknown curve kind {self.kind!r}, expected one of {CURVE_KINDS}"
            )
        for name in ("base", "slope", "amplitude", "period"):
            if not math.isfinite(value := getattr(self, name)):
                raise ScenarioConfigError(f"curve {name} must be finite, got {value}")
        if self.base <= 0:
            raise ScenarioConfigError(f"curve base must be > 0, got {self.base}")
        if self.kind == "seasonal" and self.period <= 0:
            raise ScenarioConfigError(f"curve period must be > 0, got {self.period}")

    def totals(self, num_weeks: int) -> np.ndarray:
        w = np.arange(num_weeks, dtype=np.float64)
        if self.kind == "flat":
            s = np.full(num_weeks, self.base)
        elif self.kind == "linear-trend":
            s = self.base + self.slope * w
        else:
            s = self.base * (1.0 + self.amplitude * np.sin(2.0 * math.pi * w / self.period))
        if np.any(s <= 0):
            raise ScenarioConfigError(
                "category totals must stay positive over the whole panel; "
                "adjust base/slope/amplitude"
            )
        return s


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the generator.  Defaults give the standard small scenario:
    5 products, 80 historical + 20 future weeks, and one entrant launching
    at the first forecast week — so every forecast week carries the
    post-launch market."""

    num_products: int = 5
    num_weeks_hist: int = 80
    num_weeks_future: int = 20
    launch_schedule: Mapping[str, int] = field(default_factory=lambda: {"P4": 80})
    curve: CategoryCurve = CategoryCurve()
    share_decay_on_launch: float = 0.25
    noise_sd: float = 0.02
    stage1_bias_injection: float = 0.15
    seed: int = 7

    def __post_init__(self) -> None:
        store_plain_numbers(self, ScenarioConfigError)
        schedule = dict(self.launch_schedule)
        for pid, week in schedule.items():
            name = f"launch week of {pid!r}"
            schedule[pid] = plain_number(name, week, "int", ScenarioConfigError)
        object.__setattr__(self, "launch_schedule", schedule)
        if self.num_products < 1:
            raise ScenarioConfigError("num_products must be >= 1")
        if self.num_weeks_hist < 1 or self.num_weeks_future < 1:
            raise ScenarioConfigError("week counts must be >= 1")
        if not (0.0 < self.share_decay_on_launch < 1.0):
            raise ScenarioConfigError(
                f"share_decay_on_launch must be in (0, 1), got {self.share_decay_on_launch}"
            )
        if not 0 <= self.noise_sd < math.inf:
            raise ScenarioConfigError(
                f"noise_sd must be finite and >= 0, got {self.noise_sd}"
            )
        if not -1.0 < self.stage1_bias_injection < math.inf:
            raise ScenarioConfigError(
                "stage1_bias_injection must be finite and > -1 (it scales a "
                f"feature by 1+bias), got {self.stage1_bias_injection}"
            )
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ScenarioConfigError(f"seed must be >= 0, got {self.seed}")
        total = self.num_weeks_hist + self.num_weeks_future
        ids = set(self.product_ids())
        weeks_seen: set[int] = set()
        for pid, week in self.launch_schedule.items():
            if pid not in ids:
                raise ScenarioConfigError(
                    f"launch_schedule names unknown product {pid!r}"
                )
            if not (1 <= week < total):
                raise ScenarioConfigError(
                    f"launch week {week} for {pid} outside 1..{total - 1}"
                )
            if week in weeks_seen:
                raise ScenarioConfigError(f"two launches share week {week}")
            weeks_seen.add(week)
        if len(self.launch_schedule) >= self.num_products:
            raise ScenarioConfigError(
                "at least one product must be on sale from week 0"
            )
        if not any(w >= self.num_weeks_hist for w in self.launch_schedule.values()):
            raise ScenarioConfigError(
                "at least one launch must fall in the future window; "
                "otherwise there is no cannibalization event to forecast"
            )

    def product_ids(self) -> tuple[str, ...]:
        width = len(str(self.num_products - 1))
        return tuple(f"P{i:0{width}d}" for i in range(self.num_products))


@dataclass(frozen=True)
class GroundTruth:
    """True sales of the dataset's future rows in row order: ``sales[i]`` is
    row ``m + i``'s.  Held out so nothing downstream can train on them."""

    sales: np.ndarray


def generate(config: ScenarioConfig) -> tuple[PanelDataset, GroundTruth]:
    """Draw one scenario.  Pure function of the config: identical configs
    give bit-identical datasets and truth.

    Weekly sales are computed one block of weeks at a time, from one launch
    event to the next: softmax, noise, the pinning of each week's last
    member and the recorded totals are (weeks, active) array operations,
    and each week's two share sums are :func:`_week_sums`, as if the weeks
    were drawn one by one.  ``truth.sales`` owns its values, so it keeps no
    other row alive."""
    rng = np.random.default_rng(config.seed)
    P = config.num_products
    hist = config.num_weeks_hist
    T = hist + config.num_weeks_future
    pids = config.product_ids()
    launch_week = np.zeros(P, dtype=np.intp)
    for pid, week in config.launch_schedule.items():
        launch_week[pids.index(pid)] = week

    base_alpha = rng.normal(0.0, 0.6, P)
    drift = rng.normal(0.0, 0.25, P)
    proxy_noise = rng.normal(0.0, 1.0, (T, P)) * _ATTRACT_PROXY_SD
    share_noise = rng.normal(0.0, 1.0, (T, P))

    denom = float(T - 1) if T > 1 else 1.0

    # Calibrate each entrant so its launch-week softmax share is exactly the
    # configured decay: incumbents keep (1-d) of their pre-launch shares.
    d = config.share_decay_on_launch
    for pid, L in sorted(config.launch_schedule.items(), key=lambda kv: kv[1]):
        i = pids.index(pid)
        incumbents = [j for j in range(P) if launch_week[j] < L and j != i]
        mass = sum(math.exp(base_alpha[j] + drift[j] * (L / denom)) for j in incumbents)
        target = math.log(d / (1.0 - d) * mass)
        base_alpha[i] = target - drift[i] * (L / denom)

    # Products never leave and launches fall in distinct weeks, so the active
    # set is fixed from one launch event to the next (week 0 is one): each
    # such block of weeks is a (weeks, active) array.
    events = np.array(sorted({0} | set(config.launch_schedule.values())))
    curve = config.curve.totals(T)
    sales = np.zeros((T, P))
    recorded_totals = np.zeros(T)
    for w0, w1 in zip(events.tolist(), [*events[1:].tolist(), T]):
        active = np.flatnonzero(launch_week <= w0)
        a = base_alpha[active] + drift[active] * (np.arange(w0, w1) / denom)[:, None]
        ex = np.exp(a)
        share = ex / _week_sums(ex)
        if config.noise_sd > 0:
            share = share * np.exp(config.noise_sd * share_noise[w0:w1].take(active, axis=1))
            share = share / _week_sums(share)
        week_sales = share * curve[w0:w1, None]
        # Pin each week's member-order sum to the curve value exactly; the
        # correction lands on the last member and is O(ulp).
        head = np.cumsum(week_sales[:, :-1], axis=1)[:, -1] if active.size > 1 else 0.0
        week_sales[:, -1] = curve[w0:w1] - head
        sales[w0:w1, active] = week_sales
        recorded_totals[w0:w1] = np.cumsum(week_sales, axis=1)[:, -1]

    # One row per launched product and week, in (week, product) order,
    # which is the dataset's (week, product_id) order: ids are zero-padded.
    week_axis = np.arange(T)
    row_week, row_product = np.nonzero(launch_week <= week_axis[:, None])
    m = int(np.count_nonzero(row_week < hist))

    # Weeks since the latest launch event and until the next (the panel
    # length when none follows).
    next_event = np.searchsorted(events, week_axis, side="right")
    since_launch = week_axis - events[next_event - 1]
    to_launch = np.where(
        next_event < events.size,
        events[np.minimum(next_event, events.size - 1)] - week_axis,
        T,
    )

    # Own sales of the previous week, frozen at the last observed week on
    # future rows; zero in a product's launch week, week 0 included.
    lag = sales[np.clip(week_axis - 1, 0, hist - 1)]
    lag[launch_week == week_axis[:, None]] = 0.0
    lag[hist:] *= 1.0 + config.stage1_bias_injection

    age = week_axis[:, None] - launch_week
    proxy = base_alpha + drift * (week_axis / denom)[:, None] + proxy_noise
    # One row per feature: from_columns copies this (k, rows) block as is.
    block = np.stack([
        age[row_week, row_product],
        since_launch[row_week],
        to_launch[row_week],
        lag[row_week, row_product],
        proxy[row_week, row_product],
    ])
    row_sales = sales[row_week, row_product]
    row_ids = [pids[i] for i in row_product.tolist()]

    dataset = PanelDataset.from_columns(
        row_ids,
        row_week,
        block.T,
        row_sales,
        _FEATURE_NAMES,
        recorded_totals[row_week],
        has_sales=np.arange(row_week.size) < m,
    )
    return dataset, GroundTruth(row_sales[m:].copy())


def write_scenario(
    dataset: PanelDataset, truth: GroundTruth, out_dir: str | Path
) -> dict[str, Path]:
    """Write train.csv (historical rows), test.csv (future rows) and truth.csv
    (their keys and ``truth.sales``, one line per future row, each ended by
    ``\\n``).  Loading train+test reproduces the dataset.  A truth whose
    length is not the number of future rows is a :class:`ValidationError`,
    raised before any file is written."""
    m = dataset.m
    if len(truth.sales) != dataset.n - m:
        raise ValidationError(
            f"truth holds {len(truth.sales)} sales, but the dataset has "
            f"{dataset.n - m} future rows"
        )
    paths = {name: Path(out_dir) / f"{name}.csv" for name in ("train", "test", "truth")}
    save_panel_csv(dataset, paths["train"], rows=range(0, m))
    save_panel_csv(dataset, paths["test"], rows=range(m, dataset.n))
    quoted = {pid: _csv_field(pid) for pid in dict.fromkeys(dataset.product_ids[m:])}
    with _open_output(paths["truth"]) as fh:
        fh.write("product_id,week,true_sales\n")
        weeks = dataset.week_of_row[m:].tolist()
        for pid, week, value in zip(dataset.product_ids[m:], weeks, map(float, truth.sales)):
            fh.write(f"{quoted[pid]},{week},{value!r}\n")
    return paths


def _week_sums(block: np.ndarray) -> np.ndarray:
    """Each row's ``np.add.reduce`` as a column: one 1-D call per week on
    its contiguous row, because a 2-D ``axis=1`` reduction may add in
    another order and change the last bits."""
    return np.fromiter(map(np.add.reduce, block), np.float64, len(block))[:, None]
