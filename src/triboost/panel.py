"""Panel data model: product-week rows, their week layout, and CSV I/O.

A dataset is an ordered panel of product-week records.  Rows are sorted by
``(week_index, product_id)``.  The first ``m`` rows are historical (they
carry actual sales); the remaining rows are future rows that instead carry a
known weekly category total.  The rows of one week are a contiguous slice
and the coupling unit of the sum-constrained objectives;
:meth:`GroupLayout.from_week_column` is the one routine that finds those
slices and their category totals.

Datasets are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ConstraintDataError,
    OrderingError,
    SchemaError,
    ValidationError,
)


@dataclass(frozen=True, eq=False)
class PanelRecord:
    """One product-week row.

    ``actual_sales`` is present exactly when the row is historical.
    """

    product_id: str
    week_index: int
    features: np.ndarray
    actual_sales: float | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PanelRecord):
            return NotImplemented
        return (
            self.product_id == other.product_id
            and self.week_index == other.week_index
            and self.actual_sales == other.actual_sales
            and np.array_equal(self.features, other.features)
        )


@dataclass(frozen=True, eq=False)
class GroupLayout:
    """Compiled array view of a dataset's weeks.

    Each week is a contiguous, ordered slice of the row axis, so weekly
    aggregates reduce to segmented sums.  Pure data; safe to share.
    """

    starts: np.ndarray
    counts: np.ndarray
    totals: np.ndarray
    weeks: np.ndarray
    is_future: np.ndarray
    n: int

    @classmethod
    def from_week_column(
        cls,
        week_of_row: Sequence[int] | np.ndarray,
        sales: Sequence[float] | np.ndarray,
        future_totals: Mapping[int, float] | None = None,
    ) -> "GroupLayout":
        """Group a sorted week column into one slice per week.

        The first ``len(sales)`` rows are historical: a historical week's
        total is the member-order sum of its ``sales``, accumulated left
        to right (``np.add.reduceat`` adds in another order and can differ
        in the last bits, even on three rows).  Every later week is a
        future week whose total comes from ``future_totals``.
        """
        weeks = np.asarray(week_of_row, dtype=np.intp)
        if weeks.ndim != 1 or weeks.size == 0:
            raise ValidationError("cannot build a group layout from zero rows")
        n = weeks.shape[0]
        step_back = np.flatnonzero(np.diff(weeks) < 0)
        if step_back.size:
            i = int(step_back[0]) + 1
            raise OrderingError(
                f"week column is not sorted: row {i} has week {weeks[i]} after "
                f"week {weeks[i - 1]}; each week must be one contiguous slice"
            )
        hist = np.asarray(sales, dtype=np.float64).tolist()
        m = len(hist)
        if m > n:
            raise ValidationError(f"sales cover {m} rows, week column has {n}")
        starts = np.flatnonzero(np.r_[True, weeks[1:] != weeks[:-1]])
        ends = np.r_[starts[1:], n]
        future_totals = future_totals or {}
        totals = []
        bounds = zip(starts.tolist(), ends.tolist(), weeks[starts].tolist())
        for start, end, week in bounds:
            if start < m < end:
                raise OrderingError(f"week {week} mixes historical and future rows")
            if start < m:
                total = 0.0
                for value in hist[start:end]:  # member order: deterministic accumulation
                    total += value
            elif week not in future_totals:
                raise ConstraintDataError(f"future week {week} has no category total")
            else:
                total = float(future_totals[week])
                if not np.isfinite(total) or total < 0:
                    raise ConstraintDataError(
                        f"future week {week}: category total must be finite and >= 0"
                    )
            totals.append(total)
        return cls(
            starts=starts,
            counts=ends - starts,
            totals=np.asarray(totals, dtype=np.float64),
            weeks=weeks[starts],
            is_future=starts >= m,
            n=n,
        )

    def weekly_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-week sums of a row-aligned vector."""
        return np.add.reduceat(np.asarray(values, dtype=np.float64), self.starts)

    def residuals(self, preds: np.ndarray) -> np.ndarray:
        """Per-week ``category_total - sum(preds)``."""
        return self.totals - self.weekly_sums(preds)

    def expand(self, weekly_values: np.ndarray) -> np.ndarray:
        """Broadcast one value per week back to row alignment."""
        return np.repeat(np.asarray(weekly_values, dtype=np.float64), self.counts)


@dataclass(frozen=True, eq=False)
class PanelDataset:
    """Immutable panel of records with its week layout and historical split.

    Rows ``0..m-1`` are historical, ``m..n-1`` are future.  Use
    :meth:`from_records` or :func:`load_panel_csv` to construct one; both
    enforce all invariants.
    """

    records: tuple[PanelRecord, ...]
    m: int
    n: int
    layout: GroupLayout
    feature_names: tuple[str, ...]

    @classmethod
    def from_records(
        cls,
        records: Sequence[PanelRecord],
        feature_names: Sequence[str],
        future_totals: Mapping[int, float] | None = None,
    ) -> "PanelDataset":
        records = tuple(records)
        if not records:
            raise ValidationError("dataset has no rows")
        k = len(feature_names)
        keys = []
        for i, r in enumerate(records):
            if r.week_index < 0:
                raise ValidationError(f"row {i}: negative week index {r.week_index}")
            if r.features.shape != (k,):
                raise ValidationError(
                    f"row {i}: expected {k} features, got {r.features.shape}"
                )
            if not np.all(np.isfinite(r.features)):
                raise ValidationError(
                    f"row {i} (product {r.product_id}, week {r.week_index}): "
                    "non-finite feature value"
                )
            if r.actual_sales is not None:
                if not np.isfinite(r.actual_sales) or r.actual_sales < 0:
                    raise ValidationError(
                        f"row {i}: actual sales must be finite and >= 0, "
                        f"got {r.actual_sales}"
                    )
            keys.append((r.week_index, r.product_id))
        if keys != sorted(keys):
            raise OrderingError("records must be sorted by (week_index, product_id)")
        if len(set(keys)) != len(keys):
            raise ValidationError("duplicate (week, product) rows")

        m = sum(1 for r in records if r.actual_sales is not None)
        if m < 1:
            raise ValidationError("dataset needs at least one historical row")
        for i, r in enumerate(records):
            if (r.actual_sales is not None) != (i < m):
                raise OrderingError(
                    "historical rows (with sales) must form a contiguous prefix; "
                    f"row {i} (week {r.week_index}) breaks it"
                )

        layout = GroupLayout.from_week_column(
            [week for week, _ in keys],
            [r.actual_sales for r in records[:m]],
            future_totals,
        )
        return cls(
            records=records,
            m=m,
            n=len(records),
            layout=layout,
            feature_names=tuple(feature_names),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PanelDataset):
            return NotImplemented
        return (
            self.m == other.m
            and self.n == other.n
            and self.feature_names == other.feature_names
            and np.array_equal(self.layout.totals, other.layout.totals)
            and all(a == b for a, b in zip(self.records, other.records))
        )

    @cached_property
    def features(self) -> np.ndarray:
        """Row-major feature matrix of shape (n, num_features). Read-only."""
        x = np.vstack([r.features for r in self.records]).astype(np.float64)
        x.setflags(write=False)
        return x

    @cached_property
    def actuals(self) -> np.ndarray:
        """Actual sales of the historical rows, length m. Read-only."""
        y = np.asarray([r.actual_sales for r in self.records[: self.m]], dtype=np.float64)
        y.setflags(write=False)
        return y

    @cached_property
    def week_of_row(self) -> np.ndarray:
        """Week index of every row, length n. Read-only."""
        w = np.repeat(self.layout.weeks, self.layout.counts)
        w.setflags(write=False)
        return w


@dataclass(frozen=True)
class CsvSchema:
    """Column-name mapping for panel CSV files.

    ``features`` of None means: every unmapped column, in file order.  A
    column named ``category`` (or the one named here) is checked for
    single-category consistency and excluded from features.
    """

    product: str = "product_id"
    week: str = "week"
    sales: str = "sales"
    category_total: str = "category_total"
    features: tuple[str, ...] | None = None
    category: str | None = None


def load_panel_csv(
    paths: str | Path | Sequence[str | Path], schema: CsvSchema | None = None
) -> PanelDataset:
    """Load one or more panel CSVs into a single validated :class:`PanelDataset`.

    Multiple files (e.g. a historical file and a future file) are
    concatenated before sorting.  Each file must have a header naming the
    product, week, sales, and category-total columns per ``schema``.  Sales
    are blank on future rows; category totals are required on future rows
    and ignored on historical ones.  Rows are sorted, the historical prefix
    is inferred from sales presence, and all dataset invariants are
    enforced.
    """
    schema = schema or CsvSchema()
    if isinstance(paths, (str, Path)):
        paths = [paths]
    if not paths:
        raise ValidationError("no input files given")

    feature_names: list[str] | None = None
    parsed: list[tuple[int, str, float | None, float | None, np.ndarray]] = []
    categories: set[str] = set()
    for path in paths:
        names = _read_panel_file(Path(path), schema, parsed, categories)
        if feature_names is None:
            feature_names = names
        elif names != feature_names:
            raise SchemaError(
                f"{path}: feature columns {names} do not match {feature_names}"
            )

    if len(categories) > 1:
        raise ValidationError(
            f"multiple categories {sorted(categories)}; one category per dataset"
        )

    parsed.sort(key=lambda item: (item[0], item[1]))
    records = [
        PanelRecord(product_id=p, week_index=w, features=f, actual_sales=s)
        for w, p, s, _, f in parsed
    ]

    future_totals: dict[int, float] = {}
    for (week, product, sales, total, _) in parsed:
        if sales is not None:
            continue
        if total is None:
            raise ConstraintDataError(
                f"future row (product {product}, week {week}) lacks a category total"
            )
        if week in future_totals and future_totals[week] != total:
            raise ConstraintDataError(
                f"week {week} carries conflicting category totals "
                f"{future_totals[week]} and {total}"
            )
        future_totals.setdefault(week, total)

    return PanelDataset.from_records(records, feature_names, future_totals)


def _read_panel_file(
    path: Path,
    schema: CsvSchema,
    parsed: list,
    categories: set[str],
) -> list[str]:
    """Parse one CSV into ``parsed`` (week, product, sales, total, features)
    tuples; returns the feature column names found."""
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file, header required")
            rows = list(reader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc

    col = {name: i for i, name in enumerate(header)}
    for required in (schema.product, schema.week, schema.sales, schema.category_total):
        if required not in col:
            raise SchemaError(f"{path}: missing required column '{required}'")
    category_col = schema.category
    if category_col is None and "category" in col:
        category_col = "category"
    reserved = {schema.product, schema.week, schema.sales, schema.category_total}
    if category_col is not None:
        if category_col not in col:
            raise SchemaError(f"{path}: missing category column '{category_col}'")
        reserved.add(category_col)
    if schema.features is None:
        feature_names = [name for name in header if name not in reserved]
    else:
        feature_names = list(schema.features)
        for name in feature_names:
            if name not in col:
                raise SchemaError(f"{path}: missing feature column '{name}'")

    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValidationError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
            )
        product = row[col[schema.product]]
        week = _parse_int(row[col[schema.week]], path, lineno, schema.week)
        sales_text = row[col[schema.sales]].strip()
        sales = None if sales_text == "" else _parse_float(sales_text, path, lineno, schema.sales)
        total_text = row[col[schema.category_total]].strip()
        total = None if total_text == "" else _parse_float(total_text, path, lineno, schema.category_total)
        feats = np.asarray(
            [_parse_float(row[col[name]], path, lineno, name) for name in feature_names],
            dtype=np.float64,
        )
        if category_col is not None:
            categories.add(row[col[category_col]])
        parsed.append((week, product, sales, total, feats))

    return feature_names


def save_panel_csv(
    dataset: PanelDataset,
    path: str | Path,
    schema: CsvSchema | None = None,
    rows: Iterable[int] | None = None,
) -> None:
    """Write a dataset (or a row subset) to CSV in the canonical column order.

    Floats are written with ``repr`` so a reload reproduces the dataset
    field-for-field.
    """
    schema = schema or CsvSchema()
    if schema.features is not None and tuple(schema.features) != dataset.feature_names:
        raise ValidationError("schema feature names do not match the dataset")
    totals = dict(zip(dataset.layout.weeks.tolist(), dataset.layout.totals.tolist()))
    indices = range(dataset.n) if rows is None else rows
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [schema.product, schema.week, schema.sales, schema.category_total]
            + list(dataset.feature_names)
        )
        for i in indices:
            r = dataset.records[i]
            sales = "" if r.actual_sales is None else repr(float(r.actual_sales))
            total = "" if i < dataset.m else repr(totals[r.week_index])
            writer.writerow(
                [r.product_id, str(r.week_index), sales, total]
                + [repr(float(v)) for v in r.features]
            )


def _parse_int(text: str, path: Path, lineno: int, colname: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(
            f"{path}:{lineno}: column '{colname}': not an integer: {text!r}"
        ) from None


def _parse_float(text: str, path: Path, lineno: int, colname: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(
            f"{path}:{lineno}: column '{colname}': not a number: {text!r}"
        ) from None
    return value
