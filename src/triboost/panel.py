"""Panel data model: product-week rows, their week layout, and CSV I/O.

A dataset is an ordered panel of product-week rows held as columns: product
ids, an (n, k) feature matrix, historical sales and the week layout.  Rows
are sorted by ``(week_index, product_id)``.  The first ``m`` rows are historical (they
carry actual sales); the remaining rows are future rows that instead carry a
known weekly category total.  The rows of one week are a contiguous slice
and the coupling unit of the sum-constrained objectives;
:meth:`GroupLayout.from_week_column` is the one routine that finds those
slices and their category totals, and the only code that checks a future
week's total: every row of the week must carry the same finite,
non-negative value in the row-aligned category-total column.

:meth:`PanelDataset.from_columns` is the one constructor that validates a
panel; :func:`load_panel_csv` and the scenario generator build their
columns and call it.  :class:`PanelRecord` is the row form, which
:meth:`PanelDataset.from_records` unzips into columns.

Datasets are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import (
    ConstraintDataError,
    OrderingError,
    PersistenceError,
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
        category_totals: Sequence[float | None] | np.ndarray | None = None,
    ) -> "GroupLayout":
        """Group a sorted week column into one slice per week.

        The first ``len(sales)`` rows are historical: a historical week's
        total is the member-order sum of its ``sales``, accumulated left
        to right (``np.add.reduceat`` adds in another order and can differ
        in the last bits, even on three rows).  Every later week is a
        future week: its rows must all carry the same finite, non-negative
        total in the row-aligned ``category_totals``, which is ignored on
        historical rows.
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
        column = [None] * n if category_totals is None else category_totals
        if m > n or len(column) != n:
            raise ValidationError(
                f"sales cover {m} rows and category totals {len(column)}; "
                f"the week column has {n}"
            )
        starts = np.flatnonzero(np.r_[True, weeks[1:] != weeks[:-1]])
        ends = np.r_[starts[1:], n]
        totals = []
        bounds = zip(starts.tolist(), ends.tolist(), weeks[starts].tolist())
        for start, end, week in bounds:
            if start < m < end:
                raise OrderingError(f"week {week} mixes historical and future rows")
            if start < m:
                total = 0.0
                for value in hist[start:end]:  # member order: deterministic accumulation
                    total += value
            else:
                total = column[start]
                for i, cell in enumerate(column[start:end], start):
                    if cell is None:
                        problem = f"no category total (row {i} lacks one)"
                    elif not 0 <= cell < np.inf:
                        problem = f"category total must be finite and >= 0, got {cell}"
                    elif cell != total:
                        problem = f"conflicting category totals {total} and {cell}"
                    else:
                        continue
                    raise ConstraintDataError(f"future week {week}: {problem}")
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
    """Immutable columnar panel with its week layout and historical split.

    Row ``i`` is product ``product_ids[i]`` in week ``week_of_row[i]`` with
    features ``features[i]``.  Rows ``0..m-1`` are historical and their
    sales are ``actuals``; rows ``m..n-1`` are future.  Construct one
    with :meth:`from_columns`, :meth:`from_records` or
    :func:`load_panel_csv`; all of them enforce every invariant through
    :meth:`from_columns`.
    """

    product_ids: tuple[str, ...]
    features: np.ndarray
    actuals: np.ndarray
    layout: GroupLayout
    feature_names: tuple[str, ...]

    @classmethod
    def from_columns(
        cls,
        product_ids: Sequence[str],
        week_of_row: Sequence[int] | np.ndarray,
        features: np.ndarray,
        sales: Sequence[float | None],
        feature_names: Sequence[str],
        category_totals: Sequence[float | None] | np.ndarray | None = None,
    ) -> "PanelDataset":
        """Build a dataset from row-aligned columns, the one constructor
        that validates a panel.

        ``features`` is an (n, k) matrix with ``k = len(feature_names)``;
        ``sales`` holds each historical row's sales and None on future rows;
        ``category_totals`` mirrors a panel CSV's ``category_total`` column,
        which only future rows need.  Each check runs on a whole column and
        names its first bad row.
        """
        n = len(product_ids)
        if n == 0:
            raise ValidationError("dataset has no rows")
        features = np.array(features, dtype=np.float64)
        k = len(feature_names)
        if category_totals is None:
            category_totals = [None] * n
        lengths = (len(week_of_row), len(sales), len(category_totals))
        if features.shape != (n, k) or lengths != (n, n, n):
            raise ValidationError(
                f"columns disagree: {n} product ids, {lengths[0]} weeks, "
                f"{lengths[1]} sales, {lengths[2]} category totals and a "
                f"{features.shape} feature matrix for {k} features"
            )
        weeks = np.asarray(week_of_row)
        if (i := _first(weeks < 0)) is not None:
            raise ValidationError(f"row {i}: negative week index {weeks[i]}")
        if (i := _first(~np.isfinite(features).all(axis=1))) is not None:
            raise ValidationError(
                f"row {i} (product {product_ids[i]}, week {weeks[i]}): "
                "non-finite feature value"
            )

        has_sales = np.array([s is not None for s in sales])
        m = int(np.count_nonzero(has_sales))
        if m < 1:
            raise ValidationError("dataset needs at least one historical row")
        if (i := _first(~has_sales[:m])) is not None:
            raise OrderingError(
                "historical rows (with sales) must form a contiguous prefix; "
                f"row {i} (week {weeks[i]}) breaks it"
            )
        actuals = np.asarray(sales[:m], dtype=np.float64)
        if (i := _first(~(np.isfinite(actuals) & (actuals >= 0)))) is not None:
            raise ValidationError(
                f"row {i}: actual sales must be finite and >= 0, got {sales[i]}"
            )

        keys = list(zip(weeks.tolist(), product_ids))
        if keys != sorted(keys):
            raise OrderingError("records must be sorted by (week_index, product_id)")
        if len(set(keys)) != len(keys):
            raise ValidationError("duplicate (week, product) rows")

        layout = GroupLayout.from_week_column(weeks, actuals, category_totals)
        features.setflags(write=False)
        actuals.setflags(write=False)
        return cls(
            product_ids=tuple(product_ids),
            features=features,
            actuals=actuals,
            layout=layout,
            feature_names=tuple(feature_names),
        )

    @classmethod
    def from_records(
        cls,
        records: Sequence[PanelRecord],
        feature_names: Sequence[str],
        future_totals: Mapping[int, float] | None = None,
    ) -> "PanelDataset":
        """Build a dataset from :class:`PanelRecord` rows: unzip them into
        columns and hand those to :meth:`from_columns`."""
        k = len(feature_names)
        for i, shape in enumerate(np.shape(r.features) for r in records):
            if shape != (k,):
                raise ValidationError(f"row {i}: expected {k} features, got {shape}")
        return cls.from_columns(
            [r.product_id for r in records],
            [r.week_index for r in records],
            [r.features for r in records],
            [r.actual_sales for r in records],
            feature_names,
            [(future_totals or {}).get(r.week_index) for r in records],
        )

    @property
    def m(self) -> int:
        """Number of historical rows."""
        return self.actuals.shape[0]

    @property
    def n(self) -> int:
        """Number of rows."""
        return self.features.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PanelDataset):
            return NotImplemented
        return (
            self.product_ids == other.product_ids
            and self.feature_names == other.feature_names
            and np.array_equal(self.week_of_row, other.week_of_row)
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.actuals, other.actuals)
            and np.array_equal(self.layout.totals, other.layout.totals)
        )

    @cached_property
    def week_of_row(self) -> np.ndarray:
        """Week index of every row, length n. Read-only."""
        w = np.repeat(self.layout.weeks, self.layout.counts)
        w.setflags(write=False)
        return w

    @property
    def records(self) -> tuple[PanelRecord, ...]:
        """The rows as :class:`PanelRecord` objects, rebuilt on each access.
        Nothing in this package reads it; it is kept for code outside the
        package that walks rows, e.g. the benchmark's row-key check."""
        sales = self.actuals.tolist() + [None] * (self.n - self.m)
        weeks = self.week_of_row.tolist()
        return tuple(map(PanelRecord, self.product_ids, weeks, self.features, sales))


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True in ``mask``, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


# The fixed columns of a panel CSV; every other column is a feature, except
# an optional ``category`` column, which must hold one value throughout.
PANEL_COLUMNS = ("product_id", "week", "sales", "category_total")


def load_panel_csv(paths: str | Path | Sequence[str | Path]) -> PanelDataset:
    """Load one or more panel CSVs into a single validated :class:`PanelDataset`.

    Multiple files (e.g. a historical file and a future file) are
    concatenated, parsed straight into columns, and sorted once, stably, by
    ``(week, product_id)``.  Each file must have a header naming the
    :data:`PANEL_COLUMNS`.  Sales are blank on future rows; category totals
    are required on future rows and ignored on historical ones.  The
    historical prefix is inferred from sales presence, and all dataset
    invariants are enforced by :meth:`PanelDataset.from_columns`.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    if not paths:
        raise ValidationError("no input files given")

    feature_names: list[str] | None = None
    columns: tuple[list, ...] = ([], [], [], [])  # product, week, sales, total
    features = array("d")  # row-major feature cells
    categories: set[str] = set()
    for path in paths:
        names = _read_panel_file(Path(path), columns, features, categories)
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

    products, weeks, sales, totals = columns
    order = sorted(range(len(weeks)), key=list(zip(weeks, products)).__getitem__)
    products, weeks, sales, totals = (
        [col[i] for i in order] for col in columns
    )
    matrix = np.frombuffer(features).reshape(len(order), len(feature_names))
    return PanelDataset.from_columns(
        products, weeks, matrix[order], sales, feature_names, totals
    )


def _read_panel_file(
    path: Path, columns: tuple[list, ...], features: array, categories: set[str]
) -> list[str]:
    """Append one CSV's cells to the product, week, sales and total
    ``columns`` and its feature cells, row by row, to ``features``; returns
    the feature column names found."""
    rows = _read_csv(path, PANEL_COLUMNS)
    header = next(rows)
    col = {name: i for i, name in enumerate(header)}
    category = col.get("category")
    feature_names = [
        name for name in header if name not in PANEL_COLUMNS and name != "category"
    ]
    feature_cols = [col[name] for name in feature_names]
    product_i, week_i, sales_i, total_i = (col[name] for name in PANEL_COLUMNS)
    products, weeks, sales, totals = columns
    for lineno, row in rows:
        products.append(row[product_i])
        weeks.append(_parse_int(row[week_i], path, lineno, "week"))
        sales.append(_parse_blank_or_float(row[sales_i], path, lineno, "sales"))
        totals.append(
            _parse_blank_or_float(row[total_i], path, lineno, "category_total")
        )
        for name, i in zip(feature_names, feature_cols):
            features.append(_parse_float(row[i], path, lineno, name))
        if category is not None:
            categories.add(row[category])
    return feature_names


def save_panel_csv(
    dataset: PanelDataset,
    path: str | Path,
    rows: Iterable[int] | None = None,
) -> None:
    """Write a dataset (or a row subset) to CSV: the :data:`PANEL_COLUMNS`,
    then the features.

    Floats are written with ``repr`` so a reload reproduces the dataset
    field-for-field.  ``rows`` (any iterable of row indices, in any order,
    repeats allowed) is selected first; then each column is formatted once
    and the rows are handed to ``csv.writer.writerows`` as ``zip`` of the
    columns, with no per-row Python loop.
    """
    idx = np.arange(dataset.n)
    if rows is not None:
        idx = idx[np.fromiter(rows, dtype=np.intp)]
    layout = dataset.layout
    hist = idx < dataset.m
    # A historical row shows its sales, a future row its week's total: one
    # float per row, formatted once and then split into the two columns.
    value = np.concatenate([dataset.actuals, layout.expand(layout.totals)[dataset.m :]])
    text = np.array(list(map(repr, value[idx].tolist())), dtype=object)
    columns = [
        map(dataset.product_ids.__getitem__, idx.tolist()),
        map(str, dataset.week_of_row[idx].tolist()),
        np.where(hist, text, "").tolist(),
        np.where(hist, "", text).tolist(),
        *(map(repr, col) for col in dataset.features[idx].T.tolist()),
    ]
    with _open_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow([*PANEL_COLUMNS, *dataset.feature_names])
        writer.writerows(zip(*columns))


def _read_csv(path: str | Path, required: Iterable[str]) -> Iterator:
    """Yield a UTF-8 CSV file's header, then each non-blank row as
    ``(line number, fields)``, reading as the caller consumes them.  Any
    read, decode, parse, header or field-count error is a
    :class:`ValidationError` naming the file (and line); a header that
    names a column twice is one, since callers find columns by name."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file, header required")
            seen: set[str] = set()
            for name in header:
                if name in seen:
                    raise SchemaError(f"{path}: column '{name}' appears more than once")
                seen.add(name)
            for name in required:
                if name not in header:
                    raise SchemaError(f"{path}: missing required column '{name}'")
            yield header
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise ValidationError(
                        f"{path}:{reader.line_num}: expected {len(header)} fields, "
                        f"got {len(row)}"
                    )
                yield reader.line_num, row
    except csv.Error as exc:
        raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


@contextmanager
def _open_output(path: str | Path) -> Iterator[TextIO]:
    """Open ``path`` for writing as UTF-8 text with ``newline=""``, creating
    its parent directory: every file the package writes, except a model,
    goes through here.  Any ``OSError``, from the ``mkdir`` to the close,
    is a :class:`PersistenceError` naming the file."""
    path = Path(path)
    with _writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            yield fh


@contextmanager
def _writing(path: str | Path) -> Iterator[None]:
    """Turn an ``OSError`` in the block into a PersistenceError naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise PersistenceError(f"cannot write {path}: {exc}") from exc


def _parse_int(text: str, path: Path, lineno: int, colname: str) -> int:
    """An int64 cell; anything else is a :class:`ValidationError` naming
    the file and line."""
    try:
        value = int(text)
    except ValueError:
        raise ValidationError(
            f"{path}:{lineno}: column '{colname}': not an integer: {text!r}"
        ) from None
    if not -(2**63) <= value < 2**63:
        raise ValidationError(
            f"{path}:{lineno}: column '{colname}': integer out of range: {text!r}"
        )
    return value


def _parse_float(text: str, path: Path, lineno: int, colname: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(
            f"{path}:{lineno}: column '{colname}': not a number: {text!r}"
        ) from None


def _parse_blank_or_float(text: str, path: Path, lineno: int, colname: str) -> float | None:
    """None for a blank cell, else the cell parsed by :func:`_parse_float`."""
    text = text.strip()
    return None if text == "" else _parse_float(text, path, lineno, colname)
