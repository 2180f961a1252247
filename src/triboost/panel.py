"""Panel data model: product-week rows, their week layout, and CSV I/O.

A dataset is an ordered panel of product-week rows held as columns: product
ids, the features as one C-contiguous (k, n) block (one row per feature,
which the training engine scans in place), historical sales and the week
layout.  Rows are sorted by ``(week_index, product_id)``.  The first ``m``
rows are historical (they carry actual sales); the remaining rows are
future rows that instead carry a known weekly category total.  The rows
of one week are a contiguous slice and the coupling unit of the
sum-constrained objectives; :meth:`GroupLayout.from_week_column` is the
one routine that finds those slices and their category totals, and the
only code that checks a future week's total: every row of the week must
carry the same finite, non-negative value in the row-aligned
category-total column.

:meth:`PanelDataset.from_columns` is the one constructor that validates a
panel; it checks row order and uniqueness on whole columns.
:func:`load_panel_csv` and the scenario generator build their columns and
call it.  The loader reads each CSV a chunk of rows at a time, converts
each chunk a column at a time, keeps one string object per product id,
and orders the rows of all its files with one stable sort;
:func:`save_panel_csv` writes the same chunks of rows, a column at a time.
:class:`PanelRecord` is the row form, which
:meth:`PanelDataset.from_records` unzips into columns.

Datasets are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import io
import numbers
from contextlib import closing, contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

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
    features ``features[i]``.  ``features`` is the (n, k) transpose view of
    a read-only, C-contiguous (k, n) block, so ``features.T`` holds each
    feature's values in one contiguous row: :func:`~triboost.gbdt.fit`
    reads that block in place.  Rows ``0..m-1`` are historical and their
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
        sales: Sequence[float | None] | np.ndarray,
        feature_names: Sequence[str],
        category_totals: Sequence[float | None] | np.ndarray | None = None,
        *,
        has_sales: np.ndarray | None = None,
        locate: Callable[[int], str] = "row {}".format,
    ) -> "PanelDataset":
        """Build a dataset from row-aligned columns, the one constructor
        that validates a panel.

        ``features`` is an (n, k) matrix with ``k = len(feature_names)``,
        in any memory order; it is copied into the dataset's (k, n) block,
        a plain copy when ``features.T`` is already C-contiguous, as the
        loader's and the scenario generator's are;
        ``sales`` holds each historical row's sales and None on future rows;
        when the boolean column ``has_sales`` is given instead, it marks the
        historical rows, and ``sales`` is a float column whose values on
        future rows are ignored (so no row needs a Python float);
        ``category_totals`` mirrors a panel CSV's ``category_total`` column,
        which only future rows need.  ``feature_names`` must be distinct
        and none may be a :data:`PANEL_COLUMNS` name or ``category``, so
        that :func:`save_panel_csv` writes a file :func:`load_panel_csv`
        reads back.  Each check runs on a whole column and
        names its first bad row.  Row order and uniqueness are checked on
        adjacent differences of the week column and of each product's rank
        in string order; the first row out of order and the first repeated
        ``(week, product)`` pair are named by ``locate``, which turns a row
        index into text (``row 4`` by default; :func:`load_panel_csv`
        passes one that gives the ``file:line`` the row came from).
        """
        n = len(product_ids)
        if n == 0:
            raise ValidationError("dataset has no rows")
        features = np.asarray(features, dtype=np.float64)
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
        seen: set[str] = set()
        for name in feature_names:
            if name in seen or name in PANEL_COLUMNS or name == "category":
                reason = "appears twice" if name in seen else "names a fixed panel CSV column"
                raise ValidationError(
                    f"feature name {name!r} {reason}: a saved panel could not be loaded"
                )
            seen.add(name)
        weeks = np.asarray(week_of_row)
        if (i := _first(weeks < 0)) is not None:
            raise ValidationError(f"row {i}: negative week index {weeks[i]}")
        block = np.array(features.T, order="C")  # (k, n): one row per feature
        if (i := _first(~np.isfinite(block).all(axis=0))) is not None:
            raise ValidationError(
                f"row {i} (product {product_ids[i]}, week {weeks[i]}): "
                "non-finite feature value"
            )

        if has_sales is None:
            has_sales = [s is not None for s in sales]
        has_sales = np.asarray(has_sales, dtype=bool)
        if has_sales.shape != (n,):
            raise ValidationError(
                f"columns disagree: {n} product ids and {has_sales.shape} sales flags"
            )
        m = int(np.count_nonzero(has_sales))
        if m < 1:
            raise ValidationError("dataset needs at least one historical row")
        if (i := _first(~has_sales[:m])) is not None:
            raise OrderingError(
                "historical rows (with sales) must form a contiguous prefix; "
                f"row {i} (week {weeks[i]}) breaks it"
            )
        actuals = np.array(sales[:m], dtype=np.float64)
        if (i := _first(~(np.isfinite(actuals) & (actuals >= 0)))) is not None:
            raise ValidationError(
                f"row {i}: actual sales must be finite and >= 0, got {sales[i]}"
            )

        week_step = np.diff(weeks)
        rank_step = np.diff(_string_ranks(product_ids))
        backward = (week_step < 0) | ((week_step == 0) & (rank_step < 0))
        if (i := _first(backward)) is not None:
            raise OrderingError(
                "records must be sorted by (week_index, product_id): "
                f"{locate(i + 1)} (week {weeks[i + 1]}, product {product_ids[i + 1]!r}) "
                f"comes after {locate(i)} (week {weeks[i]}, product {product_ids[i]!r})"
            )
        if (i := _first((week_step == 0) & (rank_step == 0))) is not None:
            raise ValidationError(
                f"duplicate (week, product) rows: week {weeks[i]}, product "
                f"{product_ids[i]!r} at {locate(i)} and {locate(i + 1)}"
            )

        layout = GroupLayout.from_week_column(weeks, actuals, category_totals)
        block.setflags(write=False)
        actuals.setflags(write=False)
        return cls(
            product_ids=tuple(product_ids),
            features=block.T,
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


def _string_ranks(ids: Sequence[str]) -> np.ndarray:
    """Each id's position among the distinct ids in Python string order."""
    rank = {pid: r for r, pid in enumerate(sorted(set(ids)))}
    return np.fromiter(map(rank.__getitem__, ids), np.intp, len(ids))


# The fixed columns of a panel CSV; every other column is a feature, except
# an optional ``category`` column, which must hold one value throughout.
PANEL_COLUMNS = ("product_id", "week", "sales", "category_total")


# Data rows per chunk, read or written: a chunk's cell strings are the
# largest transient of both the loader and the writer.  Loading the tall
# benchmark files (90,020 rows, 2-vCPU Xeon, tracemalloc), the traced peak is
# 21.6 MB for chunks of 2**10 to 2**14 rows, where the sorted columns set it,
# and 32.7, 59.9 and 82.2 MB for 2**15, 2**16 and one chunk per file.
# Writing the tall train.csv (89,820 rows), the peak is 2.2, 4.1 and 11.9 MB
# at 2**10, 2**12 and 2**14 rows and 47.6 MB in one chunk (the whole-file
# ``csv.writer`` path it replaced peaked at 34.7 MB).  Times at 2**10 to
# 2**14 (loads 0.31-0.65 s, writes 0.29-0.34 s, min and median of 7-9 runs)
# differed by less than the host's noise, so the chunk sits well inside the
# flat range.
_CHUNK_ROWS = 1 << 12


def load_panel_csv(paths: str | Path | Sequence[str | Path]) -> PanelDataset:
    """Load one or more panel CSVs into a single validated :class:`PanelDataset`.

    Each file must have a header naming the :data:`PANEL_COLUMNS`.  Sales
    are blank on future rows; category totals are required on future rows
    and ignored on historical ones.  Files are parsed in chunks of
    ``_CHUNK_ROWS`` rows, one column at a time, into numpy columns; each
    product id is kept as one string object however many rows name it.  A
    chunk with a cell that does not convert is parsed again row by row,
    so the error names the first bad cell's file, line and column.  The
    rows of all files are then ordered by one stable ``np.lexsort`` on
    ``(week, product_id)``, with ids in Python string order, and handed to
    :meth:`PanelDataset.from_columns`, which infers the historical prefix
    from sales presence and enforces every dataset invariant; a repeated
    ``(week, product)`` row is named by both its ``file:line`` positions.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    if not paths:
        raise ValidationError("no input files given")

    feature_names: list[str] | None = None
    codes: dict[str, int] = {}  # product id -> code, in order of first sight
    categories: set[str] = set()
    chunks: list[tuple[np.ndarray, ...]] = []
    file_ends: list[int] = []  # rows read through each file
    for path in paths:
        names = _read_panel_file(Path(path), codes, categories, chunks)
        if feature_names is None:
            feature_names = names
        elif names != feature_names:
            raise SchemaError(
                f"{path}: feature columns {names} do not match {feature_names}"
            )
        file_ends.append(sum(len(chunk[0]) for chunk in chunks))

    if len(categories) > 1:
        raise ValidationError(
            f"multiple categories {sorted(categories)}; one category per dataset"
        )
    if not chunks:
        return PanelDataset.from_columns((), (), np.empty((0, len(feature_names))), (),
                                         feature_names)

    lines, product, weeks, has_sales, sales, has_total, totals, block = (
        np.concatenate(column, axis=-1) for column in zip(*chunks)  # block: (k, rows)
    )
    chunks.clear()  # from here on, at most two copies of the feature block
    ids = np.array(list(codes), dtype=object)
    rank = _string_ranks(ids)
    order = np.lexsort((rank[product], weeks))
    features = block.take(order, axis=1).T  # from_columns copies its .T plainly
    del block

    def locate(i: int) -> str:
        row = int(order[i])
        return f"{Path(paths[np.searchsorted(file_ends, row, 'right')])}:{lines[row]}"

    return PanelDataset.from_columns(
        tuple(ids[product[order]]),
        weeks[order],
        features,
        sales[order],
        feature_names,
        np.where(has_total[order], totals[order], None),
        has_sales=has_sales[order],
        locate=locate,
    )


def _read_panel_file(
    path: Path,
    codes: dict[str, int],
    categories: set[str],
    chunks: list[tuple[np.ndarray, ...]],
) -> list[str]:
    """Parse one panel CSV a chunk of rows at a time and append each
    chunk's columns to ``chunks``: line numbers, product codes (an id not
    yet in ``codes`` gets the next code there), weeks, sales presence and
    values, category-total presence and values, and the (features, rows)
    block.  The ``category`` cells go to ``categories``.  Returns the
    feature column names."""
    with closing(_read_csv(path, PANEL_COLUMNS)) as rows:
        header = next(rows)
        col = {name: i for i, name in enumerate(header)}
        feature_names = [
            name for name in header if name not in PANEL_COLUMNS and name != "category"
        ]
        feature_cols = [col[name] for name in feature_names]
        product_i, week_i, sales_i, total_i = (col[name] for name in PANEL_COLUMNS)
        category = col.get("category")

        def parse(chunk: list[tuple[int, list[str]]]) -> tuple[np.ndarray, ...]:
            # Each column converts with one C-level map; if a cell fails, the
            # chunk is parsed again cell by cell in file order, which raises
            # the error naming the first bad cell.
            lines, chunk_rows = zip(*chunk)
            cells = list(zip(*chunk_rows))
            n = len(chunk_rows)
            try:
                weeks = np.fromiter(map(int, cells[week_i]), np.int64, n)
                sales = _blank_or_float_column(cells[sales_i])
                totals = _blank_or_float_column(cells[total_i])
                block = np.empty((len(feature_cols), n))
                for j, i in enumerate(feature_cols):
                    block[j] = np.fromiter(map(float, cells[i]), np.float64, n)
            except (ValueError, OverflowError):
                for lineno, row in chunk:
                    _parse_int(row[week_i], path, lineno, "week")
                    _parse_blank_or_float(row[sales_i], path, lineno, "sales")
                    _parse_blank_or_float(row[total_i], path, lineno, "category_total")
                    for name, i in zip(feature_names, feature_cols):
                        _parse_float(row[i], path, lineno, name)
                raise
            for pid in dict.fromkeys(cells[product_i]):
                codes.setdefault(pid, len(codes))
            product = np.fromiter(map(codes.__getitem__, cells[product_i]), np.intp, n)
            if category is not None:
                categories.update(cells[category])
            return (np.array(lines, dtype=np.int64), product, weeks, *sales, *totals, block)

        while True:
            chunk: list[tuple[int, list[str]]] = []
            try:
                chunk.extend(islice(rows, _CHUNK_ROWS))
            except ValidationError:
                if chunk:  # a bad cell above the bad row is reported first
                    parse(chunk)
                raise
            if chunk:
                chunks.append(parse(chunk))
            if len(chunk) < _CHUNK_ROWS:
                return feature_names


def _blank_or_float_column(cells: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """A column of blank-or-number cells as (presence mask, values); blank
    cells, empty after ``str.strip``, read 0.0."""
    text = list(map(str.strip, cells))
    present = np.fromiter(map(bool, text), bool, len(text))
    values = np.zeros(len(text))
    values[present] = np.fromiter(map(float, filter(None, text)), np.float64)
    return present, values


def save_panel_csv(
    dataset: PanelDataset,
    path: str | Path,
    rows: Iterable[int] | None = None,
) -> None:
    """Write a dataset (or a row subset) to CSV: the :data:`PANEL_COLUMNS`,
    then the features.

    Floats are written with ``repr`` so a reload reproduces the dataset
    field-for-field.  ``rows`` (any iterable of row indices, in any order,
    repeats allowed) is selected first; an item that is not an integer in
    ``0..n-1`` (a bool is not one) is a :class:`ValidationError` naming
    the first, raised before the file is opened.  The rows are then written
    ``_CHUNK_ROWS`` at a time: each column of a chunk is formatted once,
    and each row is its cells joined by ``,`` and ended by ``\\r\\n``.  Only
    a product id can need quoting, so each distinct id is quoted once by
    :func:`_csv_field`; the bytes are those ``csv.writer`` writes, and no
    string of the whole file is built.
    """
    idx = np.arange(dataset.n) if rows is None else _row_indices(rows, dataset.n)
    layout = dataset.layout
    # A historical row shows its sales, a future row its week's total: one
    # float per row, formatted once and written with an empty cell after it
    # (sales) or before it (category_total).
    value = np.concatenate([dataset.actuals, layout.expand(layout.totals)[dataset.m :]])
    quoted = {pid: _csv_field(pid) for pid in dict.fromkeys(dataset.product_ids)}
    with _open_output(path) as fh:
        csv.writer(fh).writerow([*PANEL_COLUMNS, *dataset.feature_names])
        for start in range(0, idx.size, _CHUNK_ROWS):
            part = idx[start : start + _CHUNK_ROWS]
            text = map(repr, value[part].tolist())
            hist = (part < dataset.m).tolist()
            columns = [
                map(quoted.__getitem__, map(dataset.product_ids.__getitem__, part.tolist())),
                map(str, dataset.week_of_row[part].tolist()),
                [f"{t}," if h else f",{t}" for t, h in zip(text, hist)],
                *(map(repr, col) for col in dataset.features.T.take(part, axis=1).tolist()),
            ]
            fh.write("\r\n".join(map(",".join, zip(*columns))))
            fh.write("\r\n")


def _row_indices(rows: Iterable[int], n: int) -> np.ndarray:
    """``rows`` as an index array, when every item is an integer in
    ``0..n-1``; otherwise a :class:`ValidationError` naming the first that
    is not.  The whole list is checked by its types and its extremes, and
    item by item only to name a bad one."""
    picked = list(rows)
    integers = all(
        issubclass(t, numbers.Integral) and t is not bool for t in set(map(type, picked))
    )
    if integers and (not picked or (min(picked) >= 0 and max(picked) < n)):
        return np.array(picked, dtype=np.intp)
    i, row = next(
        (i, row) for i, row in enumerate(picked)
        if isinstance(row, bool) or not isinstance(row, numbers.Integral) or not 0 <= row < n
    )
    raise ValidationError(f"rows[{i}] is {row!r}, not a row index in 0..{n - 1}")


def _csv_field(text: str) -> str:
    """``text`` as one cell of a ``csv.writer`` row of several cells:
    quoted, with inner quotes doubled, exactly when the writer's rule asks
    for it."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text, ""])
    return buffer.getvalue()[: -len(",\r\n")]


def _read_csv(path: str | Path, required: Iterable[str]) -> Iterator:
    """Yield a UTF-8 CSV file's header, then each non-blank row as
    ``(line number, fields)``, reading as the caller consumes them.  A
    leading byte-order mark, as spreadsheet programs write one, is
    skipped.  Any
    read, decode, parse, header or field-count error is a
    :class:`ValidationError` naming the file (and line); a header that
    names a column twice is one, since callers find columns by name."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
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
            width = len(header)
            for row in filter(None, reader):
                if len(row) != width:
                    raise ValidationError(
                        f"{path}:{reader.line_num}: expected {width} fields, "
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
