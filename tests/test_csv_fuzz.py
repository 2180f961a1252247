"""Random corruptions of a panel CSV through `predict` end in exit 0, 3 or 4
with at most one stderr line, never in a traceback."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triboost.cli import main

CATEGORY_OF_CODE = {3: "validation", 4: "constraint-data"}
CELLS = ("", "x", "nan", "inf", "99999999999999999999999")
ROWS = 100  # data rows of the default scenario's test.csv
COLUMNS = 9  # product_id, week, sales, category_total, f_0..f_4

CORRUPTIONS = st.one_of(
    st.tuples(st.just("cell"), st.integers(1, ROWS), st.integers(0, COLUMNS - 1),
              st.sampled_from(CELLS)),
    st.tuples(st.just("duplicate"), st.integers(1, ROWS)),
    st.tuples(st.just("drop"), st.integers(1, ROWS), st.integers(0, COLUMNS - 1)),
    st.tuples(st.just("rename"), st.integers(0, COLUMNS - 1),
              st.sampled_from(["x", "", "category", "week", "f_9"])),
)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The default scenario and models trained on it once for the module."""
    root = tmp_path_factory.mktemp("fuzz")
    data, models = root / "data", root / "models"
    assert main(["generate", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data / "train.csv"), str(data / "test.csv"),
                 "--out", str(models), "--set", "num_rounds=3"]) == 0
    return root


def corrupt(lines: list[list[str]], corruption: tuple) -> list[list[str]]:
    kind, *args = corruption
    lines = [list(cells) for cells in lines]
    if kind == "cell":
        row, col, text = args
        lines[row][col] = text
    elif kind == "duplicate":
        lines.insert(args[0], list(lines[args[0]]))
    elif kind == "drop":
        row, col = args
        del lines[row][col]
    else:
        col, name = args
        lines[0][col] = name
    return lines


@given(corruption=CORRUPTIONS)
@settings(max_examples=150, deadline=5000)
def test_corrupted_test_csv_fails_cleanly(trained, corruption):
    data = trained / "data"
    lines = [line.split(",") for line in (data / "test.csv").read_text().splitlines()]
    assert (len(lines), len(lines[0])) == (1 + ROWS, COLUMNS)
    bad = trained / "corrupt.csv"
    bad.write_text("".join(",".join(cells) + "\n" for cells in corrupt(lines, corruption)))

    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["predict", "--data", str(data / "train.csv"), str(bad),
                     "--models", str(trained / "models"),
                     "--out", str(trained / "preds.csv")])
    err = stderr.getvalue()
    assert code in (0, 3, 4)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith(f"{CATEGORY_OF_CODE[code]}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
