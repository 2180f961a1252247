"""Random mutations of a saved model file through `predict` end in exit 0, 3
or 5 with at most one stderr line, never in a traceback."""

import contextlib
import copy
import io
import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triboost.cli import MODEL_FILES, main

CATEGORY_OF_CODE = {3: "validation", 5: "persistence"}
POOL = (None, True, False, 0, -1, 10**30, float("nan"), float("inf"),
        -float("inf"), "", "split", "leaf", [], [0], {}, {"kind": "leaf"})


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The default scenario and models trained on it once for the module."""
    root = tmp_path_factory.mktemp("model-fuzz")
    data, models = root / "data", root / "models"
    assert main(["generate", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data / "train.csv"), str(data / "test.csv"),
                 "--out", str(models), "--set", "num_rounds=3"]) == 0
    return root


def paths(doc, prefix=()):
    """The key/index path of every value below the document root."""
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def mutate(doc, data) -> None:
    """Swap one value of ``doc`` for one from the pool, or drop one key."""
    path = data.draw(st.sampled_from(list(paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(path[-1], str) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        # a copy, so that a later mutation cannot edit the pool itself
        parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(POOL)))


@given(stage=st.sampled_from(list(MODEL_FILES.values())),
       count=st.integers(1, 3), data=st.data())
@settings(max_examples=150, deadline=5000)
def test_mutated_model_fails_cleanly(trained, stage, count, data):
    models = trained / "mutated"
    shutil.rmtree(models, ignore_errors=True)
    shutil.copytree(trained / "models", models)
    doc = json.loads((models / stage).read_text())
    for _ in range(count):
        mutate(doc, data)
    (models / stage).write_text(json.dumps(doc))

    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(["predict", "--data", str(trained / "data" / "train.csv"),
                     str(trained / "data" / "test.csv"), "--models", str(models),
                     "--out", str(trained / "preds.csv")])
    err = stderr.getvalue()
    assert code in (0, 3, 5)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith(f"{CATEGORY_OF_CODE[code]}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
