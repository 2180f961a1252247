import codecs
import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triboost import pipeline
from triboost.cli import MODEL_FILES, main
from triboost.panel import load_panel_csv
from triboost.pipeline import STAGES
from triboost.scenario import CURVE_KINDS

SCN = [
    "--set", "num_products=3",
    "--set", "num_weeks_hist=8",
    "--set", "num_weeks_future=3",
    "--set", "launch_schedule=P2:8",
    "--set", "curve=flat",
    "--set", "curve_base=100",
]
TRN = ["--set", "num_rounds=30", "--set", "max_depth=3"]


def run(argv, capsys=None):
    code = main(argv)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One generate -> train -> predict run shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["generate", "--out", str(data), *SCN]) == 0
    models = root / "models"
    assert main([
        "train",
        "--data", str(data / "train.csv"), str(data / "test.csv"),
        "--out", str(models), "--threads", "1", *TRN,
    ]) == 0
    preds = root / "preds.csv"
    assert main([
        "predict",
        "--data", str(data / "train.csv"), str(data / "test.csv"),
        "--models", str(models), "--out", str(preds), "--threads", "1",
    ]) == 0
    return root


class TestGenerate:
    def test_writes_files_and_manifest(self, ws):
        data = ws / "data"
        for name in ("train.csv", "test.csv", "truth.csv", "manifest.json"):
            assert (data / name).exists()
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["rows"] == {"historical": 16, "future": 9}
        assert manifest["config"]["launch_schedule"] == "P2:8"
        assert manifest["config"]["seed"] == 7  # default echoed

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--out", str(a), *SCN]) == 0
        assert main(["generate", "--out", str(b), *SCN]) == 0
        for name in ("train.csv", "test.csv", "truth.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_flag_overrides(self, ws, tmp_path):
        out = tmp_path / "s"
        assert main(["generate", "--out", str(out), "--set", "seed=99", *SCN]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 99
        base = (ws / "data" / "train.csv").read_bytes()
        assert (out / "train.csv").read_bytes() != base

    def test_seed_flag_is_usage(self, tmp_path, capsys):
        # `--set seed=N` is the one way to set the seed.
        out = tmp_path / "s"
        code, captured = run(["generate", "--out", str(out), "--seed", "9", *SCN], capsys)
        assert code == 2
        assert captured.err.startswith("usage: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()


class TestTrain:
    def test_writes_models_and_manifest(self, ws):
        models = ws / "models"
        for name in ("model_stage1.json", "model_stage2.json",
                     "model_stage3.json", "manifest.json"):
            assert (models / name).exists()
        manifest = json.loads((models / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["stage1"]["num_rounds"] == 30
        # stages 2 and 3 inherit stage 1's config unless overridden
        assert manifest["config"]["stage2"] == manifest["config"]["stage1"]
        for curve in manifest["loss_curves"].values():
            assert len(curve) == 31
            assert all(b <= a for a, b in zip(curve, curve[1:]))
        assert "stage2_terms" in manifest["diagnostics"]

    def test_reruns_and_threads_are_byte_identical(self, ws, tmp_path):
        data = ws / "data"
        again = tmp_path / "again"
        assert main([
            "train",
            "--data", str(data / "train.csv"), str(data / "test.csv"),
            "--out", str(again), "--threads", "4", *TRN,
        ]) == 0
        for name in ("model_stage1.json", "model_stage2.json",
                     "model_stage3.json", "manifest.json"):
            assert (again / name).read_bytes() == (ws / "models" / name).read_bytes()

    def test_config_file_with_flag_precedence(self, ws, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("num_rounds = 40\nmax_depth = 3\n")
        out = tmp_path / "m"
        data = ws / "data"
        assert main([
            "train", "--data", str(data / "train.csv"), str(data / "test.csv"),
            "--config", str(cfg), "--set", "num_rounds=25",
            "--out", str(out), "--threads", "1",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["stage1"]["num_rounds"] == 25  # --set beats file
        assert manifest["config"]["stage1"]["max_depth"] == 3  # file beats default
        assert "seed" not in manifest
        assert "seed" not in manifest["config"]["stage1"]

    def test_training_has_no_seed(self, ws, tmp_path, capsys):
        # Training has no randomness, so there is no seed to set.
        data = ws / "data"
        argv = ["train", "--data", str(data / "train.csv"), str(data / "test.csv"),
                "--out", str(tmp_path / "m"), *TRN]
        code, captured = run([*argv, "--seed", "9"], capsys)
        assert code == 2
        assert captured.err.startswith("usage: ")
        code, captured = run([*argv, "--set", "seed=9"], capsys)
        assert code == 3
        assert "unknown training config key 'seed'" in captured.err

    def test_byte_order_mark_is_accepted(self, ws, tmp_path):
        # A UTF-8 BOM, as spreadsheet programs write one, used to end up in
        # the first column's name: exit 3, "missing required column".
        data = ws / "data"
        bom = tmp_path / "train.csv"
        bom.write_bytes(codecs.BOM_UTF8 + (data / "train.csv").read_bytes())
        test = data / "test.csv"
        assert load_panel_csv([bom, test]) == load_panel_csv([data / "train.csv", test])
        out = tmp_path / "m"
        assert main(["train", "--data", str(bom), str(test), "--out", str(out),
                     "--threads", "1", *TRN]) == 0
        for name in MODEL_FILES.values():
            assert (out / name).read_bytes() == (ws / "models" / name).read_bytes()

    def test_stage_prefixed_override(self, ws, tmp_path):
        out = tmp_path / "m"
        data = ws / "data"
        assert main([
            "train", "--data", str(data / "train.csv"), str(data / "test.csv"),
            "--set", "num_rounds=20", "--set", "stage3.num_rounds=35",
            "--out", str(out), "--threads", "1",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["stage1"]["num_rounds"] == 20
        assert manifest["config"]["stage3"]["num_rounds"] == 35
        assert len(manifest["loss_curves"]["stage3"]) == 36

    def test_stage1_keys_reach_a_stage_with_keys_of_its_own(self, ws, tmp_path):
        out = tmp_path / "m"
        data = ws / "data"
        assert main([
            "train", "--data", str(data / "train.csv"), str(data / "test.csv"),
            "--set", "num_rounds=5", "--set", "stage2.max_depth=2",
            "--out", str(out),
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["stage2"]["num_rounds"] == 5
        assert manifest["config"]["stage2"]["max_depth"] == 2
        assert len(manifest["loss_curves"]["stage2"]) == 6

    @pytest.mark.parametrize("how", ["set", "config"])
    def test_stage1_prefix_is_validation(self, ws, tmp_path, capsys, how):
        # Stage 1 is set by the unprefixed keys alone.
        data = ws / "data"
        out = tmp_path / "m"
        if how == "set":
            key, extra = "stage1.num_rounds", ["--set", "stage1.num_rounds=5"]
        else:
            key, cfg = "stage1.max_depth", tmp_path / "train.cfg"
            cfg.write_text("num_rounds = 5\nstage1.max_depth = 2\n")
            extra = ["--config", str(cfg)]
        code, captured = run(["train", "--data", str(data / "train.csv"),
                              str(data / "test.csv"), "--out", str(out), *extra], capsys)
        assert code == 3
        assert captured.err == f"validation: unknown training config key '{key}'\n"
        assert not out.exists()


class TestPredict:
    def test_output_shape(self, ws):
        lines = (ws / "preds.csv").read_text().splitlines()
        assert lines[0] == "product_id,week,stage1,stage2,stage3"
        assert len(lines) == 1 + 16 + 9
        pid, week, s1, s2, s3 = lines[1].split(",")
        float(s1), float(s2), float(s3)  # parse cleanly
        assert (ws / "preds.csv.manifest.json").exists()

    def test_rerun_is_byte_identical(self, ws, tmp_path):
        data = ws / "data"
        out = tmp_path / "p.csv"
        assert main([
            "predict", "--data", str(data / "train.csv"), str(data / "test.csv"),
            "--models", str(ws / "models"), "--out", str(out), "--threads", "3",
        ]) == 0
        assert out.read_bytes() == (ws / "preds.csv").read_bytes()


class TestEvaluate:
    def test_end_to_end_report(self, ws, tmp_path):
        out = tmp_path / "eval.json"
        assert main([
            "evaluate", "--pred", str(ws / "preds.csv"),
            "--truth", str(ws / "data" / "truth.csv"), "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["rows"] == 9
        for stage in ("stage1", "stage2", "stage3"):
            for metric in ("mae", "rmse", "wmape"):
                assert report[stage][metric] >= 0.0
            assert 0.0 <= report[stage]["adherence"]["max"]
        assert report["manifest"]["command"] == "evaluate"

    def test_week_total_is_left_to_right_sum(self, tmp_path):
        # A week's truth total is its sales added left to right in row
        # order, as the panel adds them: 0.1 + 0.2 + 0.3, not the pairwise
        # sum 0.6.  The predictions sum to 1.0 in any order.
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        pred.write_text(
            "product_id,week,stage1,stage2,stage3\n"
            "A,1,0.5,0.5,0.5\nB,1,0.25,0.25,0.25\nC,1,0.25,0.25,0.25\n"
        )
        truth.write_text("product_id,week,true_sales\nA,1,0.1\nB,1,0.2\nC,1,0.3\n")
        out = tmp_path / "e.json"
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        total = 0.1 + 0.2 + 0.3
        assert report["stage1"]["adherence"]["per_week"]["1"] == abs(1.0 - total) / total

    def test_hand_computed_metrics(self, tmp_path):
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        pred.write_text(
            "product_id,week,stage1,stage2,stage3\n"
            "A,5,1.0,1.0,2.0\n"
            "B,5,2.0,2.0,2.0\n"
            "A,6,3.0,3.0,4.0\n"
            "C,0,9.0,9.0,9.0\n"  # extra rows are fine; join is truth-driven
        )
        truth.write_text(
            "product_id,week,true_sales\nA,5,1.0\nB,5,2.0\nA,6,3.0\n"
        )
        out = tmp_path / "e.json"
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["stage1"]["mae"] == 0.0
        assert report["stage3"]["mae"] == pytest.approx(2 / 3)
        assert report["stage3"]["wmape"] == pytest.approx(2 / 6)
        # week 5: |4-3|/3, week 6: |4-3|/3
        assert report["stage3"]["adherence"]["mean"] == pytest.approx(1 / 3)

    def test_missing_prediction_rows(self, tmp_path, capsys):
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        pred.write_text("product_id,week,stage1,stage2,stage3\nA,5,1.0,1.0,1.0\n")
        truth.write_text("product_id,week,true_sales\nA,5,1.0\nB,5,2.0\n")
        code, captured = run(
            ["evaluate", "--pred", str(pred), "--truth", str(truth),
             "--out", str(tmp_path / "e.json")], capsys)
        assert code == 3
        assert captured.err.startswith("validation: prediction rows missing")

    def test_empty_truth(self, tmp_path):
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        pred.write_text("product_id,week,stage1,stage2,stage3\nA,5,1.0,1.0,1.0\n")
        truth.write_text("product_id,week,true_sales\n")
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                     "--out", str(tmp_path / "e.json")]) == 3

    @pytest.mark.parametrize("which, text, where", [
        ("pred", "product_id,week,stage1,stage2,stage3\nA,five,1.0,1.0,1.0\n",
         "p.csv:2: column 'week'"),
        ("pred", "product_id,week,stage1,stage2,stage3\nA,5,1.0,lots,1.0\n",
         "p.csv:2: column 'stage2'"),
        ("truth", "product_id,week,true_sales\nA,5.5,1.0\n",
         "t.csv:2: column 'week'"),
        ("pred", "product_id,week,stage1,stage2,stage3\n"
         "A,5,1.0,1.0,1.0\nA,5,2.0,2.0,2.0\n", "p.csv:3: duplicate"),
        ("truth", "product_id,week,true_sales\nA,5,1.0\nA,5,1.0\n",
         "t.csv:3: duplicate"),
        ("pred", "product_id,week,stage1,stage2,stage3\nA,5,1.0\n",
         "p.csv:2: expected 5 fields"),
        ("truth", "product_id,week,true_sales\nA,99999999999999999999999,1.0\n",
         "t.csv:2: column 'week': integer out of range"),
    ], ids=["pred-week", "pred-cell", "truth-week", "pred-dup", "truth-dup",
            "pred-short", "truth-huge-week"])
    def test_malformed_rows_are_validation(self, which, text, where, tmp_path,
                                           capsys):
        paths = {"pred": tmp_path / "p.csv", "truth": tmp_path / "t.csv"}
        paths["pred"].write_text("product_id,week,stage1,stage2,stage3\n"
                                 "A,5,1.0,1.0,1.0\n")
        paths["truth"].write_text("product_id,week,true_sales\nA,5,1.0\n")
        paths[which].write_text(text)
        code, captured = run(
            ["evaluate", "--pred", str(paths["pred"]), "--truth",
             str(paths["truth"]), "--out", str(tmp_path / "e.json")], capsys)
        assert code == 3
        assert captured.err.startswith("validation: ")
        assert where in captured.err
        assert captured.err.count("\n") == 1

    def test_missing_column(self, tmp_path):
        pred = tmp_path / "p.csv"
        truth = tmp_path / "t.csv"
        pred.write_text("product_id,week,stage1\nA,5,1.0\n")
        truth.write_text("product_id,week,true_sales\nA,5,1.0\n")
        assert main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                     "--out", str(tmp_path / "e.json")]) == 3


class TestDiagnose:
    def _diagnose(self, ws, models, out, capsys=None, extra=()):
        data = ws / "data"
        return run([
            "diagnose", "--data", str(data / "train.csv"), str(data / "test.csv"),
            "--models", str(models), "--out", str(out), *extra,
        ], capsys)

    def test_report_written(self, ws, tmp_path):
        out = tmp_path / "diag.json"
        assert self._diagnose(ws, ws / "models", out) == 0
        report = json.loads(out.read_text())
        assert set(report) >= {
            "stage1_weekly_deviation", "bias", "stage2_terms", "trivial_probe",
        }
        assert report["manifest"]["command"] == "diagnose"
        assert report["bias"]["direction"] in ("over", "under", "mixed")

    def test_stage1_keys_accepted(self, ws, tmp_path):
        # The refit runs with the config the models were trained with.
        out = tmp_path / "diag.json"
        assert self._diagnose(ws, ws / "models", out) == 0
        report = json.loads(out.read_text())
        assert report["manifest"]["config"]["num_rounds"] == 30
        assert report["manifest"]["config"]["max_depth"] == 3

    def test_report_agrees_with_train_manifest(self, ws, tmp_path):
        # diagnose used to refit stage 1 with its own defaults, and on these
        # models said "over" where train's manifest said "under".
        data, models = tmp_path / "data", tmp_path / "m30"
        assert main(["generate", "--out", str(data)]) == 0
        data_args = ["--data", str(data / "train.csv"), str(data / "test.csv")]
        assert main(["train", *data_args, "--out", str(models),
                     "--set", "num_rounds=30"]) == 0
        out = tmp_path / "diag.json"
        assert main(["diagnose", *data_args, "--models", str(models),
                     "--out", str(out)]) == 0
        manifest = json.loads((models / "manifest.json").read_text())
        report = json.loads(out.read_text())
        echo = report.pop("manifest")
        assert report == manifest["diagnostics"]
        assert echo["config"] == manifest["config"]["stage1"]

    def test_zero_future_total_keeps_strict_json(self, tmp_path, capsys):
        # A future week may total 0.  The probe's relative gap divided by it:
        # a RuntimeWarning on stderr and "max_rel_gap": Infinity in the files.
        data, models, out = tmp_path / "data", tmp_path / "models", tmp_path / "d.json"
        assert main(["generate", "--out", str(data)]) == 0
        test_csv = data / "test.csv"
        with test_csv.open(newline="") as fh:
            rows = list(csv.reader(fh))
        week, total = rows[0].index("week"), rows[0].index("category_total")
        week80 = [row for row in rows[1:] if row[week] == "80"]
        assert week80
        for row in week80:
            row[total] = "0.0"
        with test_csv.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        data_args = ["--data", str(data / "train.csv"), str(test_csv)]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", *data_args, "--out", str(models), *TRN]) == 0
            assert main(["diagnose", *data_args, "--models", str(models),
                         "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        for path in (models / "manifest.json", out):
            json.loads(path.read_text(), parse_constant=reject)

    def test_huge_finite_prediction_is_validation(self, tmp_path, capsys):
        # A stage-1 model whose first tree's leaves weigh 1e200 predicts
        # finite values whose squared deviations overflow.  diagnose used to
        # exit 0 with RuntimeWarnings and Infinity/NaN in its report.
        data, models, out = tmp_path / "data", tmp_path / "models", tmp_path / "d.json"
        assert main(["generate", "--out", str(data)]) == 0
        data_args = ["--data", str(data / "train.csv"), str(data / "test.csv")]
        assert main(["train", *data_args, "--out", str(models), "--set", "num_rounds=30"]) == 0
        path = models / MODEL_FILES["stage1"]
        doc = json.loads(path.read_text())
        for node in doc["trees"][0]["nodes"]:
            if node["kind"] == "leaf":
                node["weight"] = 1e200
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code, captured = run(["diagnose", *data_args, "--models", str(models),
                              "--out", str(out)], capsys)
        assert code == 3
        assert re.fullmatch(r"validation: stage1: squared weekly deviation sum is inf: .*\n",
                            captured.err)
        assert not out.exists()

    def test_zero_constraint_term_ratio_is_null(self, tmp_path):
        # Stage 2 meets both weekly totals exactly here, so its fit/constraint
        # ratio is undefined: null in both files, not Infinity, which strict
        # JSON rejects.
        data, models, out = tmp_path / "panel.csv", tmp_path / "models", tmp_path / "d.json"
        data.write_text(
            "product_id,week,sales,category_total,f_0\n"
            "P0,0,5.0,,0.1\nP1,0,3.0,,0.7\nP0,1,,8.0,0.2\nP1,1,,8.0,0.9\n"
        )
        assert main(["train", "--data", str(data), "--out", str(models),
                     "--set", "num_rounds=5"]) == 0
        assert main(["diagnose", "--data", str(data), "--models", str(models),
                     "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        manifest = json.loads((models / "manifest.json").read_text(), parse_constant=reject)
        report = json.loads(out.read_text(), parse_constant=reject)
        for diagnostics in (manifest["diagnostics"], report):
            assert diagnostics["stage2_terms"]["constraint"] == 0.0
            assert diagnostics["stage2_terms"]["ratio"] is None
            assert diagnostics["trivial_probe"]["rounds"] == 1

    def test_help_lists_three_flags(self, capsys):
        assert main(["diagnose", "--help"]) == 0
        flags = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
        assert flags == {"--help", "--data", "--models", "--out"}

    @pytest.mark.parametrize("flag", [
        ["--config", "train.cfg"], ["--set", "num_rounds=3"], ["--threads", "1"],
    ], ids=["config", "set", "threads"])
    def test_removed_flag_is_usage(self, ws, tmp_path, capsys, flag):
        out = tmp_path / "diag.json"
        code, captured = self._diagnose(ws, ws / "models", out, capsys, flag)
        assert code == 2
        assert captured.err.startswith("usage: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("manifest, named", [
        (None, ""),
        ("{not json", ""),
        (json.dumps({"command": "train", "config": {}}), ""),
        (json.dumps({"config": {"stage1": {"num_rounds": True}}}), ""),
        # Every manifest written while the minimum child weight and minimum
        # gain were training keys echoes them.
        (json.dumps({"config": {"stage1": {
            "num_rounds": 30, "max_depth": 3, "learning_rate": 0.1, "reg_lambda": 1.0,
            "min_child_weight": 0.0, "min_gain": 0.0}}}), "'min_child_weight'"),
    ], ids=["missing", "invalid-json", "no-stage1", "bool-num-rounds", "removed-key"])
    def test_unusable_manifest_is_persistence(self, ws, tmp_path, capsys, manifest, named):
        models = tmp_path / "models"
        models.mkdir()
        for name in ("model_stage1.json", "model_stage2.json", "model_stage3.json"):
            (models / name).write_bytes((ws / "models" / name).read_bytes())
        if manifest is not None:
            (models / "manifest.json").write_text(manifest)
        out = tmp_path / "diag.json"
        code, captured = self._diagnose(ws, models, out, capsys)
        assert code == 5
        assert captured.err.startswith(f"persistence: {models / 'manifest.json'}: ")
        assert named in captured.err
        assert captured.err.count("\n") == 1
        assert not out.exists()


class TestZeroStage1Model:
    """A stage-1 model that predicts 0 on every row leaves no week with
    shares.  Stage 3's targets are formed from them only in training, so
    predict and diagnose, which never write them, succeed."""

    @pytest.fixture
    def models(self, ws, tmp_path, monkeypatch):
        models = tmp_path / "models"
        shutil.copytree(ws / "models", models)
        doc = json.loads((models / MODEL_FILES["stage1"]).read_text())
        doc.update(trees=[], base_score=0.0)
        (models / MODEL_FILES["stage1"]).write_text(json.dumps(doc))

        def unread(*args):
            raise AssertionError("stage-1 shares formed")

        monkeypatch.setattr(pipeline, "pred_ratio", unread)
        return models

    @pytest.mark.parametrize("command", ["predict", "diagnose"])
    def test_command_succeeds(self, ws, models, tmp_path, capsys, command):
        data = ws / "data"
        out = tmp_path / "out"
        code, captured = run([command, "--data", str(data / "train.csv"),
                              str(data / "test.csv"), "--models", str(models),
                              "--out", str(out)], capsys)
        assert (code, captured.err) == (0, "")
        if command == "predict":
            with out.open(newline="") as fh:
                assert {row["stage1"] for row in csv.DictReader(fh)} == {"0.0"}

    def test_diagnose_checks_the_stage3_model(self, ws, models, tmp_path, capsys):
        (models / MODEL_FILES["stage3"]).write_text("{not json")
        data = ws / "data"
        code, captured = run(["diagnose", "--data", str(data / "train.csv"),
                              str(data / "test.csv"), "--models", str(models),
                              "--out", str(tmp_path / "d.json")], capsys)
        assert code == 5
        assert captured.err.startswith(
            f"persistence: {models / MODEL_FILES['stage3']}: ")
        assert captured.err.count("\n") == 1

    def test_train_names_stage3(self, tmp_path, capsys):
        # All-zero history: stage 1 predicts 0, and stage 3 has no shares.
        data = tmp_path / "panel.csv"
        data.write_text(
            "product_id,week,sales,category_total,f_0\n"
            "P0,0,0.0,,0.1\nP1,0,0.0,,0.7\nP0,1,,10.0,0.2\nP1,1,,10.0,0.9\n"
        )
        code, captured = run(["train", "--data", str(data), "--out",
                              str(tmp_path / "m"), "--set", "num_rounds=5"], capsys)
        assert code == 3
        assert captured.err == ("validation: stage3: week 0: stage-1 predictions "
                                "sum to 0.0, cannot form shares\n")


@st.composite
def panel_shapes(draw):
    """(products a week, historical weeks, future weeks, launch weeks,
    curve kind, training rounds) of a scenario ``generate`` accepts: one
    to three launches of distinct weeks, at least one in the future."""
    products = draw(st.integers(2, 200))
    weeks = draw(st.integers(2, 60))
    hist = draw(st.integers(1, weeks - 1))
    first = draw(st.integers(hist, weeks - 1))
    others = draw(st.sets(st.integers(1, weeks - 1), max_size=min(2, products - 2)))
    launches = (first, *sorted(others - {first}))
    curve = draw(st.sampled_from(CURVE_KINDS))
    return products, hist, weeks - hist, launches, curve, draw(st.integers(1, 30))


class TestExitCodes:
    def test_no_command_is_usage(self, capsys):
        code, captured = run([], capsys)
        assert code == 2
        assert captured.err.startswith("usage: ")
        assert captured.err.count("\n") == 1

    def test_unknown_command_is_usage(self):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_is_usage(self):
        assert main(["generate", "--out", "x", "--what"]) == 2

    def test_missing_required_flag_is_usage(self):
        assert main(["generate"]) == 2

    def test_bad_config_key_is_validation(self, tmp_path, capsys):
        code, captured = run(
            ["generate", "--out", str(tmp_path / "g"), "--set", "bogus=1"],
            capsys)
        assert code == 3
        assert captured.err.startswith("validation: ")
        assert captured.err.count("\n") == 1

    def test_unreadable_data_is_validation(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "m")]) == 3
        assert not (tmp_path / "m").exists()  # no empty --out left behind

    def test_missing_future_total_is_constraint_data(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text(
            "product_id,week,sales,category_total,f_0\n"
            "A,0,5.0,,1.0\n"
            "A,1,,,2.0\n"  # future row with no category total
        )
        code, captured = run(
            ["train", "--data", str(data), "--out", str(tmp_path / "m"), *TRN],
            capsys)
        assert code == 4
        assert captured.err.startswith("constraint-data: ")

    @pytest.mark.parametrize("text, message", [
        ("", "{path}: empty file, header required"),
        ("product_id,week,sales,category_total,f_0\n", "dataset has no rows"),
    ], ids=["zero-bytes", "header-only"])
    def test_panel_without_rows_is_validation(self, tmp_path, capsys, text, message):
        data = tmp_path / "panel.csv"
        data.write_text(text)
        code, captured = run(["train", "--data", str(data), "--out",
                              str(tmp_path / "m")], capsys)
        assert code == 3
        assert captured.err == f"validation: {message.format(path=data)}\n"

    def test_tree_without_nodes_is_persistence(self, ws, tmp_path, capsys):
        models = tmp_path / "models"
        shutil.copytree(ws / "models", models)
        path = models / MODEL_FILES["stage2"]
        doc = json.loads(path.read_text())
        doc["trees"][0]["nodes"] = []
        path.write_text(json.dumps(doc))
        data = ws / "data"
        code, captured = run([
            "predict", "--data", str(data / "train.csv"), str(data / "test.csv"),
            "--models", str(models), "--out", str(tmp_path / "p.csv"),
        ], capsys)
        assert code == 5
        assert captured.err == "persistence: tree with no nodes\n"
        assert not (tmp_path / "p.csv").exists()

    def test_zero_curve_period_is_validation(self, tmp_path, capsys):
        out = tmp_path / "g"
        code, captured = run(["generate", "--out", str(out), "--set", "curve_period=0"],
                             capsys)
        assert code == 3
        assert captured.err == "validation: curve period must be > 0, got 0.0\n"
        assert not out.exists()

    def test_missing_model_is_persistence(self, ws, tmp_path, capsys):
        data = ws / "data"
        code, captured = run([
            "predict", "--data", str(data / "train.csv"), str(data / "test.csv"),
            "--models", str(tmp_path), "--out", str(tmp_path / "p.csv"),
        ], capsys)
        assert code == 5
        assert captured.err.startswith("persistence: ")

    def test_corrupt_model_is_persistence(self, ws, tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        for name in ("model_stage1.json", "model_stage2.json",
                     "model_stage3.json"):
            (models / name).write_text("{not json")
        data = ws / "data"
        assert main([
            "predict", "--data", str(data / "train.csv"), str(data / "test.csv"),
            "--models", str(models), "--out", str(tmp_path / "p.csv"),
        ]) == 5

    @pytest.mark.parametrize("command", ["train", "predict", "diagnose"])
    @pytest.mark.parametrize("threads", ["0", "-2", "two"])
    def test_bad_thread_count_is_usage(self, command, threads, tmp_path, capsys):
        argv = [command, "--data", str(tmp_path / "d.csv"),
                "--out", str(tmp_path / "o"), "--threads", threads]
        if command != "train":
            argv += ["--models", str(tmp_path)]
        code, captured = run(argv, capsys)
        assert code == 2
        if command == "diagnose":  # its config comes from train's manifest
            assert captured.err.startswith("usage: unrecognized arguments: --threads ")
        else:
            assert captured.err.startswith("usage: argument --threads: ")
        assert captured.err.count("\n") == 1

    def test_out_of_range_feature_is_persistence(self, ws, tmp_path, capsys):
        # Was an IndexError traceback with exit 1, raised inside predict.
        models = tmp_path / "models"
        models.mkdir()
        for name in ("model_stage1.json", "model_stage2.json",
                     "model_stage3.json"):
            doc = json.loads((ws / "models" / name).read_text())
            doc["trees"][0]["nodes"][0]["feature"] = 99
            (models / name).write_text(json.dumps(doc))
        data = ws / "data"
        code, captured = run([
            "predict", "--data", str(data / "train.csv"), str(data / "test.csv"),
            "--models", str(models), "--out", str(tmp_path / "p.csv"),
        ], capsys)
        assert code == 5
        assert captured.err.startswith("persistence: ")
        assert captured.err.count("\n") == 1

    def test_non_utf8_panel_csv_is_validation(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"product_id,week,sales,category_total,f_0\n"
                         b"A\xff,0,5.0,,1.0\n")
        code, captured = run(
            ["train", "--data", str(data), "--out", str(tmp_path / "m")], capsys)
        assert code == 3
        assert captured.err.startswith("validation: cannot read ")

    def test_non_utf8_config_is_validation(self, ws, tmp_path, capsys):
        cfg = tmp_path / "train.cfg"
        cfg.write_bytes(b"num_rounds = 4\xff\n")
        data = ws / "data"
        code, captured = run([
            "train", "--data", str(data / "train.csv"), str(data / "test.csv"),
            "--config", str(cfg), "--out", str(tmp_path / "m"),
        ], capsys)
        assert code == 3
        assert captured.err.startswith("validation: cannot read config ")

    def test_non_utf8_evaluate_csv_is_validation(self, ws, tmp_path, capsys):
        truth = tmp_path / "t.csv"
        truth.write_bytes(b"product_id,week,true_sales\nP\xff,8,1.0\n")
        code, captured = run(
            ["evaluate", "--pred", str(ws / "preds.csv"), "--truth", str(truth),
             "--out", str(tmp_path / "e.json")], capsys)
        assert code == 3
        assert captured.err.startswith("validation: cannot read ")

    def test_non_utf8_model_is_persistence(self, ws, tmp_path, capsys):
        models = tmp_path / "models"
        models.mkdir()
        for name in ("model_stage1.json", "model_stage2.json",
                     "model_stage3.json"):
            (models / name).write_bytes(b'{"base_score": "\xff"}')
        data = ws / "data"
        code, captured = run([
            "predict", "--data", str(data / "train.csv"), str(data / "test.csv"),
            "--models", str(models), "--out", str(tmp_path / "p.csv"),
        ], capsys)
        assert code == 5
        assert captured.err.startswith("persistence: cannot read model ")
        assert captured.err.count("\n") == 1

    def test_oversized_csv_field_is_validation_in_train(self, tmp_path, capsys):
        # Over the csv module's field size limit; was a _csv.Error traceback.
        data = tmp_path / "big.csv"
        data.write_text("product_id,week,sales,category_total,f_0\n"
                        f'"{"x" * 200_000}",0,5.0,,1.0\n')
        code, captured = run(
            ["train", "--data", str(data), "--out", str(tmp_path / "m")], capsys)
        assert code == 3
        assert captured.err.startswith(f"validation: {data}:2: field larger than")
        assert captured.err.count("\n") == 1

    def test_oversized_csv_field_is_validation_in_evaluate(self, ws, tmp_path,
                                                           capsys):
        truth = tmp_path / "t.csv"
        truth.write_text(f'product_id,week,true_sales\n"{"x" * 200_000}",8,1.0\n')
        code, captured = run(
            ["evaluate", "--pred", str(ws / "preds.csv"), "--truth", str(truth),
             "--out", str(tmp_path / "e.json")], capsys)
        assert code == 3
        assert captured.err.startswith(f"validation: {truth}:2: field larger than")
        assert captured.err.count("\n") == 1

    def test_deeply_nested_model_is_persistence(self, ws, tmp_path, capsys):
        # Was a RecursionError traceback with exit 1.
        models = tmp_path / "models"
        models.mkdir()
        for name in ("model_stage1.json", "model_stage2.json",
                     "model_stage3.json"):
            (models / name).write_text("[" * 200_000 + "]" * 200_000)
        data = ws / "data"
        code, captured = run([
            "predict", "--data", str(data / "train.csv"), str(data / "test.csv"),
            "--models", str(models), "--out", str(tmp_path / "p.csv"),
        ], capsys)
        assert code == 5
        assert captured.err.startswith("persistence: ")
        assert captured.err.count("\n") == 1

    def test_oversized_week_is_validation(self, ws, tmp_path, capsys):
        # A week beyond int64 was an OverflowError traceback with exit 1.
        data = ws / "data"
        header, first, *rest = (data / "test.csv").read_text().splitlines(True)
        product, _, cells = first.split(",", 2)
        test = tmp_path / "test.csv"
        test.write_text("".join(
            [header, f"{product},99999999999999999999999,{cells}", *rest]))
        code, captured = run([
            "predict", "--data", str(data / "train.csv"), str(test),
            "--models", str(ws / "models"), "--out", str(tmp_path / "p.csv"),
        ], capsys)
        assert code == 3
        assert captured.err.startswith(
            f"validation: {test}:2: column 'week': integer out of range")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("across_files", [False, True],
                             ids=["within-file", "across-files"])
    def test_duplicate_row_names_week_product_and_lines(self, ws, tmp_path, capsys,
                                                        across_files):
        # Both used to print only "duplicate (week, product) rows".
        data = ws / "data"
        header, *rows = (data / "test.csv").read_text().splitlines(True)
        product, week = rows[2].split(",")[:2]  # the row on line 4
        if across_files:
            extra = tmp_path / "extra.csv"
            extra.write_text(header + rows[2])
            files = [data / "train.csv", data / "test.csv", extra]
            where = f"{data / 'test.csv'}:4 and {extra}:2"
        else:
            test = tmp_path / "test.csv"
            test.write_text("".join([header, *rows[:4], rows[2], *rows[4:]]))
            files = [data / "train.csv", test]
            where = f"{test}:4 and {test}:6"
        code, captured = run(["train", "--data", *map(str, files),
                              "--out", str(tmp_path / "m"), *TRN], capsys)
        assert code == 3
        assert captured.err == (
            f"validation: duplicate (week, product) rows: week {week}, "
            f"product '{product}' at {where}\n")

    @pytest.mark.parametrize("setting", [
        "reg_lambda=inf", "reg_lambda=nan", "stage3.learning_rate=nan",
    ])
    def test_non_finite_training_value_is_validation(self, ws, tmp_path,
                                                     capsys, setting):
        # Each used to train all-stump models with exit 0, or to fail later
        # as a non-finite gradient.
        data = ws / "data"
        key = setting.split("=")[0]
        code, captured = run([
            "train", "--data", str(data / "train.csv"), str(data / "test.csv"),
            "--out", str(tmp_path / "m"), "--set", setting, *TRN,
        ], capsys)
        assert code == 3
        assert captured.err.startswith(f"validation: config key '{key}': not a finite")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("setting", ["min_child_weight=1", "stage2.min_gain=0"])
    @pytest.mark.parametrize("source", ["set", "config"])
    def test_removed_training_knob_is_validation(self, ws, tmp_path, capsys,
                                                 setting, source):
        data = ws / "data"
        key = setting.split("=")[0]
        if source == "set":
            flags = ["--set", setting]
        else:
            (tmp_path / "train.cfg").write_text(setting.replace("=", " = ") + "\n")
            flags = ["--config", str(tmp_path / "train.cfg")]
        code, captured = run([
            "train", "--data", str(data / "train.csv"), str(data / "test.csv"),
            "--out", str(tmp_path / "m"), *flags, *TRN,
        ], capsys)
        assert code == 3
        assert captured.err == f"validation: unknown training config key '{key}'\n"
        assert not (tmp_path / "m").exists()

    def test_overflowing_sales_value_is_validation(self, tmp_path, capsys):
        # A finite sales value whose squared error overflows float64 used to
        # train with exit 0, print numpy RuntimeWarnings and write Infinity
        # and NaN into manifest.json.
        data = tmp_path / "data"
        assert main(["generate", "--out", str(data)]) == 0
        with (data / "train.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        rows[5][rows[0].index("sales")] = "1e200"
        with (data / "train.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = tmp_path / "m"
        code, captured = run(["train", "--data", str(data / "train.csv"),
                              str(data / "test.csv"), "--out", str(out),
                              "--set", "num_rounds=3"], capsys)
        assert code == 3
        assert captured.err == (
            "validation: stage1: loss after round 0 is inf: the targets or "
            "predictions overflow float64\n")
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("products, round_", [(55, 53), (100, 1), (50, None)])
    def test_diverging_stage_is_validation(self, tmp_path, capsys, products, round_):
        # 40 + 10 weeks, one entrant at week 40, default training config.
        # From about 55 products a week stage 2's loss climbs above its
        # value before round 1 (at 100 on the first round), and train used
        # to exit 0 with losses up to 1e205 in manifest.json.  At 50 the
        # loss rises on a few late rounds but stays below it.
        data, out = tmp_path / "data", tmp_path / "m"
        assert main(["generate", "--out", str(data),
                     "--set", f"num_products={products}", "--set", "num_weeks_hist=40",
                     "--set", "num_weeks_future=10",
                     "--set", f"launch_schedule=P{products - 1}:40"]) == 0
        code, captured = run(["train", "--data", str(data / "train.csv"),
                              str(data / "test.csv"), "--out", str(out)], capsys)
        if round_ is None:
            assert (code, captured.err) == (0, "")
            curves = json.loads((out / "manifest.json").read_text())["loss_curves"]
            assert all(max(curve) <= curve[0] for curve in curves.values())
            return
        assert code == 3
        assert re.fullmatch(
            rf"validation: stage2: loss after round {round_} is \S+, above the \S+ "
            r"before round 1: the fit diverges\n", captured.err)
        assert not any(out.iterdir())  # no model and no manifest

    @given(shape=panel_shapes())
    @settings(max_examples=60, deadline=None)
    # 40 + 10 weeks and one entrant at week 40: stage 2 diverges on the
    # first round.
    @example(shape=(100, 40, 10, (40,), "seasonal", 30))
    @example(shape=(200, 40, 10, (40,), "seasonal", 30))
    def test_any_panel_shape_trains_or_names_its_error(self, shape):
        # train either converges, with finite predictions and strict JSON, or
        # exits with a documented code and one stderr line naming the fault.
        products, hist, future, launches, curve, rounds = shape
        width = len(str(products - 1))  # generate's ids: P0..P9, P00..P99, ...
        schedule = ",".join(f"P{products - 1 - i:0{width}d}:{week}"
                            for i, week in enumerate(launches))
        with tempfile.TemporaryDirectory() as root:
            data, models, preds = Path(root, "data"), Path(root, "m"), Path(root, "p.csv")
            data_args = ["--data", str(data / "train.csv"), str(data / "test.csv")]
            assert main(["generate", "--out", str(data),
                         "--set", f"num_products={products}",
                         "--set", f"num_weeks_hist={hist}",
                         "--set", f"num_weeks_future={future}",
                         "--set", f"launch_schedule={schedule}",
                         "--set", f"curve={curve}"]) == 0
            for argv in (["train", *data_args, "--out", str(models),
                          "--set", f"num_rounds={rounds}"],
                         ["predict", *data_args, "--models", str(models),
                          "--out", str(preds)]):
                with contextlib.redirect_stderr(io.StringIO()) as err:
                    code = main(argv)
                if code != 0:
                    category = {3: "validation", 4: "constraint-data", 5: "persistence"}
                    assert code in category
                    assert re.fullmatch(rf"{category[code]}: [^\n]+\n", err.getvalue())
                    return
                assert err.getvalue() == ""

            def reject(constant):
                raise ValueError(f"not strict JSON: {constant}")

            manifest = json.loads((models / "manifest.json").read_text(),
                                  parse_constant=reject)
            for curve_ in manifest["loss_curves"].values():
                assert max(curve_) <= curve_[0]
            with preds.open(newline="") as fh:
                values = [float(row[s]) for row in csv.DictReader(fh) for s in STAGES]
            assert len(values) == 3 * (products * (hist + future) - sum(launches))
            assert all(math.isfinite(v) for v in values)

    def test_overflowing_prediction_is_validation(self, ws, tmp_path, capsys):
        # A stage-1 prediction of 1e200 used to give exit 0 and a report
        # holding "rmse": Infinity.
        with (ws / "preds.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        rows[-1][rows[0].index("stage1")] = "1e200"
        preds = tmp_path / "p.csv"
        with preds.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = tmp_path / "e.json"
        code, captured = run(["evaluate", "--pred", str(preds), "--truth",
                              str(ws / "data" / "truth.csv"), "--out", str(out)], capsys)
        assert code == 3
        assert captured.err == (
            "validation: stage1: rmse is inf: the errors overflow float64\n")
        assert not out.exists()

    def test_repeated_launch_product_is_validation(self, tmp_path, capsys):
        # Used to exit 0 and launch P4 at week 90 only.
        code, captured = run(["generate", "--out", str(tmp_path / "g"),
                              "--set", "launch_schedule=P4:80,P4:90"], capsys)
        assert code == 3
        assert captured.err == "validation: launch_schedule lists product 'P4' twice\n"
        assert not (tmp_path / "g").exists()

    def test_features_near_the_float_maximum_train(self, ws, tmp_path, capsys):
        # Finite features whose pairwise sums overflow: a midpoint of inf
        # used to leave an empty leaf, and train ended in an IndexError.
        files = []
        for name in ("train.csv", "test.csv"):
            with (ws / "data" / name).open(newline="") as fh:
                rows = list(csv.reader(fh))
            cols = [rows[0].index(c) for c in ("f_0", "f_1", "f_2")]
            for row in rows[1:]:
                for i in cols:
                    row[i] = repr(1e308 + float(row[i]) * 5e305)
            path = tmp_path / name
            with path.open("w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            files.append(str(path))
        out = tmp_path / "m"
        code, captured = run(["train", "--data", *files, "--out", str(out),
                              "--set", "num_rounds=3"], capsys)
        assert (code, captured.err) == (0, "")
        assert main(["predict", "--data", *files, "--models", str(out),
                     "--out", str(tmp_path / "p.csv")]) == 0

    @pytest.mark.parametrize("setting", [
        "noise_sd=nan", "noise_sd=inf", "curve_base=inf",
        "stage1_bias_injection=nan",
    ])
    def test_non_finite_scenario_value_is_validation(self, tmp_path, capsys,
                                                     setting):
        # noise_sd=nan used to switch the noise off silently and write NaN
        # into manifest.json.
        out = tmp_path / "g"
        code, captured = run(["generate", "--out", str(out), "--set", setting],
                             capsys)
        assert code == 3
        key = setting.split("=")[0]
        assert captured.err.startswith(f"validation: config key '{key}': not a finite")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_negative_seed_is_validation(self, tmp_path, capsys):
        # Was a ValueError traceback from numpy's default_rng.
        out = tmp_path / "g"
        code, captured = run(["generate", "--out", str(out), "--set", "seed=-1"],
                             capsys)
        assert code == 3
        assert captured.err == "validation: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("change", ["second sales", "f_1 as f_0"])
    def test_repeated_panel_column_is_validation(self, ws, tmp_path, capsys, change):
        # Each used to load, reading the last column of that name: every
        # actual 1.0, or both feature columns equal to the old f_1.
        paths = []
        for name in ("train.csv", "test.csv"):
            with open(ws / "data" / name, newline="") as fh:
                header, *rows = csv.reader(fh)
            if change == "second sales":
                header.append("sales")
                for row in rows:
                    row.append("1.0" if row[header.index("sales")] else "")
            else:
                header[header.index("f_1")] = "f_0"
            paths.append(tmp_path / name)
            with open(paths[-1], "w", newline="") as fh:
                csv.writer(fh).writerows([header, *rows])
        column = "sales" if change == "second sales" else "f_0"
        code, captured = run(["train", "--data", *map(str, paths),
                              "--out", str(tmp_path / "m"), *TRN], capsys)
        assert code == 3
        assert captured.err == (
            f"validation: {paths[0]}: column '{column}' appears more than once\n")
        assert not (tmp_path / "m").exists()

    def test_repeated_prediction_column_is_validation(self, ws, tmp_path, capsys):
        lines = (ws / "preds.csv").read_text().splitlines()
        pred = tmp_path / "p.csv"
        pred.write_text("\n".join(
            [lines[0] + ",stage1", *(line + ",0.0" for line in lines[1:])]) + "\n")
        code, captured = run(
            ["evaluate", "--pred", str(pred), "--truth", str(ws / "data" / "truth.csv"),
             "--out", str(tmp_path / "e.json")], capsys)
        assert code == 3
        assert captured.err == f"validation: {pred}: column 'stage1' appears more than once\n"

    @pytest.mark.parametrize("command", [
        "generate", "train", "predict", "evaluate", "diagnose",
    ])
    def test_out_below_a_file_is_persistence(self, ws, tmp_path, capsys, command):
        # generate and train used to end in a NotADirectoryError traceback.
        blocker = tmp_path / "file"
        blocker.write_text("")
        data = ["--data", str(ws / "data" / "train.csv"), str(ws / "data" / "test.csv")]
        argv = {
            "generate": [*SCN],
            "train": [*data, *TRN],
            "predict": [*data, "--models", str(ws / "models")],
            "evaluate": ["--pred", str(ws / "preds.csv"),
                         "--truth", str(ws / "data" / "truth.csv")],
            "diagnose": [*data, "--models", str(ws / "models")],
        }[command]
        code, captured = run([command, *argv, "--out", str(blocker / "out")], capsys)
        assert code == 5
        assert captured.err.startswith("persistence: cannot write ")
        assert captured.err.count("\n") == 1

    def test_train_claims_out_before_training(self, ws, tmp_path, capsys,
                                              monkeypatch):
        # train used to run the whole cascade before its first write failed.
        def no_training(*args, **kwargs):
            raise AssertionError("run_pipeline called")

        monkeypatch.setattr("triboost.cli.run_pipeline", no_training)
        blocker = tmp_path / "file"
        blocker.write_text("")
        data = ws / "data"
        code, captured = run([
            "train", "--data", str(data / "train.csv"), str(data / "test.csv"),
            "--out", str(blocker / "m"), *TRN,
        ], capsys)
        assert code == 5
        assert captured.err.startswith("persistence: ")
        assert captured.err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out


# sha256 of the files `train` and `predict --threads 1` write for the default
# scenario (`generate` with no options).  Changing the engine's arithmetic,
# tie-breaking or model format shows here; a pure speed-up must not.
GOLDEN_SHA256 = {
    "model_stage1.json": "4f46ea4f1be2d526adeff3328dc2763caf5b3686fcfd0be6637bdfacf5154117",
    "model_stage2.json": "0e287217b134b4431fb5e8a19c40b12de751dbf8b3fa51c77f50b64e14f0b46a",
    "model_stage3.json": "1eecbf064ebbf602b39b891558314d87d5a2bd43431493fc07a4ef89babd449f",
    "predictions.csv": "0fdc9929f8480e79fdeafb5482ba401a2b82f1192eb1c7257b35450d987d6a9d",
}


def test_default_scenario_outputs_are_golden(tmp_path):
    data, models = tmp_path / "data", tmp_path / "models"
    preds = models / "predictions.csv"
    data_args = ["--data", str(data / "train.csv"), str(data / "test.csv")]
    assert main(["generate", "--out", str(data)]) == 0
    assert main(["train", *data_args, "--out", str(models), "--threads", "1"]) == 0
    assert main(["predict", *data_args, "--models", str(models),
                 "--out", str(preds), "--threads", "1"]) == 0
    got = {name: hashlib.sha256((models / name).read_bytes()).hexdigest()
           for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


# The same files for 11-12 products a week.  Historical category totals are
# left-to-right sums of the week's sales; np.add.reduceat differs from them
# in the last bits on some weeks of this panel, which would show here.
WIDE_SCENARIO = ["--set", "num_products=12", "--set", "num_weeks_hist=24",
                 "--set", "num_weeks_future=6", "--set", "launch_schedule=P11:24"]
WIDE_GOLDEN_SHA256 = {
    "model_stage1.json": "c0342d128edb52b2b22f16dd087d38ae2c0b78ebb81a964ca9e889f545c1915b",
    "model_stage2.json": "306e55cd9b3dfa3f292a46c8eaf4c98b2e98c27c86c0fdb6601f943bce9e7c48",
    "model_stage3.json": "daae794ad6c163c3d1137661ca085e080eeadf366868eff8c6cb5b599825e149",
    "predictions.csv": "56926a016c33778fd02bfeb69ffab368e90d7ac9b00f1ee11bfa237526d8f901",
}


def test_wide_week_outputs_are_golden(tmp_path):
    data, models = tmp_path / "data", tmp_path / "models"
    preds = models / "predictions.csv"
    data_args = ["--data", str(data / "train.csv"), str(data / "test.csv")]
    assert main(["generate", "--out", str(data), *WIDE_SCENARIO]) == 0
    assert main(["train", *data_args, "--out", str(models), "--threads", "1",
                 "--set", "num_rounds=20"]) == 0
    assert main(["predict", *data_args, "--models", str(models),
                 "--out", str(preds), "--threads", "1"]) == 0
    got = {name: hashlib.sha256((models / name).read_bytes()).hexdigest()
           for name in WIDE_GOLDEN_SHA256}
    assert got == WIDE_GOLDEN_SHA256


# sha256 of the CSVs `generate` writes for the default and the wide scenario,
# and of the default `train` manifest (config echo, loss curves and
# diagnostics), recorded before the panel became columnar.  Run from the
# output directory so the manifest's data paths are the same on every run.
# The multi-launch scenario has a historical launch, a launch in the first
# future week and one mid-horizon, so `f_1`/`f_2` see several launch events
# and one product's lag starts inside the forecast window; its files and
# both `generate` manifests were recorded before `generate` became columnar.
MULTI_LAUNCH_SCENARIO = ["--set", "num_products=6",
                         "--set", "launch_schedule=P3:40,P4:80,P5:90"]
GENERATE_GOLDEN_SHA256 = {
    "data/train.csv": "12c058db87172850a1dfaa5446050c0604e970fcc119e8b5973306ae45c1b549",
    "data/test.csv": "cf8ab11e1b49cba6425c42b4a31c4b4c1763aaf2b50aa1fec715892ccaf34e32",
    "data/truth.csv": "f8caa17f4da1123c1832f350e7ac2a0664c923425552b149fb3d286cac67bdf4",
    "wide/train.csv": "7b6f42ac0242deaca1e35ad45a3eddf346f4a7ef2b3ff6c45fa14b13b97f3818",
    "wide/test.csv": "9d0115776a0f8b80296824c9b3c67c98378243d9b9fcdcd32c033ce67e5d4b49",
    "wide/truth.csv": "6ddcfdfd0478e7f7bea3f118eb42c63adb6f8f0ae4cd9a512c0a5809e1afab7e",
    "models/manifest.json": "430baf4cea7e665d55b0dae6f1a7f9ce641d0c07d60d034022d7c755a95b5d7e",
    "data/manifest.json": "4889ef3fa0ec1c5550852c38c8dc3326bba2067f746043a70905b555a80fcc71",
    "multi/train.csv": "9846ef2740f6b9eb639d2aa71180fa94c7b0385eb11a3ff7e3c14ebe0a1ed28d",
    "multi/test.csv": "e86577f95ad416407a102fb07525aaebf4a43474a9cc5590ed869fb7a423bf6a",
    "multi/truth.csv": "5e4ffe6824e975d8b444bd12d25dbc8dc0bd20d87f9edf9a8693507530fdfa3b",
    "multi/manifest.json": "3abe46f37d054fb361e35606f88df15bc6844efa20f2f99cf951a7dc8abed59c",
}


def test_generated_csvs_and_train_manifest_are_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--out", "data"]) == 0
    assert main(["generate", "--out", "wide", *WIDE_SCENARIO]) == 0
    assert main(["generate", "--out", "multi", *MULTI_LAUNCH_SCENARIO]) == 0
    assert main(["train", "--data", "data/train.csv", "data/test.csv",
                 "--out", "models", "--threads", "1"]) == 0
    got = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
           for name in GENERATE_GOLDEN_SHA256}
    assert got == GENERATE_GOLDEN_SHA256


# sha256 of what `generate` writes for the benchmark's tall shape (tall-train:
# 10 products x 10,000 weeks, one launch), recorded while `generate` still
# drew one week at a time.  Its weeks fall in two blocks of 9 and 10
# products; above eight numbers np.add.reduce no longer adds left to right,
# so a share sum taken another way shows here.
TALL_SCENARIO = ["--set", "num_products=10", "--set", "num_weeks_hist=9980",
                 "--set", "num_weeks_future=20", "--set", "launch_schedule=P9:9980"]
TALL_GENERATE_GOLDEN_SHA256 = {
    "train.csv": "2fb69405e6f8065fb9cc25165544cf398601dfe55f94ba23be9f57b2e4781ca3",
    "test.csv": "51186ee9cb432bde0cbcc01f6cb5bc4b5becb12f370e3d553845336b87445eff",
    "truth.csv": "88cae0d13db539162fe7fc45b408a94afb08c2cae8612ef1400f7ca0317a538f",
    "manifest.json": "fc8f1e1afeca4780d2ff136d424b5e4a75ffc1951c6790aafd96e88ad35c9696",
}


def test_tall_generated_csvs_are_golden(tmp_path):
    assert main(["generate", "--out", str(tmp_path), *TALL_SCENARIO]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in TALL_GENERATE_GOLDEN_SHA256}
    assert got == TALL_GENERATE_GOLDEN_SHA256
