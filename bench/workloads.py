"""The three benchmark workloads: inputs, one job, and the job's outputs.

Every panel comes from ``triboost.scenario.generate`` with the scenario's
default seed, so the deterministic quality metrics mean the same thing on
every run.  The benchmark seed shuffles the data rows of every CSV file the
program reads; the program has to sort them back, and its outputs must not
depend on the order.

A workload's ``run`` is the timed job.  ``collect`` runs after the clock
stops: it hashes the models and predictions and gathers the vectors the
output checks need.  Set-up keeps only the files it wrote and what the job
takes as input; the panel the checks compare against is generated again
after the jobs (``expected``), so the benchmark holds no copy of it while a
job runs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from triboost import cli, gbdt, panel, pipeline, scenario
from triboost.gbdt import TrainConfig
from triboost.pipeline import PipelineConfig
from triboost.scenario import ScenarioConfig

DEFAULT_SCENARIO = ScenarioConfig()
# 10 products x 10,000 weeks.  Wider panels (ROADMAP's 500 x 200) make the
# stage-2 fit of the current objectives overflow, so they would time a
# broken fit.
TALL_SCENARIO = ScenarioConfig(
    num_products=10,
    num_weeks_hist=9980,
    num_weeks_future=20,
    launch_schedule={"P9": 9980},
)
# 50 products per week: the rows-per-week property the weekly-sum curvature
# depends on; the constraint-only probe diverges here.
WIDE_SCENARIO = ScenarioConfig(
    num_products=50,
    num_weeks_hist=90,
    num_weeks_future=10,
    launch_schedule={"P49": 90},
)
TALL_TRAIN_CONFIG = PipelineConfig(stage1=TrainConfig(num_rounds=20))
STAGES = tuple(cli.MODEL_FILES)


class JobFailed(Exception):
    """A job ran to the end but reported failure (non-zero exit code)."""


@dataclass(frozen=True)
class Inputs:
    """What set-up leaves for the jobs: the CSV files the program reads
    (``train``, ``test``, ``truth``), and the dataset a job starts from."""

    files: dict[str, Path]
    dataset: panel.PanelDataset | None = None  # as the program loaded it

    def data_args(self) -> list[str]:
        return [str(self.files["train"]), str(self.files["test"])]


@dataclass(frozen=True)
class JobOutput:
    model_digests: dict[str, str]
    predictions_digest: str
    preds: dict[str, np.ndarray]  # stage name -> row-aligned predictions
    stage3_targets: np.ndarray | None  # None: rebuilt from the stage-1 predictions
    row_keys_digest: str | None  # of the (product, week) of each CSV row
    probe_rel_gap: float | None


def write_panel(config: ScenarioConfig, directory: Path, rng: random.Random) -> dict[str, Path]:
    dataset, truth = scenario.generate(config)
    files = scenario.write_scenario(dataset, truth, directory)
    for path in files.values():
        _shuffle_rows(path, rng)
    return files


def expected(workload) -> tuple[panel.PanelDataset, scenario.GroundTruth]:
    """The panel a workload's predictions are checked and scored against."""
    return scenario.generate(workload.scenario_config)


def _shuffle_rows(path: Path, rng: random.Random) -> None:
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rng.shuffle(rows)
    path.write_text(header + "".join(rows), encoding="utf-8")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(*argv: object) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise JobFailed(f"triboost {argv[0]} exited with code {code}")


def row_keys_digest(keys) -> str:
    """sha256 of (product, week) keys, one ``product,week`` line each."""
    return hashlib.sha256("".join(f"{p},{w}\n" for p, w in keys).encode()).hexdigest()


def _model_digests(models: Path) -> dict[str, str]:
    return {stage: sha256_file(models / cli.MODEL_FILES[stage]) for stage in STAGES}


def _save_models(result: pipeline.PipelineResult, models: Path) -> None:
    models.mkdir(parents=True, exist_ok=True)
    for stage in STAGES:
        gbdt.save_model(getattr(result, stage).model, models / cli.MODEL_FILES[stage])


def _csv_output(models: Path, preds_csv: Path, probe_rel_gap) -> JobOutput:
    """Outputs of a CLI ``predict``, with a digest of the rows' keys so the
    check can hold them to the dataset's order."""
    with preds_csv.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return JobOutput(
        model_digests=_model_digests(models),
        predictions_digest=sha256_file(preds_csv),
        preds={s: np.array([float(r[s]) for r in rows]) for s in STAGES},
        stage3_targets=None,
        row_keys_digest=row_keys_digest((r["product_id"], int(r["week"])) for r in rows),
        probe_rel_gap=probe_rel_gap,
    )


def _result_output(result: pipeline.PipelineResult, models: Path) -> JobOutput:
    """Outputs of an in-process ``run_pipeline``; predictions are hashed as
    the stage-1, 2, 3 float64 vectors in that order."""
    preds = {s: getattr(result, s).preds for s in STAGES}
    digest = hashlib.sha256()
    for stage in STAGES:
        digest.update(np.ascontiguousarray(preds[stage], dtype=np.float64).tobytes())
    diagnostics = result.diagnostics
    return JobOutput(
        model_digests=_model_digests(models),
        predictions_digest=digest.hexdigest(),
        preds=preds,
        stage3_targets=result.outputs.stage3_targets.values,
        row_keys_digest=None,
        probe_rel_gap=None if diagnostics is None else diagnostics.trivial_probe_max_rel_gap,
    )


class DefaultCli:
    """The README/test panel (420 rows, 5 products a week) through CLI
    train, predict and evaluate: per-call overhead of ~25k small split
    searches.  One thread, as on every workload: on a shared host a second
    thread's job time follows the host's scheduling (see README)."""

    name = "default-cli"
    threads = 1
    scenario_config = DEFAULT_SCENARIO

    def setup(self, work: Path, rng: random.Random) -> Inputs:
        return Inputs(write_panel(self.scenario_config, work / "data", rng))

    def run(self, inputs: Inputs, out: Path) -> None:
        models, preds, report = out / "models", out / "predictions.csv", out / "eval.json"
        threads = ("--threads", self.threads)
        _cli("train", "--data", *inputs.data_args(), "--out", models, *threads)
        _cli("predict", "--data", *inputs.data_args(), "--models", models, "--out", preds, *threads)
        _cli("evaluate", "--pred", preds, "--truth", inputs.files["truth"], "--out", report)

    def collect(self, inputs: Inputs, out: Path, _) -> JobOutput:
        manifest = json.loads((out / "models" / "manifest.json").read_text(encoding="utf-8"))
        gap = manifest["diagnostics"]["trivial_probe"]["max_rel_gap"]
        return _csv_output(out / "models", out / "predictions.csv", gap)


class TallTrain:
    """90,020 rows (10 products x 10,000 weeks), 20 rounds, no
    diagnostics: split search bound by O(n) scans, CSV load, model save.
    One thread, as on every workload: on a shared host a second thread's
    job time follows the host's scheduling (see README)."""

    name = "tall-train"
    threads = 1
    scenario_config = TALL_SCENARIO

    def setup(self, work: Path, rng: random.Random) -> Inputs:
        return Inputs(write_panel(self.scenario_config, work / "data", rng))

    def run(self, inputs: Inputs, out: Path) -> pipeline.PipelineResult:
        dataset = panel.load_panel_csv(inputs.data_args())
        result = pipeline.run_pipeline(
            dataset, TALL_TRAIN_CONFIG, n_threads=self.threads, with_diagnostics=False
        )
        _save_models(result, out / "models")
        return result

    def collect(self, inputs: Inputs, out: Path, result) -> JobOutput:
        return _result_output(result, out / "models")


class WideCascade:
    """50 products a week (4,910 rows), default config with diagnostics on
    one thread: many rows per week, and the constraint-only probe
    diverges."""

    name = "wide-cascade"
    threads = 1
    scenario_config = WIDE_SCENARIO

    def setup(self, work: Path, rng: random.Random) -> Inputs:
        inputs = Inputs(write_panel(self.scenario_config, work / "data", rng))
        return replace(inputs, dataset=panel.load_panel_csv(inputs.data_args()))

    def run(self, inputs: Inputs, out: Path) -> pipeline.PipelineResult:
        return pipeline.run_pipeline(inputs.dataset, n_threads=self.threads)

    def collect(self, inputs: Inputs, out: Path, result) -> JobOutput:
        _save_models(result, out / "models")
        return _result_output(result, out / "models")


WORKLOADS = {w.name: w for w in (DefaultCli(), TallTrain(), WideCascade())}


def reset_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
